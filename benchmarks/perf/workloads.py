"""The benchmark's four pinned workloads, each a seeded list of sweep points.

Every workload is built from the same :class:`~repro.parallel.SweepPoint`
lists the experiment drivers build, so a unit runs through
:func:`repro.parallel.tasks.execute` exactly as a sweep worker runs it:
``run_single_tenant`` for the harness points, ``fleet_point`` for the
fleet drain and ``fuzz_point`` for the chaos schedules.  The seed is
the only input; the same seed always yields the same units.

All four simulate open-loop Poisson clients at MPL 10, and each
transaction's latency runs from its arrival to its commit, so queueing
counts, as in the paper.

``small=True`` shrinks every workload to a handful of tiny units.  It
exists only so the self-tests finish quickly; the benchmark command
never sets it.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import CASE_STUDY, EVALUATION
from repro.experiments import chaos_fuzz, fig7_tradeoff, fig11_setpoint_sweep, fleet_sweep
from repro.experiments.common import scaled_config
from repro.parallel import SweepPoint
from repro.simulation import RandomStreams
from repro.workload.mix import YCSB_A

__all__ = ["WORKLOADS", "build"]

#: PID setpoints of ``pid-1g``, seconds (the paper's Figure 11 range).
PID_SETPOINTS = (0.5, 1.0, 2.0, 3.5)
#: Config seeds per setpoint in ``pid-1g``: S .. S + PID_CONFIG_SEEDS - 1.
PID_CONFIG_SEEDS = 4
#: ``methods-write`` tenant scale: 128 MB of data behind a 32 MB pool.
METHODS_SCALE = 0.125
#: Config seeds of ``methods-write``: S .. S + METHODS_CONFIG_SEEDS - 1.
#: Many small tenants in place of one large one average out the spread
#: that the seed's arrival sequence puts into ``txn_per_s``.
METHODS_CONFIG_SEEDS = 4
#: Fixed throttle rates of ``methods-write``, MB/s.
METHODS_RATES_MB = (4, 8, 12)
#: Fluid chunk count of ``methods-write`` (the fig7 default).
METHODS_FLUID_CHUNKS = 16
#: Size of each fleet of ``fleet-drain``.
FLEET_NODES = 50
FLEET_TENANTS = 500
#: Fleets of ``fleet-drain``, built from config seeds S .. S + FLEET_CONFIG_SEEDS - 1.
#: How long a drain runs, and so the work and the memory, follows the
#: seed; averaging over fleets cuts what that puts into the spread.
FLEET_CONFIG_SEEDS = 2
#: Schedules per path (live, then fluid) of ``chaos-fuzz``.
FUZZ_SCHEDULES = 20
#: Fluid chunk count of the fluid half of ``chaos-fuzz``.
FUZZ_FLUID_CHUNKS = 8
#: ``chaos-fuzz`` draws its schedules from 0 .. FUZZ_POOL - 1, run at the
#: fuzzer's own config seed.
FUZZ_POOL = 1000
#: Schedules of the pool that crash ``fuzz_point``: a send process
#: started by ``SlackerNode._send_tolerant`` fails with a DeliveryError
#: that nobody waits for, so it escapes ``Environment.run``.  Left out
#: until that is fixed, since the benchmark needs workloads on which no
#: unit fails.
FUZZ_CRASH_LIVE = frozenset({195, 317, 407, 442})
#: Further schedules that crash the same way on the fluid path only.
FUZZ_CRASH_FLUID = frozenset({320, 355, 618})


def _pid_1g(seed: int, small: bool) -> list[SweepPoint]:
    scale, setpoints, seeds = (
        (0.0625, PID_SETPOINTS[1:2], 1) if small
        else (1.0, PID_SETPOINTS, PID_CONFIG_SEEDS)
    )
    points = []
    for config_seed in range(seed, seed + seeds):
        cfg = scaled_config(EVALUATION, scale, config_seed)
        for point in fig11_setpoint_sweep.sweep_points(
            cfg, fixed_rates_mb=(), setpoints=setpoints
        ):
            points.append(
                replace(point, label=f"pid@{point.spec.setpoint:g}s/seed{config_seed}")
            )
    return points


def _methods_write(seed: int, small: bool) -> list[SweepPoint]:
    config = replace(CASE_STUDY, workload=replace(CASE_STUDY.workload, mix=YCSB_A))
    scale, rates, seeds = (
        (0.0625, (8,), 1) if small
        else (METHODS_SCALE, METHODS_RATES_MB, METHODS_CONFIG_SEEDS)
    )
    # Stop-and-copy ignores the rate and on-demand's push throttle does
    # not bind above 8 MB/s, so one point of each covers their engines.
    keep = {f"{method}@{rate}MB" for method in ("live", "fluid") for rate in rates}
    keep |= {"stop-and-copy@8MB", "on-demand@8MB"}
    return [
        replace(point, label=f"{point.label}/seed{config_seed}")
        for config_seed in range(seed, seed + seeds)
        for point in fig7_tradeoff.extended_points(
            config, scale=scale, seed=config_seed, chunks=METHODS_FLUID_CHUNKS
        )
        if point.label in keep
    ]


def _fleet_drain(seed: int, small: bool) -> list[SweepPoint]:
    nodes, tenants, seeds = (
        (10, 100, 1) if small
        else (FLEET_NODES, FLEET_TENANTS, FLEET_CONFIG_SEEDS)
    )
    return [
        replace(point, label=f"drain/seed{config_seed}")
        for config_seed in range(seed, seed + seeds)
        for point in fleet_sweep.sweep_points(
            None, nodes=nodes, tenants=tenants, seed=config_seed
        )
        if point.label == "drain"
    ]


def _chaos_fuzz(seed: int, small: bool) -> list[SweepPoint]:
    count = 2 if small else FUZZ_SCHEDULES
    draw = RandomStreams(seed).stream("perf:fuzz-schedules")
    live = draw.sample(_fuzz_pool(FUZZ_CRASH_LIVE), count)
    fluid = draw.sample(_fuzz_pool(FUZZ_CRASH_LIVE | FUZZ_CRASH_FLUID), count)
    points = []
    for schedules, chunks, path in ((live, 0, "live"), (fluid, FUZZ_FLUID_CHUNKS, "fluid")):
        for schedule in schedules:
            (point,) = chaos_fuzz.fuzz_points(
                1, first_schedule=schedule, fluid_chunks=chunks
            )
            points.append(replace(point, label=f"{point.label}/{path}"))
    return points


def _fuzz_pool(excluded: frozenset) -> list[int]:
    return [s for s in range(FUZZ_POOL) if s not in excluded]


WORKLOADS = {
    "pid-1g": _pid_1g,
    "methods-write": _methods_write,
    "fleet-drain": _fleet_drain,
    "chaos-fuzz": _chaos_fuzz,
}


def build(name: str, seed: int, small: bool = False) -> list[SweepPoint]:
    """The units of workload ``name`` for ``seed``."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return builder(seed, small)
