"""Pinned kernel event counts for one point of each experiment family.

Event counts are deterministic: the same seed processes the same
events, grants the same resources in place and holds the same bursts
in place on every host.  So they are pinned exactly, and a change that
adds kernel events to a fig5, on-demand, fluid, chaos-fuzz or
fleet-drain point fails here instead of going unnoticed in a wall-clock
benchmark.

The sum of the three counts is what the same trajectory costs when
every grant and every hold is an event, so it moves only when the
trajectory itself does; the split moves when the kernel gets cheaper.

A change that removes events on purpose updates these numbers and says
so in CHANGES.md.

Every point runs under cProfile with observability off, and no function
under ``repro/obs/`` may run: the obs layer's "zero cost when off" is
checked by count here, not by timing.
"""

from __future__ import annotations

import cProfile
import pstats

from repro.core.config import CASE_STUDY, EVALUATION
from repro.experiments import harness as harness_mod
from repro.experiments.chaos_fuzz import fuzz_point
from repro.experiments.common import scaled_config
from repro.experiments.fleet_sweep import fleet_point
from repro.experiments.harness import MigrationSpec
from repro.parallel.tasks import single_tenant_point
from repro.resources.units import mb_per_sec
from repro.simulation import Environment


def _counts(env):
    return env.processed_events, env.inline_grants, env.inline_holds


def _unobserved(point):
    """Run ``point()`` under cProfile; fail if any ``repro/obs`` function ran."""
    profile = cProfile.Profile()
    result = profile.runcall(point)
    ran = sorted(
        f"{name} ({path}:{line})"
        for path, line, name in pstats.Stats(profile).stats
        if "/repro/obs/" in path.replace("\\", "/")
    )
    assert not ran, f"observability is off, yet obs code ran: {ran}"
    return result


def _harness_counts(point):
    """Run ``point()`` and return the event counts of the env it built."""
    made = []

    class Recorded(Environment):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    original = harness_mod.Environment
    harness_mod.Environment = Recorded
    try:
        _unobserved(point)
    finally:
        harness_mod.Environment = original
    (env,) = made
    return _counts(env)


def _fig5_config():
    return scaled_config(CASE_STUDY, 0.06, None), MigrationSpec.fixed(mb_per_sec(8))


def test_fig5_throttle_point():
    cfg, spec = _fig5_config()
    counts = _harness_counts(
        lambda: single_tenant_point(cfg, spec, warmup=2.0, cooldown=1.0)
    )
    assert counts == (1933, 913, 1348)


def test_on_demand_point():
    """Every transaction on the cold target runs ``PartialReplicaEngine._access_page``."""
    cfg, _ = _fig5_config()
    spec = MigrationSpec.on_demand(mb_per_sec(8))
    counts = _harness_counts(
        lambda: single_tenant_point(cfg, spec, warmup=2.0, cooldown=1.0)
    )
    assert counts == (18896, 9687, 16687)


def test_fluid_point():
    """Transactions during the migration run through the ``FluidRouter``."""
    cfg, _ = _fig5_config()
    spec = MigrationSpec.fluid(mb_per_sec(8))
    counts = _harness_counts(
        lambda: single_tenant_point(cfg, spec, warmup=2.0, cooldown=1.0)
    )
    assert counts == (1738, 908, 1306)


def test_chaos_fault_injection_point():
    cfg, _ = _fig5_config()
    counts = _harness_counts(
        lambda: fuzz_point(
            cfg,
            label="drop-20",
            messages={"drop_prob": 0.20, "dup_prob": 0.05},
            warmup=2.0,
            run_limit=120.0,
        )
    )
    assert counts == (8407, 4588, 6467)


def test_fleet_drain_point():
    record = _unobserved(
        lambda: fleet_point(
            scaled_config(EVALUATION, 0.125, 11),
            MigrationSpec.dynamic(1.0),
            label="drain",
            scenario="drain",
            nodes=4,
            tenants=12,
            warmup=10.0,
            run_limit=400.0,
        )
    )
    assert record.ok
    counts = (record.events, record.inline, record.held)
    assert counts == (802, 1943, 1980)
