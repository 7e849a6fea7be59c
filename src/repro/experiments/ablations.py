"""Ablation studies for the design choices DESIGN.md calls out.

Each function isolates one design decision of the paper and measures
the alternative:

* :func:`run_pid_forms` — velocity form (paper) vs. classical
  positional form: integral windup under a mid-migration load surge
  (Section 4.2.3's motivation for the velocity algorithm).
* :func:`run_window_sizes` — the 3 s sliding window / 1 s timestep
  choice (Section 4.2.3) against shorter and longer windows.
* :func:`run_open_vs_closed` — the open workload generator (Section
  5.1.2, after Schroeder et al.) against YCSB's closed generator under
  an over-slack migration: only the open system exposes the overload.
* :func:`run_gain_variants` — the paper's hand-tuned gains (small Ki,
  large Kd) against proportional-heavy and integral-heavy variants.

Every ablation is a sweep of independent seed-deterministic runs, so
each driver builds :class:`~repro.parallel.SweepPoint` lists over the
module-level task functions below (``pid_form_point`` etc.) and
executes them through :class:`~repro.parallel.SweepRunner` — pass
``jobs=N`` to fan the variants across processes, ``cache=`` to memoize
them on disk.  Results are bit-identical to serial runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..control.pid import PAPER_GAINS, PidGains, PositionalPidController
from ..control.window import LatencyWindow
from ..core.config import EVALUATION, ExperimentConfig
from ..migration.controller import ControllerConfig, DynamicThrottleController
from ..migration.fluid import FluidMigration
from ..migration.throttle import Throttle
from ..parallel import ResultCache, SweepPoint, SweepRunner
from ..resources.units import MB, mb_per_sec, to_millis
from ..simulation import Environment, RandomStreams, Trace
from ..workload.client import BenchmarkClient, ClosedBenchmarkClient
from ..middleware.cluster import SlackerCluster
from ..middleware.node import NodeConfig
from .common import scaled_config
from .harness import MigrationSpec, attach_workload, run_single_tenant

__all__ = [
    "PidFormResult",
    "run_pid_forms",
    "WindowResult",
    "run_window_sizes",
    "OpenClosedResult",
    "run_open_vs_closed",
    "GainResult",
    "run_gain_variants",
]

#: Task paths of this module's worker entry points (see repro.parallel.tasks).
PID_FORM_TASK = "repro.experiments.ablations:pid_form_point"
WINDOW_SIZE_TASK = "repro.experiments.ablations:window_size_point"
OPEN_CLOSED_TASK = "repro.experiments.ablations:open_closed_point"


# -- shared low-level run: a dynamic migration with a chosen controller -------


def _controlled_migration(
    config: ExperimentConfig,
    setpoint: float,
    controller_factory,
    warmup: float,
    surge_factor: Optional[float] = None,
    surge_at: Optional[float] = None,
):
    """Run one migration driven by a custom latency controller.

    Returns (trace, outcome dict) with the latency series, the throttle
    series, and the migration result.
    """
    streams = RandomStreams(config.seed)
    env = Environment()
    cluster = SlackerCluster(
        env,
        ["source", "target"],
        server_params=config.server,
        node_config=NodeConfig(
            buffer_bytes=config.tenant.buffer_bytes,
            max_migration_rate=config.max_migration_rate,
            chunk_bytes=config.chunk_bytes,
        ),
        streams=streams,
    )
    trace = Trace()
    source = cluster.node("source")
    tenant = source.create_tenant(1, config.tenant.data_bytes)
    client, arrivals = attach_workload(
        cluster, config, tenant, streams, trace, series="latency"
    )
    client.start()

    def experiment():
        yield env.timeout(warmup)
        start = env.now
        throttle = Throttle(env, rate=0.0)
        migration = FluidMigration(
            env,
            tenant.engine,
            cluster.node("target").server,
            throttle,
            chunk_bytes=config.chunk_bytes,
            on_handover=lambda engine: setattr(tenant, "engine", engine),
        )
        migration_proc = env.process(migration.run())
        window = LatencyWindow([trace.series("latency")])
        controller = DynamicThrottleController(
            env,
            throttle,
            [window],
            ControllerConfig(
                setpoint=setpoint, max_rate=config.max_migration_rate
            ),
            controller=controller_factory(setpoint),
            trace=trace,
            name="ablation",
        )
        env.process(controller.run(until=migration_proc))
        if surge_factor is not None:

            def surge():
                yield env.timeout(surge_at)
                arrivals.scale_rate(surge_factor)

            env.process(surge())
        result = yield migration_proc
        throttle.stop()
        controller.stop()
        return start, env.now, result

    proc = env.process(experiment())
    start, end, result = env.run(until=proc)
    client.stop()
    return trace, {"start": start, "end": end, "result": result}


def _window_mean(trace: Trace, series: str, start: float, end: float) -> float:
    values = trace.series(series).window_values(start, end)
    if not values:
        return math.nan
    return sum(values) / len(values)


# -- 1. velocity vs positional PID ------------------------------------------------


@dataclass
class PidFormResult:
    """One controller form's behaviour across a mid-migration surge."""

    form: str
    mean_latency: float
    #: Worst 3-second-window latency seen after the surge, seconds.
    post_surge_peak: float
    #: Seconds (controller steps) the window latency spent at more than
    #: twice the setpoint after the surge.
    seconds_far_above_setpoint: float
    migration_duration: float


def pid_form_point(
    config: ExperimentConfig,
    spec: MigrationSpec,
    form: str,
    surge_factor: float,
    surge_at: float,
) -> PidFormResult:
    """Worker task: one controller form's behaviour across a surge."""

    def velocity_factory(sp):
        return None  # DynamicThrottleController's default (velocity form)

    def positional_factory(sp):
        return PositionalPidController(
            PAPER_GAINS, setpoint=to_millis(sp), output_min=0.0, output_max=100.0
        )

    setpoint = spec.setpoint
    factory = velocity_factory if form == "velocity" else positional_factory
    trace, info = _controlled_migration(
        config, setpoint, factory, warmup=10.0,
        surge_factor=surge_factor, surge_at=surge_at,
    )
    start, end = info["start"], info["end"]
    window_series = trace.series("ablation:window_latency")
    post = window_series.between(start + surge_at, end)
    peak = max(post.values) if post.values else math.nan
    far_above = sum(1.0 for v in post.values if v > 2 * setpoint)
    return PidFormResult(
        form=form,
        mean_latency=_window_mean(trace, "latency", start, end),
        post_surge_peak=peak,
        seconds_far_above_setpoint=far_above,
        migration_duration=end - start,
    )


def run_pid_forms(
    scale: float = 0.5,
    config: Optional[ExperimentConfig] = None,
    setpoint: float = 1.0,
    surge_factor: float = 2.0,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    pool=None,
) -> dict[str, PidFormResult]:
    """Velocity (paper) vs. positional PID across a workload surge.

    The workload starts *light* (half rate) so the controller sits far
    below the setpoint for a long time — the windup trap — then surges.
    """
    base = scaled_config(config or EVALUATION, scale)
    light = replace(
        base, workload=replace(base.workload, arrival_rate=base.workload.arrival_rate / 2)
    )
    surge_at = 15.0 * max(scale, 0.25)
    points = [
        SweepPoint(
            label=form,
            config=light,
            spec=MigrationSpec.dynamic(setpoint),
            task=PID_FORM_TASK,
            kwargs={
                "form": form,
                "surge_factor": surge_factor,
                "surge_at": surge_at,
            },
        )
        for form in ("velocity", "positional")
    ]
    return SweepRunner(jobs=jobs, cache=cache, pool=pool).run_labelled(points)


# -- 2. window size / timestep -----------------------------------------------------


@dataclass
class WindowResult:
    """Controller stability at one window size."""

    window: float
    mean_latency: float
    latency_stddev: float
    throttle_stddev: float
    migration_duration: float


def window_size_point(
    config: ExperimentConfig, spec: MigrationSpec, window: float
) -> WindowResult:
    """Worker task: controller stability at one sliding-window size."""
    setpoint = spec.setpoint
    streams = RandomStreams(config.seed)
    env = Environment()
    cluster = SlackerCluster(
        env, ["source", "target"], server_params=config.server,
        node_config=NodeConfig(
            buffer_bytes=config.tenant.buffer_bytes,
            max_migration_rate=config.max_migration_rate,
            chunk_bytes=config.chunk_bytes,
            window=window,
        ),
        streams=streams,
    )
    trace = Trace()
    source = cluster.node("source")
    tenant = source.create_tenant(1, config.tenant.data_bytes)
    client, _ = attach_workload(
        cluster, config, tenant, streams, trace, series="latency"
    )
    client.start()
    source.attach_latency_series(1, trace.series("latency"))

    def experiment():
        yield env.timeout(10.0)
        start = env.now
        result = yield env.process(
            source.migrate_tenant(1, "target", setpoint=setpoint)
        )
        return start, env.now, result

    proc = env.process(experiment())
    start, end, _result = env.run(until=proc)
    client.stop()
    latencies = trace.series("latency").window_values(start, end)
    throttle = source.trace["source:mig-1:throttle_rate"]
    mean = sum(latencies) / len(latencies) if latencies else math.nan
    std = (
        math.sqrt(sum((v - mean) ** 2 for v in latencies) / len(latencies))
        if latencies
        else math.nan
    )
    return WindowResult(
        window=window,
        mean_latency=mean,
        latency_stddev=std,
        throttle_stddev=throttle.stddev(),
        migration_duration=end - start,
    )


def run_window_sizes(
    scale: float = 0.5,
    config: Optional[ExperimentConfig] = None,
    setpoint: float = 1.0,
    windows: Sequence[float] = (1.0, 3.0, 9.0),
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    pool=None,
) -> dict[float, WindowResult]:
    """Sweep the sliding-window size around the paper's 3 s choice."""
    base = scaled_config(config or EVALUATION, scale)
    points = [
        SweepPoint(
            label=window,
            config=base,
            spec=MigrationSpec.dynamic(setpoint),
            task=WINDOW_SIZE_TASK,
            kwargs={"window": window},
        )
        for window in windows
    ]
    return SweepRunner(jobs=jobs, cache=cache, pool=pool).run_labelled(points)


# -- 3. open vs closed workload generator ------------------------------------------


@dataclass
class OpenClosedResult:
    """Behaviour of one generator type under an over-slack migration."""

    generator: str
    mean_latency: float
    final_third_latency: float
    completed: int
    diverged: bool


def _open_generator_point(config: ExperimentConfig, spec: MigrationSpec):
    """Open generator: the standard harness path."""
    from ..analysis.stats import is_diverging

    outcome = run_single_tenant(config, spec, warmup=10)
    series = outcome.tenants[0].latency
    start, end = outcome.window_start, outcome.window_end
    span = end - start
    tail = series.window_values(end - span / 3, end)
    return OpenClosedResult(
        generator="open",
        mean_latency=outcome.mean_latency,
        final_third_latency=sum(tail) / len(tail) if tail else math.nan,
        completed=outcome.tenants[0].completed,
        diverged=is_diverging(series, start, end),
    )


def _closed_generator_point(config: ExperimentConfig, spec: MigrationSpec):
    """Closed generator: same tenant/migration, MPL virtual users."""
    from ..analysis.stats import is_diverging
    from ..workload.distributions import UniformChooser
    from ..workload.generator import TransactionFactory

    streams = RandomStreams(config.seed)
    env = Environment()
    cluster = SlackerCluster(
        env, ["source", "target"], server_params=config.server,
        node_config=NodeConfig(
            buffer_bytes=config.tenant.buffer_bytes,
            max_migration_rate=config.max_migration_rate,
            chunk_bytes=config.chunk_bytes,
        ),
        streams=streams,
    )
    trace = Trace()
    source = cluster.node("source")
    tenant = source.create_tenant(1, config.tenant.data_bytes)
    # Build the same factory the open client would use.
    layout = tenant.engine.layout
    factory = TransactionFactory(
        layout,
        UniformChooser(layout.num_rows, streams.stream("keys")),
        streams.stream("ops"),
        mix=config.workload.mix,
        ops_per_txn=config.workload.ops_per_txn,
    )
    client = ClosedBenchmarkClient(
        env, tenant, factory, mpl=config.workload.mpl, trace=trace, series="latency"
    )
    client.start()

    def experiment():
        yield env.timeout(10.0)
        start = env.now
        result = yield env.process(
            source.migrate_tenant(1, "target", fixed_rate=spec.rate)
        )
        return start, env.now, result

    proc = env.process(experiment())
    start, end, _ = env.run(until=proc)
    client.stop()
    series = trace.series("latency")
    span = end - start
    values = series.window_values(start, end)
    tail = series.window_values(end - span / 3, end)
    return OpenClosedResult(
        generator="closed",
        mean_latency=sum(values) / len(values) if values else math.nan,
        final_third_latency=sum(tail) / len(tail) if tail else math.nan,
        completed=len(values),
        diverged=is_diverging(series, start, end),
    )


def open_closed_point(
    config: ExperimentConfig, spec: MigrationSpec, generator: str
) -> OpenClosedResult:
    """Worker task: one generator type under an over-slack migration."""
    if generator == "open":
        return _open_generator_point(config, spec)
    return _closed_generator_point(config, spec)


def run_open_vs_closed(
    scale: float = 0.5,
    config: Optional[ExperimentConfig] = None,
    overload_rate_mb: float = 16.0,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    pool=None,
) -> dict[str, OpenClosedResult]:
    """Only the open generator exposes overload (Figure 6's premise).

    The closed generator couples arrivals to completions, so under the
    same over-slack migration it self-throttles: latency stays bounded
    while *throughput* silently collapses — Schroeder et al.'s trap.
    """
    from ..core.config import CASE_STUDY

    base = scaled_config(config or CASE_STUDY, scale)
    points = [
        SweepPoint(
            label=generator,
            config=base,
            spec=MigrationSpec.fixed(mb_per_sec(overload_rate_mb)),
            task=OPEN_CLOSED_TASK,
            kwargs={"generator": generator},
        )
        for generator in ("open", "closed")
    ]
    return SweepRunner(jobs=jobs, cache=cache, pool=pool).run_labelled(points)


# -- 4. gain variants ----------------------------------------------------------------


@dataclass
class GainResult:
    """One gain set's control quality."""

    label: str
    gains: PidGains
    mean_latency: float
    latency_stddev: float
    #: Standard deviation of the throttle rate (oscillation measure).
    throttle_stddev: float
    average_rate_mb: float


def run_gain_variants(
    scale: float = 0.5,
    config: Optional[ExperimentConfig] = None,
    setpoint: float = 1.0,
    variants: Optional[dict[str, PidGains]] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    pool=None,
) -> dict[str, GainResult]:
    """The paper's gains vs. integral-heavy and derivative-free sets."""
    base = scaled_config(config or EVALUATION, scale)
    if variants is None:
        variants = {
            "paper (Kd large, Ki small)": PAPER_GAINS,
            "integral-heavy": PidGains(kp=0.025, ki=0.05, kd=0.0),
            "no-derivative": PidGains(kp=0.025, ki=0.005, kd=0.0),
        }
    points = [
        SweepPoint(
            label=label,
            config=replace(base, gains=gains),
            spec=MigrationSpec.dynamic(setpoint),
            kwargs={"warmup": 10},
        )
        for label, gains in variants.items()
    ]
    records = SweepRunner(jobs=jobs, cache=cache, pool=pool).run_labelled(points)
    return {
        label: GainResult(
            label=label,
            gains=gains,
            mean_latency=record.mean_latency,
            latency_stddev=record.latency_stddev,
            throttle_stddev=record.throttle_series.stddev(),
            average_rate_mb=record.average_migration_rate / MB,
        )
        for label, gains in variants.items()
        for record in (records[label],)
    }
