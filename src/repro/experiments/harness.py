"""Shared experiment harness.

Builds the paper's Figure 10 setup — a Slacker cluster, one or more
tenants with independent YCSB-style clients, and an optional migration
of one tenant from the primary to the secondary server — and returns
the measurements every figure needs: the latency time series, the
throttle time series (for dynamic runs), and the migration result.

All figure drivers and benchmark targets call :func:`run_single_tenant`
or :func:`run_multi_tenant` with an :class:`ExperimentConfig` preset
(:data:`~repro.core.config.CASE_STUDY` or
:data:`~repro.core.config.EVALUATION`) plus a :class:`MigrationSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core.config import ExperimentConfig
from ..middleware.cluster import SlackerCluster
from ..middleware.node import NodeConfig
from ..migration.result import MigrationResult
from ..obs import Observability, RunReport
from ..simulation import Environment, RandomStreams, Series, Trace, float_sum
from ..workload.client import BenchmarkClient
from ..workload.distributions import (
    HotspotChooser,
    LatestChooser,
    UniformChooser,
    ZipfianChooser,
)
from ..workload.generator import (
    BurstModulator,
    MarkovModulatedArrivals,
    PoissonArrivals,
    TransactionFactory,
)

__all__ = [
    "MigrationSpec",
    "RateChange",
    "TenantOutcome",
    "ExperimentOutcome",
    "PooledLatencyStats",
    "run_single_tenant",
    "run_multi_tenant",
]


@dataclass(frozen=True)
class MigrationSpec:
    """What migration (if any) an experiment performs."""

    #: "none", "fixed", "dynamic", "stop-and-copy", "dump-reimport",
    #: "fluid", or "on-demand".
    kind: str = "none"
    #: Fixed throttle rate, bytes/second (kind="fixed"/"fluid"; for
    #: "on-demand" it meters the background push).  The stop-and-copy
    #: kinds copy at full speed and ignore it.
    rate: Optional[float] = None
    #: Latency setpoint, seconds (kind="dynamic").
    setpoint: Optional[float] = None
    #: Override for the 100 %-output rate (kind="dynamic").
    max_rate: Optional[float] = None
    #: Number of chunks for kind="fluid" (0 = module default).
    chunks: int = 0

    def __post_init__(self) -> None:
        kinds = (
            "none",
            "fixed",
            "dynamic",
            "stop-and-copy",
            "dump-reimport",
            "fluid",
            "on-demand",
        )
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}, got {self.kind!r}")
        if self.kind == "fixed" and (self.rate is None or self.rate <= 0):
            raise ValueError("fixed migration needs a positive rate")
        if self.kind == "dynamic" and (self.setpoint is None or self.setpoint <= 0):
            raise ValueError("dynamic migration needs a positive setpoint")
        if self.kind == "fluid" and (self.rate is None or self.rate <= 0):
            raise ValueError("fluid migration needs a positive rate")
        if self.kind == "on-demand" and self.rate is not None and self.rate <= 0:
            raise ValueError("on-demand push rate must be positive when set")

    @property
    def method(self) -> str:
        """The :meth:`SlackerNode.migrate_tenant` method this kind runs."""
        return "live" if self.kind in ("fixed", "dynamic") else self.kind

    @classmethod
    def none(cls) -> "MigrationSpec":
        return cls(kind="none")

    @classmethod
    def fixed(cls, rate: float) -> "MigrationSpec":
        return cls(kind="fixed", rate=rate)

    @classmethod
    def dynamic(
        cls, setpoint: float, max_rate: Optional[float] = None
    ) -> "MigrationSpec":
        return cls(kind="dynamic", setpoint=setpoint, max_rate=max_rate)

    @classmethod
    def fluid(cls, rate: float, chunks: int = 0) -> "MigrationSpec":
        return cls(kind="fluid", rate=rate, chunks=chunks)

    @classmethod
    def on_demand(cls, rate: Optional[float] = None) -> "MigrationSpec":
        return cls(kind="on-demand", rate=rate)


@dataclass(frozen=True)
class RateChange:
    """A scheduled mid-run workload change (Figure 13a's +40 % surge)."""

    #: Seconds after the measurement window opens.
    at: float
    #: Multiplier applied to the arrival rate.
    factor: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"at must be >= 0, got {self.at}")
        if self.factor <= 0:
            raise ValueError(f"factor must be positive, got {self.factor}")


@dataclass
class TenantOutcome:
    """Per-tenant measurements from one run."""

    tenant_id: int
    latency: Series
    completed: int

    def window_latencies(self, start: float, end: float) -> list[float]:
        return self.latency.window_values(start, end)


class PooledLatencyStats:
    """Pooled latency summaries over a measurement window, cached.

    Mixed into :class:`ExperimentOutcome` and the parallel runner's
    :class:`~repro.parallel.record.PointRecord`; the host class provides
    ``tenants`` (objects with ``window_latencies(start, end)``),
    ``window_start``, and ``window_end``.

    Figure drivers query ``mean_latency``, ``latency_stddev``, and a
    percentile or two off the *same* outcome, and each used to rebuild
    (and for percentiles, re-sort) the pooled list from the raw series —
    O(n) or O(n log n) per query over hundreds of thousands of samples.
    The pooled and sorted lists are computed once per outcome and
    reused; outcomes are effectively immutable once built, so the cache
    never needs invalidating.  Treat the returned lists as read-only.
    """

    def pooled_latencies(self) -> list[float]:
        """All tenants' latencies inside the measurement window, seconds.

        The list is cached on first use — do not mutate it.
        """
        cached = getattr(self, "_pooled_cache", None)
        if cached is None:
            pooled: list[float] = []
            for tenant in self.tenants:
                pooled.extend(
                    tenant.window_latencies(self.window_start, self.window_end)
                )
            self._pooled_cache = cached = pooled
        return cached

    def _sorted_latencies(self) -> list[float]:
        cached = getattr(self, "_sorted_cache", None)
        if cached is None:
            self._sorted_cache = cached = sorted(self.pooled_latencies())
        return cached

    @property
    def mean_latency(self) -> float:
        values = self.pooled_latencies()
        return float_sum(values) / len(values) if values else math.nan

    @property
    def latency_stddev(self) -> float:
        values = self.pooled_latencies()
        if not values:
            return math.nan
        mu = float_sum(values) / len(values)
        return math.sqrt(float_sum((v - mu) ** 2 for v in values) / len(values))

    def latency_percentile(self, pct: float) -> float:
        values = self._sorted_latencies()
        if not values:
            return math.nan
        rank = max(1, math.ceil(pct / 100.0 * len(values)))
        return values[rank - 1]

    @property
    def duration(self) -> float:
        return self.window_end - self.window_start


@dataclass
class ExperimentOutcome(PooledLatencyStats):
    """Everything a figure driver needs from one run."""

    config: ExperimentConfig
    spec: MigrationSpec
    trace: Trace
    tenants: list[TenantOutcome]
    #: Measurement window [start, end): migration span, or the
    #: configured duration for baseline runs.
    window_start: float
    window_end: float
    migration: Optional[MigrationResult] = None
    #: Throttle-rate series recorded by the PID loop (dynamic runs).
    throttle_series: Optional[Series] = None
    controller_latency_series: Optional[Series] = None
    extras: dict = field(default_factory=dict)
    #: Metrics/span snapshot when the run was observed (``observe=True``).
    run_report: Optional[RunReport] = None
    #: Simulated time when the run ended (after the cooldown).
    sim_end: float = 0.0

    @property
    def average_migration_rate(self) -> float:
        """Mean transfer rate over the migration, bytes/second."""
        return self.migration.average_rate if self.migration is not None else 0.0


def _make_chooser(kind: str, num_rows: int, rng):
    if kind == "uniform":
        return UniformChooser(num_rows, rng)
    if kind == "zipfian":
        return ZipfianChooser(num_rows, rng)
    if kind == "latest":
        return LatestChooser(num_rows, rng)
    if kind == "hotspot":
        return HotspotChooser(num_rows, rng)
    raise ValueError(f"unknown key distribution {kind!r}")


def _build_cluster(
    config: ExperimentConfig,
    streams: RandomStreams,
    retry_policy=None,
    lease_ttl=None,
) -> SlackerCluster:
    env = Environment()
    node_config = NodeConfig(
        buffer_bytes=config.tenant.buffer_bytes,
        max_migration_rate=config.max_migration_rate,
        chunk_bytes=config.chunk_bytes,
        gains=config.gains,
    )
    return SlackerCluster(
        env,
        ["source", "target"],
        server_params=config.server,
        node_config=node_config,
        streams=streams,
        retry_policy=retry_policy,
        lease_ttl=lease_ttl,
    )


def attach_workload(
    cluster: SlackerCluster,
    config: ExperimentConfig,
    tenant,
    streams: RandomStreams,
    trace: Trace,
    series: str,
    arrival_rate: Optional[float] = None,
    modulator: Optional[BurstModulator] = None,
) -> tuple[BenchmarkClient, PoissonArrivals]:
    env = cluster.env
    layout = tenant.engine.layout
    tag = f"tenant-{tenant.tenant_id}"
    chooser = _make_chooser(
        config.workload.key_distribution, layout.num_rows, streams.stream(f"{tag}:keys")
    )
    factory = TransactionFactory(
        layout,
        chooser,
        streams.stream(f"{tag}:ops"),
        mix=config.workload.mix,
        ops_per_txn=config.workload.ops_per_txn,
    )
    rate = arrival_rate or config.workload.arrival_rate
    if config.workload.burst_factor > 1.0:
        arrivals = MarkovModulatedArrivals(
            env,
            rate,
            streams.stream(f"{tag}:arrivals"),
            burst_factor=config.workload.burst_factor,
            mean_normal=config.workload.burst_mean_normal,
            mean_burst=config.workload.burst_mean_burst,
            modulator=modulator,
        )
    else:
        arrivals = PoissonArrivals(rate, streams.stream(f"{tag}:arrivals"))
    client = BenchmarkClient(
        env,
        tenant,
        factory,
        arrivals,
        mpl=config.workload.mpl,
        trace=trace,
        series=series,
    )
    return client, arrivals


def _run_migration_spec(cluster, spec: MigrationSpec, tenant_id: int):
    """Process: run the configured migration through the source node."""
    return cluster.node("source").migrate_tenant(
        tenant_id,
        "target",
        setpoint=spec.setpoint,
        fixed_rate=spec.rate,
        max_rate=spec.max_rate,
        chunks=spec.chunks or None,
        method=spec.method,
    )


def run_single_tenant(
    config: ExperimentConfig,
    spec: MigrationSpec,
    warmup: float = 20.0,
    cooldown: float = 5.0,
    baseline_duration: float = 180.0,
    rate_change: Optional[RateChange] = None,
    on_setup: Optional[Callable] = None,
    observe: bool = False,
    obs_trace_path: Optional[str] = None,
) -> ExperimentOutcome:
    """Run the paper's fundamental case: one tenant, one migration.

    * ``warmup`` seconds of workload run before the measurement window
      opens (cache warm-up, steady state).
    * For ``spec.kind == "none"`` the window is ``baseline_duration``
      seconds of plain workload (Figure 5a).
    * Otherwise the window spans the migration.
    * ``rate_change`` applies a mid-window arrival-rate change
      (Figure 13a).
    * ``on_setup(cluster, tenant, client)`` allows tests to customize.
    * ``observe`` attaches an :class:`~repro.obs.Observability` runtime
      and fills ``outcome.run_report``; ``obs_trace_path`` additionally
      writes the span trace as JSONL.  Observation is read-only, so the
      measured trajectories are bit-identical either way.
    """
    streams = RandomStreams(config.seed)
    cluster = _build_cluster(config, streams)
    env = cluster.env
    trace = Trace()
    obs = Observability(env).attach(cluster) if observe else None

    source = cluster.node("source")
    tenant = source.create_tenant(
        1, config.tenant.data_bytes, buffer_bytes=config.tenant.buffer_bytes
    )
    client, arrivals = attach_workload(
        cluster, config, tenant, streams, trace, series="tenant-1"
    )
    client.start()
    source.attach_latency_series(1, trace.series("tenant-1"))
    if on_setup is not None:
        on_setup(cluster, tenant, client)

    outcome_extras: dict = {}

    def experiment():
        yield env.timeout(warmup)
        window_start = env.now
        change_proc = None
        if rate_change is not None:

            def change():
                yield env.timeout(rate_change.at)
                arrivals.scale_rate(rate_change.factor)

            change_proc = env.process(change())

        migration_result = None
        if spec.kind == "none":
            yield env.timeout(baseline_duration)
        else:
            migration_result = yield env.process(
                _run_migration_spec(cluster, spec, 1)
            )
        window_end = env.now
        if cooldown > 0:
            yield env.timeout(cooldown)
        if change_proc is not None and change_proc.is_alive:
            change_proc.interrupt("run over")
        return window_start, window_end, migration_result

    proc = env.process(experiment())
    window_start, window_end, migration_result = env.run(until=proc)
    client.stop()

    throttle_series = None
    controller_series = None
    if spec.kind == "dynamic":
        name = "source:mig-1"
        if f"{name}:throttle_rate" in source.trace:
            throttle_series = source.trace[f"{name}:throttle_rate"]
            controller_series = source.trace[f"{name}:window_latency"]

    run_report = None
    if obs is not None:
        if obs_trace_path is not None:
            obs.finish()
            obs.tracer.write_jsonl(obs_trace_path)
        run_report = obs.run_report(config, spec, trace_path=obs_trace_path)

    return ExperimentOutcome(
        config=config,
        spec=spec,
        trace=trace,
        tenants=[
            TenantOutcome(
                tenant_id=1,
                latency=trace.series("tenant-1"),
                completed=client.stats.completed,
            )
        ],
        window_start=window_start,
        window_end=window_end,
        migration=migration_result,
        throttle_series=throttle_series,
        controller_latency_series=controller_series,
        extras=outcome_extras,
        run_report=run_report,
        sim_end=env.now,
    )


def run_multi_tenant(
    config: ExperimentConfig,
    spec: MigrationSpec,
    num_tenants: int = 5,
    migrate_tenant_id: int = 1,
    warmup: float = 20.0,
    cooldown: float = 5.0,
    baseline_duration: float = 120.0,
    per_tenant_rate: Optional[Sequence[float]] = None,
    observe: bool = False,
    obs_trace_path: Optional[str] = None,
) -> ExperimentOutcome:
    """The Figure 13b scenario: N tenants, one migrates, all measured.

    The total server workload is split evenly across tenants unless
    ``per_tenant_rate`` gives explicit rates, matching the paper's
    "total server workload ... is the same as before".  Every tenant
    gets a full-size database and dedicated buffer pool (process-level
    multitenancy); the migration therefore moves the same volume of
    data as the single-tenant experiments.
    """
    if num_tenants < 1:
        raise ValueError(f"num_tenants must be >= 1, got {num_tenants}")
    if not 1 <= migrate_tenant_id <= num_tenants:
        raise ValueError(f"migrate_tenant_id {migrate_tenant_id} out of range")
    streams = RandomStreams(config.seed)
    cluster = _build_cluster(config, streams)
    env = cluster.env
    trace = Trace()
    obs = Observability(env).attach(cluster) if observe else None
    source = cluster.node("source")

    if per_tenant_rate is None:
        per_tenant_rate = [
            config.workload.arrival_rate / num_tenants for _ in range(num_tenants)
        ]
    if len(per_tenant_rate) != num_tenants:
        raise ValueError("per_tenant_rate length must equal num_tenants")

    # Server-level burst causes are correlated across collocated
    # tenants, so all five workloads share one burst modulator.
    modulator = None
    if config.workload.burst_factor > 1.0:
        modulator = BurstModulator(
            env,
            streams.stream("shared-bursts"),
            mean_normal=config.workload.burst_mean_normal,
            mean_burst=config.workload.burst_mean_burst,
        )
    clients = []
    for tenant_id in range(1, num_tenants + 1):
        tenant = source.create_tenant(
            tenant_id,
            config.tenant.data_bytes,
            buffer_bytes=config.tenant.buffer_bytes,
        )
        client, _ = attach_workload(
            cluster,
            config,
            tenant,
            streams,
            trace,
            series=f"tenant-{tenant_id}",
            arrival_rate=per_tenant_rate[tenant_id - 1],
            modulator=modulator,
        )
        client.start()
        source.attach_latency_series(tenant_id, trace.series(f"tenant-{tenant_id}"))
        clients.append(client)

    def experiment():
        yield env.timeout(warmup)
        window_start = env.now
        migration_result = None
        if spec.kind == "none":
            yield env.timeout(baseline_duration)
        else:
            migration_result = yield env.process(
                _run_migration_spec(cluster, spec, migrate_tenant_id)
            )
        window_end = env.now
        if cooldown > 0:
            yield env.timeout(cooldown)
        return window_start, window_end, migration_result

    proc = env.process(experiment())
    window_start, window_end, migration_result = env.run(until=proc)
    for client in clients:
        client.stop()

    throttle_series = None
    controller_series = None
    if spec.kind == "dynamic":
        name = f"source:mig-{migrate_tenant_id}"
        if f"{name}:throttle_rate" in source.trace:
            throttle_series = source.trace[f"{name}:throttle_rate"]
            controller_series = source.trace[f"{name}:window_latency"]

    run_report = None
    if obs is not None:
        if obs_trace_path is not None:
            obs.finish()
            obs.tracer.write_jsonl(obs_trace_path)
        run_report = obs.run_report(config, spec, trace_path=obs_trace_path)

    return ExperimentOutcome(
        config=config,
        spec=spec,
        trace=trace,
        tenants=[
            TenantOutcome(
                tenant_id=tenant_id,
                latency=trace.series(f"tenant-{tenant_id}"),
                completed=clients[tenant_id - 1].stats.completed,
            )
            for tenant_id in range(1, num_tenants + 1)
        ],
        window_start=window_start,
        window_end=window_end,
        migration=migration_result,
        throttle_series=throttle_series,
        controller_latency_series=controller_series,
        run_report=run_report,
        sim_end=env.now,
    )
