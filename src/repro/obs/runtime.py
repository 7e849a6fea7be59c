"""The observability runtime: one object, pre-bound instruments.

:class:`Observability` is the single handle the instrumented layers
see.  It follows the fault injector's zero-cost discipline exactly:

* every hookable object (bus, node, migration, controller, injector)
  carries an ``obs`` attribute that defaults to ``None``;
* hot paths guard with ``if obs is not None`` — a disabled run pays
  one attribute read and a ``None`` comparison, nothing else;
* when enabled, each hook touches *pre-bound* instruments (bound once
  at construction), so no name lookup or string formatting happens on
  the hot path — lint rule SLK010 enforces that metric/span names at
  call sites are module-level constants from :mod:`repro.obs.names`.

Observation never perturbs the simulation: the resource sampler only
*reads* accumulated busy-time counters (interval-differenced, like
heartbeats and the placement monitor), draws no random numbers, and
acquires no resources — so a run with observability enabled is
bit-identical to the same run without it.
"""

from __future__ import annotations

from typing import Optional

from . import names
from ..simulation import PeriodicTicker
from .metrics import MetricsRegistry
from .report import RunReport, config_fingerprint
from .tracer import Tracer

__all__ = ["Observability"]

#: Migration phases after which no further phase span opens.
_TERMINAL_PHASES = frozenset({"complete", "aborted"})


class Observability:
    """Metrics registry + tracer + the hooks the hot layers call."""

    def __init__(
        self,
        env,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        sample_interval: float = 1.0,
    ):
        if sample_interval < 0:
            raise ValueError(
                f"sample_interval must be >= 0, got {sample_interval}"
            )
        self.env = env
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(env)
        #: Resource sampling period, seconds; 0 disables the sampler.
        self.sample_interval = sample_interval

        # Pre-bound instruments: hooks below touch these directly.
        self.migration_phases = self.registry.counter(names.MIGRATION_PHASES_TOTAL)
        self.migration_aborts = self.registry.counter(names.MIGRATION_ABORTS_TOTAL)
        self.migration_freeze_seconds = self.registry.histogram(
            names.MIGRATION_FREEZE_SECONDS, buckets=names.FREEZE_SECONDS_BUCKETS
        )
        self.controller_steps = self.registry.counter(names.CONTROLLER_STEPS_TOTAL)
        self.controller_error_ms = self.registry.histogram(
            names.CONTROLLER_ERROR_MS, buckets=names.ERROR_MS_BUCKETS
        )
        self.controller_output_pct = self.registry.histogram(
            names.CONTROLLER_OUTPUT_PCT, buckets=names.PERCENT_BUCKETS
        )
        self.controller_rate = self.registry.gauge(names.CONTROLLER_RATE_BPS)
        self.transport_sends = self.registry.counter(names.TRANSPORT_SENDS_TOTAL)
        self.transport_delivered = self.registry.counter(
            names.TRANSPORT_DELIVERED_TOTAL
        )
        self.transport_retries = self.registry.counter(names.TRANSPORT_RETRIES_TOTAL)
        self.transport_timeouts = self.registry.counter(
            names.TRANSPORT_TIMEOUTS_TOTAL
        )
        self.transport_drops = self.registry.counter(names.TRANSPORT_DROPS_TOTAL)
        self.transport_failures = self.registry.counter(
            names.TRANSPORT_FAILURES_TOTAL
        )
        self.fault_activations = self.registry.counter(names.FAULT_ACTIVATIONS_TOTAL)
        self.fleet_waves = self.registry.counter(names.FLEET_WAVES_TOTAL)
        self.fleet_wave_size = self.registry.histogram(
            names.FLEET_WAVE_SIZE, buckets=names.WAVE_SIZE_BUCKETS
        )
        self.fleet_migrations = self.registry.counter(names.FLEET_MIGRATIONS_TOTAL)
        self.fleet_aborts = self.registry.counter(names.FLEET_ABORTS_TOTAL)
        self.fleet_migration_seconds = self.registry.histogram(
            names.FLEET_MIGRATION_SECONDS, buckets=names.MIGRATION_SECONDS_BUCKETS
        )
        self.fleet_p99_latency = self.registry.gauge(
            names.FLEET_P99_LATENCY_SECONDS
        )
        self.fleet_migrations_per_hour = self.registry.gauge(
            names.FLEET_MIGRATIONS_PER_HOUR
        )
        self.disk_utilization_dist = self.registry.histogram(
            names.DISK_UTILIZATION_DIST, buckets=names.UTILIZATION_BUCKETS
        )
        self.nic_utilization_dist = self.registry.histogram(
            names.NIC_UTILIZATION_DIST, buckets=names.UTILIZATION_BUCKETS
        )

        #: id(migration) -> currently-open phase span.
        self._phase_spans: dict[int, object] = {}
        self._sampler = None

    # -- wiring ----------------------------------------------------------

    def attach(self, cluster) -> "Observability":
        """Hook this runtime into a cluster; returns self.

        Sets the ``obs`` attribute on the bus, every node, and (if one
        is attached) the fault injector, and starts the read-only
        resource sampler.  Safe to call before any workload starts.
        """
        cluster.bus.obs = self
        for node in cluster.nodes.values():
            node.obs = self
        faults = getattr(cluster.bus, "faults", None)
        if faults is not None:
            faults.obs = self
        if self.sample_interval > 0 and self._sampler is None:
            self._sampler = self.env.process(self._sample_resources(cluster))
        return self

    # -- migration hooks -------------------------------------------------

    def on_migration_phase(self, migration, phase) -> None:
        """Called by :meth:`FluidMigration._transition` on every edge."""
        self.migration_phases.inc()
        key = id(migration)
        open_span = self._phase_spans.pop(key, None)
        if open_span is not None:
            open_span.end()
        value = phase.value
        if value == "aborted":
            self.migration_aborts.inc()
        if value not in _TERMINAL_PHASES:
            self._phase_spans[key] = self.tracer.begin(
                names.MIGRATION_PHASE_SPAN,
                phase=value,
                tenant=migration.source.name,
            )

    def on_migration_freeze(self, migration, seconds: float) -> None:
        """Called once per chunk freeze (live: the handover) with its length."""
        self.migration_freeze_seconds.observe(seconds)

    # -- controller hooks ------------------------------------------------

    def on_controller_step(
        self, error_ms: float, output_pct: float, rate: float
    ) -> None:
        """Called by the dynamic throttle loop once per applied step."""
        self.controller_steps.inc()
        self.controller_error_ms.observe(error_ms)
        self.controller_output_pct.observe(output_pct)
        self.controller_rate.set(rate)

    # -- fleet hooks -----------------------------------------------------

    def on_wave(self, size: int) -> None:
        """Called by the wave executor when a wave launches migrations."""
        self.fleet_waves.inc()
        self.fleet_wave_size.observe(float(size))

    def on_fleet_migration(
        self, aborted: bool, seconds: Optional[float] = None
    ) -> None:
        """Called by the wave executor once per finished migration."""
        if aborted:
            self.fleet_aborts.inc()
            return
        self.fleet_migrations.inc()
        if seconds is not None:
            self.fleet_migration_seconds.observe(seconds)

    def on_drain_complete(self, node: str, seconds: float) -> None:
        """Called by the placement manager when a node fully drains."""
        self.registry.gauge(
            names.FLEET_TIME_TO_DRAIN_SECONDS, suffix=node
        ).set(seconds)

    def set_fleet_slos(
        self,
        p99_latency_seconds: Optional[float] = None,
        migrations_per_hour: Optional[float] = None,
    ) -> None:
        """Record end-of-run fleet SLO values into the report metrics."""
        if p99_latency_seconds is not None:
            self.fleet_p99_latency.set(p99_latency_seconds)
        if migrations_per_hour is not None:
            self.fleet_migrations_per_hour.set(migrations_per_hour)

    # -- fault hooks -----------------------------------------------------

    def on_scheduled_fault(self, fault) -> None:
        """Called by the injector when a scheduled fault fires."""
        self.fault_activations.inc()
        self.tracer.event(
            names.FAULT_EVENT,
            kind=fault.kind,
            node=fault.node,
            duration=fault.duration,
        )

    # -- resource sampling -----------------------------------------------

    def _sample_resources(self, cluster):
        """Process: interval-difference disk/NIC busy time per server.

        Pure reads of the accumulated ``stats.busy_time`` counters —
        the sampler cannot change any trajectory.
        """
        server_names = sorted(cluster.servers)
        disk_gauges = {}
        nic_gauges = {}
        last: dict[str, tuple[float, float]] = {}
        for name in server_names:
            disk_gauges[name] = self.registry.gauge(
                names.DISK_UTILIZATION, suffix=name
            )
            nic_gauges[name] = self.registry.gauge(
                names.NIC_UTILIZATION, suffix=name
            )
            last[name] = cluster.servers[name].io_snapshot()
        last_time = self.env.now
        # Every tick reads and records, so no tick can be elided; the
        # ticker keeps the sample grid on the coalesced-timer API.
        ticker = PeriodicTicker(self.env, self.sample_interval)
        while True:
            yield ticker.tick()
            now = self.env.now
            span = now - last_time
            last_time = now
            if span <= 0:
                continue
            for name in server_names:
                disk_busy, nic_busy = cluster.servers[name].io_snapshot()
                prev_disk, prev_nic = last[name]
                last[name] = (disk_busy, nic_busy)
                disk_util = min(1.0, max(0.0, (disk_busy - prev_disk) / span))
                # Two full-duplex directions share the denominator.
                nic_util = min(1.0, max(0.0, (nic_busy - prev_nic) / (2.0 * span)))
                disk_gauges[name].set(disk_util)
                nic_gauges[name].set(nic_util)
                self.disk_utilization_dist.observe(disk_util)
                self.nic_utilization_dist.observe(nic_util)

    # -- reporting -------------------------------------------------------

    def finish(self) -> None:
        """Close dangling spans (wedged migrations) at the current time."""
        self.tracer.finish()

    def run_report(
        self,
        config=None,
        spec=None,
        trace_path: Optional[str] = None,
    ) -> RunReport:
        """Snapshot everything into a portable :class:`RunReport`."""
        self.finish()
        return RunReport(
            config_fingerprint=config_fingerprint(config, spec),
            sim_end=self.env.now,
            metrics=self.registry.snapshot(),
            spans=tuple(self.tracer.to_dicts()),
            trace_path=trace_path,
        )
