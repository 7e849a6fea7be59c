"""Run one unit, check it, and read its counters from public stats objects.

Nothing in ``src/`` knows it is being measured.  :class:`Capture`
wraps the constructors of the public classes whose stats the benchmark
reads, so every instance a unit builds is remembered until the unit
ends.  The same wrappers are installed in timed and traced runs, so
both execute identical code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

from repro.db.engine import DatabaseEngine
from repro.experiments.fig7_tradeoff import ExtendedFig7Result
from repro.experiments.fleet_sweep import FleetRecord
from repro.faults.injector import FaultInjector
from repro.middleware.cluster import SlackerCluster
from repro.migration.controller import DynamicThrottleController
from repro.migration.fluid import FluidMigration, check_fluid_invariants
from repro.migration.throttle import Throttle
from repro.parallel import SweepPoint
from repro.parallel.record import PointRecord
from repro.parallel.tasks import execute
from repro.placement.executor import WaveExecutor
from repro.resources.units import PAGE_SIZE
from repro.simulation.core import Environment
from repro.workload.client import BenchmarkClient

__all__ = ["Capture", "UnitResult", "run_unit"]

#: Harness migration kinds that run through ``SlackerNode.migrate_tenant``.
_NODE_DISPATCHED = ("fixed", "dynamic", "fluid")

_CAPTURED = (
    Environment,
    BenchmarkClient,
    DatabaseEngine,
    Throttle,
    DynamicThrottleController,
    WaveExecutor,
    FaultInjector,
    SlackerCluster,
    FluidMigration,
)


class Capture:
    """Remembers every instance of the captured classes built while active."""

    def __init__(self):
        self.seen: dict[type, list] = {cls: [] for cls in _CAPTURED}
        self._originals: dict[type, object] = {}

    def __enter__(self) -> "Capture":
        for cls in _CAPTURED:
            original = cls.__init__
            self._originals[cls] = original
            cls.__init__ = self._wrap(original, self.seen[cls])
        return self

    def __exit__(self, *exc) -> None:
        for cls, original in self._originals.items():
            cls.__init__ = original
        self._originals.clear()

    @staticmethod
    def _wrap(original, instances: list):
        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            instances.append(obj)

        return init

    def take(self) -> dict[type, list]:
        """The instances seen since the last call; forgets them."""
        taken = {cls: list(found) for cls, found in self.seen.items()}
        for found in self.seen.values():
            found.clear()
        return taken


@dataclass
class UnitResult:
    """What the benchmark keeps from one unit."""

    label: str
    fingerprint: str
    violations: list[str]
    #: Committed transactions, all clients.
    txns: int
    #: Simulated latencies (seconds) the p99 pools.
    latencies: list[float]
    #: Simulated migration time of the unit, seconds: the time to drain
    #: for a fleet drain, else the mean over its migrations (None: none
    #: finished).
    migration_s: Optional[float]
    #: Counters read from public stats objects (see :func:`_counters`).
    counters: dict[str, float] = field(default_factory=dict)


def run_unit(point: SweepPoint, capture: Capture) -> UnitResult:
    """Run ``point`` through the sweep task entry point, then check it."""
    record = execute(point.task, point.config, point.spec, point.kwargs)
    seen = capture.take()
    clients = seen[BenchmarkClient]
    clusters = seen[SlackerCluster]
    label = str(point.label)
    if isinstance(record, PointRecord):
        violations = _point_battery(point, record, seen)
        latencies = record.pooled_latencies()
        migration = record.migration
        if migration is None:
            fingerprint, migration_s, migrations = "", None, []
        else:
            fingerprint = ExtendedFig7Result(records={label: record}).fingerprint()
            migration_s = migration.duration
            migrations = [(migration, point.config.tenant.data_bytes)]
    else:
        fingerprint = record.fingerprint
        violations = list(record.violations)
        latencies = [v for client in clients for v in client.latencies.values]
        migrations = [
            (result, result.target.data_bytes)
            for cluster in clusters
            for node in cluster.nodes.values()
            for result in node.stats.completed
            if result.target is not None
        ]
        if isinstance(record, FleetRecord):
            migration_s = record.time_to_drain
        elif migrations:
            migration_s = sum(m.duration for m, _ in migrations) / len(migrations)
        else:
            migration_s = None
    return UnitResult(
        label=label,
        fingerprint=fingerprint,
        violations=violations,
        txns=sum(client.stats.completed for client in clients),
        latencies=latencies,
        migration_s=migration_s,
        counters=_counters(seen, migrations),
    )


def _point_battery(point: SweepPoint, record: PointRecord, seen) -> list[str]:
    """The failure rules for a harness point (fleet/fuzz carry their own)."""
    migration = record.migration
    if migration is None:
        return ["migration result missing"]
    violations = []
    kind = point.spec.kind
    if kind == "on-demand":
        num_pages = seen[DatabaseEngine][0].layout.num_pages
        moved = migration.total_bytes // PAGE_SIZE
        if moved != num_pages:
            violations.append(
                f"on-demand conservation broken: pushed + fetched = {moved} "
                f"pages of {num_pages}"
            )
    if kind not in _NODE_DISPATCHED:
        return violations
    (cluster,) = seen[SlackerCluster]
    hosts = cluster.tenant_census().get(1, [])
    if hosts != ["target"]:
        violations.append(f"tenant hosted on {hosts!r} after migration")
    if kind == "fluid":
        fluid = cluster.node("source").last_fluid_migration
        violations.extend(check_fluid_invariants(fluid))
    return violations


def _counters(seen, migrations) -> dict[str, float]:
    """Per-unit sums of the public stats the per-layer metrics divide."""
    envs = seen[Environment]
    engines = seen[DatabaseEngine]
    clusters = seen[SlackerCluster]
    servers = [s for cluster in clusters for s in cluster.servers.values()]
    disks = [server.disk for server in servers]
    elapsed = max((env.now for env in envs), default=0.0)
    buses = [cluster.bus.counters() for cluster in clusters]
    placement = {id(e.stats): e.stats for e in seen[WaveExecutor]}.values()
    pools = [engine.buffer_pool.stats for engine in engines]
    fault_counts = [i.stats.counters() for i in seen[FaultInjector]]
    return {
        "events": sum(env.processed_events for env in envs),
        "elided_events": sum(env.elided_events for env in envs),
        "peak_queue": max(
            (c.stats.peak_queue_length for c in seen[BenchmarkClient]), default=0
        ),
        "pool_hits": sum(p.hits for p in pools),
        "pool_misses": sum(p.misses for p in pools),
        "dirty_evictions": sum(p.dirty_evictions for p in pools),
        "replica_applied_bytes": sum(
            e.stats.replica_applied_bytes for e in engines
        ),
        "disk_busy_frac": max(
            (d.stats.utilization(elapsed) for d in disks), default=0.0
        ),
        "disk_queue_s": sum(d.stats.queue_time for d in disks),
        "broken_streams": sum(d.stats.broken_streams for d in disks),
        "nic_bytes": sum(s.nic_out.stats.bytes_sent for s in servers),
        "migrations": len(migrations),
        "migrated_bytes": sum(m.total_bytes for m, _ in migrations),
        "data_bytes": sum(data for _, data in migrations),
        "downtime_s": sum(m.downtime for m, _ in migrations),
        "delta_rounds": sum(_delta_rounds(m) for m, _ in migrations),
        "remote_fetches": sum(getattr(m, "remote_fetches", 0) for m, _ in migrations),
        "cross_hops": sum(f.router.cross_hops for f in seen[FluidMigration]),
        "pid_steps": sum(c.steps for c in seen[DynamicThrottleController]),
        "rate_changes": sum(t.stats.rate_changes for t in seen[Throttle]),
        "messages": sum(b["messages_delivered"] for b in buses),
        "messages_lost": sum(
            b["messages_dropped"]
            + b["messages_dropped_dead"]
            + b["messages_dropped_partition"]
            for b in buses
        ),
        "retries": sum(b["send_retries"] for b in buses),
        "timeouts": sum(b["send_timeouts"] for b in buses),
        "waves": sum(s.waves for s in placement),
        "placed": sum(s.migrations for s in placement),
        "placement_attempts": sum(s.migrations + s.aborted for s in placement),
        "fault_activations": sum(
            sum(c.values()) - c["fates_drawn"] - c["noops"] for c in fault_counts
        ),
    }


def _delta_rounds(migration) -> int:
    """Delta rounds of a live result (a list) or a point record (a count)."""
    rounds = getattr(migration, "delta_rounds", 0)
    return rounds if isinstance(rounds, int) else len(rounds)
