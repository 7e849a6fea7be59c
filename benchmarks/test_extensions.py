"""Benches for the implemented extensions (Sections 6 and 8).

Not paper figures — these regenerate the extension results recorded in
EXPERIMENTS.md: shared-process (table-level) migration, the adaptive
controller, and autonomous placement.
"""

import random

from benchmarks.conftest import run_once
from repro.core import EVALUATION, Slacker
from repro.db import SharedProcessEngine, TableLayout
from repro.experiments import scaled_config
from repro.migration import FluidMigration, Throttle, check_fluid_invariants
from repro.placement import LatencyHotspotDetector, PlacementManager
from repro.resources import MB, Server, mb_per_sec
from repro.simulation import Environment, RandomStreams, Trace
from repro.workload import (
    BenchmarkClient,
    PoissonArrivals,
    TransactionFactory,
    UniformChooser,
)


def shared_process_migration():
    """Migrate one of three tenants out of a consolidated daemon."""
    env = Environment()
    streams = RandomStreams(42)
    source = Server(env, "consolidated", params=EVALUATION.server, streams=streams)
    target = Server(env, "standby", params=EVALUATION.server, streams=streams)
    shared = SharedProcessEngine(env, source, buffer_bytes=96 * MB)
    trace = Trace()
    for tenant_id in (1, 2, 3):
        layout = TableLayout.for_data_size(256 * MB)
        tenant = shared.add_tenant(tenant_id, layout)
        factory = TransactionFactory(
            layout,
            UniformChooser(layout.num_rows, streams.stream(f"k{tenant_id}")),
            streams.stream(f"o{tenant_id}"),
        )
        BenchmarkClient(
            env, tenant, factory,
            PoissonArrivals(1.2, streams.stream(f"a{tenant_id}")),
            trace=trace, series=f"t{tenant_id}",
        ).start()

    def experiment():
        yield env.timeout(15.0)
        throttle = Throttle(env, rate=mb_per_sec(8))
        migration = FluidMigration(env, shared.tenants[2], target, throttle)
        result = yield env.process(migration.run())
        throttle.stop()
        return migration, result

    migration, result = env.run(until=env.process(experiment()))
    return shared, migration, result


def test_shared_process_migration(benchmark):
    shared, migration, result = run_once(benchmark, shared_process_migration)
    print(f"\n  table-level migration: {result.duration:.1f} s, "
          f"downtime {result.downtime * 1000:.0f} ms, "
          f"deltas {result.total_bytes - result.snapshot_bytes} B")
    # Only the migrated tenant's tablespace was scanned.
    assert result.snapshot_bytes == 256 * MB
    # The tenant left the shared daemon; neighbours stayed.
    assert sorted(shared.tenants) == [1, 3]
    # Table-level handover is just as live as process-level.
    assert result.downtime < 1.0
    assert check_fluid_invariants(migration) == []
    # Deltas read only tenant 2's own log; its neighbours wrote into
    # theirs, none of which shipped.
    moved = migration.source
    neighbours = sum(shared.tenants[t].binlog.head_lsn for t in (1, 3))
    assert neighbours > 0
    assert result.total_bytes - result.snapshot_bytes <= moved.binlog.head_lsn
    assert result.total_bytes - result.snapshot_bytes < (
        moved.binlog.head_lsn + neighbours
    )


def autonomous_relief():
    config = scaled_config(EVALUATION, 0.5)
    slacker = Slacker(config, nodes=["n1", "n2"])
    for tenant_id in (1, 2, 3):
        slacker.add_tenant(
            tenant_id, node="n1", workload=True,
            arrival_rate=config.workload.arrival_rate / 3,
        )
    manager = PlacementManager(
        slacker.cluster, slacker.trace, setpoint=1.5,
        detector=LatencyHotspotDetector(latency_threshold=0.6, patience=2),
        interval=10.0, cooldown=30.0,
    )
    slacker.env.process(manager.run())
    slacker.advance(40.0)
    slacker.scale_workload(2, 5.0)
    slacker.advance(240.0)
    return slacker, manager


def test_autonomous_placement(benchmark):
    slacker, manager = run_once(benchmark, autonomous_relief)
    print(f"\n  manager: {manager.stats.snapshots} snapshots, "
          f"{manager.stats.migrations} migrations")
    # The manager noticed the hotspot and fixed it without an operator.
    assert manager.stats.migrations >= 1
    moved = manager.stats.decisions[0].proposal.tenant_id
    assert moved == 2  # it moved the surging tenant
    assert slacker.locate(2) == "n2"
    # The source node recovered: its remaining tenants are healthy.
    now = slacker.now
    for tenant_id in (1, 3):
        tail = slacker.latency_series(tenant_id).window_values(now - 40, now)
        assert tail
        assert sum(tail) / len(tail) < 0.5
