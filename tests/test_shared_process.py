"""Tests for shared-process multitenancy and table-level migration.

Each tenant of a shared daemon is a database engine on the daemon's
buffer pool, so its migration is the live migration of that engine
(``FluidMigration`` with one chunk).
"""

import pytest

from repro.db.engine import DatabaseEngine, EngineState
from repro.db.pages import TableLayout
from repro.db.shared import SharedProcessEngine, SharedTenant
from repro.db.transactions import Operation, OpType, Transaction
from repro.migration import FluidMigration, MigrationPhase, Throttle
from repro.migration.fluid import check_fluid_invariants
from repro.migration.result import MigrationAborted
from repro.resources.server import Server
from repro.resources.units import MB, mb_per_sec
from repro.simulation import Environment, RandomStreams
from tests.conftest import run_process


@pytest.fixture
def shared(env, server):
    engine = SharedProcessEngine(env, server, buffer_bytes=8 * MB)
    for tenant_id in (1, 2):
        engine.add_tenant(tenant_id, TableLayout.for_data_size(16 * MB))
    return engine


@pytest.fixture
def target_server(env, streams):
    return Server(env, "target", streams=streams)


def txn(engine, ops):
    return Transaction(engine.new_txn_id(), ops, arrived_at=engine.env.now)


def read_txn(engine, keys):
    return txn(engine, [Operation(OpType.SELECT, k) for k in keys])


def write_txn(engine, keys):
    return txn(engine, [Operation(OpType.UPDATE, k) for k in keys])


class TestSharedProcessEngine:
    def test_tenant_management(self, env, shared):
        assert sorted(shared.tenants) == [1, 2]
        assert all(isinstance(t, SharedTenant) for t in shared.tenants.values())
        with pytest.raises(ValueError):
            shared.add_tenant(1, TableLayout.for_data_size(4 * MB))
        shared.tenants[2].stop()
        assert sorted(shared.tenants) == [1]
        with pytest.raises(KeyError):
            shared.tenants[2]

    def test_execute_against_unknown_tenant(self, env, shared):
        # A dropped tenant's engine refuses work it has no successor for.
        t2 = shared.tenants[2]
        t2.stop()
        with pytest.raises(RuntimeError):
            run_process(env, t2.execute(read_txn(t2, [0])))

    def test_execution_and_versions(self, env, shared):
        t1, t2 = shared.tenants[1], shared.tenants[2]
        run_process(env, t1.execute(write_txn(t1, [0, 1])))
        run_process(env, t2.execute(write_txn(t2, [5])))
        assert t1.data_version == 2
        assert t2.data_version == 1
        assert t1.stats.committed == t2.stats.committed == 1

    def test_binlog_records_tagged_by_tenant(self, env, shared):
        """Each tenant's binlog holds its own writes and no neighbour's."""
        t1, t2 = shared.tenants[1], shared.tenants[2]
        run_process(env, t1.execute(write_txn(t1, [0, 1])))
        run_process(env, t2.execute(write_txn(t2, [5])))
        size = shared.costs.log_bytes_per_write
        assert t1.binlog.head_lsn == 2 * size
        assert t2.binlog.head_lsn == 1 * size

    def test_interleaved_writes_split_by_tenant_log(self, env, shared):
        """Writes interleaved across tenants land in each writer's own
        log: a window of one tenant's log counts its writes in that
        window only, and an idle tenant's log stays empty."""
        t1, t2 = shared.tenants[1], shared.tenants[2]
        t3 = shared.add_tenant(3, TableLayout.for_data_size(4 * MB))
        size = shared.costs.log_bytes_per_write
        run_process(env, t1.execute(write_txn(t1, [0, 1])))
        run_process(env, t2.execute(write_txn(t2, [5])))
        start1, start2 = t1.binlog.head_lsn, t2.binlog.head_lsn
        run_process(env, t2.execute(write_txn(t2, [6, 7])))
        run_process(env, t1.execute(write_txn(t1, [2])))
        run_process(env, t2.execute(write_txn(t2, [8])))
        assert t1.binlog.bytes_between(0, t1.binlog.head_lsn) == 3 * size
        assert t2.binlog.bytes_between(0, t2.binlog.head_lsn) == 4 * size
        assert t1.binlog.bytes_between(start1, t1.binlog.head_lsn) == 1 * size
        assert t2.binlog.bytes_between(start2, t2.binlog.head_lsn) == 3 * size
        assert t3.binlog.head_lsn == 0

    def test_pages_namespaced_per_tenant(self, env, shared):
        t1, t2 = shared.tenants[1], shared.tenants[2]
        assert t1.buffer_pool is t2.buffer_pool is shared.buffer_pool
        # The same page id for different tenants: two distinct misses.
        run_process(env, t1.execute(read_txn(t1, [0])))
        run_process(env, t2.execute(read_txn(t2, [0])))
        assert shared.buffer_pool.stats.misses == 2
        # Re-reading tenant 1's key 0 now hits.
        run_process(env, t1.execute(read_txn(t1, [0])))
        assert shared.buffer_pool.stats.hits == 1

    def test_neighbours_share_frames(self, env, server):
        """The isolation cost of consolidation: a scan-heavy neighbour
        evicts another tenant's hot pages (Section 2.1's motivation
        for the paper's process-per-tenant model)."""
        engine = SharedProcessEngine(env, server, buffer_bytes=1 * MB)
        t1 = engine.add_tenant(1, TableLayout.for_data_size(4 * MB))
        t2 = engine.add_tenant(2, TableLayout.for_data_size(4 * MB))
        run_process(env, t1.execute(read_txn(t1, [0])))
        # Tenant 2 floods the pool.
        flood = [k * t2.layout.rows_per_page for k in range(64)]
        run_process(env, t2.execute(read_txn(t2, flood)))
        before = engine.buffer_pool.stats.misses
        run_process(env, t1.execute(read_txn(t1, [0])))
        assert engine.buffer_pool.stats.misses == before + 1  # evicted!

    def test_per_tenant_freeze_isolated(self, env, shared):
        t1, t2 = shared.tenants[1], shared.tenants[2]
        t1.freeze()
        blocked = env.process(t1.execute(write_txn(t1, [0])))
        free = env.process(t2.execute(write_txn(t2, [0])))
        env.run(until=5.0)
        assert not blocked.processed
        assert free.processed
        t1.thaw()
        env.run()
        assert blocked.processed

    def test_freeze_validation(self, env, shared):
        t1 = shared.tenants[1]
        t1.freeze()
        with pytest.raises(RuntimeError):
            t1.freeze()
        t1.thaw()
        with pytest.raises(RuntimeError):
            t1.thaw()

    def test_write_quiesced_per_tenant(self, env, shared):
        t1, t2 = shared.tenants[1], shared.tenants[2]
        writer = env.process(t1.execute(write_txn(t1, list(range(5)))))
        env.run(until=1e-6)
        event1 = t1.write_quiesced()
        event2 = t2.write_quiesced()
        assert not event1.triggered
        assert event2.triggered  # tenant 2 is idle
        env.run()
        assert writer.processed


class TestSharedTenantSession:
    """A client holds the tenant's engine; ``stop(successor=...)`` is
    the connection hand-off."""

    def test_executes_against_shared(self, env, shared):
        t1 = shared.tenants[1]
        t = read_txn(t1, [0])
        run_process(env, t1.execute(t))
        assert t.finished_at is not None

    def test_unknown_tenant_rejected(self, env, shared):
        with pytest.raises(KeyError):
            shared.tenants[99]

    def test_rebind_routes_to_dedicated(self, env, shared, server):
        t1 = shared.tenants[1]
        dedicated = DatabaseEngine(
            env, server, t1.layout, name="dedicated", buffer_bytes=2 * MB
        )
        t1.stop(successor=dedicated)
        assert 1 not in shared.tenants
        t = read_txn(t1, [0])
        run_process(env, t1.execute(t))
        assert dedicated.stats.committed == 1
        assert t1.stats.committed == 0


def start_writer(env, tenant, gap, writes_per_txn, committed):
    """Open-loop writer: a ``writes_per_txn``-write transaction every
    ``gap`` seconds, each appending its write count to ``committed``
    once it commits."""

    def one(txn):
        yield from tenant.execute(txn)
        committed.append(txn.write_count)

    def loop(env):
        while tenant.successor is None:
            yield env.timeout(gap)
            env.process(one(write_txn(tenant, list(range(writes_per_txn)))))

    env.process(loop(env))


def run_migration(env, shared, target_server, rate_mb=8,
                  with_writes=True, gap=0.2, writes_per_txn=1):
    """Migrate tenant 1; returns the migration, its result, the write
    counts committed and the source's data version at its retirement."""
    tenant = shared.tenants[1]
    committed: list[int] = []
    if with_writes:
        start_writer(env, tenant, gap, writes_per_txn, committed)
    throttle = Throttle(env, rate=mb_per_sec(rate_mb))
    retired_at = []
    migration = FluidMigration(
        env, tenant, target_server, throttle,
        on_handover=lambda target: retired_at.append(tenant.data_version),
    )
    result = env.run(until=env.process(migration.run()))
    throttle.stop()
    env.run(until=env.now + 1.0)  # let forwarded writers commit
    return migration, result, committed, retired_at[0]


class TestTableLevelBackup:
    """The snapshot of a shared tenant is a table-level hot backup."""

    def test_scans_only_the_tenant(self, env, shared, target_server):
        migration, result, _, _ = run_migration(
            env, shared, target_server, with_writes=False
        )
        # The daemon holds two 16 MB tenants; one tablespace was read.
        assert result.snapshot_bytes == migration.source.data_bytes == 16 * MB
        assert result.target.data_bytes == result.snapshot_bytes

    def test_redo_counts_only_tagged_records(self, env, shared, target_server):
        """Writes to both tenants during the scan: the target replays
        only the migrating tenant's."""
        t1, t2 = shared.tenants[1], shared.tenants[2]

        def concurrent_writes(env):
            yield env.timeout(0.001)
            yield env.process(t1.execute(write_txn(t1, [0])))
            yield env.process(t2.execute(write_txn(t2, [0, 1, 2])))

        env.process(concurrent_writes(env))
        _, result, _, _ = run_migration(
            env, shared, target_server, with_writes=False
        )
        size = shared.costs.log_bytes_per_write
        assert result.target.stats.replica_applied_bytes == 1 * size
        assert result.target.data_version == 1

    def test_chunk_validation(self, env, shared, target_server):
        with pytest.raises(ValueError):
            FluidMigration(
                env, shared.tenants[1], target_server, Throttle(env, rate=1.0),
                chunk_bytes=0,
            )


class TestSharedTenantMigration:
    def test_tenant_moves_to_dedicated_daemon(self, env, shared, target_server):
        migration, result, _, _ = run_migration(env, shared, target_server)
        assert 1 not in shared.tenants
        assert 2 in shared.tenants  # the neighbour stays
        assert result.kind == "live"
        assert result.target.name == "tenant-1@target"
        assert result.downtime < 1.0
        # The target is sized from the source's pool: the daemon's.
        assert result.target.buffer_pool.capacity_pages == (
            shared.buffer_pool.capacity_pages
        )

    def test_session_follows_handover(self, env, shared, target_server):
        tenant = shared.tenants[1]
        _, result, _, _ = run_migration(env, shared, target_server)
        before = result.target.stats.committed
        t = read_txn(tenant, [0])
        run_process(env, tenant.execute(t))
        assert result.target.stats.committed == before + 1

    def test_data_version_preserved(self, env, shared, target_server):
        tenant = shared.tenants[1]
        run_process(env, tenant.execute(write_txn(tenant, [0, 1, 2])))
        before = tenant.data_version
        _, result, committed, _ = run_migration(env, shared, target_server)
        assert before == 3 and committed
        assert result.target.data_version == before + sum(committed)

    @pytest.mark.parametrize("seed", range(6))
    def test_no_write_lost_at_handover(self, seed):
        """Writers blocked by the handover freeze commit on the target.

        Every write committed during the migration counts in the
        target's data version, and none lands on the retired tenant.
        """
        env = Environment()
        streams = RandomStreams(seed)
        shared = SharedProcessEngine(
            env, Server(env, "source", streams=streams), buffer_bytes=8 * MB
        )
        for tenant_id in (1, 2):
            shared.add_tenant(tenant_id, TableLayout.for_data_size(16 * MB))
        tenant = shared.tenants[1]
        _, result, committed, retired = run_migration(
            env, shared, Server(env, "target", streams=streams),
            gap=0.003, writes_per_txn=3,
        )
        assert tenant.data_version == retired
        assert result.target.data_version == sum(committed)
        assert result.target.stats.committed > 0  # forwarded writers ran

    def test_deltas_ship_only_tenant_writes(self, env, shared, target_server):
        neighbour = shared.tenants[2]

        def neighbour_writer(env):
            for _ in range(200):
                yield env.timeout(0.05)
                t = write_txn(neighbour, [0, 1])
                yield env.process(neighbour.execute(t))

        env.process(neighbour_writer(env))
        migrated = shared.tenants[1]
        _, result, _, _ = run_migration(env, shared, target_server, rate_mb=4)
        # Tenant 2 wrote heavily into its own log; every delta byte
        # came from tenant 1's.
        delta_bytes = result.total_bytes - result.snapshot_bytes
        assert neighbour.binlog.head_lsn > 0
        assert delta_bytes <= migrated.binlog.head_lsn
        assert delta_bytes < migrated.binlog.head_lsn + neighbour.binlog.head_lsn

    def test_invariants_hold_after_migration(self, env, shared, target_server):
        migration, _, _, _ = run_migration(env, shared, target_server)
        assert migration.phase is MigrationPhase.COMPLETE
        assert check_fluid_invariants(migration) == []

    def test_abort_mid_snapshot_leaves_tenant_serving(self, env, shared, target_server):
        tenant, neighbour = shared.tenants[1], shared.tenants[2]
        committed: list[int] = []
        start_writer(env, tenant, 0.05, 1, committed)
        throttle = Throttle(env, rate=mb_per_sec(4))
        migration = FluidMigration(env, tenant, target_server, throttle)
        proc = env.process(migration.run())
        env.run(until=1.0)
        assert migration.phase is MigrationPhase.SNAPSHOT
        assert migration.try_abort("testing")
        with pytest.raises(MigrationAborted, match="testing"):
            env.run(until=proc)
        throttle.stop()
        assert sorted(shared.tenants) == [1, 2]
        assert tenant.state is EngineState.RUNNING and not tenant.is_frozen
        assert tenant.successor is None
        assert neighbour.state is EngineState.RUNNING
        assert neighbour.stats.freeze_count == 0
        assert check_fluid_invariants(migration) == []
        # The tenant keeps serving writes in the daemon.
        version = tenant.data_version
        env.run(until=env.now + 1.0)
        assert tenant.data_version > version
        assert tenant.data_version == sum(committed)
