"""Tests for shared-process multitenancy and table-level migration."""

import pytest

from repro.db.pages import TableLayout
from repro.db.shared import (
    SharedProcessEngine,
    SharedTenantSession,
    TableLevelBackup,
)
from repro.db.transactions import Operation, OpType, Transaction
from repro.migration import SharedTenantMigration, Throttle
from repro.resources.server import Server
from repro.resources.units import MB, mb_per_sec
from tests.conftest import run_process


@pytest.fixture
def shared(env, server):
    engine = SharedProcessEngine(env, server, buffer_bytes=8 * MB)
    for tenant_id in (1, 2):
        engine.add_tenant(tenant_id, TableLayout.for_data_size(16 * MB))
    return engine


def txn(engine, ops):
    return Transaction(engine.new_txn_id(), ops, arrived_at=engine.env.now)


def read_txn(engine, keys):
    return txn(engine, [Operation(OpType.SELECT, k) for k in keys])


def write_txn(engine, keys):
    return txn(engine, [Operation(OpType.UPDATE, k) for k in keys])


class TestSharedProcessEngine:
    def test_tenant_management(self, env, shared):
        assert sorted(shared.tenants) == [1, 2]
        with pytest.raises(ValueError):
            shared.add_tenant(1, TableLayout.for_data_size(4 * MB))
        shared.drop_tenant(2)
        assert sorted(shared.tenants) == [1]
        with pytest.raises(KeyError):
            shared.drop_tenant(2)

    def test_execute_against_unknown_tenant(self, env, shared):
        t = read_txn(shared, [0])
        with pytest.raises(KeyError):
            run_process(env, shared.execute(99, t))

    def test_execution_and_versions(self, env, shared):
        run_process(env, shared.execute(1, write_txn(shared, [0, 1])))
        run_process(env, shared.execute(2, write_txn(shared, [5])))
        assert shared.tenants[1].data_version == 2
        assert shared.tenants[2].data_version == 1
        assert shared.committed == 2

    def test_binlog_records_tagged_by_tenant(self, env, shared):
        run_process(env, shared.execute(1, write_txn(shared, [0, 1])))
        run_process(env, shared.execute(2, write_txn(shared, [5])))
        head = shared.binlog.head_lsn
        size = shared.costs.log_bytes_per_write
        assert shared.binlog.tagged_bytes_between(0, head, tag=1) == 2 * size
        assert shared.binlog.tagged_bytes_between(0, head, tag=2) == 1 * size

    def test_pages_namespaced_per_tenant(self, env, shared):
        # The same page id for different tenants: two distinct misses.
        run_process(env, shared.execute(1, read_txn(shared, [0])))
        run_process(env, shared.execute(2, read_txn(shared, [0])))
        assert shared.buffer_pool.stats.misses == 2
        # Re-reading tenant 1's key 0 now hits.
        run_process(env, shared.execute(1, read_txn(shared, [0])))
        assert shared.buffer_pool.stats.hits == 1

    def test_neighbours_share_frames(self, env, server):
        """The isolation cost of consolidation: a scan-heavy neighbour
        evicts another tenant's hot pages (Section 2.1's motivation
        for the paper's process-per-tenant model)."""
        engine = SharedProcessEngine(env, server, buffer_bytes=1 * MB)
        engine.add_tenant(1, TableLayout.for_data_size(4 * MB))
        engine.add_tenant(2, TableLayout.for_data_size(4 * MB))
        run_process(env, engine.execute(1, read_txn(engine, [0])))
        # Tenant 2 floods the pool.
        rows_per_page = engine.tenants[2].layout.rows_per_page
        flood = [k * rows_per_page for k in range(64)]
        run_process(env, engine.execute(2, read_txn(engine, flood)))
        before = engine.buffer_pool.stats.misses
        run_process(env, engine.execute(1, read_txn(engine, [0])))
        assert engine.buffer_pool.stats.misses == before + 1  # evicted!

    def test_per_tenant_freeze_isolated(self, env, shared):
        shared.freeze_tenant(1)
        blocked = env.process(shared.execute(1, write_txn(shared, [0])))
        free = env.process(shared.execute(2, write_txn(shared, [0])))
        env.run(until=5.0)
        assert not blocked.processed
        assert free.processed
        shared.thaw_tenant(1)
        env.run()
        assert blocked.processed

    def test_freeze_validation(self, env, shared):
        shared.freeze_tenant(1)
        with pytest.raises(RuntimeError):
            shared.freeze_tenant(1)
        shared.thaw_tenant(1)
        with pytest.raises(RuntimeError):
            shared.thaw_tenant(1)

    def test_write_quiesced_per_tenant(self, env, shared):
        writer = env.process(shared.execute(1, write_txn(shared, list(range(5)))))
        env.run(until=1e-6)
        event1 = shared.write_quiesced(1)
        event2 = shared.write_quiesced(2)
        assert not event1.triggered
        assert event2.triggered  # tenant 2 is idle
        env.run()
        assert writer.processed


class TestTableLevelBackup:
    def test_scans_only_the_tenant(self, env, shared):
        backup = TableLevelBackup(env, shared, tenant_id=1, chunk_bytes=4 * MB)
        snapshot = backup.begin()
        assert snapshot.total_bytes == shared.tenants[1].data_bytes

        def stream(env):
            while not snapshot.complete:
                yield env.process(backup.read_chunk(snapshot))

        run_process(env, stream(env))
        assert snapshot.complete
        assert snapshot.streamed_bytes == shared.tenants[1].data_bytes

    def test_redo_counts_only_tagged_records(self, env, shared):
        backup = TableLevelBackup(env, shared, tenant_id=1, chunk_bytes=4 * MB)
        snapshot = backup.begin()

        def concurrent_writes(env):
            yield env.timeout(0.001)
            yield env.process(shared.execute(1, write_txn(shared, [0])))
            yield env.process(shared.execute(2, write_txn(shared, [0, 1, 2])))

        env.process(concurrent_writes(env))

        def stream(env):
            while not snapshot.complete:
                yield env.process(backup.read_chunk(snapshot))

        run_process(env, stream(env))
        size = shared.costs.log_bytes_per_write
        assert backup.redo_bytes(snapshot) == 1 * size  # tenant 1 only

    def test_chunk_validation(self, env, shared):
        with pytest.raises(ValueError):
            TableLevelBackup(env, shared, tenant_id=1, chunk_bytes=0)


class TestSharedTenantSession:
    def test_executes_against_shared(self, env, shared):
        session = SharedTenantSession(shared, 1)
        t = read_txn(shared, [0])
        run_process(env, session.execute(t))
        assert t.finished_at is not None

    def test_unknown_tenant_rejected(self, env, shared):
        with pytest.raises(KeyError):
            SharedTenantSession(shared, 99)

    def test_rebind_routes_to_dedicated(self, env, shared, server):
        from repro.db.engine import DatabaseEngine

        session = SharedTenantSession(shared, 1)
        dedicated = DatabaseEngine(
            env, server, shared.tenants[1].layout, name="dedicated",
            buffer_bytes=2 * MB,
        )
        session.rebind(dedicated)
        t = read_txn(shared, [0])
        run_process(env, session.execute(t))
        assert dedicated.stats.committed == 1


class TestSharedTenantMigration:
    def run_migration(self, env, shared, target_server, rate_mb=8,
                      with_writes=True):
        session = SharedTenantSession(shared, 1)

        def writer(env):
            while 1 in shared.tenants:
                yield env.timeout(0.2)
                if 1 not in shared.tenants:
                    break
                t = write_txn(shared, [0])
                yield env.process(session.execute(t))

        if with_writes:
            env.process(writer(env))
        throttle = Throttle(env, rate=mb_per_sec(rate_mb))
        migration = SharedTenantMigration(
            env, shared, 1, target_server, throttle,
            target_buffer_bytes=2 * MB,
            on_handover=session.rebind,
        )
        result = env.run(until=env.process(migration.run()))
        throttle.stop()
        return session, result

    def test_tenant_moves_to_dedicated_daemon(self, env, shared, streams):
        target_server = Server(env, "target", streams=streams)
        session, result = self.run_migration(env, shared, target_server)
        assert 1 not in shared.tenants
        assert 2 in shared.tenants  # the neighbour stays
        assert result.target.name == "tenant-1@target"
        assert result.downtime < 1.0

    def test_session_follows_handover(self, env, shared, streams):
        target_server = Server(env, "target", streams=streams)
        session, result = self.run_migration(env, shared, target_server)
        t = read_txn(shared, [0])
        run_process(env, session.execute(t))
        assert result.target.stats.committed >= 1

    def test_data_version_preserved(self, env, shared, streams):
        target_server = Server(env, "target", streams=streams)
        before = shared.tenants[1].data_version
        session, result = self.run_migration(env, shared, target_server)
        assert result.target.data_version >= before

    def test_deltas_ship_only_tenant_writes(self, env, shared, streams):
        target_server = Server(env, "target", streams=streams)

        def neighbour_writer(env):
            for _ in range(200):
                yield env.timeout(0.05)
                if 2 not in shared.tenants:
                    break
                t = write_txn(shared, [0, 1])
                yield env.process(shared.execute(2, t))

        env.process(neighbour_writer(env))
        session, result = self.run_migration(env, shared, target_server,
                                             rate_mb=4, with_writes=True)
        # tenant 2 wrote heavily, but only tenant 1's bytes shipped:
        # every shipped delta byte is a multiple of tenant-1 records.
        delta_bytes = result.total_bytes - result.snapshot_bytes
        assert delta_bytes < shared.binlog.head_lsn
