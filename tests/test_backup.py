"""Tests for the hot backup: the migration engine's copy and prepare steps.

The XtraBackup-like scan is the first step of every chunk of
:class:`~repro.migration.fluid.FluidMigration` (live migration is its
one-chunk case); the snapshot it returns records the log range the
prepare step replays.
"""

import pytest

from repro.db.backup import Snapshot
from repro.db.transactions import Operation, OpType, Transaction
from repro.migration.fluid import FluidMigration
from repro.migration.result import MigrationAborted
from repro.migration.throttle import Throttle
from repro.resources.server import Server
from repro.resources.units import MB, mb_per_sec
from tests.conftest import run_process


@pytest.fixture
def target_server(env, streams):
    return Server(env, "target-server", streams=streams)


def make_migration(env, engine, target_server, chunk_bytes=1 * MB, num_chunks=1):
    """A migration whose throttle never binds: the scan runs at disk speed."""
    throttle = Throttle(env, rate=mb_per_sec(1024))
    return FluidMigration(
        env, engine, target_server, throttle,
        num_chunks=num_chunks, chunk_bytes=chunk_bytes,
    )


def copy_chunk(env, migration, chunk=0):
    """Run one chunk's copy step to completion; returns its snapshot."""
    return run_process(env, migration._copy_chunk(chunk))


class TestHotBackup:
    def test_chunk_size_validation(self, env, engine, target_server):
        with pytest.raises(ValueError):
            make_migration(env, engine, target_server, chunk_bytes=0)

    def test_begin_records_lsn_and_size(self, env, engine, target_server):
        txn = Transaction(1, [Operation(OpType.UPDATE, 0)], arrived_at=0.0)
        run_process(env, engine.execute(txn))
        head = engine.binlog.head_lsn
        assert head > 0
        snapshot = copy_chunk(env, make_migration(env, engine, target_server))
        assert snapshot.start_lsn == head
        assert snapshot.total_bytes == engine.data_bytes

    def test_stream_covers_whole_database(self, env, engine, target_server):
        snapshot = copy_chunk(env, make_migration(env, engine, target_server))
        assert snapshot.complete
        assert snapshot.streamed_bytes == engine.data_bytes
        assert snapshot.progress == 1.0
        assert snapshot.chunks == -(-engine.data_bytes // (1 * MB))

    def test_chunk_scan_covers_its_page_range(self, env, engine, target_server):
        migration = make_migration(env, engine, target_server, num_chunks=4)
        lo, hi = migration.chunk_map.page_range(2)
        snapshot = copy_chunk(env, migration, chunk=2)
        assert snapshot.complete
        assert snapshot.streamed_bytes == (hi - lo) * engine.layout.page_size
        assert snapshot.streamed_bytes < engine.data_bytes

    def test_end_lsn_captures_concurrent_writes(self, env, engine, target_server):
        migration = make_migration(env, engine, target_server)

        def concurrent_writer(env, engine):
            yield env.timeout(0.01)
            txn = Transaction(
                engine.new_txn_id(),
                [Operation(OpType.UPDATE, k) for k in range(5)],
                arrived_at=env.now,
            )
            yield env.process(engine.execute(txn))

        env.process(concurrent_writer(env, engine))
        snapshot = copy_chunk(env, migration)
        assert snapshot.end_lsn == engine.binlog.head_lsn
        assert snapshot.redo_bytes > 0

    def test_redo_bytes_requires_completion(self):
        snapshot = Snapshot(start_lsn=0, total_bytes=1 * MB)
        assert snapshot.progress == 0.0
        assert not snapshot.complete
        with pytest.raises(ValueError):
            snapshot.redo_bytes

    def test_prepare_requires_complete_snapshot(self, env, engine, target_server):
        # An abort during the scan ends the copy short of its range: the
        # run rolls back before any prepare, so no target is ever built.
        throttle = Throttle(env, rate=mb_per_sec(4))
        migration = FluidMigration(env, engine, target_server, throttle)
        proc = env.process(migration.run())
        env.run(until=1.0)
        migration.abort("testing")
        with pytest.raises(MigrationAborted, match="testing"):
            env.run(until=proc)
        assert migration.target is None

    def test_prepare_brings_target_to_end_lsn(self, env, engine, target_server):
        txn = Transaction(
            engine.new_txn_id(),
            [Operation(OpType.UPDATE, k) for k in range(3)],
            arrived_at=0.0,
        )
        run_process(env, engine.execute(txn))
        migration = make_migration(env, engine, target_server, chunk_bytes=4 * MB)

        def writer_during_scan(env, engine):
            yield env.timeout(0.005)
            txn = Transaction(
                engine.new_txn_id(),
                [Operation(OpType.UPDATE, 9)],
                arrived_at=env.now,
            )
            yield env.process(engine.execute(txn))

        env.process(writer_during_scan(env, engine))
        snapshot = copy_chunk(env, migration)
        assert snapshot.redo_bytes > 0
        migration.target = migration._make_target()
        run_process(
            env, migration._apply(0, snapshot.redo_bytes, snapshot.end_lsn)
        )
        assert migration.target.replicated_lsn == snapshot.end_lsn

    def test_snapshot_consumes_source_disk_time(self, env, engine, target_server):
        before = engine.server.disk.stats.busy_time
        copy_chunk(env, make_migration(env, engine, target_server))
        assert engine.server.disk.stats.busy_time > before
        assert engine.server.disk.stats.bytes_read >= engine.data_bytes
