"""Tests for the mysqld-like database engine."""

import random

import pytest

from repro.db.engine import DatabaseEngine, EngineState, FreezeMode
from repro.db.transactions import Operation, OpType, Transaction
from tests.conftest import run_process


def make_txn(engine, ops):
    return Transaction(engine.new_txn_id(), ops, arrived_at=engine.env.now)


def read_txn(engine, keys):
    return make_txn(engine, [Operation(OpType.SELECT, k) for k in keys])


def write_txn(engine, keys):
    return make_txn(engine, [Operation(OpType.UPDATE, k) for k in keys])


class TestExecution:
    def test_read_txn_commits(self, env, engine):
        txn = read_txn(engine, [0, 1, 2])
        run_process(env, engine.execute(txn))
        assert txn.finished_at is not None
        assert txn.latency > 0
        assert engine.stats.committed == 1
        assert engine.stats.operations == 3

    def test_write_txn_advances_version_and_binlog(self, env, engine):
        txn = write_txn(engine, [0, 1])
        run_process(env, engine.execute(txn))
        assert engine.data_version == 2
        assert engine.binlog.head_lsn == 2 * engine.costs.log_bytes_per_write
        assert engine.stats.log_flushes == 1

    def test_read_txn_leaves_binlog_alone(self, env, engine):
        run_process(env, engine.execute(read_txn(engine, [0])))
        assert engine.binlog.head_lsn == 0
        assert engine.data_version == 0

    def test_repeated_access_hits_buffer_pool(self, env, engine):
        run_process(env, engine.execute(read_txn(engine, [5])))
        before = engine.buffer_pool.stats.hits
        run_process(env, engine.execute(read_txn(engine, [5])))
        assert engine.buffer_pool.stats.hits == before + 1

    def test_scan_reads_multiple_pages(self, env, engine):
        rows_per_page = engine.layout.rows_per_page
        txn = make_txn(
            engine, [Operation(OpType.SCAN, 0, scan_length=3 * rows_per_page)]
        )
        run_process(env, engine.execute(txn))
        assert txn.pages_read >= 3

    def test_miss_latency_exceeds_hit_latency(self, env, engine):
        miss = read_txn(engine, [7])
        run_process(env, engine.execute(miss))
        hit = read_txn(engine, [7])
        run_process(env, engine.execute(hit))
        assert miss.latency > hit.latency

    def test_txn_ids_unique(self, engine):
        ids = {engine.new_txn_id() for _ in range(100)}
        assert len(ids) == 100


class TestFreeze:
    def test_freeze_blocks_writes_not_reads(self, env, engine):
        engine.freeze(FreezeMode.WRITES)
        reader = env.process(engine.execute(read_txn(engine, [0])))
        writer = env.process(engine.execute(write_txn(engine, [1])))
        env.run(until=5.0)
        assert reader.processed
        assert not writer.processed
        engine.thaw()
        env.run()
        assert writer.processed

    def test_freeze_all_blocks_reads_too(self, env, engine):
        engine.freeze(FreezeMode.ALL)
        reader = env.process(engine.execute(read_txn(engine, [0])))
        env.run(until=5.0)
        assert not reader.processed
        engine.thaw()
        env.run()
        assert reader.processed

    def test_double_freeze_rejected(self, engine):
        engine.freeze()
        with pytest.raises(RuntimeError):
            engine.freeze()

    def test_thaw_without_freeze_rejected(self, engine):
        with pytest.raises(RuntimeError):
            engine.thaw()

    def test_frozen_time_accounted(self, env, engine):
        engine.freeze()

        def unfreezer(env, engine):
            yield env.timeout(2.5)
            engine.thaw()

        env.process(unfreezer(env, engine))
        env.run()
        assert engine.stats.total_frozen_time == pytest.approx(2.5)
        assert engine.stats.freeze_count == 1

    def test_write_quiesced_fires_immediately_when_idle(self, env, engine):
        event = engine.write_quiesced()
        assert event.triggered

    def test_write_quiesced_waits_for_inflight_writer(self, env, engine):
        writer = env.process(engine.execute(write_txn(engine, list(range(5)))))
        env.run(until=1e-6)  # let the writer start executing

        def waiter(env, engine):
            yield engine.write_quiesced()
            # the writer must have fully committed by the time we wake
            return engine.stats.committed

        w = env.process(waiter(env, engine))
        env.run()
        assert writer.processed
        assert w.value == 1


class TestStopAndForwarding:
    def test_stopped_engine_rejects_without_successor(self, env, engine):
        engine.stop()
        with pytest.raises(RuntimeError):
            run_process(env, engine.execute(read_txn(engine, [0])))

    def test_stopped_engine_forwards_to_successor(self, env, server, engine):
        successor = DatabaseEngine(
            env, server, engine.layout, name="succ", buffer_bytes=2 * 1024 * 1024
        )
        engine.stop(successor=successor)
        txn = read_txn(engine, [0])
        run_process(env, engine.execute(txn))
        assert txn.finished_at is not None
        assert successor.stats.committed == 1
        assert engine.stats.committed == 0

    def test_writers_blocked_by_freeze_forward_after_stop(self, env, server, engine):
        successor = DatabaseEngine(
            env, server, engine.layout, name="succ", buffer_bytes=2 * 1024 * 1024
        )
        engine.freeze(FreezeMode.WRITES)
        writer = env.process(engine.execute(write_txn(engine, [1])))
        env.run(until=1.0)
        assert not writer.processed
        engine.stop(successor=successor)
        env.run()
        assert writer.processed
        assert successor.stats.committed == 1


class TestReplicaApply:
    def test_apply_delta_advances_lsn(self, env, engine):
        run_process(env, engine.apply_delta_bytes(1024, up_to_lsn=5000))
        assert engine.replicated_lsn == 5000
        assert engine.stats.replica_applied_bytes == 1024

    def test_apply_delta_rejects_regression(self, env, engine):
        run_process(env, engine.apply_delta_bytes(100, up_to_lsn=500))
        with pytest.raises(ValueError):
            run_process(env, engine.apply_delta_bytes(100, up_to_lsn=400))

    def test_apply_delta_rejects_negative(self, env, engine):
        with pytest.raises(ValueError):
            run_process(env, engine.apply_delta_bytes(-1, up_to_lsn=0))

    def test_apply_zero_bytes_is_instant(self, env, engine):
        start = env.now
        run_process(env, engine.apply_delta_bytes(0, up_to_lsn=0))
        assert env.now == start
