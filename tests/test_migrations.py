"""Integration tests for stop-and-copy and live migration.

Live migration is the one-chunk case of
:class:`~repro.migration.fluid.FluidMigration`; the checks it shares
with fluid migration are in ``tests/test_fluid.py``'s chunk table, and
the paper's claims about the one-chunk case are here.
"""

import random

import pytest

from repro.db.engine import DatabaseEngine, EngineState
from repro.migration.fluid import FluidMigration
from repro.migration.stop_and_copy import DumpReimportMigration, StopAndCopyMigration
from repro.migration.throttle import Throttle
from repro.resources.server import Server
from repro.resources.units import MB, mb_per_sec
from repro.simulation import Environment, RandomStreams, Trace
from repro.workload.client import BenchmarkClient
from repro.workload.distributions import UniformChooser
from repro.workload.generator import PoissonArrivals, TransactionFactory
from repro.db.pages import TableLayout


@pytest.fixture
def target_server(env, streams):
    return Server(env, "target-server", streams=streams)


def attach_client(env, engine, rate=6.0, seed=3):
    trace = Trace()
    chooser = UniformChooser(engine.layout.num_rows, random.Random(seed))
    factory = TransactionFactory(engine.layout, chooser, random.Random(seed + 1))
    arrivals = PoissonArrivals(rate, random.Random(seed + 2))
    client = BenchmarkClient(env, engine, factory, arrivals, trace=trace, series="lat")
    client.start()
    return client


class TestStopAndCopy:
    def test_copies_everything_and_switches(self, env, engine, target_server):
        migration = StopAndCopyMigration(env, engine, target_server)
        result = env.run(until=env.process(migration.run()))
        assert result.total_bytes == engine.data_bytes
        assert result.downtime == result.duration
        assert engine.state is EngineState.STOPPED
        assert engine.successor is result.target
        assert result.target.replicated_lsn == engine.binlog.head_lsn

    def test_downtime_proportional_to_size(self, env, streams):
        sizes = [8 * MB, 32 * MB]
        downtimes = []
        for i, size in enumerate(sizes):
            server = Server(env, f"src-{i}", streams=streams)
            target = Server(env, f"dst-{i}", streams=streams)
            eng = DatabaseEngine(
                env, server, TableLayout.for_data_size(size),
                name=f"t{i}", buffer_bytes=2 * MB,
            )
            migration = StopAndCopyMigration(env, eng, target)
            result = env.run(until=env.process(migration.run()))
            downtimes.append(result.downtime)
        ratio = downtimes[1] / downtimes[0]
        assert 3.0 <= ratio <= 5.0  # ~4x the data: ~4x the downtime

    def test_dump_reimport_slower_than_file_copy(self, env, streams):
        results = {}
        for i, cls in enumerate((StopAndCopyMigration, DumpReimportMigration)):
            server = Server(env, f"s{i}", streams=streams)
            target = Server(env, f"d{i}", streams=streams)
            eng = DatabaseEngine(
                env, server, TableLayout.for_data_size(16 * MB),
                name=f"e{i}", buffer_bytes=2 * MB,
            )
            migration = cls(env, eng, target)
            results[cls.kind] = env.run(until=env.process(migration.run()))
        assert (
            results["dump-reimport"].downtime > 1.5 * results["stop-and-copy"].downtime
        )

    def test_queries_blocked_during_copy_then_forwarded(
        self, env, engine, target_server
    ):
        client = attach_client(env, engine, rate=5.0)
        env.run(until=2.0)
        migration = StopAndCopyMigration(env, engine, target_server)
        result = env.run(until=env.process(migration.run()))
        env.run(until=env.now + 2.0)
        client.stop()
        env.run(until=env.now + 5.0)
        # everything that arrived eventually completed (on the target)
        assert client.stats.completed == client.stats.arrived
        assert result.target.stats.committed > 0

    def test_throttled_copy_respects_rate(self, env, engine, target_server):
        throttle = Throttle(env, rate=mb_per_sec(4))
        migration = StopAndCopyMigration(env, engine, target_server, throttle=throttle)
        result = env.run(until=env.process(migration.run()))
        expected = engine.data_bytes / mb_per_sec(4)
        assert result.duration == pytest.approx(expected, rel=0.2)

    def test_chunk_validation(self, env, engine, target_server):
        with pytest.raises(ValueError):
            StopAndCopyMigration(env, engine, target_server, chunk_bytes=0)


class TestLiveMigration:
    def run_live(self, env, engine, target_server, rate_mb=8, client_rate=6.0):
        client = attach_client(env, engine, rate=client_rate)
        env.run(until=2.0)
        throttle = Throttle(env, rate=mb_per_sec(rate_mb))
        migration = FluidMigration(env, engine, target_server, throttle)
        result = env.run(until=env.process(migration.run()))
        throttle.stop()
        return client, migration, result

    def test_consistency_at_handover(self, env, engine, target_server):
        client, migration, result = self.run_live(env, engine, target_server)
        assert result.target.replicated_lsn == engine.binlog.head_lsn

    def test_source_stopped_with_successor(self, env, engine, target_server):
        client, migration, result = self.run_live(env, engine, target_server)
        assert engine.state is EngineState.STOPPED
        assert engine.successor is result.target

    def test_downtime_well_under_one_second(self, env, engine, target_server):
        client, migration, result = self.run_live(env, engine, target_server)
        assert result.downtime < 1.0

    def test_delta_rounds_ship_concurrent_writes(self, env, engine, target_server):
        # aggressive writes + slow migration: deltas must be non-empty
        client, migration, result = self.run_live(
            env, engine, target_server, rate_mb=4, client_rate=12.0
        )
        assert result.total_bytes > result.snapshot_bytes  # deltas shipped
        assert result.delta_rounds >= 1

    def test_average_rate_close_to_throttle(self, env, engine, target_server):
        client, migration, result = self.run_live(env, engine, target_server, rate_mb=8)
        assert result.average_rate == pytest.approx(mb_per_sec(8), rel=0.25)

    def test_on_handover_called_with_target(self, env, engine, target_server):
        seen = []
        throttle = Throttle(env, rate=mb_per_sec(16))
        migration = FluidMigration(
            env, engine, target_server, throttle, on_handover=seen.append
        )
        result = env.run(until=env.process(migration.run()))
        assert seen == [result.target]

    def test_faster_throttle_shortens_migration(self, env, streams):
        durations = []
        for i, rate in enumerate((4, 16)):
            src = Server(env, f"s{i}", streams=streams)
            dst = Server(env, f"d{i}", streams=streams)
            eng = DatabaseEngine(
                env, src, TableLayout.for_data_size(16 * MB),
                name=f"e{i}", buffer_bytes=2 * MB,
            )
            throttle = Throttle(env, rate=mb_per_sec(rate))
            migration = FluidMigration(env, eng, dst, throttle)
            result = env.run(until=env.process(migration.run()))
            throttle.stop()
            durations.append(result.duration)
        assert durations[1] < durations[0] / 2


class TestMigrationConsistencyProperty:
    """Consistency must hold for arbitrary workloads and seeds."""

    @pytest.mark.parametrize("seed", [1, 7, 23, 99])
    @pytest.mark.parametrize("write_heavy", [False, True])
    def test_target_always_caught_up(self, seed, write_heavy):
        env = Environment()
        streams = RandomStreams(seed)
        src = Server(env, "src", streams=streams)
        dst = Server(env, "dst", streams=streams)
        engine = DatabaseEngine(
            env, src, TableLayout.for_data_size(24 * MB),
            name="t", buffer_bytes=4 * MB,
        )
        rate = 15.0 if write_heavy else 4.0
        client = attach_client(env, engine, rate=rate, seed=seed)
        env.run(until=1.0)
        throttle = Throttle(env, rate=mb_per_sec(6))
        migration = FluidMigration(env, engine, dst, throttle)
        result = env.run(until=env.process(migration.run()))
        throttle.stop()

        # Invariant 1: the target holds every committed write.
        assert result.target.replicated_lsn == engine.binlog.head_lsn
        # Invariant 2: sub-second blackout.
        assert result.downtime < 1.0
        # Invariant 3: nothing in flight is ever lost.
        env.run(until=env.now + 2.0)
        client.stop()
        env.run(until=env.now + 30.0)
        assert client.stats.completed == client.stats.arrived
