"""The chunk pipeline: chunk map, dual-resident routing, aborts.

Covers the `repro.migration.fluid` pipeline end to end — live
migration is its one-chunk case, and :class:`TestChunkPipeline` runs
every engine check at one chunk and at sixteen — plus exactly-once
chunk ownership under fencing tokens, per-chunk freeze windows, the
frontend chunk directory + stale-subscriber resync, and the
chaos-fuzz property that no interleaving of chunk handovers with
crashes/partitions yields a page served by a non-owner or a lost
write.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CASE_STUDY
from repro.db.engine import DatabaseEngine, EngineState
from repro.db.pages import TableLayout
from repro.experiments.chaos_fuzz import fuzz_point
from repro.experiments.common import scaled_config
from repro.faults import FaultInjector, FaultPlan, PartitionFault
from repro.middleware.frontend import Frontend
from repro.middleware.protocol import ChunkOwnership, TenantLocationUpdate
from repro.middleware.transport import MessageBus, RetryPolicy
from repro.migration.fluid import (
    ChunkMap,
    ChunkState,
    FluidMigration,
    FluidRouter,
    MigrationPhase,
    check_fluid_invariants,
)
from repro.migration.result import MigrationAborted
from repro.migration.throttle import Throttle
from repro.resources.server import Server
from repro.resources.units import MB, mb_per_sec
from repro.simulation import Environment, RandomStreams, Trace
from repro.workload.client import BenchmarkClient
from repro.workload.distributions import UniformChooser
from repro.workload.generator import PoissonArrivals, TransactionFactory

#: Small shared config for the chaos-fuzz-level fluid properties.
CFG = scaled_config(CASE_STUDY, 0.0625, 42)


@pytest.fixture
def target_server(env, streams):
    return Server(env, "target-server", streams=streams)


class CountingFactory(TransactionFactory):
    """Counts the write operations of the transactions it builds."""

    writes = 0

    def build(self, arrived_at=None):
        txn = super().build(arrived_at)
        self.writes += txn.write_count
        return txn


def attach_client(env, engine, rate=6.0, seed=3):
    trace = Trace()
    chooser = UniformChooser(engine.layout.num_rows, random.Random(seed))
    factory = CountingFactory(engine.layout, chooser, random.Random(seed + 1))
    arrivals = PoissonArrivals(rate, random.Random(seed + 2))
    client = BenchmarkClient(env, engine, factory, arrivals, trace=trace, series="lat")
    client.start()
    return client


class TestChunkMap:
    @pytest.mark.parametrize(
        "num_pages,num_chunks", [(10, 3), (16, 4), (7, 7), (100, 16), (5, 1), (33, 8)]
    )
    def test_chunk_of_inverts_page_range(self, num_pages, num_chunks):
        cmap = ChunkMap(num_pages, num_chunks)
        covered = []
        for chunk in range(num_chunks):
            lo, hi = cmap.page_range(chunk)
            assert lo < hi  # never an empty chunk (num_chunks <= num_pages)
            covered.extend(range(lo, hi))
            for page in range(lo, hi):
                assert cmap.chunk_of(page) == chunk
        # The ranges tile the page space exactly once.
        assert covered == list(range(num_pages))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkMap(0, 1)
        with pytest.raises(ValueError):
            ChunkMap(8, 0)
        with pytest.raises(ValueError):
            ChunkMap(8, 9)  # more chunks than pages

    def test_all_chunks_start_source_owned(self):
        cmap = ChunkMap(64, 4)
        assert cmap.owners() == {c: "source" for c in range(4)}
        assert cmap.flips == 0 and cmap.token_floor == 0

    def test_fencing_floor_rejects_stale_flips(self):
        cmap = ChunkMap(64, 4)
        assert cmap.flip_chunk(0, "target", token=5)
        assert cmap.owner(0) == "target"
        # A superseded lease's flip must bounce off the floor.
        assert not cmap.flip_chunk(1, "target", token=4)
        assert cmap.owner(1) == "source"
        assert cmap.stale_flips_rejected == 1
        # An equal token is admitted: the holder's own abort flip-backs
        # run under the same token the flips committed with.
        assert cmap.flip_chunk(0, "source", token=5)
        assert cmap.owner(0) == "source"
        assert cmap.flips == 2
        assert cmap.flip_log == [(0, "target", 5), (0, "source", 5)]


class TestFluidRouterFreeze:
    def make_router(self, env, engine):
        return FluidRouter(env, engine, ChunkMap(engine.layout.num_pages, 4))

    def test_double_freeze_rejected(self, env, engine):
        router = self.make_router(env, engine)
        router.freeze_chunk(2)
        assert router.chunk_frozen(2) and router.frozen_chunks == [2]
        with pytest.raises(RuntimeError):
            router.freeze_chunk(2)
        router.thaw_chunk(2)
        assert router.frozen_chunks == []

    def test_thaw_unfrozen_rejected(self, env, engine):
        router = self.make_router(env, engine)
        with pytest.raises(RuntimeError):
            router.thaw_chunk(0)

    def test_quiesce_event_fires_immediately_when_idle(self, env, engine):
        router = self.make_router(env, engine)
        assert router.chunk_write_quiesced(1).triggered


#: Chunk counts every engine check runs at: live, and the fluid default.
CHUNKS = (1, 16)


def start_migration(
    env, engine, target_server, num_chunks, rate_mb=8, client_rate=6.0, **kwargs
):
    """Build a migration with a client on the tenant, warmed up to t=2."""
    throttle = Throttle(env, rate=mb_per_sec(rate_mb))
    migration = FluidMigration(
        env, engine, target_server, throttle, num_chunks=num_chunks, **kwargs
    )
    # One chunk: the tenant keeps its engine.  More: the router serves it.
    tenant = migration.router if migration.chunked else engine
    client = attach_client(env, tenant, rate=client_rate)
    env.run(until=2.0)
    return client, throttle, migration


def run_to_end(env, migration, throttle):
    result = env.run(until=env.process(migration.run()))
    throttle.stop()
    return result


def drain(env, client):
    """Stop the client and let every arrived transaction finish."""
    env.run(until=env.now + 2.0)
    client.stop()
    env.run(until=env.now + 10.0)
    assert client.stats.completed == client.stats.arrived


def assert_rolled_back(migration, engine):
    """The tenant is back on an unfrozen, serving source."""
    assert migration.phase is MigrationPhase.ABORTED
    assert migration.rolled_back
    assert set(migration.chunk_map.owners().values()) == {"source"}
    assert migration.router.frozen_chunks == []
    assert engine.state is EngineState.RUNNING
    assert not engine.is_frozen
    if migration.target is not None:
        assert migration.target.state is EngineState.STOPPED
    assert check_fluid_invariants(migration) == []


class _AbortOnEntry:
    """Stands in for observability: requests an abort when the last
    chunk's pipeline enters ``phase``."""

    def __init__(self, phase):
        self.phase = phase

    def on_migration_phase(self, migration, phase):
        last = migration.chunk_states[-1]
        if phase is self.phase and last is ChunkState.COPYING:
            migration.try_abort(f"abort at {phase.value}")

    def on_migration_freeze(self, migration, seconds):
        pass


@pytest.mark.parametrize("num_chunks", CHUNKS)
class TestChunkPipeline:
    """One copy → freeze → handover engine, at one chunk and at many."""

    def test_completes_with_every_chunk_target_owned(
        self, env, engine, target_server, num_chunks
    ):
        client, throttle, migration = start_migration(
            env, engine, target_server, num_chunks
        )
        result = run_to_end(env, migration, throttle)
        assert migration.phase is MigrationPhase.COMPLETE
        assert set(migration.chunk_map.owners().values()) == {"target"}
        assert all(s is ChunkState.MIGRATED for s in migration.chunk_states)
        assert migration.chunk_map.flips == num_chunks
        assert engine.state is EngineState.STOPPED
        assert engine.successor is result.target
        assert result.duration > 0
        # Every page copied exactly once, plus the shipped deltas.
        assert result.snapshot_bytes == engine.data_bytes
        assert result.total_bytes >= result.snapshot_bytes
        assert result.delta_rounds >= num_chunks  # a final round per chunk
        if num_chunks == 1:
            assert (result.kind, result.num_chunks) == ("live", 0)
        else:
            assert (result.kind, result.num_chunks) == ("fluid", num_chunks)
        assert check_fluid_invariants(migration) == []

    def test_no_transactions_lost(self, env, engine, target_server, num_chunks):
        client, throttle, migration = start_migration(
            env, engine, target_server, num_chunks
        )
        result = run_to_end(env, migration, throttle)
        drain(env, client)
        # The target's data version counts every committed write: the
        # source's carried over at retirement, plus its own.
        assert client.factory.writes > 0
        assert result.target.data_version == client.factory.writes

    def test_workload_continues_during_migration(
        self, env, engine, target_server, num_chunks
    ):
        client, throttle, migration = start_migration(
            env, engine, target_server, num_chunks
        )
        result = run_to_end(env, migration, throttle)
        during = client.latencies.window_values(env.now - result.duration, env.now)
        assert len(during) > 10  # transactions kept completing throughout

    def test_abort_mid_copy_rolls_back(self, env, engine, target_server, num_chunks):
        client, throttle, migration = start_migration(
            env, engine, target_server, num_chunks, rate_mb=2, client_rate=8.0
        )
        proc = env.process(migration.run())
        # 16 MB at 2 MB/s: by t=5 half the pages are copied, and with
        # chunks some have flipped.
        env.run(until=5.0)
        while migration.phase is not MigrationPhase.SNAPSHOT:
            env.step()
        if migration.chunked:
            assert "target" in migration.chunk_map.owners().values()
        migration.abort("testing")
        with pytest.raises(MigrationAborted, match="testing"):
            env.run(until=proc)
        assert_rolled_back(migration, engine)
        # Target-resident writes were shipped home, none lost.
        assert migration.reclaimed_writes == migration.router.writes_to_target
        drain(env, client)

    def test_aborted_target_is_discarded(
        self, env, engine, target_server, num_chunks
    ):
        client, throttle, migration = start_migration(
            env, engine, target_server, num_chunks, rate_mb=16
        )
        proc = env.process(migration.run())
        while migration.target is None:
            env.step()
        assert migration.phase is MigrationPhase.PREPARE
        migration.abort()
        with pytest.raises(MigrationAborted):
            env.run(until=proc)
        assert migration.target.state is EngineState.STOPPED
        assert_rolled_back(migration, engine)

    def test_abort_refused_once_the_last_chunk_freezes(
        self, env, engine, target_server, num_chunks
    ):
        client, throttle, migration = start_migration(
            env, engine, target_server, num_chunks, rate_mb=16
        )
        proc = env.process(migration.run())
        while migration.phase is not MigrationPhase.HANDOVER:
            env.step()
        assert migration.chunk_states[-1] is ChunkState.FROZEN
        assert not migration.try_abort("too late")
        with pytest.raises(RuntimeError):
            migration.abort()
        env.run(until=proc)
        assert migration.phase is MigrationPhase.COMPLETE
        assert not migration.try_abort("too late")
        with pytest.raises(RuntimeError):
            migration.abort()

    def test_failed_fence_check_aborts_before_the_flip(
        self, env, engine, target_server, num_chunks
    ):
        throttle = Throttle(env, rate=mb_per_sec(8))
        migration = FluidMigration(
            env, engine, target_server, throttle,
            num_chunks=num_chunks, fence=lambda: False,
        )
        proc = env.process(migration.run())
        with pytest.raises(MigrationAborted, match="fencing check failed"):
            env.run(until=proc)
        assert migration.chunk_map.flips == 0
        assert engine.stats.freeze_count == 0
        assert_rolled_back(migration, engine)

    def test_abort_accepted_at_the_fence_rolls_back(
        self, env, engine, target_server, num_chunks
    ):
        # An abort the migration accepts must be honoured, even one
        # requested synchronously from inside the fence of the last chunk.
        accepted = []

        def fence():
            if migration.chunk_states[-1] is ChunkState.COPYING:
                accepted.append(migration.try_abort("abort at the fence"))
            return True

        throttle = Throttle(env, rate=mb_per_sec(8))
        migration = FluidMigration(
            env, engine, target_server, throttle,
            num_chunks=num_chunks, fence=fence,
        )
        proc = env.process(migration.run())
        with pytest.raises(MigrationAborted, match="abort at the fence"):
            env.run(until=proc)
        assert accepted == [True]
        assert_rolled_back(migration, engine)

    def test_stale_token_flip_aborts(self, env, engine, target_server, num_chunks):
        throttle = Throttle(env, rate=mb_per_sec(8))
        migration = FluidMigration(
            env, engine, target_server, throttle, num_chunks=num_chunks, token=3
        )
        # Another holder already committed under a higher token: every
        # flip this migration attempts must bounce off the floor.
        migration.chunk_map.flip_chunk(0, "source", token=99)
        proc = env.process(migration.run())
        with pytest.raises(MigrationAborted, match="stale fencing token"):
            env.run(until=proc)
        assert migration.chunk_map.stale_flips_rejected == 1
        assert_rolled_back(migration, engine)

    @pytest.mark.parametrize(
        "phase",
        (MigrationPhase.SNAPSHOT, MigrationPhase.PREPARE, MigrationPhase.DELTA),
        ids=lambda phase: phase.value,
    )
    def test_nothing_left_frozen_on_any_exit(
        self, env, engine, target_server, num_chunks, phase
    ):
        # Aborted as the last chunk enters each step, after every other
        # chunk has flipped: the rollback flips them back, thaws
        # whatever is frozen and discards the target.
        client, throttle, migration = start_migration(
            env, engine, target_server, num_chunks,
            client_rate=12.0, obs=_AbortOnEntry(phase),
        )
        proc = env.process(migration.run())
        with pytest.raises(MigrationAborted, match=f"abort at {phase.value}"):
            env.run(until=proc)
        assert_rolled_back(migration, engine)
        assert migration.chunk_map.flips == 2 * (num_chunks - 1)
        drain(env, client)


class TestFluidMigration:
    """What only a chunked migration does: per-chunk flips, dual residency."""

    def run_fluid(
        self, env, engine, target_server, rate_mb=8, client_rate=6.0, chunks=8
    ):
        client, throttle, migration = start_migration(
            env, engine, target_server, chunks,
            rate_mb=rate_mb, client_rate=client_rate,
        )
        return client, migration, run_to_end(env, migration, throttle)

    def test_parameter_validation(self, env, engine, target_server):
        throttle = Throttle(env, rate=1.0)
        with pytest.raises(ValueError):
            FluidMigration(env, engine, target_server, throttle, num_chunks=0)

    def test_chunks_clamped_to_page_count(self, env, engine, target_server):
        throttle = Throttle(env, rate=1.0)
        migration = FluidMigration(
            env, engine, target_server, throttle, num_chunks=10**6
        )
        assert migration.num_chunks == engine.layout.num_pages

    def test_one_flip_per_chunk_under_the_token(self, env, engine, target_server):
        client, migration, result = self.run_fluid(env, engine, target_server)
        cmap = migration.chunk_map
        assert cmap.flips == migration.num_chunks
        assert cmap.stale_flips_rejected == 0
        assert sorted(chunk for chunk, _, _ in cmap.flip_log) == list(
            range(migration.num_chunks)
        )

    def test_write_conservation_and_no_foreign_serves(
        self, env, engine, target_server
    ):
        client, migration, result = self.run_fluid(
            env, engine, target_server, client_rate=12.0
        )
        router = migration.router
        assert router.foreign_serves == 0
        assert (
            router.writes_to_source + router.writes_to_target
            == router.writes_committed
        )
        # Dual residency actually happened: both sides committed writes.
        assert router.writes_to_source > 0
        assert router.writes_to_target > 0

    def test_freeze_windows_shorter_than_live_freeze(self):
        """The Megaphone claim: N mini-freezes beat one whole-tenant one."""
        downtimes = {}
        for num_chunks in (1, 8):
            env = Environment()
            streams = RandomStreams(7)
            src = Server(env, "src", streams=streams)
            dst = Server(env, "dst", streams=streams)
            engine = DatabaseEngine(
                env, src, TableLayout.for_data_size(16 * MB),
                name="t", buffer_bytes=2 * MB,
            )
            client, throttle, migration = start_migration(
                env, engine, dst, num_chunks, rate_mb=4, client_rate=12.0
            )
            downtimes[num_chunks] = run_to_end(env, migration, throttle).downtime
        assert downtimes[8] < downtimes[1]


class TestFrontendChunkDirectory:
    def test_chunk_window_lifecycle(self, env):
        bus = MessageBus(env)
        frontend = Frontend(env, bus)
        assert not frontend.chunked(1)
        assert frontend.lookup_chunk(1, 0) is None
        frontend.begin_chunked(1, 4, "node-a")
        assert frontend.chunked(1)
        assert frontend.chunk_owners(1) == {c: "node-a" for c in range(4)}
        frontend.update_chunk_location(1, 2, "node-b", token=7)
        assert frontend.lookup_chunk(1, 2) == "node-b"
        assert frontend.lookup_chunk(1, 1) == "node-a"
        frontend.end_chunked(1)
        assert not frontend.chunked(1)
        assert frontend.chunk_owners(1) is None

    def test_chunk_flips_broadcast_with_token(self, env):
        bus = MessageBus(env)
        frontend = Frontend(env, bus)
        app = bus.endpoint("app")
        frontend.subscribe(1, "app")
        frontend.begin_chunked(1, 4, "node-a")
        frontend.update_chunk_location(1, 3, "node-b", token=9)

        def receiver(env):
            envelope = yield app.receive()
            return envelope.message

        message = env.run(until=env.process(receiver(env)))
        assert isinstance(message, ChunkOwnership)
        assert message.chunk_index == 3
        assert message.node == "node-b"
        assert message.token == 9


class _BusOnly:
    """Just enough cluster for FaultInjector.attach."""

    def __init__(self, bus):
        self.bus = bus


class TestFrontendResync:
    """Location pushes are no longer fire-and-forget (regression)."""

    def make_partitioned_frontend(self, env, *partitions):
        bus = MessageBus(env, retry_policy=RetryPolicy())
        FaultInjector(
            env, FaultPlan(partitions=tuple(partitions)), RandomStreams(0)
        ).attach(_BusOnly(bus))
        frontend = Frontend(env, bus)
        app = bus.endpoint("app")
        frontend.subscribe(1, "app")
        return frontend, app

    def test_oneway_partition_marks_subscriber_stale_then_resyncs(self, env):
        frontend, app = self.make_partitioned_frontend(
            env,
            PartitionFault(
                at=1.0, duration=10.0, kind="oneway",
                src="frontend", dst="app",
            ),
        )
        env.run(until=2.0)
        # Handover push inside the partition window: every attempt is
        # eaten by the forward link — the push must fail loudly, not
        # silently count as published.
        frontend.update_location(1, "node-b")
        env.run(until=8.0)
        assert frontend.updates_published == 0
        assert frontend.updates_failed == 1
        assert app.received == 0
        # After the partition heals, the next lookup re-syncs the stale
        # subscriber: the directory heals itself.
        env.run(until=12.0)
        assert frontend.lookup(1).node == "node-b"
        env.run(until=14.0)
        assert frontend.resyncs == 1
        assert frontend.updates_published == 1
        assert app.received == 1

        def receiver(env):
            envelope = yield app.receive()
            return envelope.message

        message = env.run(until=env.process(receiver(env)))
        assert isinstance(message, TenantLocationUpdate)
        assert message.node == "node-b"

    def test_lost_acks_count_as_interrupted_and_resync(self, env):
        # Reverse (ack) path cut: the payload lands but the frontend
        # cannot know — accounted as interrupted, subscriber treated
        # as possibly-stale, re-pushed on the next lookup.
        frontend, app = self.make_partitioned_frontend(
            env,
            PartitionFault(
                at=1.0, duration=10.0, kind="oneway",
                src="app", dst="frontend",
            ),
        )
        env.run(until=2.0)
        frontend.update_location(1, "node-b")
        env.run(until=8.0)
        assert frontend.updates_published == 0
        assert frontend.updates_interrupted == 1
        assert frontend.updates_failed == 0
        assert app.received >= 1  # delivered, just unacknowledged
        env.run(until=12.0)
        frontend.lookup(1)
        env.run(until=14.0)
        assert frontend.resyncs == 1
        assert frontend.updates_published == 1

    def test_clean_push_still_counts_once(self, env):
        bus = MessageBus(env, retry_policy=RetryPolicy())
        frontend = Frontend(env, bus)
        bus.endpoint("app")
        frontend.subscribe(1, "app")
        frontend.update_location(1, "node-a")
        env.run()
        assert frontend.updates_published == 1
        assert frontend.updates_failed == 0
        assert frontend.resyncs == 0


_ENDPOINT = st.sampled_from(("source", "target", "controller"))


@st.composite
def _partition(draw):
    at = float(draw(st.integers(min_value=2, max_value=12)))
    duration = float(draw(st.integers(min_value=1, max_value=10)))
    kind = draw(st.sampled_from(("oneway", "split", "flap")))
    if kind == "split":
        lone = draw(_ENDPOINT)
        rest = tuple(n for n in ("source", "target", "controller") if n != lone)
        return {"at": at, "duration": duration, "kind": "split",
                "groups": ((lone,), rest)}
    src = draw(_ENDPOINT)
    dst = draw(st.sampled_from(
        tuple(n for n in ("source", "target", "controller") if n != src)
    ))
    fault = {"at": at, "duration": duration, "kind": kind, "src": src, "dst": dst}
    if kind == "flap":
        fault["period"] = 1.0
        fault["duty"] = 0.5
    return fault


class TestFluidChaos:
    def test_clean_schedule_completes_with_one_flip_per_chunk(self):
        record = fuzz_point(CFG, label="fluid-clean", fluid_chunks=8)
        assert record.ok, record.violations
        assert record.outcome == "completed"
        assert record.counter("fluid_chunk_flips") == 8
        assert record.counter("fluid_stale_flips_rejected") == 0
        assert record.counter("fluid_foreign_serves") == 0

    def test_target_crash_mid_chunk_keeps_chunks_exactly_once_owned(self):
        record = fuzz_point(
            CFG,
            label="fluid-crash",
            scheduled=({"at": 6.0, "kind": "crash_node", "node": "target"},),
            fluid_chunks=8,
        )
        assert record.ok, record.violations
        assert record.outcome in ("completed", "aborted")

    @settings(max_examples=10, deadline=None)
    @given(st.lists(_partition(), min_size=1, max_size=3))
    def test_no_partition_interleaving_breaks_chunk_ownership(self, partitions):
        # The structural claim of the fluid construction: whatever the
        # partition schedule, every chunk ends exactly-once owned, no
        # page is ever served by a non-owner, and no write is lost
        # (check_fluid_invariants runs inside the fuzz battery).
        record = fuzz_point(
            CFG,
            label="fluid-property",
            partitions=tuple(partitions),
            fluid_chunks=8,
        )
        assert record.ok, record.violations
        assert record.outcome in ("completed", "aborted")
