"""Tests for the on-demand-pull (Zephyr-style) migration baseline."""

import pytest

from repro.core.config import EVALUATION
from repro.db import DatabaseEngine, TableLayout
from repro.db.engine import EngineState
from repro.migration import OnDemandMigration, PartialReplicaEngine, Throttle
from repro.resources import Server, mb_per_sec
from repro.resources.units import MB, PAGE_SIZE
from repro.simulation import Environment, RandomStreams, Trace
from repro.workload import (
    BenchmarkClient,
    PoissonArrivals,
    TransactionFactory,
    UniformChooser,
)


class Handle:
    """Tenant-like indirection the client follows across the switch."""

    def __init__(self, engine):
        self.engine = engine


def build(env, streams, data_mb=64, rate=3.0):
    src = Server(env, "src", params=EVALUATION.server, streams=streams)
    dst = Server(env, "dst", params=EVALUATION.server, streams=streams)
    layout = TableLayout.for_data_size(data_mb * MB)
    engine = DatabaseEngine(env, src, layout, name="t", buffer_bytes=8 * MB)
    handle = Handle(engine)
    trace = Trace()
    factory = TransactionFactory(
        layout,
        UniformChooser(layout.num_rows, streams.stream("keys")),
        streams.stream("ops"),
    )
    client = BenchmarkClient(
        env, handle, factory, PoissonArrivals(rate, streams.stream("arr")),
        trace=trace, series="lat",
    )
    client.start()
    return src, dst, engine, handle, client, trace


def run_on_demand(env, engine, dst, handle, push_rate_mb=None, warmup=5.0):
    throttle = (
        Throttle(env, rate=mb_per_sec(push_rate_mb))
        if push_rate_mb is not None
        else None
    )
    migration = OnDemandMigration(
        env, engine, dst, push_throttle=throttle,
        on_handover=lambda t: setattr(handle, "engine", t),
    )

    def experiment():
        yield env.timeout(warmup)
        result = yield env.process(migration.run())
        return result

    result = env.run(until=env.process(experiment()))
    if throttle is not None:
        throttle.stop()
    return migration, result


class TestOnDemandMigration:
    def test_switch_is_near_instant(self, env, streams):
        src, dst, engine, handle, client, trace = build(env, streams)
        migration, result = run_on_demand(env, engine, dst, handle, push_rate_mb=8)
        # The wireframe is tiny: ownership moves in well under a second
        # of *transfer* (modulo queueing behind the workload).
        assert result.downtime < 5.0
        assert engine.state is EngineState.STOPPED
        assert isinstance(result.target, PartialReplicaEngine)

    def test_all_pages_eventually_present(self, env, streams):
        src, dst, engine, handle, client, trace = build(env, streams)
        migration, result = run_on_demand(env, engine, dst, handle, push_rate_mb=8)
        assert result.target.pages_missing == 0
        assert result.total_bytes // PAGE_SIZE >= engine.layout.num_pages

    @pytest.mark.parametrize("push_rate_mb", [2, 8, 32])
    def test_page_transfer_conservation(self, push_rate_mb):
        """Every page crosses the wire exactly once on *some* path.

        Regression for the pusher double-billing pages the pull path
        had already fetched: a push that loses the race is counted as
        redundant, never as a pushed page, so the pushed/pulled split
        always sums to the page count.
        """
        env = Environment()
        streams = RandomStreams(11)
        src, dst, engine, handle, client, trace = build(env, streams, rate=4.0)
        migration, result = run_on_demand(
            env, engine, dst, handle, push_rate_mb=push_rate_mb
        )
        # total_bytes bills pushed + pulled pages.
        assert result.total_bytes == engine.layout.num_pages * PAGE_SIZE
        # Races still happen; they land in the redundant bucket only.
        assert result.target.redundant_fetches >= 0
        assert result.target.pages_missing == 0

    def test_finished_at_is_last_page_arrival(self, env, streams):
        src, dst, engine, handle, client, trace = build(env, streams)
        migration, result = run_on_demand(env, engine, dst, handle, push_rate_mb=8)
        started_at = migration.switched_at - result.downtime
        assert started_at + result.duration == pytest.approx(
            result.target.completed_at
        )
        assert result.duration >= result.downtime
        assert result.duration > 0

    def test_no_transactions_lost(self, env, streams):
        src, dst, engine, handle, client, trace = build(env, streams)
        run_on_demand(env, engine, dst, handle, push_rate_mb=8)
        env.run(until=env.now + 2.0)
        client.stop()
        env.run(until=env.now + 20.0)
        assert client.stats.completed == client.stats.arrived

    def test_cold_target_pays_remote_fetches(self, env, streams):
        src, dst, engine, handle, client, trace = build(env, streams)
        migration, result = run_on_demand(env, engine, dst, handle, push_rate_mb=8)
        assert result.remote_fetches > 0
        assert result.target.remote_fetch_time > 0

    def test_post_switch_latency_degrades(self, env, streams):
        src, dst, engine, handle, client, trace = build(env, streams, rate=4.0)
        migration, result = run_on_demand(env, engine, dst, handle, push_rate_mb=8)
        env.run(until=env.now + 2.0)
        before = trace["lat"].window_values(0, migration.switched_at)
        after = trace["lat"].window_values(
            migration.switched_at, migration.switched_at + 15.0
        )
        assert before and after
        assert (sum(after) / len(after)) > (sum(before) / len(before))

    def test_slowing_the_push_makes_it_worse(self):
        """The paper's Section 7 claim: "slowing on-demand pulls
        exacerbates latency rather than mitigating it".

        Mechanism: with a slower background push, more of the database
        is still remote when transactions touch it, so page transfers
        turn into *in-transaction* remote fetches — latency paid by the
        tenant instead of by the background stream.  Throttling down
        must therefore increase both the remote-fetch count and the
        total fetch time charged inside transactions, and must not
        lower the post-switch latency (no mitigation).
        """
        outcomes = {}
        for push_rate in (1, 16):
            env = Environment()
            streams = RandomStreams(77)
            src, dst, engine, handle, client, trace = build(
                env, streams, data_mb=64, rate=4.0
            )
            migration, result = run_on_demand(
                env, engine, dst, handle, push_rate_mb=push_rate
            )
            window = trace["lat"].window_values(
                migration.switched_at, migration.switched_at + 20.0
            )
            outcomes[push_rate] = (
                result.remote_fetches,
                result.target.remote_fetch_time,
                sum(window) / len(window) if window else float("nan"),
            )
        slow_fetches, slow_pain, slow_latency = outcomes[1]
        fast_fetches, fast_pain, fast_latency = outcomes[16]
        assert slow_fetches > 2 * fast_fetches
        assert slow_pain > fast_pain
        # ...and throttling bought no latency relief (>= up to noise).
        assert slow_latency > 0.9 * fast_latency
