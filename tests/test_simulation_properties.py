"""Property-based tests for simulation-kernel invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.engine import DatabaseEngine
from repro.db.pages import TableLayout
from repro.resources.server import Server
from repro.resources.units import MB
from repro.simulation import Container, Environment, RandomStreams, Request, Resource


@settings(max_examples=50)
@given(delays=st.lists(st.floats(min_value=0, max_value=100), max_size=50))
def test_time_never_goes_backwards(delays):
    env = Environment()
    observed = []

    def watcher(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(watcher(env, delay))
    env.run()
    assert observed == sorted(observed)
    assert env.now == (max(delays) if delays else 0.0)


@settings(max_examples=50)
@given(
    capacity=st.integers(min_value=1, max_value=5),
    holds=st.lists(st.floats(min_value=0.01, max_value=5), min_size=1, max_size=30),
)
def test_resource_never_exceeds_capacity(capacity, holds):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    in_use_at_grants = []

    def start(hold):
        # The units in service when one more is granted.
        in_use_at_grants.append(resource.count)
        return hold

    def holder(env, hold):
        grant = resource.serve(0, start, hold)
        if grant.__class__ is Request:
            try:
                yield grant
            finally:
                resource.release(grant)

    for hold in holds:
        env.process(holder(env, hold))
    env.run()
    assert len(in_use_at_grants) == len(holds)
    assert max(in_use_at_grants) < capacity
    assert resource.count == 0
    assert resource.queue_length == 0


@settings(max_examples=50)
@given(
    holds=st.lists(st.floats(min_value=0.01, max_value=2), min_size=2, max_size=20)
)
def test_single_server_grants_fifo(holds):
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def start(grant):
        index, hold = grant
        order.append(index)
        return hold

    def holder(env, index, hold):
        yield env.timeout(index * 1e-6)  # request in index order
        grant = resource.serve(0, start, (index, hold))
        if grant.__class__ is Request:
            try:
                yield grant
            finally:
                resource.release(grant)

    for index, hold in enumerate(holds):
        env.process(holder(env, index, hold))
    env.run()
    assert order == sorted(order)


@settings(max_examples=50)
@given(
    puts=st.lists(st.floats(min_value=0.1, max_value=10), max_size=30),
    gets=st.lists(st.floats(min_value=0.1, max_value=10), max_size=30),
)
def test_container_conserves_mass(puts, gets):
    env = Environment()
    box = Container(env, capacity=1e9, init=0.0)
    granted = [0.0]

    def putter(env):
        for amount in puts:
            yield env.timeout(0.1)
            box.put(amount)

    def getter(env):
        for amount in gets:
            yield box.get(amount)
            granted[0] += amount

    env.process(putter(env))
    env.process(getter(env))
    env.run(until=1000.0)
    # everything granted plus what remains equals everything deposited
    assert granted[0] + box.level <= sum(puts) + 1e-6
    assert granted[0] <= sum(puts) + 1e-6


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_simulation_is_deterministic(seed):
    """Identical seeds produce byte-identical traces."""

    def run_once():
        env = Environment()
        streams = RandomStreams(seed)
        server = Server(env, "s", streams=streams)
        engine = DatabaseEngine(
            env, server, TableLayout.for_data_size(8 * MB),
            name="t", buffer_bytes=1 * MB,
        )
        rng = random.Random(seed)
        finish_times = []

        def txn_runner(env):
            from repro.db.transactions import Operation, OpType, Transaction

            for _ in range(30):
                yield env.timeout(rng.expovariate(20.0))
                ops = [
                    Operation(
                        OpType.UPDATE if rng.random() < 0.2 else OpType.SELECT,
                        rng.randrange(engine.layout.num_rows),
                    )
                    for _ in range(3)
                ]
                txn = Transaction(engine.new_txn_id(), ops, arrived_at=env.now)
                yield env.process(engine.execute(txn))
                finish_times.append(env.now)

        env.process(txn_runner(env))
        env.run()
        return finish_times

    assert run_once() == run_once()


class TestBackgroundFlusher:
    def test_flusher_reduces_dirty_pages(self):
        env = Environment()
        server = Server(env, "s", streams=RandomStreams(1))
        engine = DatabaseEngine(
            env, server, TableLayout.for_data_size(8 * MB),
            name="t", buffer_bytes=4 * MB,
        )
        from repro.db.transactions import Operation, OpType, Transaction

        def dirty_everything(env):
            for key in range(0, 2000, 16):
                txn = Transaction(
                    engine.new_txn_id(),
                    [Operation(OpType.UPDATE, key)],
                    arrived_at=env.now,
                )
                yield env.process(engine.execute(txn))

        proc = env.process(dirty_everything(env))
        env.run(until=proc)
        dirty_before = engine.buffer_pool.dirty_count
        assert dirty_before > 0
        engine.start_flusher(interval=0.1, batch=32, dirty_watermark=0.0)
        env.run(until=env.now + 10.0)
        assert engine.buffer_pool.dirty_count < dirty_before / 4

    def test_flusher_validation(self, env, engine):
        import pytest

        with pytest.raises(ValueError):
            engine.start_flusher(interval=0)
        with pytest.raises(ValueError):
            engine.start_flusher(batch=0)
        with pytest.raises(ValueError):
            engine.start_flusher(dirty_watermark=1.0)

    def test_flusher_stops_with_engine(self):
        env = Environment()
        server = Server(env, "s", streams=RandomStreams(1))
        engine = DatabaseEngine(
            env, server, TableLayout.for_data_size(8 * MB),
            name="t", buffer_bytes=1 * MB,
        )
        engine.start_flusher(interval=0.5)
        env.run(until=2.0)
        engine.stop()
        env.run(until=10.0)  # the loop must exit, not spin forever
        assert env.peek() == float("inf")
