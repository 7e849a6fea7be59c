"""Unit tests for Resource, Container, and Store."""

import pytest

from repro.simulation import Container, Request, Resource, Store


def use(res, duration, granted=None, tag=None, priority=0):
    """Process body: serve ``duration`` on one unit of ``res``.

    Appends ``(tag, grant time)`` to ``granted`` when the unit is
    granted, and gives the unit back when the service ends.
    """
    env = res.env

    def start(duration):
        if granted is not None:
            granted.append((tag, env.now))
        return float(duration)

    done = res.serve(priority, start, duration)
    if done.__class__ is Request:
        try:
            yield done
        finally:
            res.release(done)


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_within_capacity_is_immediate(self, env):
        res = Resource(env, capacity=2)
        granted = []
        env.process(use(res, 1, granted, "a"))
        env.process(use(res, 1, granted, "b"))
        env.run()
        assert granted == [("a", 0), ("b", 0)]
        assert env.now == 1

    def test_excess_requests_queue_fifo(self, env):
        res = Resource(env, capacity=1)
        granted = []
        for tag in ("first", "second", "third"):
            env.process(use(res, 5, granted, tag))
        env.run()
        assert granted == [("first", 0), ("second", 5), ("third", 10)]

    def test_count_and_queue_length(self, env):
        res = Resource(env, capacity=1)
        env.process(use(res, 10))
        env.process(use(res, 10))
        env.run(until=1)
        assert res.count == 1
        assert res.queue_length == 1

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        env.process(use(res, 10))
        env.run(until=1)
        queued = res.serve(0, float, 1.0)
        assert queued.__class__ is Request and res.queue_length == 1
        res.release(queued)
        assert res.queue_length == 0
        env.run()
        assert queued.granted_at is None and not queued.triggered

    def test_release_returns_the_unit(self, env):
        res = Resource(env, capacity=1)
        granted = []
        env.process(use(res, 1, granted, "a"))
        env.process(use(res, 1, granted, "b"))
        env.run()
        assert granted == [("a", 0), ("b", 1)]
        assert res.count == 0 and env.now == 2

    def test_granted_at_recorded(self, env):
        res = Resource(env, capacity=1)
        grants = []

        def later(env, res):
            yield env.timeout(1)
            grants.append(res.serve(0, float, 1.0))
            yield grants[0]
            res.release(grants[0])

        env.process(use(res, 5))
        env.process(later(env, res))
        env.run()
        assert grants[0].granted_at == 5 and grants[0].value == 1.0

    def test_service_ending_before_the_horizon_runs_in_place(self, env):
        res = Resource(env, capacity=1)
        seen = []

        def proc(env):
            yield env.timeout(1)
            seen.append(res.serve(0, float, 0.5))
            seen.append((env.now, res.count))

        env.process(proc(env))
        env.run()
        assert seen == [0.5, (1.5, 0)]
        assert (env.inline_grants, env.inline_holds) == (1, 1)

    def test_lower_priority_value_served_first(self, env):
        res = Resource(env, capacity=1)
        granted = []

        def queued(env, tag, priority, delay):
            yield env.timeout(delay)
            yield from use(res, 1, granted, tag, priority)

        env.process(use(res, 10))
        env.process(queued(env, "low-pri", 5, 1))
        env.process(queued(env, "high-pri", 0, 2))
        env.run()
        assert granted == [("high-pri", 10), ("low-pri", 11)]


class TestContainer:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            Container(env, capacity=0)
        with pytest.raises(ValueError):
            Container(env, capacity=10, init=11)

    def test_put_clamps_to_capacity(self, env):
        box = Container(env, capacity=10, init=5)
        box.put(100)
        assert box.level == 10

    def test_get_blocks_until_available(self, env):
        box = Container(env, capacity=100, init=0)

        def getter(env, box):
            yield box.get(30)
            return env.now

        def putter(env, box):
            for _ in range(3):
                yield env.timeout(1)
                box.put(10)

        p = env.process(getter(env, box))
        env.process(putter(env, box))
        env.run()
        assert p.value == 3
        assert box.level == 0

    def test_getters_served_fifo_head_blocks(self, env):
        box = Container(env, capacity=100, init=0)
        order = []

        def getter(env, box, amount, tag, delay):
            yield env.timeout(delay)
            yield box.get(amount)
            order.append(tag)

        env.process(getter(env, box, 50, "big", 0.1))
        env.process(getter(env, box, 5, "small", 0.2))

        def putter(env, box):
            yield env.timeout(1)
            box.put(10)  # enough for small, but big is at the head
            yield env.timeout(1)
            box.put(50)

        env.process(putter(env, box))
        env.run()
        assert order == ["big", "small"]

    def test_negative_amounts_rejected(self, env):
        box = Container(env, capacity=10)
        with pytest.raises(ValueError):
            box.put(-1)
        with pytest.raises(ValueError):
            box.get(-1)

    def test_get_larger_than_capacity_rejected(self, env):
        box = Container(env, capacity=10)
        with pytest.raises(ValueError):
            box.get(11)


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("x")

        def getter(env, store):
            item = yield store.get()
            return item

        p = env.process(getter(env, store))
        env.run()
        assert p.value == "x"

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def getter(env, store):
            item = yield store.get()
            return (item, env.now)

        def putter(env, store):
            yield env.timeout(4)
            store.put("late")

        p = env.process(getter(env, store))
        env.process(putter(env, store))
        env.run()
        assert p.value == ("late", 4)

    def test_fifo_order(self, env):
        store = Store(env)
        got = []

        def getter(env, store):
            while len(got) < 3:
                item = yield store.get()
                got.append(item)

        env.process(getter(env, store))
        for item in (1, 2, 3):
            store.put(item)
        env.run()
        assert got == [1, 2, 3]

    def test_items_view(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        assert store.items == ["a", "b"]
