"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simulation import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


class TestEvent:
    def test_starts_untriggered(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed
        assert event.ok is None

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_succeed_sets_value(self, env):
        event = env.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_succeed_raises(self, env):
        event = env.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_sets_exception(self, env):
        exc = RuntimeError("boom")
        event = env.event().fail(exc)
        assert event.triggered
        assert event.ok is False
        assert event.value is exc

    def test_unhandled_failure_crashes_run(self, env):
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_does_not_crash(self, env):
        env.event().fail(RuntimeError("boom")).defused()
        env.run()  # no exception


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_advances_clock(self, env):
        env.timeout(5.5)
        env.run()
        assert env.now == 5.5

    def test_timeout_carries_value(self, env):
        def proc(env):
            got = yield env.timeout(1, value="hello")
            return got

        p = env.process(proc(env))
        assert env.run(until=p) == "hello"

    def test_timeouts_fire_in_order(self, env):
        fired = []
        for delay in (3, 1, 2):
            t = env.timeout(delay, value=delay)
            t.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == [1, 2, 3]

    def test_equal_time_fifo(self, env):
        fired = []
        for tag in "abc":
            t = env.timeout(1, value=tag)
            t.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == ["a", "b", "c"]


class TestProcess:
    def test_process_returns_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert p.value == "done"
        assert not p.is_alive

    def test_process_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_waits_on_process(self, env):
        def inner(env):
            yield env.timeout(3)
            return 7

        def outer(env):
            result = yield env.process(inner(env))
            return result * 2

        p = env.process(outer(env))
        env.run()
        assert p.value == 14
        assert env.now == 3

    def test_process_exception_propagates_to_waiter(self, env):
        def failing(env):
            yield env.timeout(1)
            raise ValueError("inner error")

        def waiter(env):
            try:
                yield env.process(failing(env))
            except ValueError as exc:
                return f"caught {exc}"

        p = env.process(waiter(env))
        env.run()
        assert p.value == "caught inner error"

    def test_unwaited_process_exception_crashes(self, env):
        def failing(env):
            yield env.timeout(1)
            raise ValueError("lonely failure")

        env.process(failing(env))
        with pytest.raises(ValueError, match="lonely failure"):
            env.run()

    def test_yield_non_event_raises_inside_process(self, env):
        def bad(env):
            try:
                yield 42
            except SimulationError as exc:
                return str(exc)

        p = env.process(bad(env))
        env.run()
        assert "non-event" in p.value

    def test_immediate_return(self, env):
        def instant(env):
            return 5
            yield  # pragma: no cover - makes this a generator

        p = env.process(instant(env))
        env.run()
        assert p.value == 5
        assert env.now == 0

    def test_yield_already_processed_event(self, env):
        def proc(env):
            t = env.timeout(1)
            yield env.timeout(2)  # t is processed by now
            got = yield t
            return (got, env.now)

        p = env.process(proc(env))
        env.run()
        assert p.value == (None, 2)


class TestInterrupt:
    def test_interrupt_wakes_sleeper(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100)
                return "overslept"
            except Interrupt as i:
                return ("interrupted", i.cause, env.now)

        def interrupter(env, victim):
            yield env.timeout(5)
            victim.interrupt(cause="alarm")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert victim.value == ("interrupted", "alarm", 5)

    def test_interrupt_dead_process_raises(self, env):
        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_self_interrupt_raises(self, env):
        def selfish(env, me):
            yield env.timeout(1)
            try:
                me[0].interrupt()
            except SimulationError:
                return "refused"

        holder = []
        p = env.process(selfish(env, holder))
        holder.append(p)
        env.run()
        assert p.value == "refused"

    def test_interrupted_process_can_continue(self, env):
        def worker(env):
            total = 0.0
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(10)
            return env.now

        def interrupter(env, victim):
            yield env.timeout(5)
            victim.interrupt()

        victim = env.process(worker(env))
        env.process(interrupter(env, victim))
        env.run()
        assert victim.value == 15


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc(env):
            t1 = env.timeout(1, value="a")
            t2 = env.timeout(2, value="b")
            results = yield env.all_of([t1, t2])
            return (env.now, sorted(results.values()))

        p = env.process(proc(env))
        env.run()
        assert p.value == (2, ["a", "b"])

    def test_any_of_returns_on_first(self, env):
        def proc(env):
            t1 = env.timeout(5, value="slow")
            t2 = env.timeout(1, value="fast")
            results = yield env.any_of([t1, t2])
            return (env.now, list(results.values()))

        p = env.process(proc(env))
        env.run()
        assert p.value == (1, ["fast"])

    def test_empty_all_of_fires_immediately(self, env):
        def proc(env):
            results = yield env.all_of([])
            return results

        p = env.process(proc(env))
        env.run()
        assert p.value == {}

    def test_all_of_propagates_failure(self, env):
        def failing(env):
            yield env.timeout(1)
            raise RuntimeError("part failed")

        def proc(env):
            try:
                yield env.all_of([env.process(failing(env)), env.timeout(5)])
            except RuntimeError as exc:
                return str(exc)

        p = env.process(proc(env))
        env.run()
        assert p.value == "part failed"

    def test_mixed_environments_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            AllOf(env, [env.timeout(1), other.timeout(1)])


class TestRun:
    def test_run_until_time(self, env):
        env.timeout(10)
        env.run(until=4)
        assert env.now == 4

    def test_run_until_past_time_rejected(self, env):
        env.timeout(10)
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=3)

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(3)
            return "finished"

        assert env.run(until=env.process(proc(env))) == "finished"

    def test_run_until_already_processed_event(self, env):
        def proc(env):
            yield env.timeout(1)
            return 9

        p = env.process(proc(env))
        env.run()
        assert env.run(until=p) == 9

    def test_run_until_already_failed_event_raises(self, env):
        def proc(env):
            yield env.timeout(1)
            raise ValueError("boom")

        p = env.process(proc(env))
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert p.processed and not p.ok
        # Same outcome as waiting for it: the failure is raised, never
        # handed back as the run's value.
        with pytest.raises(ValueError, match="boom"):
            env.run(until=p)

    def test_run_until_pending_failing_event_raises(self, env):
        def proc(env):
            yield env.timeout(1)
            raise ValueError("boom")

        p = env.process(proc(env))
        with pytest.raises(ValueError, match="boom"):
            env.run(until=p)

    def test_run_drains_queue(self, env):
        env.timeout(1)
        env.timeout(2)
        env.run()
        assert env.now == 2
        assert env.peek() == float("inf")

    def test_run_until_unreached_event_raises(self, env):
        never = env.event()
        env.timeout(1)
        with pytest.raises(SimulationError):
            env.run(until=never)

    def test_step_without_events_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_returns_next_time(self, env):
        env.timeout(7)
        assert env.peek() == 7

    def test_initial_time(self):
        env = Environment(initial_time=100.0)
        assert env.now == 100.0
        env.timeout(5)
        env.run()
        assert env.now == 105.0
