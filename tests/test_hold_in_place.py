"""``Environment.hold``: a timeout that would run next advances time in place.

``hold(delay)`` returns ``None`` and moves ``now`` to ``now + delay``
when ``timeout(delay)`` would be the very next event processed, and
the scheduled timeout otherwise.  ``HeapEnvironment``
(``tests/reference_kernel.py``) never holds or grants in place, so it
is the oracle: the same script must produce the same log and the same
``now`` on both kernels, and the fast kernel's ``processed_events +
inline_grants + inline_holds`` must equal the reference's
``processed_events``.

The scripts mix holds of zero, random and colliding delays (ending
exactly on a time already queued), resource requests, releases and
withdrawals, interrupts, a process started just before a hold, zero-
delay events queued behind the resumer, an event dispatched to several
callbacks, and ``run(until=t)`` stops that land on a hold's end.
``TestHoldGuards`` pins each guard with one direct case.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_kernel import HeapEnvironment
from repro.simulation import Environment, Interrupt, Resource

KERNELS = (Environment, HeapEnvironment)

MODES = ("hold", "use", "withdraw", "marker", "spawn", "shared", "victim")
#: Dyadic times, so sums are exact and holds end on queued times.
TIMES = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5)
#: Times of the beacon timeouts every script schedules up front.
BEACONS = (0.5, 1.0, 1.25)

delay_strategy = st.one_of(
    st.tuples(st.just("for"), st.sampled_from(TIMES)),
    st.tuples(
        st.just("for"),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    ),
    # Until a beacon's time: the hold ends on a queued bucket.
    st.tuples(st.just("until"), st.sampled_from(BEACONS)),
)

actor_strategy = st.tuples(
    st.sampled_from(MODES),
    st.sampled_from(TIMES),  # arrival
    delay_strategy,
    st.integers(min_value=0, max_value=2),  # priority
)


def _replay(env_cls, capacity, actors, stops):
    """Run one script in stages; return what an observer could see."""
    env = env_cls()
    resource = Resource(env, capacity=capacity)
    log = []
    gates = {}

    def shared_gate(arrival):
        """One wake-up event per arrival time, shared by several waiters."""
        if arrival not in gates:
            gates[arrival] = env.timeout(arrival)
        return gates[arrival]

    def delay_of(delay):
        kind, value = delay
        return value if kind == "for" else max(0.0, value - env.now)

    def hold(name, delay):
        event = env.hold(delay_of(delay))
        if event is not None:
            yield event
        log.append((name, "held", env.now))

    def child(name, delay):
        log.append((name, "child", env.now))
        yield from hold((name, "child"), delay)

    def actor(name, mode, arrival, delay, priority):
        if mode == "shared":
            yield shared_gate(arrival)
        else:
            yield env.timeout(arrival)
        if mode == "hold":
            yield from hold(name, delay)
            yield from hold(name, delay)
        elif mode == "use":
            grant = resource.request(priority)
            try:
                if grant.callbacks is not None:
                    yield grant
                log.append((name, "granted", env.now, grant.granted_at))
                yield from hold(name, delay)
            finally:
                resource.release(grant)
            yield from hold(name, delay)
        elif mode == "withdraw":
            grant = resource.request(priority)
            yield env.any_of([grant, env.timeout(delay_of(delay))])
            if grant.triggered:
                log.append((name, "granted", env.now, grant.granted_at))
                yield from hold(name, delay)
            else:
                log.append((name, "withdrawn", env.now))
            grant.cancel()
        elif mode == "marker":
            marker = env.timeout(0.0)
            marker.callbacks.append(lambda _: log.append((name, "marker", env.now)))
            yield from hold(name, delay)
        elif mode == "spawn":
            env.process(child(name, delay))
            yield from hold(name, delay)
        elif mode == "shared":
            yield from hold(name, delay)
        else:  # victim: interrupted part way through a long hold
            try:
                yield from hold(name, ("for", 4.0))
            except Interrupt as interrupt:
                log.append((name, "interrupted", interrupt.cause, env.now))
            yield from hold(name, delay)
        log.append((name, "done", env.now, resource.count, resource.queue_length))

    def watcher(name, arrival, delay):
        """Shares the ``shared`` actor's wake-up event through ``any_of``."""
        yield env.any_of([shared_gate(arrival)])
        log.append((name, "watched", env.now))
        yield from hold((name, "watcher"), delay)

    def interrupter(name, victim, delay):
        yield from hold((name, "interrupter"), delay)
        if victim.is_alive:
            victim.interrupt(name)

    for beacon in BEACONS:
        event = env.timeout(beacon)
        event.callbacks.append(lambda _, t=beacon: log.append(("beacon", t, env.now)))
    for index, (mode, arrival, delay, priority) in enumerate(actors):
        proc = env.process(actor(index, mode, arrival, delay, priority))
        if mode == "shared":
            env.process(watcher(index, arrival, delay))
        elif mode == "victim":
            env.process(interrupter(index, proc, ("for", arrival + 0.5)))

    seen = []
    for stop in stops:
        if stop >= env.now:
            env.run(until=stop)
        seen.append((len(log), env.now))
    env.run()
    seen.append((len(log), env.now))
    return log, seen, env.processed_events, env.inline_grants, env.inline_holds


class TestScriptReplay:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=3),
        actors=st.lists(actor_strategy, min_size=1, max_size=16),
        stops=st.lists(st.sampled_from(TIMES + BEACONS), max_size=3).map(sorted),
    )
    def test_random_scripts_match_the_heap_kernel(self, capacity, actors, stops):
        fast, reference = (
            _replay(cls, capacity, actors, stops) for cls in KERNELS
        )
        log, seen, events, inline, held = fast
        ref_log, ref_seen, ref_events, ref_inline, ref_held = reference
        assert (ref_inline, ref_held) == (0, 0)
        assert log == ref_log
        assert seen == ref_seen
        assert events + inline + held == ref_events


def _held_by(env, delay, prelude=lambda env: None, at=1.0):
    """In a process at ``at``, run ``prelude(env)`` then hold ``delay``.

    Returns what ``hold`` gave back and the time the process saw next.
    """
    seen = []

    def proc():
        yield env.timeout(at)
        prelude(env)
        event = env.hold(delay)
        seen.append(event)
        if event is not None:
            yield event
        seen.append(env.now)

    env.process(proc())
    return seen


class TestHoldGuards:
    """Each guard on holding in place, one at a time."""

    def test_lone_process_holds_in_place(self):
        env = Environment()
        seen = _held_by(env, 0.5)
        env.run()
        assert seen == [None, 1.5]
        # Start, the timeout to t=1 and the process's exit.
        assert env.inline_holds == 1 and env.processed_events == 3

    def test_hold_outside_a_process_is_scheduled(self):
        env = Environment()
        event = env.hold(1.0)
        assert event is not None and not event.processed
        env.run()
        assert env.now == 1.0 and env.inline_holds == 0

    def test_hold_never_passes_run_until(self):
        env = Environment()
        seen = _held_by(env, 0.5)
        env.run(until=1.5)
        assert env.now == 1.5 and env.inline_holds == 0
        assert seen[0] is not None and not seen[0].processed
        env.run()
        assert seen[1:] == [1.5]

    def test_hold_short_of_run_until_is_in_place(self):
        env = Environment()
        seen = _held_by(env, 0.25)
        env.run(until=1.5)
        assert seen == [None, 1.25] and env.now == 1.5
        assert env.inline_holds == 1

    def test_hold_onto_a_queued_time_is_scheduled(self):
        env = Environment()
        env.timeout(1.5)
        seen = _held_by(env, 0.5)
        env.run()
        assert seen[0] is not None and seen[1:] == [1.5]
        assert env.inline_holds == 0

    def test_hold_past_a_queued_time_is_scheduled(self):
        env = Environment()
        env.timeout(1.25)
        seen = _held_by(env, 0.5)
        env.run()
        assert seen[0] is not None and env.inline_holds == 0

    def test_hold_short_of_a_queued_time_is_in_place(self):
        env = Environment()
        env.timeout(1.75)
        seen = _held_by(env, 0.5)
        env.run()
        assert seen == [None, 1.5] and env.inline_holds == 1

    def test_zero_hold_behind_a_same_time_event_is_scheduled(self):
        env = Environment()
        seen = _held_by(env, 0.0, lambda env: env.timeout(0.0))
        env.run()
        assert seen[0] is not None and env.inline_holds == 0

    def test_hold_after_a_process_start_is_scheduled(self):
        env = Environment()

        def idle():
            yield env.timeout(5.0)

        seen = _held_by(env, 0.5, lambda env: env.process(idle()))
        env.run()
        assert seen[0] is not None and env.inline_holds == 0

    def test_shared_resuming_event_blocks(self):
        env = Environment()
        shared = env.timeout(1.0)
        seen = []

        def holder():
            yield shared
            seen.append(env.hold(0.5))

        def watcher():
            yield env.any_of([shared])

        env.process(holder())
        env.process(watcher())
        env.run()
        assert seen[0] is not None and env.inline_holds == 0

    def test_step_never_holds_in_place(self):
        env = Environment()
        seen = _held_by(env, 0.5)
        while env.peek() != float("inf"):
            env.step()
        assert seen[0] is not None and env.inline_holds == 0

    def test_heap_kernel_never_holds_in_place(self):
        env = HeapEnvironment()
        seen = _held_by(env, 0.5)
        env.run()
        assert seen[0] is not None and seen[1:] == [1.5]
        assert env.inline_holds == 0

    def test_grant_after_an_in_place_hold_continues_in_place(self):
        env = Environment()
        resource = Resource(env)
        grants = []

        def proc():
            yield env.timeout(1.0)
            assert env.hold(0.5) is None
            grants.append(resource.request())
            resource.release(grants[0])

        env.process(proc())
        env.run()
        assert grants[0].processed and grants[0].granted_at == 1.5
        assert env.inline_holds == 1 and env.inline_grants == 1

    def test_negative_hold_raises(self):
        env = Environment()
        errors = []

        def proc():
            yield env.timeout(1.0)
            try:
                env.hold(-1.0)
            except ValueError as error:
                errors.append(error)

        env.process(proc())
        env.run()
        assert errors
