"""Services that finish in place or start at the grant: CPU bursts,
disk accesses, NIC transfers.

``Cpu.execute``, ``Disk.read``/``write`` and ``NetworkLink.transfer``
do their work when called if the grant and every hold end before the
next event the kernel would process, and return ``()``; otherwise
they return a generator that finishes the work.  A call that cannot
claim a unit in place queues through ``Resource.serve``: its service
is drawn the instant the unit is granted (in the call when one is
free, in the releasing ``release`` when it queued), and it resumes
once, at the service's end.  The generator-only bodies are kept in
``tests/reference_kernel.py`` (``GeneratorCpu``, ``GeneratorDisk``,
``GeneratorNetworkLink``), queued through the reference ``Resource``'s
``serve``, and run here on the fast kernel and on ``HeapEnvironment``,
which never continues anything in place.  The same script must give
the same log, the same ``now`` and the same device statistics on all
three sides, and ``processed_events + inline_grants + inline_holds``
must be equal.

The scripts mix free and contended units (capacity 1-2), zero-length
bursts and transfers, sequential, random and cached disk I/O on two
streams, stochastic draws from one seeded stream per device (so a draw
made out of order shows), interrupts thrown while a call is queued or
in service, a process started or a zero-delay event queued just before
a call, bandwidth collapsing while calls are queued (as the fault
injector does it), an event dispatched to several callbacks, services started
from the top level, and ``run(until=t)`` stops that land inside a
burst.  ``TestServiceGuards`` pins each outcome with one direct case,
and ``TestGrantTimeStart`` each tie where the grant-time start shows.
"""

from __future__ import annotations

import random
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_kernel import (
    GeneratorCpu,
    GeneratorDisk,
    GeneratorNetworkLink,
    HeapEnvironment,
)
from repro.resources import (
    Cpu,
    CpuParams,
    Disk,
    DiskParams,
    NetworkLink,
    NetworkParams,
)
from repro.simulation import Environment, Interrupt

#: (environment, cpu, disk, link): the services under test, the
#: generator services on the same kernel, and the generator services on
#: the kernel that never continues in place.  The generator services
#: never claim a unit in place.
SIDES = (
    (Environment, Cpu, Disk, NetworkLink),
    (Environment, GeneratorCpu, GeneratorDisk, GeneratorNetworkLink),
    (HeapEnvironment, GeneratorCpu, GeneratorDisk, GeneratorNetworkLink),
)

MODES = ("plain", "victim", "spawn", "marker", "shared", "collapse")
#: Dyadic times, so sums are exact and services end on queued times.
TIMES = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5)
#: Times of the beacon timeouts every script schedules up front.
BEACONS = (0.5, 1.0, 1.25)
DISK_KINDS = ("random", "seq-a", "seq-b", "cached")

size_strategy = st.one_of(
    st.sampled_from((0.0, 0.25, 0.5, 1.0)),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

call_strategy = st.one_of(
    st.tuples(st.just("cpu"), size_strategy),
    st.tuples(st.sampled_from(("read", "write")), size_strategy, st.sampled_from(DISK_KINDS)),
    st.tuples(st.just("nic"), size_strategy),
)

actor_strategy = st.tuples(
    st.sampled_from(MODES),
    st.sampled_from(TIMES),  # arrival
    st.lists(call_strategy, min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2),  # priority
)


def _devices(side, capacity, stochastic, seed):
    env_cls, cpu_cls, disk_cls, link_cls = side
    env = env_cls()
    cpu = cpu_cls(
        env,
        CpuParams(cores=capacity, stochastic=stochastic),
        rng=random.Random(seed),
    )
    # A "size" becomes int(size * 4) bytes: with these bandwidths every
    # transfer time is dyadic, so services end on queued times.
    disk = disk_cls(
        env,
        DiskParams(
            seek_time=0.25,
            sequential_bandwidth=4.0,
            random_bandwidth=2.0,
            stochastic_seek=stochastic,
        ),
        rng=random.Random(seed + 1),
    )
    link = link_cls(env, NetworkParams(bandwidth=4.0, latency=0.25 if seed % 2 else 0.0))
    return env, cpu, disk, link


def _replay(side, capacity, stochastic, seed, actors, top, stops):
    """Run one script in stages; return what an observer could see."""
    env, cpu, disk, link = _devices(side, capacity, stochastic, seed)
    log = []
    gates = {}
    #: Victims still inside the calls they catch an interrupt in.
    exposed = set()

    def shared_gate(arrival):
        """One wake-up event per arrival time, shared by several waiters."""
        if arrival not in gates:
            gates[arrival] = env.timeout(arrival)
        return gates[arrival]

    def service(call, priority):
        """The service a call names; its result is consumed at once."""
        kind, size = call[0], call[1]
        if kind == "cpu":
            return cpu.execute(size, priority)
        if kind == "nic":
            return link.transfer(int(size * 4), priority)
        nbytes = int(size * 4)
        disk_kind = call[2]
        sequential = disk_kind != "random"
        stream = {"seq-a": "a", "seq-b": "b"}.get(disk_kind)
        if kind == "read":
            return disk.read(nbytes, sequential, stream, priority)
        return disk.write(
            nbytes, sequential, stream, cached=disk_kind == "cached", priority=priority
        )

    def run_calls(name, calls, priority):
        for index, call in enumerate(calls):
            yield from service(call, priority)
            log.append((name, index, call[0], env.now))

    def child(name, calls, priority):
        log.append((name, "child", env.now))
        yield from run_calls((name, "child"), calls[:1], priority)

    def actor(name, mode, arrival, calls, priority):
        if mode == "shared":
            yield shared_gate(arrival)
        else:
            yield env.timeout(arrival)
        if mode == "spawn":
            env.process(child(name, calls, priority))
        elif mode == "marker":
            marker = env.timeout(0.0)
            marker.callbacks.append(lambda _: log.append((name, "marker", env.now)))
        elif mode == "collapse":
            # As the fault injector does: calls already queued must
            # see the new bandwidth once granted.
            link.params = replace(link.params, bandwidth=link.params.bandwidth / 2)
            disk.params = replace(
                disk.params,
                sequential_bandwidth=disk.params.sequential_bandwidth / 2,
                random_bandwidth=disk.params.random_bandwidth / 2,
            )
        if mode == "victim":
            try:
                yield from run_calls(name, calls, priority)
            except Interrupt as interrupt:
                log.append((name, "interrupted", interrupt.cause, env.now))
            exposed.discard(name)
            yield from run_calls((name, "after"), calls[-1:], priority)
        else:
            yield from run_calls(name, calls, priority)
        log.append((name, "done", env.now))

    def watcher(name, arrival, calls, priority):
        """Shares the ``shared`` actor's wake-up event through ``any_of``."""
        yield env.any_of([shared_gate(arrival)])
        log.append((name, "watched", env.now))
        yield from run_calls((name, "watcher"), calls[-1:], priority)

    def interrupter(name, victim, delay):
        yield env.timeout(delay)
        if name in exposed:
            victim.interrupt(name)

    for beacon in BEACONS:
        event = env.timeout(beacon)
        event.callbacks.append(lambda _, t=beacon: log.append(("beacon", t, env.now)))
    for index, (mode, arrival, calls, priority) in enumerate(actors):
        proc = env.process(actor(index, mode, arrival, calls, priority))
        if mode == "shared":
            env.process(watcher(index, arrival, calls, priority))
        elif mode == "victim":
            exposed.add(index)
            env.process(interrupter(index, proc, arrival + 0.375))

    def observed():
        return (
            env.now,
            len(log),
            astuple(cpu.stats),
            astuple(disk.stats),
            astuple(link.stats),
            disk._last_stream,
            sorted(disk._seen_streams),
            (cpu._cores.count, disk._arm.count, link._wire.count),
            (cpu.queue_length, disk.queue_length, link.queue_length),
        )

    # Top-level calls: no process is active, so each is a generator
    # that does its work only once the process running it starts.
    for call in top:
        work = service(call, 0)
        assert not isinstance(work, tuple)
        env.process(work)
    seen = []
    for stop in stops:
        if stop >= env.now:
            env.run(until=stop)
        seen.append(observed())
        if top:
            env.process(service(top[0], 1))
    env.run()
    seen.append(observed())
    return log, seen, env.processed_events, env.inline_grants, env.inline_holds


class TestScriptReplay:
    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=2),
        stochastic=st.booleans(),
        seed=st.integers(min_value=0, max_value=3),
        actors=st.lists(actor_strategy, min_size=1, max_size=10),
        top=st.lists(call_strategy, max_size=2),
        stops=st.lists(
            st.sampled_from(TIMES + BEACONS + (0.375, 0.625, 1.125)), max_size=3
        ).map(sorted),
    )
    def test_random_scripts_match_the_generator_services(
        self, capacity, stochastic, seed, actors, top, stops
    ):
        fast, generators, oracle = (
            _replay(side, capacity, stochastic, seed, actors, top, stops)
            for side in SIDES
        )
        log, seen, events, inline, held = fast
        for ref_log, ref_seen, ref_events, ref_inline, ref_held in (generators, oracle):
            assert log == ref_log
            assert seen == ref_seen
            assert events + inline + held == ref_events + ref_inline + ref_held
        # Neither generator side continues a grant or a hold in place, so
        # both kernels split the same cost the same way.
        assert generators[2:] == oracle[2:] and oracle[4] == 0


def _called_at(env, call, prelude=lambda env: None, at=1.0):
    """In a process at ``at``, run ``prelude(env)``, then ``call()``.

    Returns what the call gave back and the time the process saw once
    it had consumed it.
    """
    seen = []

    def proc():
        yield env.timeout(at)
        prelude(env)
        work = call()
        seen.append(work)
        yield from work
        seen.append(env.now)

    env.process(proc())
    return seen


def _cpu(env, cores=1):
    return Cpu(env, CpuParams(cores=cores, stochastic=False), rng=random.Random(0))


def _disk(env):
    params = DiskParams(
        seek_time=0.25, sequential_bandwidth=4.0, random_bandwidth=4.0,
        stochastic_seek=False,
    )
    return Disk(env, params, rng=random.Random(0))


class TestServiceGuards:
    """Each outcome of a service call, one direct case at a time."""

    def test_lone_burst_runs_in_place(self):
        env = Environment()
        cpu = _cpu(env)
        seen = _called_at(env, lambda: cpu.execute(0.5))
        env.run()
        assert seen == [(), 1.5]
        assert (env.inline_grants, env.inline_holds) == (1, 1)
        assert cpu.stats.bursts == 1 and cpu.stats.busy_time == 0.5
        assert cpu._cores.count == 0

    def test_zero_burst_runs_in_place(self):
        env = Environment()
        cpu = _cpu(env)
        seen = _called_at(env, lambda: cpu.execute(0.0))
        env.run()
        assert seen == [(), 1.0] and env.inline_holds == 1

    def test_burst_past_a_queued_event_waits_holding_the_core(self):
        env = Environment()
        cpu = _cpu(env)
        counts = []
        probe = env.timeout(1.25)
        probe.callbacks.append(lambda _: counts.append(cpu._cores.count))
        seen = _called_at(env, lambda: cpu.execute(0.5))
        env.run()
        assert seen[0] != () and seen[1:] == [1.5]
        # Granted in place, then the core is held until the timeout.
        assert counts == [1] and cpu._cores.count == 0
        assert (env.inline_grants, env.inline_holds) == (1, 0)

    def test_services_ending_on_a_queued_time_wait(self):
        """A service ending exactly on a queued event's time queues behind it."""
        calls = (
            lambda env: _cpu(env).execute(0.5),
            lambda env: _disk(env).write(2, cached=True),
            lambda env: NetworkLink(env, NetworkParams(bandwidth=4.0, latency=0.0)).transfer(2),
        )
        for call in calls:
            env = Environment()
            env.timeout(1.5)
            seen = _called_at(env, lambda: call(env))
            env.run()
            assert seen[0] != () and seen[1:] == [1.5]
            assert (env.inline_grants, env.inline_holds) == (1, 0)

    def test_busy_core_queues(self):
        env = Environment()
        cpu = _cpu(env)
        first = _called_at(env, lambda: cpu.execute(1.0), at=0.5)
        second = _called_at(env, lambda: cpu.execute(0.25))
        env.run()
        assert first[1:] == [1.5] and second[0] != () and second[1:] == [1.75]

    def test_call_outside_a_process_is_a_generator(self):
        env = Environment()
        cpu = _cpu(env)
        work = cpu.execute(0.5)
        assert not isinstance(work, tuple)
        assert cpu.stats.bursts == 0 and env.inline_grants == 0
        env.process(work)
        env.run()
        assert env.now == 0.5 and cpu.stats.bursts == 1

    def test_burst_never_passes_run_until(self):
        env = Environment()
        cpu = _cpu(env)
        seen = _called_at(env, lambda: cpu.execute(0.5))
        env.run(until=1.25)
        assert env.now == 1.25 and cpu._cores.count == 1
        env.run()
        assert seen[1:] == [1.5] and cpu.stats.bursts == 1

    def test_call_after_a_process_start_is_not_in_place(self):
        env = Environment()
        cpu = _cpu(env)

        def idle():
            yield env.timeout(5.0)

        seen = _called_at(env, lambda: cpu.execute(0.5), lambda env: env.process(idle()))
        env.run()
        assert seen[0] != () and seen[1:] == [1.5]
        # Served: the grant starts the burst, whose end is one event.
        assert (env.inline_grants, env.inline_holds) == (1, 0)

    def test_disk_access_runs_in_place(self):
        env = Environment()
        disk = _disk(env)
        seen = _called_at(env, lambda: disk.read(2, sequential=True, stream="s"))
        env.run()
        assert seen == [(), 1.75]
        assert disk.stats.sequential_reads == 1 and disk.stats.queue_time == 0.0

    def test_disk_access_past_a_queued_event_keeps_the_arm(self):
        env = Environment()
        disk = _disk(env)
        env.timeout(1.5)
        first = _called_at(env, lambda: disk.read(2))
        second = _called_at(env, lambda: disk.write(1, cached=True), at=1.5)
        env.run()
        assert first[0] != () and first[1:] == [1.75]
        # The write queued behind the arm the read claimed in place.
        assert second[1:] == [2.0] and disk.stats.queue_time == 0.25

    def test_transfer_propagation_past_a_queued_event_waits(self):
        env = Environment()
        link = NetworkLink(env, NetworkParams(bandwidth=4.0, latency=0.5))
        env.timeout(1.75)
        seen = _called_at(env, lambda: link.transfer(2))
        env.run()
        # Serialization ended in place at 1.5; propagation is a timeout.
        assert seen[0] != () and seen[1:] == [2.0]
        assert env.inline_holds == 1 and link.stats.transfers == 1

    def test_interrupt_while_queued_withdraws(self):
        env = Environment()
        cpu = _cpu(env)
        log = []

        def holder():
            yield from cpu.execute(2.0)

        def waiter():
            try:
                yield from cpu.execute(1.0)
            except Interrupt:
                log.append(("interrupted", env.now, cpu.queue_length))

        def interrupter(victim):
            yield env.timeout(0.5)
            victim.interrupt()

        env.process(holder())
        env.process(interrupter(env.process(waiter())))
        env.run()
        assert log == [("interrupted", 0.5, 0)]
        assert cpu.stats.bursts == 1 and env.now == 2.0

    def test_negative_sizes_raise(self):
        calls = (
            lambda env: _cpu(env).execute(-1.0),
            lambda env: _disk(env).read(-1),
            lambda env: NetworkLink(env).transfer(-1),
        )
        for call in calls:
            env = Environment()
            with pytest.raises(ValueError):
                env.process(call(env))
                env.run()
            # Inside a process the check fires at the call, a free
            # unit claimed in place or not.
            env = Environment()
            errors = []

            def proc(call=call):
                yield env.timeout(1.0)
                try:
                    yield from call(env)
                except ValueError as error:
                    errors.append(error)

            env.process(proc())
            env.run()
            assert len(errors) == 1 and env.now == 1.0


class TestGrantTimeStart:
    """A queued service starts at the hand-off: each tie where that shows."""

    def test_draw_is_visible_right_after_the_releasing_release(self):
        env = Environment()
        disk = _disk(env)
        seen = []

        def holder():
            yield from disk.read(2)  # 0.25 seek + 0.5 transfer, from 0.0
            # The queued read was granted, and drawn, by that release.
            seen.append(
                (env.now, disk._last_stream, disk.stats.queue_time, disk._arm.count)
            )

        def waiter():
            yield env.timeout(0.25)
            yield from disk.read(2, sequential=True, stream="b")
            seen.append(("waiter", env.now))

        env.process(holder())
        env.process(waiter())
        env.run()
        assert seen == [(0.75, "b", 0.5, 1), ("waiter", 1.5)]
        assert disk.stats.sequential_reads == 1 and disk.stats.queue_time == 0.5

    def test_interrupt_at_the_hand_off_passes_the_unit_on(self):
        env = Environment()
        cpu = Cpu(env, CpuParams(cores=1, stochastic=True), rng=random.Random(7))
        draws = random.Random(7)
        first, second, third = (draws.expovariate(1.0) for _ in range(3))
        log = []

        def user(name, arrival):
            if arrival:  # else a's burst ends ahead of the interrupter's wake-up
                yield env.timeout(arrival)
            try:
                yield from cpu.execute(1.0)
                log.append((name, env.now))
            except Interrupt:
                log.append((name, "interrupted", env.now))

        env.process(user("a", 0.0))
        victim = env.process(user("b", first / 4))
        env.process(user("c", first / 2))

        def interrupter():
            yield env.timeout(first)
            victim.interrupt()

        env.process(interrupter())
        env.run()
        # b's burst was drawn at the hand-off, so c gets the third draw.
        assert log == [("a", first), ("b", "interrupted", first), ("c", first + third)]
        assert cpu.stats.bursts == 2 and cpu.stats.busy_time == first + third
        assert second != third

    def test_zero_length_service_completes_in_the_hand_off_lap(self):
        env = Environment()
        disk = _disk(env)
        log = []

        def holder():
            yield from disk.read(2)
            marker = env.timeout(0.0)
            marker.callbacks.append(lambda _: log.append(("marker", env.now)))

        def waiter():
            yield env.timeout(0.25)
            yield from disk.write(0, cached=True)
            log.append(("write", env.now))

        env.process(holder())
        env.process(waiter())
        env.run()
        # The write's end was scheduled at the hand-off, ahead of
        # anything the releaser schedules after it.
        assert log == [("write", 0.75), ("marker", 0.75)]

    def test_collapse_after_the_hand_off_misses_the_service(self):
        env = Environment()
        link = NetworkLink(env, NetworkParams(bandwidth=4.0, latency=0.0))
        done = []

        def sender(name, arrival):
            if arrival:  # else a's send ends ahead of the collapse's wake-up
                yield env.timeout(arrival)
            yield from link.transfer(4)
            done.append((name, env.now))

        def collapse():
            yield env.timeout(1.0)
            link.params = replace(link.params, bandwidth=1.0)

        env.process(sender("a", 0.0))
        env.process(sender("b", 0.5))
        env.process(collapse())
        env.run()
        # b's serialization was drawn at the hand-off (1.0) at 4 B/s.
        assert done == [("a", 1.0), ("b", 2.0)]
        assert link.stats.busy_time == 2.0

    def test_hand_off_order_follows_priority(self):
        env = Environment()
        cpu = _cpu(env)
        done = []

        def user(name, arrival, burst, priority):
            yield env.timeout(arrival)
            yield from cpu.execute(burst, priority)
            done.append((name, env.now))

        env.process(user("holder", 0.0, 1.0, 0))
        env.process(user("late", 0.25, 0.5, 2))
        env.process(user("first", 0.5, 0.25, 0))
        env.process(user("middle", 0.75, 0.25, 1))
        env.run()
        assert done == [("holder", 1.0), ("first", 1.25), ("middle", 1.5), ("late", 2.0)]
        assert env.inline_grants == 4
