"""One differential oracle for the kernel's one continuation rule.

Every use of a unit in ``src/`` is one ``Resource.serve``: the service
is drawn at the grant, and it runs in place when it ends before the
next event the kernel would process (``_horizon() > now + service``);
otherwise the caller waits on a request that fires at grant + service.
A call that queued is started inside the ``release`` that hands it the
unit.  ``tests/reference_kernel.py`` keeps the same behaviour in its
plainest form: ``HeapEnvironment`` never continues anything in place,
its ``Resource`` always queues, and its CPU, disk and NIC are always
generators.  Three layers of evidence:

* random-script properties (:class:`TestScriptReplay`) run on the
  fast kernel and services, on the generator services on the fast
  kernel, and on the generator services on ``HeapEnvironment``.  The
  scripts mix direct grants on a pool of 1-3 units, CPU bursts, disk
  I/O (sequential, random and cached, on two streams), NIC transfers,
  fault-injector stalls on the disk arm and the wire, plain and
  absolute timeouts, multi-call transactions, interrupts while a call
  is queued or in service, a process started or a zero-delay event
  queued just before a call, an event dispatched to several callbacks,
  bandwidth collapsing while calls are queued, services started from
  the top level, and ``run(until=t)`` stops; two narrower mixes spend
  every example on grants and on the link's propagation.  Logs, device
  statistics and ``processed_events + inline_grants + inline_holds``
  must match;
* direct cases, one per guard on running in place
  (:class:`TestServeGuards`, :class:`TestPropagationGuards`), per
  service outcome (:class:`TestServices`),
  per tie where the grant-time start shows (:class:`TestGrantTimeStart`)
  and per calendar-queue ordering rule (:class:`TestKernelOrdering`);
* whole-experiment A/B replays (:class:`TestABExperimentReplay`): real
  sweep points with the reference ``Resource``, the heap kernel or one
  process per transaction swapped in must give equal records.

``--hypothesis-profile=kernel-oracle`` (``tests/conftest.py``) runs the
properties at 3,000 examples each.
"""

from __future__ import annotations

import random
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel
from reference_kernel import (
    GeneratorCpu,
    GeneratorDisk,
    GeneratorNetworkLink,
    HeapEnvironment,
)
from repro.core.config import CASE_STUDY, EVALUATION
from repro.db.engine import DatabaseEngine
from repro.db.pages import TableLayout
from repro.experiments import fleet_sweep
from repro.experiments import harness as harness_mod
from repro.experiments.chaos_fuzz import fuzz_point
from repro.experiments.common import scaled_config
from repro.experiments.fleet_sweep import fleet_point
from repro.experiments.harness import MigrationSpec
from repro.faults import FaultInjector, FaultPlan
from repro.parallel.tasks import single_tenant_point
from repro.resources import (
    Cpu,
    CpuParams,
    Disk,
    DiskParams,
    NetworkLink,
    NetworkParams,
)
from repro.resources import cpu as cpu_module
from repro.resources import disk as disk_module
from repro.resources import network as network_module
from repro.resources.server import Server
from repro.resources.units import MB, mb_per_sec
from repro.simulation import (
    Environment,
    Interrupt,
    RandomStreams,
    Request,
    Resource,
    Trace,
)
from repro.workload.client import BenchmarkClient, ClosedBenchmarkClient

from test_client import make_factory

#: (environment, pool, cpu, disk, link): the fast kernel and services,
#: the generator services on the fast kernel, and the generator
#: services on the kernel that never continues in place.
SIDES = (
    (Environment, Resource, Cpu, Disk, NetworkLink),
    (Environment, reference_kernel.Resource, GeneratorCpu, GeneratorDisk, GeneratorNetworkLink),
    (HeapEnvironment, reference_kernel.Resource, GeneratorCpu, GeneratorDisk, GeneratorNetworkLink),
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

#: A service call: the device calls may also run from the top level.
device_call = st.one_of(
    st.tuples(st.just("cpu"), size_strategy),
    st.tuples(st.sampled_from(("read", "write")), size_strategy, st.sampled_from(DISK_KINDS)),
    st.tuples(st.just("nic"), size_strategy),
)
grant_call = st.tuples(st.just("grant"), size_strategy)
#: Plain and absolute timeouts.
clock_call = st.one_of(
    st.tuples(st.just("wait"), size_strategy),
    st.tuples(st.just("until"), st.sampled_from(BEACONS)),
)
call_strategy = st.one_of(
    device_call,
    grant_call,
    st.tuples(st.just("stall"), size_strategy, st.sampled_from(("disk", "nic"))),
    clock_call,
)


def actors_of(calls):
    """Lists of actors whose transactions are drawn from ``calls``."""
    actor = st.tuples(
        st.sampled_from(MODES),
        st.sampled_from(TIMES),  # arrival
        st.lists(calls, min_size=1, max_size=3),  # one transaction
        st.integers(min_value=0, max_value=2),  # priority
    )
    return st.lists(actor, min_size=1, max_size=10)


stops_strategy = st.lists(
    st.sampled_from(TIMES + BEACONS + (0.375, 0.625, 1.125)), max_size=3
).map(sorted)


def _replay(side, capacity, stochastic, seed, actors, top, stops):
    """Run one script in stages; return what an observer could see."""
    env_cls, pool_cls, cpu_cls, disk_cls, link_cls = side
    env = env_cls()
    pool = pool_cls(env, capacity=capacity)
    cpu = cpu_cls(
        env, CpuParams(cores=capacity, stochastic=stochastic), rng=random.Random(seed)
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
    injector = FaultInjector(env, FaultPlan(), RandomStreams(seed))
    log = []
    gates = {}
    #: Victims still inside the calls they catch an interrupt in.
    exposed = set()

    def shared_gate(arrival):
        """One wake-up event per arrival time, shared by several waiters."""
        if arrival not in gates:
            gates[arrival] = env.timeout(arrival)
        return gates[arrival]

    def granted(call):
        name, size = call
        log.append((name, "granted", env.now))
        return size

    def pause(event):
        yield event

    def grant(name, size, priority):
        done = pool.serve(priority, granted, (name, size))
        if done.__class__ is Request:
            try:
                yield done
            finally:
                pool.release(done)

    def service(name, call, priority):
        """The work a call names; its result is consumed at once."""
        kind, size = call[0], call[1]
        if kind == "cpu":
            return cpu.execute(size, priority)
        if kind == "nic":
            return link.transfer(int(size * 4), priority)
        if kind == "grant":
            return grant(name, size, priority)
        if kind == "stall":
            unit = disk._arm if call[2] == "disk" else link._wire
            return injector._stall(unit, size)
        if kind == "wait":
            return pause(env.timeout(size))
        if kind == "until":
            return pause(env.timeout_at(max(env.now, size)))
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
            yield from service(name, call, priority)
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
            (pool.count, cpu._cores.count, disk._arm.count, link._wire.count),
            (pool.queue_length, cpu.queue_length, disk.queue_length, link.queue_length),
        )

    # Top-level calls: no process is active, so each is a generator
    # that does its work only once the process running it starts.
    for call in top:
        work = service("top", call, 0)
        assert not isinstance(work, tuple)
        env.process(work)
    seen = []
    for stop in stops:
        if stop >= env.now:
            env.run(until=stop)
        seen.append(observed())
        if top:
            env.process(service("top", top[0], 1))
    env.run()
    seen.append(observed())
    return log, seen, env.processed_events, env.inline_grants, env.inline_holds


def _assert_sides_match(capacity, stochastic, seed, actors, top, stops):
    fast, generators, heap = (
        _replay(side, capacity, stochastic, seed, actors, top, stops)
        for side in SIDES
    )
    log, seen, events, inline, held = fast
    for ref_log, ref_seen, ref_events, ref_inline, ref_held in (generators, heap):
        assert log == ref_log
        assert seen == ref_seen
        assert events + inline + held == ref_events + ref_inline + ref_held
    # Nothing on the reference sides runs in place, so both kernels
    # split the same cost the same way.
    assert generators[2:] == heap[2:] and heap[4] == 0
    # Every unit was given back.
    assert seen[-1][7] == (0, 0, 0, 0)


class TestScriptReplay:
    """The whole mix, then two narrower mixes that spend every example
    on one way of running in place: a grant on the pool, and the link's
    propagation (a latency of 0.25 s on odd seeds)."""

    @settings(deadline=None, max_examples=max(400, settings.default.max_examples))
    @given(
        capacity=st.integers(min_value=1, max_value=3),
        stochastic=st.booleans(),
        seed=st.integers(min_value=0, max_value=3),
        actors=actors_of(call_strategy),
        top=st.lists(device_call, max_size=2),
        stops=stops_strategy,
    )
    def test_random_scripts_match_the_reference(
        self, capacity, stochastic, seed, actors, top, stops
    ):
        _assert_sides_match(capacity, stochastic, seed, actors, top, stops)

    @settings(deadline=None, max_examples=max(150, settings.default.max_examples))
    @given(
        capacity=st.integers(min_value=1, max_value=3),
        actors=actors_of(st.one_of(grant_call, clock_call)),
        stops=stops_strategy,
    )
    def test_random_grant_scripts_match_the_reference(self, capacity, actors, stops):
        _assert_sides_match(capacity, False, 0, actors, [], stops)

    @settings(deadline=None, max_examples=max(150, settings.default.max_examples))
    @given(
        seed=st.sampled_from((1, 3)),
        actors=actors_of(
            st.one_of(
                st.tuples(st.just("nic"), size_strategy),
                st.tuples(st.just("stall"), size_strategy, st.just("nic")),
                clock_call,
            )
        ),
        top=st.lists(st.tuples(st.just("nic"), size_strategy), max_size=2),
        stops=stops_strategy,
    )
    def test_random_propagation_scripts_match_the_heap_kernel(
        self, seed, actors, top, stops
    ):
        _assert_sides_match(1, False, seed, actors, top, stops)


def _served(env, duration, prelude=lambda env: None, until=None, at=1.0):
    """In a process at ``at``, run ``prelude(env)``, then serve ``duration``.

    Returns what ``serve`` gave back and the time the process saw once
    the service ended.
    """
    pool = Resource(env)
    seen = []

    def proc():
        yield env.timeout(at)
        prelude(env)
        done = pool.serve(0, float, duration)
        seen.append(done)
        if done.__class__ is Request:
            yield done
            pool.release(done)
        seen.append(env.now)

    env.process(proc())
    if until is not None:
        env.run(until=until)
    env.run()
    return seen


def _idle(env):
    yield env.timeout(5.0)


class TestServeGuards:
    """Each guard on running a service in place, one at a time."""

    @pytest.mark.parametrize(
        "prelude, duration, until",
        [
            (lambda env: None, 0.5, None),
            (lambda env: None, 0.0, None),
            (lambda env: env.timeout(0.75), 0.5, None),
            (lambda env: None, 0.25, 1.5),
        ],
        ids=["lone", "zero", "short-of-a-queued-time", "short-of-run-until"],
    )
    def test_runs_in_place(self, prelude, duration, until):
        env = Environment()
        seen = _served(env, duration, prelude, until)
        assert seen == [duration, 1.0 + duration]
        assert (env.inline_grants, env.inline_holds) == (1, 1)

    @pytest.mark.parametrize(
        "prelude, duration, until",
        [
            (lambda env: env.timeout(0.0), 0.0, None),
            (lambda env: env.process(_idle(env)), 0.5, None),
            (lambda env: env.timeout(0.5), 0.5, None),
            (lambda env: env.timeout(0.25), 0.5, None),
            (lambda env: None, 0.5, 1.5),
        ],
        ids=[
            "same-time-event-ahead",
            "same-time-process-start",
            "onto-a-queued-time",
            "past-a-queued-time",
            "onto-run-until",
        ],
    )
    def test_waits_on_its_request(self, prelude, duration, until):
        env = Environment()
        seen = _served(env, duration, prelude, until)
        assert seen[0].__class__ is Request and seen[1:] == [1.0 + duration]
        assert (env.inline_grants, env.inline_holds) == (1, 0)

    def test_call_outside_a_process_queues_a_request(self):
        env = Environment()
        pool = Resource(env)
        done = pool.serve(0, float, 0.5)
        assert done.__class__ is Request and pool.count == 1
        env.run()
        assert env.now == 0.5 and env.inline_holds == 0

    def test_shared_resuming_event_blocks(self):
        env = Environment()
        pool = Resource(env)
        shared = env.timeout(1.0)
        seen = []

        def server():
            yield shared
            seen.append(pool.serve(0, float, 0.5))

        def watcher():
            yield env.any_of([shared])

        env.process(server())
        env.process(watcher())
        env.run()
        assert seen[0].__class__ is Request and env.inline_holds == 0

    def test_step_never_runs_in_place(self):
        env = Environment()
        seen = []

        def proc():
            yield env.timeout(1.0)
            seen.append(Resource(env).serve(0, float, 0.5))

        env.process(proc())
        while env.peek() != float("inf"):
            env.step()
        assert seen[0].__class__ is Request and env.inline_holds == 0

    def test_heap_kernel_never_runs_in_place(self):
        env = HeapEnvironment()
        seen = _served(env, 0.5)
        assert seen[0].__class__ is Request and seen[1:] == [1.5]
        assert (env.inline_grants, env.inline_holds) == (1, 0)

    def test_service_after_one_in_place_runs_in_place(self):
        env = Environment()
        pool = Resource(env)
        seen = []

        def proc():
            yield env.timeout(1.0)
            seen.append(pool.serve(0, float, 0.5))
            seen.append(pool.serve(0, float, 0.25))

        env.process(proc())
        env.run()
        assert seen == [0.5, 0.25] and env.now == 1.75
        assert (env.inline_grants, env.inline_holds) == (2, 2)


def _propagated(env, latency, prelude=lambda env: None, at=1.0):
    """In a process at ``at``, run ``prelude(env)``, then propagate.

    Returns the link and the times the process saw once the
    propagation ended.
    """
    link = NetworkLink(env, NetworkParams(bandwidth=4.0, latency=latency))
    seen = []

    def proc():
        yield env.timeout(at)
        prelude(env)
        yield from link._propagate(0)
        seen.append(env.now)

    env.process(proc())
    return link, seen


class TestPropagationGuards:
    """The link's propagation runs in place under the same guards as
    ``serve``: it passes when it ends before the next event the kernel
    would process, and waits on a timeout otherwise."""

    def test_lone_process_propagates_in_place(self):
        env = Environment()
        link, seen = _propagated(env, 0.5)
        env.run()
        assert seen == [1.5] and link.stats.transfers == 1
        # Start, the timeout to t=1 and the process's exit.
        assert env.inline_holds == 1 and env.processed_events == 3

    def test_transfer_outside_a_process_waits_to_run(self):
        env = Environment()
        link = NetworkLink(env, NetworkParams(bandwidth=4.0, latency=0.5))
        work = link.transfer(0)
        assert not isinstance(work, tuple) and link.stats.transfers == 0
        assert (env.inline_grants, env.inline_holds) == (0, 0)
        env.process(work)
        env.run()
        assert env.now == 0.5 and link.stats.transfers == 1

    def test_propagation_behind_a_same_time_event_waits(self):
        env = Environment()
        _, seen = _propagated(env, 0.5, lambda env: env.timeout(0.0))
        env.run()
        assert seen == [1.5] and env.inline_holds == 0

    def test_propagation_after_a_process_start_waits(self):
        env = Environment()
        _, seen = _propagated(env, 0.5, lambda env: env.process(_idle(env)))
        env.run()
        assert seen == [1.5] and env.inline_holds == 0

    def test_shared_resuming_event_blocks(self):
        env = Environment()
        link = NetworkLink(env, NetworkParams(bandwidth=4.0, latency=0.5))
        shared = env.timeout(1.0)
        seen = []

        def sender():
            yield shared
            yield from link._propagate(0)
            seen.append(env.now)

        def watcher():
            yield env.any_of([shared])

        env.process(sender())
        env.process(watcher())
        env.run()
        assert seen == [1.5] and env.inline_holds == 0

    def test_step_never_propagates_in_place(self):
        env = Environment()
        _, seen = _propagated(env, 0.5)
        while env.peek() != float("inf"):
            env.step()
        assert seen == [1.5] and env.inline_holds == 0

    def test_heap_kernel_never_propagates_in_place(self):
        env = HeapEnvironment()
        link, seen = _propagated(env, 0.5)
        env.run()
        assert seen == [1.5] and link.stats.transfers == 1
        assert env.inline_holds == 0

    def test_negative_latency_raises(self):
        with pytest.raises(ValueError):
            NetworkParams(latency=-1.0)
        link = NetworkLink(Environment())
        with pytest.raises(ValueError):
            replace(link.params, latency=-1.0)


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


class TestServices:
    """Each outcome of a CPU, disk, NIC or stall call, one direct case at a time."""

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
        # Granted at the call, then the core is held until the burst ends.
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
        seen = _called_at(env, lambda: cpu.execute(0.5), lambda env: env.process(_idle(env)))
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
        # The write queued behind the arm the read was granted at the call.
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

    def test_stall_goes_ahead_of_every_waiter(self):
        env = Environment()
        disk = _disk(env)
        injector = FaultInjector(env, FaultPlan(), RandomStreams(0))
        done = []

        def reader(name, arrival):
            yield env.timeout(arrival)
            yield from disk.read(2)  # 0.25 seek + 0.5 transfer
            done.append((name, env.now))

        def stall():
            yield env.timeout(0.5)
            yield from injector._stall(disk._arm, 1.0)
            done.append(("stall", env.now))

        env.process(reader("a", 0.0))
        env.process(reader("b", 0.25))
        env.process(stall())
        env.run()
        # The stall queued after b, yet took the arm first at 0.75.
        assert done == [("a", 0.75), ("stall", 1.75), ("b", 2.5)]
        assert disk._arm.count == 0 and disk.stats.queue_time == 1.5

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
            # Inside a process the check fires at the call.
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


KERNELS = (Environment, HeapEnvironment)


class TestKernelOrdering:
    """The calendar queue's ordering contract, on both kernels."""

    @staticmethod
    def _random_schedule(env_cls, seed):
        """Many processes drawing colliding delays from a tiny grid.

        Zero-delay draws re-enter the bucket being walked; the coarse
        grid forces heavy time collisions, so FIFO within a tick is
        what decides the order.
        """
        env = env_cls()
        rng = random.Random(seed)
        order = []

        def proc(name, delays):
            for delay in delays:
                yield env.timeout(delay)
                order.append((name, env.now))

        for i in range(20):
            delays = [rng.choice((0.0, 0.5, 0.5, 1.0, 2.5)) for _ in range(30)]
            env.process(proc(f"p{i:02d}", delays))
        env.run()
        return order, env.now, env.processed_events

    def test_random_collision_schedules_are_bit_identical(self):
        for seed in (1, 7, 42):
            runs = [self._random_schedule(cls, seed) for cls in KERNELS]
            assert runs[0] == runs[1]

    @staticmethod
    def _absolute_timeouts(env_cls):
        env = env_cls()
        order = []

        def absolute(name, when):
            yield env.timeout_at(when)
            order.append((name, env.now))

        def relative(name, delay):
            yield env.timeout(delay)
            order.append((name, env.now))

        env.process(absolute("abs-late", 2.0))
        env.process(relative("rel", 2.0))
        env.process(absolute("abs-early", 1.0))
        env.run()
        return order

    def test_timeout_at_interleaves_identically(self):
        runs = [self._absolute_timeouts(cls) for cls in KERNELS]
        assert runs[0] == runs[1]
        assert runs[0] == [("abs-early", 1.0), ("abs-late", 2.0), ("rel", 2.0)]

    @pytest.mark.parametrize("env_cls", KERNELS, ids=["calendar", "heap"])
    def test_spawns_join_the_walked_bucket_in_fifo_order(self, env_cls):
        env = env_cls()
        order = []

        def child(name):
            yield env.timeout(0.0)
            order.append(name)

        def parent():
            yield env.timeout(1.0)
            order.append("parent")
            for i in range(3):
                env.process(child(f"child{i}"))
            yield env.timeout(0.0)
            order.append("parent-again")

        env.process(parent())
        env.run()
        # The children's starts are URGENT, but their first
        # ``timeout(0.0)`` is queued after the parent's.
        assert order == ["parent", "parent-again", "child0", "child1", "child2"]

    @pytest.mark.parametrize("env_cls", KERNELS, ids=["calendar", "heap"])
    def test_urgent_stop_event_wins_the_tie(self, env_cls):
        env = env_cls()
        fired = []

        def proc():
            yield env.timeout(1.0)
            fired.append(env.now)

        env.process(proc())
        env.run(until=1.0)
        assert env.now == 1.0 and fired == []
        env.run()
        assert fired == [1.0]


def _fig5_point():
    cfg = scaled_config(CASE_STUDY, 0.06, None)
    spec = MigrationSpec.fixed(mb_per_sec(8))
    return single_tenant_point(cfg, spec, warmup=2.0, cooldown=1.0)


def _chaos_point():
    return fuzz_point(
        scaled_config(CASE_STUDY, 0.06, None),
        label="drop-20",
        messages={"drop_prob": 0.20, "dup_prob": 0.05},
        warmup=2.0,
        run_limit=120.0,
    )


def _fleet_point():
    return fleet_point(
        scaled_config(EVALUATION, 0.125, 11),
        MigrationSpec.dynamic(1.0),
        label="drain",
        scenario="drain",
        nodes=4,
        tenants=12,
        warmup=10.0,
        run_limit=400.0,
    )


def _closed_users():
    """MPL 4 closed users with think time on a small tenant; the trace."""
    env = Environment()
    server = Server(env, "test-server", streams=RandomStreams(seed=1234))
    engine = DatabaseEngine(
        env, server, TableLayout.for_data_size(16 * MB), buffer_bytes=2 * MB
    )
    trace = Trace()
    client = ClosedBenchmarkClient(
        env, engine, make_factory(engine), mpl=4, think_time=0.01,
        trace=trace, series="lat",
    )
    client.start()
    env.run(until=3.0)
    client.stop()
    series = trace["lat"]
    return tuple(series.times), tuple(series.values), client.stats.completed


POINTS = {
    "fig5": _fig5_point,
    "chaos": _chaos_point,
    "fleet": _fleet_point,
    "closed-users": _closed_users,
}

#: Oracle -> the (owner, attribute, reference) bindings that swap it in.
ORACLES = {
    # The disk, CPU and NIC models on the reference Resource.
    "resource": [
        (module, "Resource", reference_kernel.Resource)
        for module in (disk_module, cpu_module, network_module)
    ],
    # The heap kernel in the harness and the fleet sweep.
    "kernel": [
        (module, "Environment", HeapEnvironment) for module in (harness_mod, fleet_sweep)
    ],
    # Both benchmark clients starting one process per transaction.
    "transactions": [
        (BenchmarkClient, "_worker_loop", reference_kernel.process_per_txn_worker_loop),
        (ClosedBenchmarkClient, "_user_loop", reference_kernel.process_per_txn_user_loop),
    ],
}


def _with_oracle(oracle, point):
    """Run ``point()`` with ``oracle``'s reference bound in place."""
    bindings = ORACLES[oracle]
    originals = [getattr(owner, name) for owner, name, _ in bindings]
    for owner, name, reference in bindings:
        setattr(owner, name, reference)
    try:
        return point()
    finally:
        for (owner, name, _), original in zip(bindings, originals):
            setattr(owner, name, original)


class TestABExperimentReplay:
    """Real sweep points replayed on the fast path and on an oracle must
    produce equal records: fingerprints, counters, series, and all.
    Only a fleet record's event costs may split differently."""

    @pytest.mark.parametrize(
        "oracle, point",
        [
            (oracle, point)
            for oracle in ORACLES
            for point in ("fig5", "chaos", "fleet")
        ]
        + [("transactions", "closed-users")],
    )
    def test_records_match(self, oracle, point):
        fast = POINTS[point]()
        reference = _with_oracle(oracle, POINTS[point])
        if point == "fleet":
            costs = dict(events=0, inline=0, held=0)
            assert replace(fast, **costs) == replace(reference, **costs)
            fast_total = fast.events + fast.inline + fast.held
            total = reference.events + reference.inline + reference.held
            if oracle == "transactions":
                # Inline transactions save each one's start and end events.
                assert fast_total < total
            else:
                assert fast_total == total
            if oracle == "kernel":
                assert reference.held == 0
            assert fast.ok and fast.inline > 0 and fast.held > 0
        else:
            assert fast == reference
        if point == "fig5":
            assert fast.mean_latency > 0
        elif point == "closed-users":
            assert fast[2] > 0
