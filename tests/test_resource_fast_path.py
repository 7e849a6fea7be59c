"""A/B bit-identity: the resource grant fast path vs the original Resource.

:class:`repro.simulation.Resource` grants an uncontended request on the
spot and skips the wait heap; the resource models release through
``try``/``finally`` instead of the ``with`` protocol.  The original
``Resource``/``Request`` pair is kept verbatim in
``tests/reference_kernel.py`` so these tests can replay the same
scripts and experiment points through both and demand identical
trajectories.

A grant the kernel would process next anyway continues in place
(``Environment.inline_grants``) instead of costing an event, so the
fast side's ``processed_events + inline_grants`` is what must match
the reference's ``processed_events``.

Two layers of evidence:

* a property over random request/release/cancel/interrupt scripts at
  capacities 1-4 with mixed priorities: grant order, grant times and
  the kernel's event count must match.  Four modes attack the guards
  on continuing in place: an ``any_of`` waiter sharing the event that
  resumed the requester, zero-delay timeouts around the request, a
  process started and an interrupt thrown at the same instant;
* whole-experiment A/B replays of a fig5 point, a chaos point and a
  fleet-drain point with ``Resource`` rebound in the disk, CPU and NIC
  models: the result records must be equal.

``TestContinueInPlace`` also pins each guard with one direct case.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel
from reference_kernel import assert_fleet_records_match
from repro.core.config import CASE_STUDY, EVALUATION
from repro.experiments.chaos_fuzz import fuzz_point
from repro.experiments.common import scaled_config
from repro.experiments.fleet_sweep import fleet_point
from repro.experiments.harness import MigrationSpec
from repro.parallel.tasks import single_tenant_point
from repro.resources import cpu, disk, network
from repro.resources.units import mb_per_sec
from repro.simulation import Environment, Interrupt, Request, Resource

IMPLEMENTATIONS = (
    (Resource, Request),
    (reference_kernel.Resource, reference_kernel.Request),
)

MODES = (
    "with", "finally", "construct", "withdraw", "interrupt",
    "anyof", "zero", "spawn", "poke",
)
#: A coarse time grid, so arrivals, releases and interrupts collide.
TIMES = (0.0, 0.0, 0.5, 1.0, 1.5, 2.0)

actor_strategy = st.tuples(
    st.sampled_from(MODES),
    st.sampled_from(TIMES),  # arrival
    st.integers(min_value=0, max_value=2),  # priority
    st.sampled_from(TIMES),  # hold, patience or interrupt delay
)


def _replay(resource_cls, request_cls, capacity, actors):
    """Run one script; return everything an observer could see."""
    env = Environment()
    resource = resource_cls(env, capacity=capacity)
    log = []
    #: One shared wake-up event per arrival time, for the ``anyof`` mode.
    gates = {}

    def gate(arrival):
        if arrival not in gates:
            gates[arrival] = env.timeout(arrival)
        return gates[arrival]

    def use(name, request, hold):
        yield request
        log.append((name, "granted", env.now, request.granted_at))
        yield env.timeout(hold)

    def hold_once(name, priority, hold):
        with resource.request(priority) as request:
            yield from use(name, request, hold)

    def marker(name):
        """A zero-delay timeout whose firing is logged."""
        event = env.timeout(0.0)
        event.callbacks.append(lambda _: log.append((name, "marker", env.now)))

    def actor(name, mode, arrival, priority, hold):
        if mode == "anyof":
            yield gate(arrival)
        else:
            yield env.timeout(arrival)
        if mode in ("with", "anyof"):
            yield from hold_once(name, priority, hold)
        elif mode == "finally":
            request = resource.request(priority)
            try:
                yield from use(name, request, hold)
            finally:
                resource.release(request)
        elif mode == "construct":
            request = request_cls(resource, priority)
            yield from use(name, request, hold)
            request.cancel()
        elif mode == "withdraw":
            request = resource.request(priority)
            yield env.any_of([request, env.timeout(hold)])
            if request.triggered:
                log.append((name, "granted", env.now, request.granted_at))
                yield env.timeout(hold)
                resource.release(request)
            else:
                request.cancel()
                log.append((name, "withdrawn", env.now))
        elif mode == "zero":
            marker(name)
            request = resource.request(priority)
            marker(name)
            try:
                yield from use(name, request, hold)
            finally:
                resource.release(request)
        elif mode == "spawn":
            env.process(hold_once((name, "child"), priority, hold))
            yield from hold_once(name, priority, hold)
        elif mode == "poke":
            if sleeper.is_alive:
                sleeper.interrupt(name)
            yield from hold_once(name, priority, hold)
        else:  # interrupt: held (or queued) until another process interrupts
            try:
                with resource.request(priority) as request:
                    yield from use(name, request, 10.0)
            except Interrupt:
                log.append((name, "interrupted", env.now))
        log.append((name, "done", env.now, resource.count, resource.queue_length))

    def watcher(name, arrival, priority, hold):
        """Shares its wake-up event with the ``anyof`` actor ``name``."""
        yield env.any_of([gate(arrival)])
        log.append((name, "watched", env.now, resource.count))
        yield from hold_once((name, "watcher"), priority, hold)

    def interrupter(victim, delay):
        yield env.timeout(delay)
        if victim.is_alive:
            victim.interrupt("script")

    def sleeper_loop(pokes):
        """Sleeps until poked, then competes for the resource."""
        for _ in range(pokes + 1):
            try:
                yield env.timeout(50.0)
                return
            except Interrupt as poke:
                log.append(("sleeper", "poked", poke.cause, env.now))
            try:
                yield from hold_once("sleeper", 0, 0.5)
            except Interrupt as poke:
                log.append(("sleeper", "poked busy", poke.cause, env.now))

    for index, (mode, arrival, priority, hold) in enumerate(actors):
        proc = env.process(actor(index, mode, arrival, priority, hold))
        if mode == "interrupt":
            env.process(interrupter(proc, arrival + hold))
        elif mode == "anyof":
            env.process(watcher(index, arrival, priority, hold))
    sleeper = env.process(
        sleeper_loop(sum(mode == "poke" for mode, *_ in actors))
    )
    env.run()
    return (
        log, env.now, env.processed_events, env.inline_grants,
        resource.count, resource.queue_length,
    )


class TestScriptReplay:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=4),
        actors=st.lists(actor_strategy, min_size=1, max_size=24),
    )
    def test_random_scripts_are_bit_identical(self, capacity, actors):
        fast, reference = (
            _replay(resource_cls, request_cls, capacity, actors)
            for resource_cls, request_cls in IMPLEMENTATIONS
        )
        log, now, events, inline, *held = fast
        assert reference[3] == 0
        assert (log, now, events + inline, 0, *held) == reference
        # Every claim was given back.
        assert held == [0, 0]

    def test_constructor_goes_through_request(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        first = Request(resource, 1)
        second = resource.request(0)
        assert type(first) is Request and first.resource is resource
        assert first.priority == 1 and first.triggered and first.granted_at is not None
        assert not second.triggered and resource.queue_length == 1
        first.cancel()
        assert second.triggered and resource.queue_length == 0


def _grant_after(env, resource, prelude):
    """Request a free unit after ``prelude(env)`` runs in a process at t=1."""
    grants = []

    def proc():
        yield env.timeout(1.0)
        prelude(env)
        grants.append(resource.request())
        yield env.timeout(0.5)

    env.process(proc())
    env.run()
    return grants[0]


class TestContinueInPlace:
    """Each guard on continuing a grant in place, one at a time."""

    def test_lone_resumer_continues_in_place(self):
        env = Environment()
        grant = _grant_after(env, Resource(env), lambda env: None)
        assert grant.processed and grant.ok and grant.granted_at == 1.0
        assert env.inline_grants == 1

    def test_request_outside_a_process_is_scheduled(self):
        env = Environment()
        grant = Resource(env).request()
        assert not grant.processed and env.inline_grants == 0

    def test_same_time_event_ahead_blocks(self):
        env = Environment()
        grant = _grant_after(env, Resource(env), lambda env: env.timeout(0.0))
        assert env.inline_grants == 0 and grant.processed

    def test_same_time_process_start_blocks(self):
        env = Environment()

        def idle():
            yield env.timeout(0.0)

        _grant_after(env, Resource(env), lambda env: env.process(idle()))
        assert env.inline_grants == 0

    def test_shared_resuming_event_blocks(self):
        env = Environment()
        resource = Resource(env)
        shared = env.timeout(1.0)
        grants = []

        def requester():
            yield shared
            grants.append(resource.request())

        def watcher():
            yield env.any_of([shared])

        env.process(requester())
        env.process(watcher())
        env.run()
        assert grants and env.inline_grants == 0

    def test_step_never_continues_in_place(self):
        env = Environment()
        resource = Resource(env)

        def proc():
            yield env.timeout(1.0)
            resource.request()

        env.process(proc())
        while env.peek() != float("inf"):
            env.step()
        assert env.inline_grants == 0

    def test_heap_kernel_never_continues_in_place(self):
        env = reference_kernel.HeapEnvironment()
        _grant_after(env, Resource(env), lambda env: None)
        assert env.inline_grants == 0


def _with_reference_resource(fn):
    """Run ``fn`` with the disk, CPU and NIC models on the reference Resource."""
    modules = (disk, cpu, network)
    originals = [module.Resource for module in modules]
    for module in modules:
        module.Resource = reference_kernel.Resource
    try:
        return fn()
    finally:
        for module, original in zip(modules, originals):
            module.Resource = original


def _ab(fn):
    return fn(), _with_reference_resource(fn)


class TestABExperimentReplay:
    """Real sweep points replayed on both resources must produce equal
    records — fingerprints, counters, series, and all."""

    def test_fig5_throttle_point(self):
        cfg = scaled_config(CASE_STUDY, 0.06, None)
        spec = MigrationSpec.fixed(mb_per_sec(8))
        fast, reference = _ab(
            lambda: single_tenant_point(cfg, spec, warmup=2.0, cooldown=1.0)
        )
        assert fast == reference
        assert fast.mean_latency > 0

    def test_chaos_fault_injection_point(self):
        cfg = scaled_config(CASE_STUDY, 0.06, None)
        fast, reference = _ab(
            lambda: fuzz_point(
                cfg,
                label="drop-20",
                messages={"drop_prob": 0.20, "dup_prob": 0.05},
                warmup=2.0,
                run_limit=120.0,
            )
        )
        assert fast == reference
        assert fast.fingerprint == reference.fingerprint

    def test_fleet_drain_point(self):
        cfg = scaled_config(EVALUATION, 0.125, 11)
        spec = MigrationSpec.dynamic(1.0)
        fast, reference = _ab(
            lambda: fleet_point(
                cfg,
                spec,
                label="drain",
                scenario="drain",
                nodes=4,
                tenants=12,
                warmup=10.0,
                run_limit=400.0,
            )
        )
        # Both sides run on the real kernel, so both hold in place.
        assert_fleet_records_match(fast, reference, heap=False)
        assert fast.inline > 0 and reference.held > 0
        assert fast.ok
