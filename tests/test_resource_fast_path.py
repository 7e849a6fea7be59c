"""A/B bit-identity: the resource grant fast path vs the original Resource.

:class:`repro.simulation.Resource` grants an uncontended request on the
spot and skips the wait heap; the resource models release through
``try``/``finally`` instead of the ``with`` protocol.  The original
``Resource``/``Request`` pair is kept verbatim in
``tests/reference_kernel.py`` so these tests can replay the same
scripts and experiment points through both and demand identical
trajectories.

Two layers of evidence:

* a property over random request/release/cancel/interrupt scripts at
  capacities 1-4 with mixed priorities: grant order, grant times and
  the kernel's processed-event count must match;
* whole-experiment A/B replays of a fig5 point, a chaos point and a
  fleet-drain point with ``Resource`` rebound in the disk, CPU and NIC
  models: the result records must be equal.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel
from repro.core.config import CASE_STUDY, EVALUATION
from repro.experiments.chaos_sweep import chaos_point
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

MODES = ("with", "finally", "construct", "withdraw", "interrupt")
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

    def use(name, request, hold):
        yield request
        log.append((name, "granted", env.now, request.granted_at))
        yield env.timeout(hold)

    def actor(name, mode, arrival, priority, hold):
        yield env.timeout(arrival)
        if mode == "with":
            with resource.request(priority) as request:
                yield from use(name, request, hold)
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
        else:  # interrupt: held (or queued) until another process interrupts
            try:
                with resource.request(priority) as request:
                    yield from use(name, request, 10.0)
            except Interrupt:
                log.append((name, "interrupted", env.now))
        log.append((name, "done", env.now, resource.count, resource.queue_length))

    def interrupter(victim, delay):
        yield env.timeout(delay)
        if victim.is_alive:
            victim.interrupt("script")

    for index, (mode, arrival, priority, hold) in enumerate(actors):
        proc = env.process(actor(index, mode, arrival, priority, hold))
        if mode == "interrupt":
            env.process(interrupter(proc, arrival + hold))
    env.run()
    return log, env.now, env.processed_events, resource.count, resource.queue_length


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
        assert fast == reference
        # Every claim was given back.
        assert fast[3:] == (0, 0)

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
        spec = MigrationSpec.fixed(mb_per_sec(8))
        fast, reference = _ab(
            lambda: chaos_point(
                cfg,
                spec,
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
        assert fast == reference
        assert fast.fingerprint == reference.fingerprint
        assert fast.ok
