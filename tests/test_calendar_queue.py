"""A/B bit-identity: calendar-queue kernel vs the legacy binary heap.

The calendar-queue :class:`~repro.simulation.core.Environment` exists
purely as a faster implementation of the same event ordering contract
— (time, priority, sequence), urgent before normal, FIFO within a
tick.  ``HeapEnvironment`` (``tests/reference_kernel.py``) is the
retired heapq kernel, kept exactly so these tests can replay identical
workloads through both and demand identical trajectories.

Two layers of evidence:

* kernel-level ordering properties on synthetic schedules built to
  stress the calendar queue's edge cases (time collisions, same-time
  events scheduled *while the bucket is being walked*, `run(until=)`
  stop events racing timeouts, absolute-time `timeout_at`);
* whole-experiment A/B replays of real sweep points — fig5 throttle,
  chaos fault injection, fleet drain — asserting the full result
  records (fingerprints included) are equal.  ``HeapEnvironment``
  never continues a grant or a hold in place, so its event count is
  the calendar queue's ``events + inline + held``.
"""

from __future__ import annotations

import random

from repro.core.config import CASE_STUDY, EVALUATION
from repro.experiments import harness as harness_mod
from repro.experiments import fleet_sweep
from repro.experiments.chaos_fuzz import fuzz_point
from repro.experiments.common import scaled_config
from repro.experiments.fleet_sweep import fleet_point
from repro.experiments.harness import MigrationSpec
from repro.parallel.tasks import single_tenant_point
from repro.resources.units import mb_per_sec
from repro.simulation import Environment

from reference_kernel import HeapEnvironment, assert_fleet_records_match

KERNELS = (Environment, HeapEnvironment)


def _with_kernel(module, env_cls, fn):
    """Run ``fn`` with ``module``'s Environment rebound to ``env_cls``."""
    original = module.Environment
    module.Environment = env_cls
    try:
        return fn()
    finally:
        module.Environment = original


class TestKernelOrdering:
    """Synthetic schedules through both kernels, compared event by event."""

    @staticmethod
    def _random_schedule(env_cls, seed):
        """Many processes drawing colliding delays from a tiny grid.

        Zero-delay draws re-enter the *currently walked* bucket; the
        coarse grid forces heavy time collisions, so FIFO-within-tick
        is what actually determines the order.
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
    def _mid_walk_spawn(env_cls):
        """A wakeup at time t schedules more work at the same t."""
        env = env_cls()
        order = []

        def child(name):
            yield env.timeout(0.0)
            order.append((name, env.now))

        def parent():
            yield env.timeout(1.0)
            order.append(("parent", env.now))
            for i in range(3):
                env.process(child(f"child{i}"))
            yield env.timeout(0.0)
            order.append(("parent-again", env.now))

        env.process(parent())
        env.run()
        return order

    def test_same_time_spawns_land_in_walked_bucket_in_fifo_order(self):
        runs = [self._mid_walk_spawn(cls) for cls in KERNELS]
        assert runs[0] == runs[1]
        # And the order is the contract, not an accident of either
        # kernel: the children's process-init events are URGENT, but
        # their first `timeout(0.0)` draws a *later* sequence number
        # than the parent's, so the parent resumes first.
        assert [name for name, _ in runs[0]] == [
            "parent", "parent-again", "child0", "child1", "child2",
        ]

    @staticmethod
    def _stop_races_timeout(env_cls):
        """`run(until=t)`'s urgent stop event vs a normal timeout at t."""
        env = env_cls()
        fired = []

        def proc():
            yield env.timeout(1.0)
            fired.append(env.now)

        env.process(proc())
        env.run(until=1.0)
        return env.now, list(fired)

    def test_urgent_stop_event_wins_the_tie_in_both_kernels(self):
        runs = [self._stop_races_timeout(cls) for cls in KERNELS]
        assert runs[0] == runs[1]
        now, fired = runs[0]
        assert now == 1.0
        assert fired == []  # stop is URGENT: it preempts the 1.0 timeout

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


class TestABExperimentReplay:
    """Real sweep points replayed through both kernels must produce
    equal records — fingerprints, counters, series, and all."""

    def test_fig5_throttle_point(self):
        cfg = scaled_config(CASE_STUDY, 0.06, None)
        spec = MigrationSpec.fixed(mb_per_sec(8))

        def point():
            return single_tenant_point(cfg, spec, warmup=2.0, cooldown=1.0)

        records = [
            _with_kernel(harness_mod, cls, point) for cls in KERNELS
        ]
        assert records[0] == records[1]
        assert records[0].mean_latency > 0

    def test_chaos_fault_injection_point(self):
        cfg = scaled_config(CASE_STUDY, 0.06, None)

        def point():
            return fuzz_point(
                cfg,
                label="drop-20",
                messages={"drop_prob": 0.20, "dup_prob": 0.05},
                warmup=2.0,
                run_limit=120.0,
            )

        records = [
            _with_kernel(harness_mod, cls, point) for cls in KERNELS
        ]
        assert records[0] == records[1]
        assert records[0].fingerprint == records[1].fingerprint

    def test_fleet_drain_point(self):
        cfg = scaled_config(EVALUATION, 0.125, 11)
        spec = MigrationSpec.dynamic(1.0)

        def point():
            return fleet_point(
                cfg,
                spec,
                label="drain",
                scenario="drain",
                nodes=4,
                tenants=12,
                warmup=10.0,
                run_limit=400.0,
            )

        records = [
            _with_kernel(fleet_sweep, cls, point) for cls in KERNELS
        ]
        assert_fleet_records_match(*records)
        assert records[0].ok
