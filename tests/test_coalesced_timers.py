"""Coalesced periodic timers: eager-vs-lazy equivalence.

Every PeriodicTicker port (`middleware/node.py` heartbeats and failure
detectors, `migration/throttle.py` refills, `placement/monitor.py`,
`obs/runtime.py`) rests on two claims:

* **bit-identity** — the lazy process observes exactly the chained
  float timestamps the eager ``while True: yield env.timeout(tick)``
  loop would have produced, and every externally visible action
  (grants, beats, samples) lands at the identical time with the
  identical value;
* **fewer events** — the skipped no-op ticks never reach the kernel,
  and are accounted in ``env.elided_events`` so
  ``processed + elided`` reconstructs the eager cost.

The throttle's eager loop is kept as ``EagerThrottle`` in
``tests/reference_kernel.py`` precisely so these tests can replay the
same scenario through both paths and diff the trajectories.
"""

from __future__ import annotations

import pytest

from repro.migration.throttle import MAX_WALK_TICKS, Throttle
from repro.resources.units import MB
from repro.simulation import Environment, PeriodicTicker

from reference_kernel import EagerThrottle


class TestPeriodicTicker:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            PeriodicTicker(env, 0)
        with pytest.raises(ValueError):
            PeriodicTicker(env, -0.5)
        ticker = PeriodicTicker(env, 0.05)
        with pytest.raises(ValueError):
            ticker.skip(-1)
        with pytest.raises(ValueError):
            ticker.peek(-1)
        with pytest.raises(ValueError):
            ticker.ticks_until(float("inf"))

    def test_tick_times_match_eager_loop_bitwise(self, env):
        """The ticker's clock is the eager loop's chained float sum —
        not ``t0 + n * interval``, which differs in the last ulp."""
        interval = 0.05  # not exactly representable: chaining matters
        eager_times = []
        time = 0.0
        for _ in range(2000):
            time += interval
            eager_times.append(time)

        ticker = PeriodicTicker(env, interval)
        lazy_times = []
        for _ in range(2000):
            lazy_times.append(ticker.next_time)
            ticker.skip(1)
        assert lazy_times == eager_times
        # The closed form drifts off this timeline, which is why the
        # ticker never uses it:
        assert 2000 * interval != eager_times[-1]

    def test_skip_equals_repeated_ticks(self, env):
        a = PeriodicTicker(env, 0.05)
        b = PeriodicTicker(env, 0.05)
        for _ in range(777):
            a.tick()
        b.skip(777)
        assert a.next_time == b.next_time

    def test_skip_until_equals_repeated_skip(self, env):
        a = PeriodicTicker(env, 0.3)
        b = PeriodicTicker(env, 0.3)
        skipped = a.skip_until(10.0)
        manual = 0
        while b.next_time < 10.0:
            b.skip(1)
            manual += 1
        assert skipped == manual
        assert a.next_time == b.next_time
        # inclusive consumes a tick landing exactly on the limit
        c = PeriodicTicker(env, 0.5)
        assert c.skip_until(1.0, inclusive=True) == 2
        assert c.skip_until(1.0, inclusive=True) == 0

    def test_peek_and_ticks_until_walk_the_same_timeline(self, env):
        ticker = PeriodicTicker(env, 0.05)
        assert ticker.peek(0) == ticker.next_time
        probe = PeriodicTicker(env, 0.05)
        probe.skip(9)
        assert ticker.peek(9) == probe.next_time
        # ticks_until: first tick at-or-after the deadline, minimum 1
        assert ticker.ticks_until(0.0) == 1
        deadline = ticker.peek(9)
        assert ticker.ticks_until(deadline) == 10

    def test_skips_are_accounted_as_elided_events(self, env):
        ticker = PeriodicTicker(env, 0.05)
        assert env.elided_events == 0
        ticker.skip(10)
        assert env.elided_events == 10
        ticker.skip_until(ticker.peek(4))
        assert env.elided_events == 14
        ticker.tick()  # a scheduled tick is a real event, not elided
        assert env.elided_events == 14


def _throttle_scenario(throttle_cls):
    """One migration-shaped throttle life: acquire bursts, rate changes
    mid-stream, a pause, a resume, and a long idle tail."""
    env = Environment()
    throttle = throttle_cls(env, rate=10 * MB)
    grants = []

    def consumer():
        for chunk in (1 * MB, 4 * MB, 4 * MB, 0.5 * MB, 6 * MB, 2 * MB):
            yield from throttle.acquire(chunk)
            grants.append((env.now, chunk))

    def controller():
        yield env.timeout(0.4)
        throttle.set_rate(2 * MB)   # PID clamps down
        yield env.timeout(0.6)
        throttle.set_rate(0.0)      # paused entirely (Section 5.4)
        yield env.timeout(1.0)
        throttle.set_rate(25 * MB)  # recovery: wide open
        yield env.timeout(3.0)
        levels.append((env.now, throttle.level))

    levels = []
    done = env.process(consumer())
    env.process(controller())
    env.run(until=done)
    # idle tail: nothing acquires, rate stays set — the coalesced
    # throttle must cost zero events here
    env.run(until=env.now + 30.0)
    throttle.stop()
    return {
        "grants": grants,
        "levels": levels,
        "end": env.now,
        "stats": (
            throttle.stats.bytes_granted,
            throttle.stats.grants,
            throttle.stats.rate_changes,
            throttle.stats.rate_seconds,
        ),
        "average_rate": throttle.average_rate(),
        "processed": env.processed_events,
        "elided": env.elided_events,
    }


class TestThrottleEagerVsCoalesced:
    def test_trajectories_are_bit_identical(self):
        eager = _throttle_scenario(EagerThrottle)
        lazy = _throttle_scenario(Throttle)
        for key in ("grants", "levels", "end", "stats", "average_rate"):
            assert lazy[key] == eager[key], key

    def test_coalesced_path_processes_fewer_events(self):
        eager = _throttle_scenario(EagerThrottle)
        lazy = _throttle_scenario(Throttle)
        assert lazy["processed"] < eager["processed"]
        assert eager["elided"] == 0
        # The elided ticks account for (at least) the missing events;
        # the settlement may conceptually replay a few more ticks than
        # the eager loop scheduled, never fewer.
        assert lazy["processed"] + lazy["elided"] >= eager["processed"]

    def test_paused_and_idle_throttle_costs_zero_events(self):
        env = Environment()
        throttle = Throttle(env, rate=0.0)
        env.run(until=120.0)
        before = env.processed_events
        env.run(until=240.0)
        # Only the run(until=) stop events themselves: a paused
        # coalesced throttle schedules nothing at all.
        assert env.processed_events - before <= 1
        assert throttle.level == 0.0


def _crawl_scenario(throttle_cls):
    """A stream whose grants lie several walk caps out.

    Rate changes land exactly on the first and third capped wakeup
    ticks, from timeouts scheduled after the wakeups were: the kernel
    wakes the throttle first, and the tick must still get the new rate,
    as it does in the eager loop (whose tick timeout is scheduled
    later).
    """
    env = Environment()
    tick = 0.05
    slow = 1 * MB / (3.5 * MAX_WALK_TICKS * tick)
    throttle = throttle_cls(env, rate=slow, tick=tick)
    clock = PeriodicTicker(env, tick)
    grants = []

    def consumer():
        for chunk in (1 * MB, 0.25 * MB, 1 * MB):
            yield from throttle.acquire(chunk)
            grants.append((env.now, chunk))

    def controller():
        for cap, rate in ((1, slow / 2), (3, slow * 3)):
            at = clock.peek(cap * MAX_WALK_TICKS - 1)
            yield env.timeout_at(at - 1.0)
            yield env.timeout_at(at)
            throttle.set_rate(rate)

    done = env.process(consumer())
    env.process(controller())
    env.run(until=done)
    throttle.stop()
    return {
        "grants": grants,
        "stats": (throttle.stats.grants, throttle.stats.rate_seconds),
        "processed": env.processed_events,
    }


class TestThrottleCrawl:
    def test_walk_cap_is_bit_identical(self):
        eager = _crawl_scenario(EagerThrottle)
        lazy = _crawl_scenario(Throttle)
        assert lazy["grants"] == eager["grants"]
        assert lazy["stats"] == eager["stats"]
        assert lazy["grants"][-1][0] > 4 * MAX_WALK_TICKS * 0.05

    def test_crawl_wakes_once_per_walk(self):
        lazy = _crawl_scenario(Throttle)
        eager = _crawl_scenario(EagerThrottle)
        assert lazy["processed"] < eager["processed"] / 100


class TestHeartbeatGridStaysOnEagerTimeline:
    """The lazy heartbeat/detector loops in middleware/node.py share
    PeriodicTicker's clock, so their observable beat times must sit on
    the eager chained-addition grid."""

    def test_detector_declares_death_on_the_eager_tick(self):
        from repro.core.config import CASE_STUDY
        from repro.experiments.common import scaled_config
        from repro.experiments.harness import _build_cluster
        from repro.simulation import RandomStreams

        config = scaled_config(CASE_STUDY, 0.06, None)
        cluster = _build_cluster(config, RandomStreams(config.seed))
        env = cluster.env
        cluster.start_heartbeats(0.5)
        cluster.start_failure_detectors(0.5, miss_threshold=3.0)
        source = cluster.node("source")
        target = cluster.node("target")
        declared_at = []
        original = target._cancel_migrations_to

        def recording_cancel(peer):
            declared_at.append(env.now)
            original(peer)

        target._cancel_migrations_to = recording_cancel
        env.run(until=20.0)
        assert "source" not in target.dead_peers
        source.crash()
        env.run(until=40.0)
        assert "source" in target.dead_peers
        assert target.stats.peers_declared_dead == 1
        # Death can only be declared on a detector tick, and every
        # detector tick lies on the chained 0.5s grid the eager loop
        # would have walked.
        grid = []
        time = 0.0
        while time < 40.0:
            time += 0.5
            grid.append(time)
        assert declared_at == [t for t in declared_at if t in grid]
        assert len(declared_at) == 1
