"""Rate throttle — the ``pv`` equivalent.

Slacker throttles the snapshot stream by piping it through the Linux
utility ``pv``, which "allows for limiting the amount of data passing
through a Unix pipe ... [and] allows for changing the throttling rate
of an existing process ... on a second or even sub-second level
granularity" (Section 3.1).

:class:`Throttle` is the token-bucket equivalent: refill ticks deposit
``rate * tick`` bytes of credit into a bounded bucket, and a stream
must withdraw credit for every chunk it pushes.  ``set_rate`` takes
effect from the next refill tick; a rate of zero pauses the stream
entirely ("sometimes even pausing migration entirely to allow the
database to recover", Section 5.4).

Refill ticks are **coalesced**: instead of a kernel event every tick
(20/sec at the default 0.05 s tick, granted or not), the throttle
settles elapsed ticks analytically on every interaction and schedules
a real wakeup only at the tick where the oldest blocked request can
actually be granted.  A paused (rate 0) or idle throttle costs zero
kernel events.  The settlement replays the *exact* per-tick float
arithmetic of the eager loop — chained tick timestamps via
:class:`~repro.simulation.timers.PeriodicTicker` and per-tick
``min(capacity, level + rate * tick)`` deposits — so grant times,
amounts, and stats are identical to the eager loop's.  The eager loop
lives on as a test oracle (``EagerThrottle`` in
``tests/reference_kernel.py``) for the equivalence tests in
``tests/test_coalesced_timers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..resources.units import MB
from ..simulation import Container, Environment, Interrupt, PeriodicTicker

__all__ = ["ThrottleStats", "Throttle", "MAX_WALK_TICKS"]

#: Default refill tick, seconds (sub-second granularity, like pv's).
DEFAULT_TICK = 0.05

#: Default bucket depth: bounds burst after an idle period.
DEFAULT_BUCKET_BYTES = 4 * MB

#: Most refill ticks the service loop walks ahead (204.8 s at the
#: default tick).  A grant further out wakes the loop at the last
#: walked tick to settle and walk again, so a stream throttled to a
#: crawl costs O(elapsed ticks) instead of a walk to a grant years
#: away on every rate change.  Every pinned experiment point walks
#: fewer than 200 ticks, so none of them wakes early.
MAX_WALK_TICKS = 2**12


@dataclass
class ThrottleStats:
    """Running counters for one throttle."""

    bytes_granted: int = 0
    grants: int = 0
    rate_changes: int = 0
    #: Time integral of the configured rate (for average-rate queries).
    rate_seconds: float = 0.0


class Throttle:
    """A dynamically adjustable token-bucket byte-rate limiter."""

    def __init__(
        self,
        env: Environment,
        rate: float,
        bucket_bytes: float = DEFAULT_BUCKET_BYTES,
        tick: float = DEFAULT_TICK,
    ):
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if bucket_bytes <= 0:
            raise ValueError(f"bucket_bytes must be positive, got {bucket_bytes}")
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        self.env = env
        self.tick = tick
        self.stats = ThrottleStats()
        self._rate = float(rate)
        self._rate_since = env.now
        self._start_time = env.now
        self._bucket = Container(env, capacity=bucket_bytes, init=0.0)
        self._running = True
        #: Conceptual tick clock; ``next_time`` is the first
        #: *unsettled* tick.  Ticks strictly before ``env.now`` are
        #: always settled before any state is read or changed.
        self._ticker = PeriodicTicker(env, tick)
        #: Service process, alive only while requests are blocked and
        #: the rate is positive (see :meth:`_service_loop`).
        self._service = None

    @property
    def rate(self) -> float:
        """Configured rate, bytes/second."""
        return self._rate

    @property
    def level(self) -> float:
        """Unused credit currently in the bucket, bytes."""
        self._settle(inclusive=True)
        return self._bucket.level

    def set_rate(self, rate: float) -> None:
        """Change the rate on the fly (0 pauses the stream)."""
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if self._running:
            # Ticks strictly before now accrued at the old rate; a tick
            # at exactly `now` uses the new rate (rate setters — the
            # PID controller, migration startup — run ahead of the tick
            # in event order because their timeouts are scheduled
            # further in advance, hence with earlier sequence numbers).
            self._settle(inclusive=False)
        self._account_rate_time()
        changed = rate != self._rate
        if changed:
            self.stats.rate_changes += 1
        self._rate = float(rate)
        if self._running and changed:
            self._reschedule_service()

    def average_rate(self) -> float:
        """Time-averaged configured rate since construction, bytes/second."""
        self._account_rate_time()
        elapsed = self.env.now - self._start_time
        if elapsed <= 0:
            return self._rate
        return self.stats.rate_seconds / elapsed

    def acquire(self, nbytes: float) -> Generator:
        """Process: block until ``nbytes`` of credit is available.

        Requests larger than the bucket are split internally, so chunk
        sizes need not be bounded by the bucket depth.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        remaining = float(nbytes)
        while remaining > 0:
            piece = min(remaining, self._bucket.capacity)
            self._settle(inclusive=True)
            get_event = self._bucket.get(piece)
            if get_event.callbacks is not None and not self._service_alive():
                # Blocked with no wakeup pending: start the service
                # process.  (If it is already alive this request queued
                # behind the head, whose wakeup is unchanged — FIFO
                # serve order.)
                self._reschedule_service()
            yield get_event
            remaining -= piece
        self.stats.bytes_granted += int(nbytes)
        self.stats.grants += 1

    def stop(self) -> None:
        """Stop refilling (end of migration)."""
        if self._running:
            self._settle(inclusive=False)
        self._account_rate_time()
        self._running = False

    # -- internals ---------------------------------------------------------

    def _account_rate_time(self) -> None:
        now = self.env.now
        self.stats.rate_seconds += self._rate * (now - self._rate_since)
        self._rate_since = now

    def _settle(self, inclusive: bool) -> None:
        """Apply every refill tick due by ``env.now``.

        Replays the eager loop's exact per-tick action — ``put`` with
        the chained-addition deposit, clamp, and FIFO serve — at one
        conceptual tick per iteration.  ``inclusive`` controls whether
        a tick falling exactly on ``env.now`` is applied (reads and
        acquires) or left for after the caller's update (rate changes).
        The rate is constant across the settled span because every
        rate change settles first.
        """
        if not self._running:
            return
        now = self.env.now
        ticker = self._ticker
        rate = self._rate
        bucket = self._bucket
        if rate <= 0 or bucket._level >= bucket.capacity:
            # Paused or saturated: every due tick is a no-op (a waiting
            # request always wants more than the current level, so a
            # full bucket cannot have a grantable head).  Bulk-skip.
            ticker.skip_until(now, inclusive)
            return
        deposit = rate * self.tick
        while (ticker.next_time < now) or (inclusive and ticker.next_time == now):
            ticker.skip(1)
            bucket.put(deposit)

    def _service_alive(self) -> bool:
        return self._service is not None and self._service.is_alive

    def _reschedule_service(self) -> None:
        """Ensure the service process reflects the current queue/rate."""
        if self._service_alive():
            # Recompute the wakeup: the pending one may now be too late
            # (rate raised) or premature (rate lowered/zeroed).
            self._service.interrupt()
        elif self._bucket._getters and self._rate > 0:
            self._service = self.env.process(self._service_loop())

    def _ticks_until_grant(self) -> int:
        """Ticks (>= 1) until the queue head's request can be served.

        Walks the same chained float arithmetic the settlement will
        perform, so the predicted tick is exact.  Returns 0 when no
        tick ever grants it and ``MAX_WALK_TICKS + 1`` when none of the
        next :data:`MAX_WALK_TICKS` does.
        """
        amount = self._bucket._getters[0][1]
        level = self._bucket._level
        capacity = self._bucket.capacity
        deposit = self._rate * self.tick
        for ticks in range(1, MAX_WALK_TICKS + 1):
            before = level
            level = min(capacity, level + deposit)
            if level >= amount:
                return ticks
            if level == before:
                # Deposit vanished in float rounding: the eager loop
                # would tick forever without ever granting.  Report "no
                # grant tick"; the service loop parks until a rate
                # change makes progress possible again.
                return 0
        return MAX_WALK_TICKS + 1

    def _service_loop(self):
        """Wake exactly at ticks where the oldest blocked request is
        granted; all other ticks settle analytically."""
        env = self.env
        while self._running and self._rate > 0 and self._bucket._getters:
            ticks = self._ticks_until_grant()
            if ticks == 0:
                return  # rate too small to ever grant; set_rate restarts
            walked_out = ticks > MAX_WALK_TICKS
            target = self._ticker.peek(min(ticks, MAX_WALK_TICKS) - 1)
            try:
                yield env.timeout_at(target)
            except Interrupt:
                # set_rate already settled and updated the rate; just
                # recompute (or exit, if paused) on the next pass.
                continue
            # Deposits through now; grants the head (and any queued
            # requests the remaining credit covers) at this tick.  At
            # the end of a walk that found no grant, the tick at now
            # grants nothing and is left unsettled, as it would be had
            # nothing woken: a rate change at this instant still
            # applies to it.
            self._settle(inclusive=not walked_out)
