"""Reference implementations kept only as test oracles.

Each class here is a retired ``src/`` implementation, kept verbatim so
A/B tests can replay the same workload through it and through the
current fast path and demand identical trajectories:

* :class:`HeapEnvironment` — the single-``heapq`` event scheduler the
  calendar-queue :class:`~repro.simulation.core.Environment` replaced
  (``tests/test_calendar_queue.py``);
* :class:`Resource` / :class:`Request` — the capacity-limited resource
  before its direct-grant fast path: every request pushed onto the
  wait heap and popped back off, granted through ``succeed()``, and
  released through the ``with`` protocol
  (``tests/test_resource_fast_path.py``);
* :func:`process_per_txn_worker_loop` / :func:`process_per_txn_user_loop`
  — the open and closed benchmark clients' loops before transactions
  ran inline: each transaction in its own child ``Process``
  (``tests/test_inline_transactions.py``);
* :class:`EagerThrottle` — the throttle's eager refill loop, one kernel
  event per tick, before refills were coalesced
  (``tests/test_coalesced_timers.py``);
* :class:`GeneratorCpu` / :class:`GeneratorDisk` /
  :class:`GeneratorNetworkLink` — the CPU, disk and NIC services before
  they finished in place: each call a generator that does all of its
  work once it runs, queued through the reference :class:`Resource`'s
  :meth:`Resource.serve` (``tests/test_service_in_place.py``).

The reference :class:`Resource` keeps one addition to the verbatim
original: :meth:`Resource.serve`, the grant-time start of the current
contract in its plainest form.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import replace
from typing import Any, Generator, Optional

from repro.migration.throttle import Throttle
from repro.resources.cpu import Cpu
from repro.resources.disk import Disk
from repro.resources.network import NetworkLink
from repro.simulation.core import (
    NORMAL,
    URGENT,
    Environment,
    Event,
    SimulationError,
    StopSimulation,
    Timeout,
)
from repro.workload.client import _resolve_engine

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = [
    "EagerThrottle",
    "GeneratorCpu",
    "GeneratorDisk",
    "GeneratorNetworkLink",
    "HeapEnvironment",
    "Request",
    "Resource",
    "assert_fleet_records_match",
    "process_per_txn_user_loop",
    "process_per_txn_worker_loop",
]


class HeapEnvironment(Environment):
    """The original single-``heapq`` scheduler, kept verbatim.

    Reference implementation for the calendar queue's A/B bit-identity
    fixture: ``tests/test_calendar_queue.py`` replays the same seeds
    through an :class:`Environment` and a :class:`HeapEnvironment` and
    asserts identical trajectories.  Not used by any experiment path.

    It never continues in place: every grant and every hold is a
    scheduled event, so its ``processed_events`` is the full cost the
    fast kernel's ``processed_events + inline_grants + inline_holds``
    must match.
    """

    __slots__ = ("_heap_queue",)

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self._heap_queue: list[tuple[float, int, int, Event]] = []

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def _horizon(self) -> float:
        """Never continue in place: every grant, hold and service is an event."""
        return float("-inf")

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create an event that triggers at absolute time ``when``."""
        if when < self._now:
            raise ValueError(f"when={when} is in the past (now={self._now})")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event.delay = when - self._now
        _heappush(self._heap_queue, (when, NORMAL, next(self._eid), event))
        return event

    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        _heappush(
            self._heap_queue, (self._now + delay, priority, next(self._eid), event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._heap_queue[0][0] if self._heap_queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._heap_queue:
            raise SimulationError("no scheduled events")
        time, _, _, event = _heappop(self._heap_queue)
        self._now = time
        self._processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires."""
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event._value
            stop_event.callbacks.append(self._stop_callback)
        else:
            at = float(until)
            if at < self._now:
                raise ValueError(f"until={at} is in the past (now={self._now})")
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            self._schedule(stop_event, priority=URGENT, delay=at - self._now)
            stop_event.callbacks.append(self._stop_callback)

        queue = self._heap_queue
        processed = 0
        try:
            while queue:
                time, _, _, event = _heappop(queue)
                self._now = time
                processed += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
        except StopSimulation:
            if isinstance(until, Event):
                if until._ok:
                    return until._value
                raise until._value
            return None
        finally:
            self._processed += processed
        if isinstance(until, Event) and not until.processed:
            raise SimulationError("run() queue drained before `until` event fired")
        return None


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager so the resource is always released:

    >>> with resource.request() as req:   # doctest: +SKIP
    ...     yield req
    ...     ...  # use the resource
    """

    def __init__(self, resource: "Resource", priority: int = 0, start=None):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.granted_at: Optional[float] = None
        self.start = start
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the claim (granted) or withdraw it (still queued)."""
        self.resource._do_release(self)


class Resource:
    """A capacity-limited resource with a FIFO request queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self._queue: list[tuple[int, int, Request]] = []
        self._seq = itertools.count()

    @property
    def count(self) -> int:
        """Number of granted (in-use) requests."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for capacity."""
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        """Claim one unit of capacity; the returned event fires when granted."""
        return Request(self, priority)

    def serve(self, priority: int, start) -> Request:
        """Claim one unit; ``start()`` draws its service at the grant.

        The request fires at grant + service with the service as its
        value.  The grant itself is no event, so it is counted in
        ``inline_grants``.
        """
        return Request(self, priority, start)

    def release(self, request: Request) -> None:
        """Release a granted request (alias usable without ``with``)."""
        self._do_release(request)

    def claim_in_place(self) -> None:
        """Never: every grant on this resource is a scheduled event."""
        return None

    # -- internals --------------------------------------------------------

    def _do_request(self, request: Request) -> None:
        heapq.heappush(self._queue, (request.priority, next(self._seq), request))
        self._trigger()

    def _do_release(self, request: Request) -> None:
        try:
            self.users.remove(request)
        except ValueError:
            # Not granted yet: withdraw from the wait queue instead.
            self._queue = [entry for entry in self._queue if entry[2] is not request]
            heapq.heapify(self._queue)
            return
        self._trigger()

    def _trigger(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            _, _, request = heapq.heappop(self._queue)
            self.users.append(request)
            request.granted_at = self.env.now
            if request.start is None:
                request.succeed()
            else:
                self.env._inline += 1
                service = request.start()
                request._ok = True
                request._value = service
                self.env._schedule(request, delay=service)


class GeneratorCpu(Cpu):
    """:class:`~repro.resources.cpu.Cpu` whose bursts are always generators.

    Nothing happens until the generator runs; then it queues for a core
    on the reference :class:`Resource`, which draws the burst at the
    grant, and waits for the burst's end.
    """

    def __init__(self, env: Environment, *args, **kwargs):
        super().__init__(env, *args, **kwargs)
        self._cores = Resource(env, capacity=self.params.cores)

    def execute(self, mean_seconds: float, priority: int = 0) -> Generator:
        """Process: occupy one core for a burst of roughly ``mean_seconds``."""
        if mean_seconds < 0:
            raise ValueError(f"mean_seconds must be >= 0, got {mean_seconds}")
        cores = self._cores
        grant = cores.serve(priority, lambda: self.burst_time(mean_seconds))
        try:
            burst = yield grant
            self.stats.bursts += 1
            self.stats.busy_time += burst
        finally:
            cores.release(grant)


class GeneratorDisk(Disk):
    """:class:`~repro.resources.disk.Disk` whose accesses are always generators."""

    def __init__(self, env: Environment, *args, **kwargs):
        super().__init__(env, *args, **kwargs)
        self._arm = Resource(env, capacity=1)

    def _access(
        self,
        nbytes: int,
        sequential: bool,
        stream: Optional[str],
        is_write: bool,
        cached: bool,
        priority: int,
    ) -> Generator:
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        env = self.env
        queued_at = env.now
        stats = self.stats

        def start():
            stats.queue_time += env.now - queued_at
            return self._service(nbytes, sequential, stream, cached)

        arm = self._arm
        grant = arm.serve(priority, start)
        try:
            service = yield grant
            stats.busy_time += service
            self._count(nbytes, sequential, is_write, cached)
        finally:
            arm.release(grant)


class GeneratorNetworkLink(NetworkLink):
    """:class:`~repro.resources.network.NetworkLink` whose transfers are
    always generators."""

    def __init__(self, env: Environment, *args, **kwargs):
        super().__init__(env, *args, **kwargs)
        self._wire = Resource(env, capacity=1)

    def transfer(self, nbytes: int, priority: int = 0) -> Generator:
        """Process: push ``nbytes`` through this link direction."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        wire = self._wire
        grant = wire.serve(priority, lambda: nbytes / self.params.bandwidth)
        try:
            serialization = yield grant
            self.stats.busy_time += serialization
        finally:
            wire.release(grant)
        # Propagation happens off the wire (pipelined with later sends).
        if self.params.latency > 0:
            yield self.env.timeout(self.params.latency)
        self.stats.transfers += 1
        self.stats.bytes_sent += nbytes


def process_per_txn_worker_loop(self):
    """``BenchmarkClient._worker_loop`` with one child process per transaction."""
    while True:
        txn = yield self._queue.get()
        engine = _resolve_engine(self.engine)
        yield self.env.process(engine.execute(txn))
        self.stats.completed += 1
        self.trace.record(self.series, self.env.now, txn.latency)


def process_per_txn_user_loop(self):
    """``ClosedBenchmarkClient._user_loop`` with one child process per transaction."""
    while self._running:
        txn = self.factory.build(arrived_at=self.env.now)
        self.stats.arrived += 1
        engine = _resolve_engine(self.engine)
        yield self.env.process(engine.execute(txn))
        self.stats.completed += 1
        self.trace.record(self.series, self.env.now, txn.latency)
        if self.think_time > 0:
            yield self.env.timeout(self.think_time)


class EagerThrottle(Throttle):
    """:class:`~repro.migration.throttle.Throttle` refilled by one
    kernel event per tick.

    The refill loop deposits every tick as it falls due, so there is
    nothing to settle and no grant wakeup to schedule: both hooks of
    the coalesced path are no-ops here.
    """

    def __init__(self, env: Environment, rate: float, **kwargs):
        super().__init__(env, rate, **kwargs)
        env.process(self._refill_loop())

    def _settle(self, inclusive: bool) -> None:
        pass

    def _reschedule_service(self) -> None:
        pass

    def _refill_loop(self):
        while self._running:
            yield self.env.timeout(self.tick)
            if self._running and self._rate > 0:
                self._bucket.put(self._rate * self.tick)


def assert_fleet_records_match(fast, reference, *, heap: bool = True) -> None:
    """Equal ``FleetRecord``s, where ``fast`` continued some events in place.

    Every field must match, except how the kernel events split: each
    grant ``fast`` continued in place is counted in ``inline`` and each
    hold in ``held`` rather than in ``events``, so only the totals must
    be equal.  Both sides count a grant that starts a service
    (``Resource.serve``) in ``inline``.  On the ``HeapEnvironment``
    (``heap=True``) the reference never holds in place.
    """
    if heap:
        assert reference.held == 0
    total = reference.events + reference.inline + reference.held
    assert fast.events + fast.inline + fast.held == total
    costs = dict(events=0, inline=0, held=0)
    assert replace(fast, **costs) == replace(reference, **costs)
