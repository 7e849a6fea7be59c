"""Reference implementations kept only as test oracles.

Each class here is a retired or plainest-form ``src/`` implementation,
kept so A/B tests can replay the same workload through it and through
the current fast path and demand identical trajectories
(``tests/test_kernel_oracle.py``, except where noted):

* :class:`HeapEnvironment` — the single-``heapq`` event scheduler the
  calendar-queue :class:`~repro.simulation.core.Environment` replaced;
  it never continues anything in place;
* :class:`Resource` — the capacity-limited resource in its plainest
  form: every call of :meth:`Resource.serve` is pushed onto the wait
  heap and popped back off, its service drawn at the grant, and its
  request fires at grant + service; nothing runs in place;
* :func:`process_per_txn_worker_loop` / :func:`process_per_txn_user_loop`
  — the open and closed benchmark clients' loops before transactions
  ran inline: each transaction in its own child ``Process``;
* :class:`Store` / :class:`Container` — the queue and the bucket with
  ``get`` in its plainest form: every get is queued and succeeded
  through the wait list, so its event is always scheduled; nothing is
  met in place;
* :class:`EagerThrottle` — the throttle's eager refill loop, one kernel
  event per tick, before refills were coalesced
  (``tests/test_coalesced_timers.py``);
* :class:`GeneratorCpu` / :class:`GeneratorDisk` /
  :class:`GeneratorNetworkLink` — the CPU, disk and NIC services as
  generators that do all of their work once they run, queued through
  the reference :class:`Resource`.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
import itertools
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
from repro.simulation import resources
from repro.simulation.resources import Request
from repro.workload.client import _resolve_engine

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = [
    "Container",
    "EagerThrottle",
    "GeneratorCpu",
    "GeneratorDisk",
    "GeneratorNetworkLink",
    "HeapEnvironment",
    "Resource",
    "Store",
    "process_per_txn_user_loop",
    "process_per_txn_worker_loop",
]


class HeapEnvironment(Environment):
    """The original single-``heapq`` scheduler, kept verbatim.

    Not used by any experiment path.  It never continues in place
    (its horizon is ``-inf``): every service and every wait is a
    scheduled event, so its ``processed_events + inline_grants`` (the
    grants that start a service cost no event on either kernel) is the
    full cost the fast kernel's ``processed_events + inline_grants +
    inline_holds`` must match.
    """

    __slots__ = ("_heap_queue",)

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self._heap_queue: list[tuple[float, int, int, Event]] = []

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def _horizon(self) -> float:
        """Never continue in place: every service and wait is an event."""
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


class Resource:
    """A capacity-limited resource in its plainest form.

    Every :meth:`serve` call is pushed onto the wait heap and popped back
    off by :meth:`_trigger`, which grants it, draws its service and
    schedules the request at grant + service; nothing runs in place.
    The grant itself is no event, so it is counted in
    ``inline_grants``, as the fast resource counts it.
    """

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
        """Number of units in service."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._queue)

    def serve(self, priority: int, start, arg) -> Request:
        """Queue a service; ``start(arg)`` draws it at the grant."""
        request = Request(self.env)
        request.granted_at = None
        request.start = start
        request.arg = arg
        heapq.heappush(self._queue, (priority, next(self._seq), request))
        self._trigger()
        return request

    def release(self, request: Request) -> None:
        """Give back a unit in service, or withdraw a request still queued."""
        try:
            self.users.remove(request)
        except ValueError:
            self._queue = [entry for entry in self._queue if entry[2] is not request]
            heapq.heapify(self._queue)
            return
        self._trigger()

    def _trigger(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            _, _, request = heapq.heappop(self._queue)
            self.users.append(request)
            request.granted_at = self.env.now
            self.env._inline += 1
            service = request.start(request.arg)
            request._ok = True
            request._value = service
            self.env._schedule(request, delay=service)


class Store(resources.Store):
    """:class:`~repro.simulation.resources.Store` whose get always queues."""

    def get(self) -> Event:
        event = Event(self.env)
        self._getters.append(event)
        self._serve()
        return event


class Container(resources.Container):
    """:class:`~repro.simulation.resources.Container` whose get always queues."""

    def get(self, amount: float) -> Event:
        event = Event(self.env)
        self._getters.append((event, amount))
        self._serve()
        return event


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
        grant = cores.serve(priority, self.burst_time, mean_seconds)
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

        def start(_):
            stats.queue_time += env.now - queued_at
            return self._service((env.now, nbytes, sequential, stream, cached))

        arm = self._arm
        grant = arm.serve(priority, start, None)
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
        grant = wire.serve(priority, lambda nbytes: nbytes / self.params.bandwidth, nbytes)
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
    nothing to settle and no grant wake-up to arm: both hooks of the
    coalesced path are no-ops here.
    """

    def __init__(self, env: Environment, rate: float, **kwargs):
        super().__init__(env, rate, **kwargs)
        env.process(self._refill_loop())

    def _settle(self, inclusive: bool) -> None:
        pass

    def _arm(self, head=None) -> None:
        pass

    def _refill_loop(self):
        while self._running:
            yield self.env.timeout(self.tick)
            if self._running and self._rate > 0:
                self._bucket.put(self._rate * self.tick)
