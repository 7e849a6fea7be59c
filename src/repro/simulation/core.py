"""Discrete-event simulation kernel.

This module implements a small, self-contained process-based
discrete-event simulator in the style of SimPy.  Simulated activities
are Python generators ("processes") that ``yield`` events; the
:class:`Environment` advances virtual time from event to event.

The kernel is the substrate on which the rest of the reproduction is
built: servers, disks, database engines, workload clients, and the
Slacker migration controller are all processes scheduled by an
:class:`Environment`.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(5.0)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
5.0
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

#: Bound once at import so the scheduling hot path pays a module-global
#: lookup instead of two attribute lookups per event.
_heappush = heapq.heappush
_heappop = heapq.heappop

_INF = float("inf")
_NEG_INF = float("-inf")

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
]

#: Sentinel marking an event that has not been triggered yet.
_PENDING = object()

#: Scheduling priority for "urgent" events (processed before normal
#: events that share the same timestamp).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupted process may catch the exception and continue; the
    ``cause`` attribute carries the value passed to ``interrupt()``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` *triggers* it, scheduling it on the environment's
    event queue.  When the environment pops the event it becomes
    *processed* and all registered callbacks fire.

    Event subclasses declare ``__slots__``: millions of events are
    allocated per run, and slotted instances are both smaller and
    faster to create than dict-backed ones.  Subclasses outside the
    kernel may omit ``__slots__`` and regain a ``__dict__``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        # A failed event whose exception was consumed (e.g. thrown into
        # a waiting process) is "defused" and will not crash the run.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the environment has invoked the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if the event succeeded, False if it failed, else None."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def defused(self) -> "Event":
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers after a fixed ``delay`` of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts are the kernel's most-allocated event, and they are
        # born already triggered, so the generic Event.__init__ path
        # (start pending, then flip state) is pure overhead: assign the
        # final state directly instead of going through succeed()'s
        # pending-state check.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._schedule(self, delay=delay)


#: Allocator for the fused timeout factories — bound once so the hot
#: path pays a single global load instead of two loads plus an
#: attribute lookup per event.
_new_timeout = Timeout.__new__


class _Initialize(Event):
    """Immediate event used to start a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, priority=URGENT)


class Process(Event):
    """A process wraps a generator and is itself an event.

    The process event triggers when the generator returns (successfully,
    with the generator's return value) or raises (as a failure).  Other
    processes may therefore ``yield`` a process to wait for it.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting for.
        self._target: Optional[Event] = None
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not exited."""
        return self._value is _PENDING

    @property
    def name(self) -> str:
        return getattr(self._generator, "__name__", repr(self._generator))

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process or a process from within itself is
        an error.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.env._schedule(event, priority=URGENT)
        # Detach from the event we were waiting on so that its later
        # processing does not resume us a second time.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        # Hot path: every generator step goes through here, so hoist the
        # attribute loads (generator, its bound send/throw) out of the loop.
        env = self.env
        env._active_process = self
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._target = None
                self.succeed(exc.value)
                break
            except BaseException as exc:
                self._target = None
                self.fail(exc)
                break

            # Duck-typed event check: anything without a ``callbacks``
            # attribute is not an Event.  (One attribute load replaces
            # the old isinstance + double ``callbacks`` load.)
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                try:
                    generator.throw(error)
                except StopIteration as exc:
                    self.succeed(exc.value)
                except BaseException as exc:
                    self.fail(exc)
                break

            if callbacks is not None:
                # Not yet processed: park until it fires.
                callbacks.append(self._resume)
                self._target = next_event
                break
            # Already processed: loop and feed its value in immediately.
            event = next_event

        env._active_process = None


class Condition(Event):
    """Waits for a combination of events (used by :class:`AllOf`/:class:`AnyOf`).

    The condition's value is a dict mapping each *triggered* event to
    its value, in trigger order.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        return {
            event: event._value
            for event in self._events
            if event.callbacks is None and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Condition that triggers once *all* events have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda evts, count: count >= len(evts), events)


class AnyOf(Condition):
    """Condition that triggers once *any* event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda evts, count: count >= 1, events)


class Environment:
    """Execution environment that advances simulated time event by event.

    Scheduling uses a **calendar queue** tuned for this repo's workload
    mix — dense clusters of same-timestamp events (token refills,
    transport hops, co-resuming processes) plus a thin stream of
    far-future timers (heartbeats, monitors):

    * normal-priority events live in per-timestamp FIFO **buckets**
      (``dict`` keyed by exact event time) with a heap of distinct
      bucket times, so the common case — another event at an existing
      timestamp — is one dict lookup and one ``list.append``, with no
      per-event sequence counter and no 4-tuple allocation;
    * urgent events (process starts, interrupts, ``run(until=t)``
      stops) are rare and keep a conventional ``(time, seq, event)``
      heap.

    Ordering is **bit-identical** to the previous single-``heapq``
    scheduler's ``(time, priority, sequence)`` order: bucket FIFO order
    *is* sequence order for events sharing a (time, priority) key, the
    urgent heap is consulted before same-time normal buckets (priority
    0 < 1), and urgent arrivals preempt the remainder of a same-time
    bucket exactly as a lower heap key would.  The original scheduler
    is kept verbatim as a test oracle (``tests/reference_kernel.py``),
    and ``tests/test_kernel_oracle.py`` replays random scripts and
    experiment seeds through both and asserts identical trajectories.
    """

    __slots__ = (
        "_now",
        "_times",
        "_buckets",
        "_urgent",
        "_eid",
        "_active_process",
        "_processed",
        "_elided",
        "_inline",
        "_held",
        "_fanout",
    )

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Heap of bucket timestamps (may hold duplicates; stale entries
        #: whose bucket has drained are skipped on pop).
        self._times: list[float] = []
        #: time -> FIFO list of normal-priority events at that time.
        self._buckets: dict[float, list[Event]] = {}
        #: Heap of (time, seq, event) for URGENT-priority events.
        self._urgent: list[tuple[float, int, Event]] = []
        self._eid = itertools.count()
        self._active_process: Optional[Process] = None
        #: Events processed so far (see :attr:`processed_events`).
        self._processed = 0
        #: Tick events coalescing avoided (see :attr:`elided_events`).
        self._elided = 0
        #: Grants, none of which costs an event (see :attr:`inline_grants`).
        self._inline = 0
        #: Waits that continued in place (see :attr:`inline_holds`).
        self._held = 0
        #: True while one event is dispatched to several callbacks, or
        #: through :meth:`step`; nothing continues in place meanwhile.
        self._fanout = False

    @property
    def now(self) -> float:
        """Current simulated time (seconds, by convention in this repo)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def processed_events(self) -> int:
        """Total events processed since construction.

        For a run that drains the queue this equals the number of
        events ever scheduled — the figure ``tests/test_event_budget.py``
        pins.
        """
        return self._processed

    @property
    def elided_events(self) -> int:
        """Tick events the coalesced-timer users never scheduled.

        Lazy periodic consumers (:class:`~repro.simulation.timers.
        PeriodicTicker` skips, the throttle's settle-on-interaction
        replay) report every conceptual tick they advanced past without
        putting an event on the queue.  ``processed_events +
        elided_events`` is therefore what the same trajectory would
        have cost with one event per tick — the denominator for the
        coalescing win (a fleet record's ``elided``).
        """
        return self._elided

    def note_elided(self, count: int) -> None:
        """Record ``count`` conceptual ticks handled without events."""
        self._elided += count

    @property
    def inline_grants(self) -> int:
        """Hand-offs that cost no event.

        Every unit grant is one: a unit is granted to a service that
        starts at once (:meth:`~repro.simulation.resources.Resource.serve`),
        whose caller resumes only at the service's end, if at all.  So
        is every queue or bucket get met in place
        (:meth:`~repro.simulation.resources.Store.get`,
        :meth:`~repro.simulation.resources.Container.get`), whose event
        would have been the next one processed.  ``processed_events +
        inline_grants`` is what the same trajectory costs when every
        grant and every get is an event.  Kept apart from
        :attr:`elided_events`, which counts coalesced ticks.
        """
        return self._inline

    @property
    def inline_holds(self) -> int:
        """Services and waits that advanced time in place.

        Each one is a timeout the kernel would have processed next
        anyway: a service that ended before the horizon
        (:meth:`~repro.simulation.resources.Resource.serve`) or a NIC
        propagation delay that did.  ``processed_events + inline_grants
        + inline_holds`` is what the same trajectory costs when every
        grant and every hold is an event.  Kept apart from
        :attr:`inline_grants` and :attr:`elided_events`.
        """
        return self._held

    def _horizon(self, dispatched: Optional[Event] = None) -> float:
        """Time of the next other event the run loop would process.

        Work the active process does in place must end strictly before
        it: an event scheduled at ``t`` is processed next, ahead of
        everything already queued, exactly when ``_horizon() > t``.
        ``-inf`` means nothing may continue in place: no process is
        active; the event that resumed it is being dispatched to
        several callbacks (or through :meth:`step`); or something is
        queued at ``now`` behind that event (the bucket at ``now`` is
        present and that event is not its last entry).  An absent
        bucket at ``now`` means an empty instant: the run loop keeps a
        bucket in the dict while it walks it.  Otherwise it is the
        earliest urgent event (a ``run(until=t)`` stop included) or
        live bucket, whichever comes first, and ``inf`` when neither
        exists.

        A callback passes the event being dispatched to it as
        ``dispatched``: the same rule then holds for the callback's
        own work, with that event in place of the one that resumed a
        process.
        """
        process = self._active_process
        if dispatched is None:
            if process is None or self._fanout:
                return _NEG_INF
            dispatched = process._target
        elif process is not None or self._fanout:
            return _NEG_INF
        buckets = self._buckets
        bucket = buckets.get(self._now)
        if bucket and bucket[-1] is not dispatched:
            return _NEG_INF
        times = self._times
        while times and times[0] not in buckets:
            _heappop(times)  # stale duplicate: bucket already drained
        horizon = times[0] if times else _INF
        urgent = self._urgent
        if urgent and urgent[0][0] < horizon:
            return urgent[0][0]
        return horizon

    def _hand_off(
        self, dispatched: Event, step: Callable[[Optional[Event]], None]
    ) -> Optional[Event]:
        """From a callback, take ``step`` at ``now`` as a queue get would.

        ``dispatched`` is the event being dispatched to the callback.
        When nothing else is due at ``now`` behind it, an event
        scheduled for the step would be the next one processed, so
        ``step(None)`` runs here, counted in :attr:`inline_grants`, and
        ``None`` comes back.  Otherwise the step waits on a zero-delay
        event, queued where that get's event would be, which comes back.
        """
        if self._horizon(dispatched) > self._now:
            self._inline += 1
            step(None)
            return None
        event = self.timeout(0)
        event.callbacks.append(step)
        return event

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now.

        Timeouts are the kernel's most-allocated event, so creation and
        scheduling are fused here: one call, no ``__init__`` chain, and
        direct bucket insertion (timeouts are always NORMAL priority).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = _new_timeout(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event.delay = delay
        time = self._now + delay
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [event]
            _heappush(self._times, time)
        else:
            bucket.append(event)
        return event

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create an event that triggers at absolute time ``when``.

        Unlike ``timeout(when - now)``, the event fires at *exactly*
        ``when`` — no float drift from the subtract-then-add round
        trip.  This is the primitive the coalesced periodic-timer API
        (:class:`~repro.simulation.timers.PeriodicTicker`) builds on:
        skipping k ticks in one event must land on the identical float
        timestamp the k chained ``timeout(interval)`` calls would have.
        """
        if when < self._now:
            raise ValueError(f"when={when} is in the past (now={self._now})")
        event = _new_timeout(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event.delay = when - self._now
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [event]
            _heappush(self._times, when)
        else:
            bucket.append(event)
        return event

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- scheduling / execution -------------------------------------------

    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        time = self._now + delay
        if priority == NORMAL:
            buckets = self._buckets
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = [event]
                _heappush(self._times, time)
            else:
                bucket.append(event)
        else:
            _heappush(self._urgent, (time, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        times, buckets = self._times, self._buckets
        while times and times[0] not in buckets:
            _heappop(times)  # stale duplicate: bucket already drained
        next_normal = times[0] if times else None
        next_urgent = self._urgent[0][0] if self._urgent else None
        if next_normal is None and next_urgent is None:
            return float("inf")
        if next_normal is None:
            return next_urgent
        if next_urgent is None:
            return next_normal
        return next_urgent if next_urgent <= next_normal else next_normal

    def _pop_next(self) -> Optional[Event]:
        """Remove and return the next event in schedule order, if any."""
        urgent, times, buckets = self._urgent, self._times, self._buckets
        while times and times[0] not in buckets:
            _heappop(times)
        if urgent and (not times or urgent[0][0] <= times[0]):
            time, _, event = _heappop(urgent)
            self._now = time
            return event
        if not times:
            return None
        time = times[0]
        bucket = buckets[time]
        event = bucket.pop(0)
        if not bucket:
            del buckets[time]
            _heappop(times)
        self._now = time
        return event

    def step(self) -> None:
        """Process the next scheduled event."""
        event = self._pop_next()
        if event is None:
            raise SimulationError("no scheduled events")
        self._processed += 1
        callbacks, event.callbacks = event.callbacks, None
        self._fanout = True
        try:
            for callback in callbacks:
                callback(event)
        finally:
            self._fanout = False
        if event._ok is False and not event._defused:
            # Nobody handled this failure: crash the simulation loudly,
            # per "errors should never pass silently".
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        ``until`` may be ``None`` (drain the queue), a number (run up to
        that simulated time), or an :class:`Event` (run until it is
        processed, returning its value).
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
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

        # Inlined event loop over locals.  Two levels: the outer loop
        # picks the next (time, priority) key; the inner loop walks one
        # normal bucket FIFO, re-checking the urgent heap before every
        # event so a same-time urgent arrival (a process started or
        # interrupted by a callback) preempts the bucket's remainder
        # exactly as its lower (time, 0, seq) heap key used to.  A
        # bucket stays in the dict while it is walked — concurrent
        # same-time schedules append to it and are picked up by the
        # indexed walk, in sequence order; ``finally`` trims the
        # consumed prefix so an exception (including StopSimulation)
        # leaves the queue consistent for a later run()/step().
        urgent = self._urgent
        times = self._times
        buckets = self._buckets
        processed = 0
        try:
            while True:
                if urgent:
                    tu = urgent[0][0]
                    while times and times[0] not in buckets:
                        _heappop(times)
                    if not times or tu <= times[0]:
                        time, _, event = _heappop(urgent)
                        self._now = time
                        processed += 1
                        callbacks, event.callbacks = event.callbacks, None
                        if len(callbacks) == 1:  # overwhelmingly common
                            callbacks[0](event)
                        else:
                            self._fanout = True
                            try:
                                for callback in callbacks:
                                    callback(event)
                            finally:
                                self._fanout = False
                        if event._ok is False and not event._defused:
                            raise event._value
                        continue
                else:
                    while times and times[0] not in buckets:
                        _heappop(times)
                    if not times:
                        break
                time = _heappop(times)
                bucket = buckets.get(time)
                if bucket is None:
                    continue  # stale duplicate entry
                self._now = time
                i = 0
                try:
                    while True:
                        if urgent and urgent[0][0] <= time:
                            break  # same-time urgent preempts the rest
                        try:
                            event = bucket[i]
                        except IndexError:
                            break  # bucket drained
                        i += 1
                        callbacks, event.callbacks = event.callbacks, None
                        if len(callbacks) == 1:  # overwhelmingly common
                            callbacks[0](event)
                        else:
                            self._fanout = True
                            try:
                                for callback in callbacks:
                                    callback(event)
                            finally:
                                self._fanout = False
                        if event._ok is False and not event._defused:
                            raise event._value
                finally:
                    processed += i
                    if i >= len(bucket):
                        del buckets[time]
                    else:
                        del bucket[:i]
                        _heappush(times, time)
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

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation()
