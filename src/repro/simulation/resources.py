"""Shared-resource primitives for the simulation kernel.

Provides the queueing building blocks used throughout the reproduction:

* :class:`Resource` — a server with fixed capacity and a FIFO queue
  (disk arms, CPU cores, client threads).
* :class:`PriorityResource` — same, but requests carry priorities
  (lower value = served first).
* :class:`Container` — a continuous level that processes put into and
  get from (the token bucket of the migration throttle).
* :class:`Store` — a FIFO queue of discrete items (message queues in
  the middleware layer).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from .core import _PENDING, Environment, Event

#: Bound once at import: the grant/release cycle is on every
#: operation's path (see :meth:`Resource.request`).
_heappush = heapq.heappush
_heappop = heapq.heappop
_new_event = object.__new__

__all__ = [
    "Resource",
    "PriorityResource",
    "Request",
    "Container",
    "Store",
]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Built by :meth:`Resource.request`; ``Request(resource, priority)``
    is the same call.  :meth:`Resource.serve` builds one that starts a
    service at its grant.  Usable as a context manager so the resource
    is always released:

    >>> with resource.request() as req:   # doctest: +SKIP
    ...     yield req
    ...     ...  # use the resource
    """

    __slots__ = ("resource", "priority", "granted_at", "start")

    def __new__(cls, resource: "Resource", priority: int = 0) -> "Request":
        return resource.request(priority)

    def __init__(self, resource: "Resource", priority: int = 0):
        # Fully built by Resource.request (reached through __new__).
        pass

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the claim (granted) or withdraw it (still queued)."""
        self.resource.release(self)


class Resource:
    """A capacity-limited resource with a FIFO request queue.

    The queue is non-empty only while every unit is in use: a release
    grants the head of the queue at once, and a request that finds a
    free unit is granted on the spot.  That invariant is the fast path
    — an uncontended request never touches the wait heap, and when
    nothing else could run first its grant costs no event either.  A
    request from :meth:`serve` starts its service at the grant, so it
    costs one event, at the service's end, whether it queued or not.
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
        """Number of granted (in-use) requests."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for capacity."""
        return len(self._queue)

    def claim_in_place(self) -> Optional[float]:
        """Claim a free unit when its grant would be the next event processed.

        With a unit free and the kernel's
        :meth:`~repro.simulation.core.Environment._horizon` after
        ``now``, the grant that :meth:`request` would schedule is
        processed next anyway: it is counted in
        :attr:`~repro.simulation.core.Environment.inline_grants`, the
        caller holds the unit from here on, and the horizon comes back
        — the caller's use of the unit may continue in place for as long
        as it ends before it.  Otherwise ``None`` comes back and nothing
        is claimed.

        The unit is recorded only if the caller must wait on an event
        while it holds it (:meth:`occupy`); a use that ends before the
        horizon needs no record, since nothing else runs in between.
        """
        if len(self.users) < self.capacity:
            env = self.env
            horizon = env._horizon()
            if horizon > env._now:
                env._inline += 1
                return horizon
        return None

    def occupy(self, priority: int = 0) -> Request:
        """Record a unit claimed by :meth:`claim_in_place` as a granted request.

        The request comes back already processed; release it with
        :meth:`release` like any other grant.
        """
        request = _new_event(Request)
        request.env = self.env
        request.callbacks = None
        request._defused = False
        request._ok = True
        request._value = None
        request.resource = self
        request.priority = priority
        request.granted_at = self.env._now
        self.users.append(request)
        return request

    def request(self, priority: int = 0) -> Request:
        """Claim one unit of capacity; the returned event fires when granted.

        A grant is scheduled at the current time, exactly where
        ``succeed()`` would schedule it — unless that event would be
        the very next one processed anyway (:meth:`claim_in_place`).
        Then the grant comes back already processed and the caller
        continues in place.  The caller must yield the grant, or skip
        the yield when ``grant.callbacks is None``, before it schedules
        anything else at this instant.
        """
        if self.claim_in_place() is not None:
            return self.occupy(priority)
        env = self.env
        request = _new_event(Request)
        request.env = env
        request.callbacks = []
        request._defused = False
        request.resource = self
        request.priority = priority
        users = self.users
        if len(users) < self.capacity:
            users.append(request)
            request.granted_at = env._now
            request._ok = True
            request._value = None
            env._schedule(request)
        else:
            request.granted_at = None
            request.start = None
            request._ok = None
            request._value = _PENDING
            _heappush(self._queue, (priority, next(self._seq), request))
        return request

    def serve(self, priority: int, start: Callable[[], float]) -> Request:
        """Claim one unit and start a service on it the instant it is granted.

        ``start()`` draws the service time.  It is called here when a
        unit is free, or inside the :meth:`release` that hands the unit
        over when the request queued; the grant then costs no event
        (it is counted in
        :attr:`~repro.simulation.core.Environment.inline_grants`), and
        the returned request fires once, at grant + service, with the
        service time as its value.  ``granted_at`` is the grant time.
        A request withdrawn while queued is never started; release one
        that is in service as any other grant.
        """
        env = self.env
        request = _new_event(Request)
        request.env = env
        request.callbacks = []
        request._defused = False
        request.resource = self
        request.priority = priority
        users = self.users
        if len(users) < self.capacity:
            users.append(request)
            request.granted_at = env._now
            env._inline += 1
            delay = start()
            request._ok = True
            request._value = delay
            env._schedule(request, delay=delay)
        else:
            request.granted_at = None
            request.start = start
            request._ok = None
            request._value = _PENDING
            _heappush(self._queue, (priority, next(self._seq), request))
        return request

    def release(self, request: Request) -> None:
        """Release a granted request, or withdraw one still queued."""
        try:
            self.users.remove(request)
        except ValueError:
            # Not granted yet: withdraw from the wait queue instead.
            self._queue = [entry for entry in self._queue if entry[2] is not request]
            heapq.heapify(self._queue)
            return
        if self._queue:
            self._trigger()

    # -- internals --------------------------------------------------------

    def _trigger(self) -> None:
        env = self.env
        queue = self._queue
        users = self.users
        while queue and len(users) < self.capacity:
            request = _heappop(queue)[2]
            users.append(request)
            request.granted_at = env._now
            request._ok = True
            start = request.start
            if start is None:
                request._value = None
                env._schedule(request)
            else:  # served: the unit's service starts at the hand-off
                env._inline += 1
                delay = request._value = start()
                env._schedule(request, delay=delay)


class PriorityResource(Resource):
    """A :class:`Resource` whose queue is ordered by request priority.

    Lower ``priority`` values are granted first; ties are FIFO.
    """


class Container:
    """A continuous quantity with blocking ``get`` and non-blocking ``put``.

    Waiting ``get`` requests are served strictly FIFO: a large request
    at the head of the queue blocks smaller ones behind it, which is
    the behaviour needed for a fair token-bucket throttle.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init level {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: list[tuple[Event, float]] = []

    @property
    def level(self) -> float:
        """Currently available amount."""
        return self._level

    def put(self, amount: float) -> None:
        """Add ``amount``, clamped to capacity, and wake waiting getters."""
        if amount < 0:
            raise ValueError(f"cannot put negative amount {amount}")
        self._level = min(self.capacity, self._level + amount)
        self._serve()

    def get(self, amount: float) -> Event:
        """Return an event that fires once ``amount`` can be withdrawn."""
        if amount < 0:
            raise ValueError(f"cannot get negative amount {amount}")
        if amount > self.capacity:
            raise ValueError(
                f"get({amount}) exceeds container capacity {self.capacity}"
            )
        event = Event(self.env)
        self._getters.append((event, amount))
        self._serve()
        return event

    def _serve(self) -> None:
        while self._getters:
            event, amount = self._getters[0]
            if amount > self._level:
                break
            self._getters.pop(0)
            self._level -= amount
            event.succeed(amount)


class Store:
    """An unbounded FIFO queue of discrete items with blocking ``get``."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: list[Any] = []
        self._getters: list[Event] = []

    @property
    def items(self) -> list[Any]:
        """The queued items (oldest first); do not mutate."""
        return self._items

    def put(self, item: Any) -> None:
        """Enqueue ``item`` and wake the oldest waiting getter, if any."""
        self._items.append(item)
        self._serve()

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        event = Event(self.env)
        self._getters.append(event)
        self._serve()
        return event

    def _serve(self) -> None:
        while self._getters and self._items:
            event = self._getters.pop(0)
            event.succeed(self._items.pop(0))
