"""Shared-resource primitives for the simulation kernel.

Provides the queueing building blocks used throughout the reproduction:

* :class:`Resource` — a server with fixed capacity and a priority-then-
  FIFO queue (disk arms, CPU cores, NIC wires), used only through
  :meth:`Resource.serve`.
* :class:`Container` — a continuous level that processes put into and
  get from (the token bucket of the migration throttle).
* :class:`Store` — a FIFO queue of discrete items (message queues in
  the middleware layer).

A ``get`` on either that can be met at once, with no getter queued
ahead, takes its item or amount there and, when nothing else is due
at ``now`` (``_horizon() > now``), returns an event that is already
processed: the caller's ``yield`` continues in place instead of
waiting for an event the kernel would have processed next anyway.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional, Union

from .core import _PENDING, Environment, Event

#: Bound once at import: the grant/release cycle is on every
#: operation's path (see :meth:`Resource.serve`).
_heappush = heapq.heappush
_heappop = heapq.heappop
_new_event = object.__new__

__all__ = [
    "Resource",
    "Request",
    "Container",
    "Store",
]


def _done(env: Environment, value: Any) -> Event:
    """A get met in place: an event already processed with ``value``.

    Succeeding a pending event here would schedule it at ``now``, and
    with ``_horizon() > now`` it would be the next event processed,
    resuming the caller alone.  So the caller's ``yield`` may feed the
    value straight back instead, provided nothing is scheduled between
    the get and that ``yield`` (lint rule SLK013).  Counted in
    :attr:`~repro.simulation.core.Environment.inline_grants`.
    """
    env._inline += 1
    event = _new_event(Event)
    event.env = env
    event.callbacks = None
    event._value = value
    event._ok = True
    event._defused = False
    return event


class Request(Event):
    """A unit of a :class:`Resource` in service, or queued for one.

    Built by :meth:`Resource.serve`.  It fires once, at the end of the
    service started on its grant, with the service time as its value;
    give the unit back with :meth:`Resource.release`.  ``arg`` is the
    argument the service was drawn from.  ``then`` is free for a
    resource model's continuation-form service: the caller's
    continuation, run after the model's finish step.
    """

    __slots__ = ("granted_at", "start", "arg", "then")


class Resource:
    """A capacity-limited resource with a priority-then-FIFO queue.

    The queue is non-empty only while every unit is in use: a release
    hands the unit straight to the head of the queue, and a call that
    finds a unit free is granted on the spot.  Every use of a unit is a
    service started at its grant (:meth:`serve`), so a grant never
    costs an event: a service costs one event, at its end, or none
    when it ends before anything else could run.  Lower ``priority``
    values are granted first; ties are FIFO.
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

    def serve(
        self,
        priority: int,
        start: Callable[[Any], float],
        arg: Any,
        then: Optional[Callable[[Request], None]] = None,
    ) -> Union[float, Request]:
        """Take one unit and start a service on it the instant it is granted.

        ``start(arg)`` draws the service time.  It takes one argument,
        not ``*args``: in CPython a call through ``*args`` costs about
        twice as much, and every CPU burst and disk access makes one.
        With a unit free it is
        called here and the grant is counted in
        :attr:`~repro.simulation.core.Environment.inline_grants`.  If the
        service then ends before the next event the kernel would process
        (:meth:`~repro.simulation.core.Environment._horizon` after
        ``now + service``), it runs in place: ``now`` advances to its
        end, :attr:`~repro.simulation.core.Environment.inline_holds`
        counts it, the unit is free again, and the drawn service time
        comes back.

        Otherwise a :class:`Request` comes back; the caller yields it
        at once and releases it with :meth:`release`.  A request that
        found a unit free fires at ``now + service``.  One that queued
        is started inside the :meth:`release` that hands it the unit
        (counted in ``inline_grants`` there) and fires at grant +
        service.  ``granted_at`` is the grant time.  A request withdrawn
        while queued is never started.

        With ``then`` the service is in *continuation form*: it never
        runs in place, so the :class:`Request` always comes back,
        granted or queued as above, with ``then`` as its one callback.
        ``then(request)`` runs when the service ends and gives the unit
        back; nothing waits on the request.  That is how a service
        continues from a callback, where no process is active.
        """
        env = self.env
        users = self.users
        if len(users) < self.capacity:
            env._inline += 1
            service = start(arg)
            end = env._now + service
            if then is None and env._horizon() > end:
                env._now = end
                env._held += 1
                return service
            request = _new_event(Request)
            request.env = env
            request.callbacks = [] if then is None else [then]
            request._defused = False
            request.arg = arg
            users.append(request)
            request.granted_at = env._now
            request._ok = True
            request._value = service
            env._schedule(request, delay=service)
            return request
        request = _new_event(Request)
        request.env = env
        request.callbacks = [] if then is None else [then]
        request._defused = False
        request.granted_at = None
        request.start = start
        request.arg = arg
        request._ok = None
        request._value = _PENDING
        _heappush(self._queue, (priority, next(self._seq), request))
        return request

    def release(self, request: Request) -> None:
        """Give back a unit in service, or withdraw a request still queued."""
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
        """Hand free units to the head of the queue, starting each service."""
        env = self.env
        queue = self._queue
        users = self.users
        while queue and len(users) < self.capacity:
            request = _heappop(queue)[2]
            request.granted_at = env._now
            request._ok = True
            env._inline += 1
            delay = request._value = request.start(request.arg)
            users.append(request)
            env._schedule(request, delay=delay)


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
        """Return an event that fires once ``amount`` can be withdrawn.

        With no getter queued, enough in the container and nothing else
        due at ``now``, the amount is withdrawn here and the event comes
        back already processed (see :func:`_done`): yield it at once.
        """
        if amount < 0:
            raise ValueError(f"cannot get negative amount {amount}")
        if amount > self.capacity:
            raise ValueError(
                f"get({amount}) exceeds container capacity {self.capacity}"
            )
        env = self.env
        if not self._getters and amount <= self._level and env._horizon() > env._now:
            self._level -= amount
            return _done(env, amount)
        event = Event(env)
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
        """Return an event that fires with the next available item.

        With an item queued (so no getter is: a put hands its item
        straight to the oldest) and nothing else due at ``now``, the
        item is taken here and the event comes back already processed
        (see :func:`_done`): yield it at once.
        """
        env = self.env
        if self._items and env._horizon() > env._now:
            return _done(env, self._items.pop(0))
        event = Event(env)
        self._getters.append(event)
        self._serve()
        return event

    def _serve(self) -> None:
        while self._getters and self._items:
            event = self._getters.pop(0)
            event.succeed(self._items.pop(0))
