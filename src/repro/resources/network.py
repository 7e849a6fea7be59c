"""Network model: full-duplex point-to-point links between servers.

The paper connects its three servers with gigabit Ethernet.  At the
paper's transfer rates (≤ 30 MB/s) the network is never the bottleneck,
but we model it anyway: the snapshot stream traverses the source NIC,
the wire, and the target NIC, and the target applies received chunks to
its own disk — which matters for the Section 6 "throttle both source
and target" extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Optional, Union

from ..simulation import Environment, Event, Request, Resource
from .units import MB

__all__ = ["NetworkParams", "NetworkStats", "NetworkLink"]

#: Usable payload bandwidth of gigabit Ethernet, bytes/second.
GIGABIT_BANDWIDTH = 117.0 * MB


@dataclass(frozen=True)
class NetworkParams:
    """Parameters of one direction of a network link."""

    #: Usable bandwidth, bytes/second (default: gigabit Ethernet).
    bandwidth: float = GIGABIT_BANDWIDTH
    #: One-way propagation + stack latency, seconds.
    latency: float = 0.2e-3

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")


@dataclass
class NetworkStats:
    """Running counters for one link direction."""

    transfers: int = 0
    bytes_sent: int = 0
    busy_time: float = 0.0

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed


class NetworkLink:
    """One direction of a point-to-point link, serialized FIFO."""

    def __init__(
        self,
        env: Environment,
        params: Optional[NetworkParams] = None,
        name: str = "link",
    ):
        self.env = env
        self.params = params or NetworkParams()
        self.name = name
        self.stats = NetworkStats()
        self._wire = Resource(env, capacity=1)

    @property
    def queue_length(self) -> int:
        """Transfers waiting for the wire."""
        return self._wire.queue_length

    def transfer(
        self,
        nbytes: int,
        priority: int = 0,
        then: Optional[Callable[[Event], None]] = None,
    ) -> Union[Iterable, Request]:
        """Push ``nbytes`` through this link direction.

        The contract of :meth:`~repro.resources.cpu.Cpu.execute`: with
        serialization (one :meth:`Resource.serve`) and propagation both
        ending before the next event the kernel would process, the
        transfer runs here and ``()`` comes back; otherwise a generator
        that finishes it.  With ``then`` the transfer is in
        continuation form: the wire's :class:`Request` comes back, the
        link frees the wire when serialization ends, and once the bytes
        have propagated it counts the transfer and calls ``then(event)``
        with the event that ended it (the propagation's timeout, or the
        request itself on a link with no latency); :meth:`withdraw`
        cancels it before that.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        env = self.env
        if then is not None:
            request = self._wire.serve(priority, self._serialization, nbytes, self._sent)
            request.then = then
            return request
        if env._active_process is None:
            return self._later(nbytes, priority)
        serialization = self._wire.serve(priority, self._serialization, nbytes)
        if serialization.__class__ is Request:
            return self._send(serialization, nbytes)
        stats = self.stats
        stats.busy_time += serialization
        latency = self.params.latency
        if latency > 0:
            arrived = env._now + latency
            if not env._horizon() > arrived:
                return self._propagate(nbytes)
            env._now = arrived
            env._held += 1
        stats.transfers += 1
        stats.bytes_sent += nbytes
        return ()

    def _later(self, nbytes: int, priority: int) -> Generator:
        """Process: :meth:`transfer` called outside a process, run once started."""
        yield from self.transfer(nbytes, priority)

    def withdraw(self, request: Request) -> None:
        """Cancel a continuation-form transfer that has not arrived.

        Its continuation never runs and it is not counted.  Queued, it
        leaves the queue; in service, it frees the wire at once; off
        the wire, its propagation ends unseen.
        """
        if request.callbacks is None:
            request.then = None  # propagating: see _arrive
            return
        request.callbacks.clear()
        self._wire.release(request)

    def _send(self, grant: Request, nbytes: int) -> Generator:
        """Process: wait for serialization that did not end in place,
        free the wire, then propagate."""
        try:
            yield grant
        except BaseException:
            self._wire.release(grant)
            raise
        self._finish(grant)
        yield from self._propagate(nbytes)

    def _finish(self, request: Request) -> None:
        """The one finish step of serialization that did not run in
        place: count the wire time, then free the wire."""
        self.stats.busy_time += request._value
        self._wire.release(request)

    def _sent(self, request: Request) -> None:
        """Callback: a continuation-form transfer left the wire."""
        self._finish(request)
        latency = self.params.latency
        if latency > 0:
            self.env.timeout(latency, request).callbacks.append(self._arrived)
        else:
            self._arrive(request, request)

    def _arrived(self, propagation: Event) -> None:
        self._arrive(propagation._value, propagation)

    def _arrive(self, request: Request, event: Event) -> None:
        """Count a continuation-form transfer as delivered, then continue."""
        then = request.then
        if then is None:
            return  # withdrawn while propagating
        stats = self.stats
        stats.transfers += 1
        stats.bytes_sent += request.arg
        then(event)

    def _serialization(self, nbytes: int) -> float:
        """Time to put ``nbytes`` on the wire at the current bandwidth."""
        return nbytes / self.params.bandwidth

    def _propagate(self, nbytes: int) -> Generator:
        """Process: propagation, off the wire (pipelined with later sends).

        It passes in place when it ends before the next event the
        kernel would process, and waits on a timeout otherwise.
        """
        latency = self.params.latency
        if latency > 0:
            env = self.env
            arrived = env._now + latency
            if env._horizon() > arrived:
                env._now = arrived
                env._held += 1
            else:
                yield env.timeout(latency)
        self.stats.transfers += 1
        self.stats.bytes_sent += nbytes
