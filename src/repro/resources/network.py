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
from functools import partial
from typing import Generator, Iterable, Optional

from ..simulation import Environment, Request, Resource
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

    def transfer(self, nbytes: int, priority: int = 0) -> Iterable:
        """Push ``nbytes`` through this link direction.

        The contract of :meth:`~repro.resources.cpu.Cpu.execute`: with
        the wire free and serialization and propagation both ending
        before the next event the kernel would process, the transfer
        runs here and ``()`` comes back; otherwise a process generator
        that finishes it.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        wire = self._wire
        horizon = wire.claim_in_place()
        if horizon is None:
            return self._send(nbytes, priority)
        serialization = nbytes / self.params.bandwidth
        env = self.env
        sent = env._now + serialization
        if not horizon > sent:
            return self._send(nbytes, priority, wire.occupy(priority), serialization)
        env._now = sent
        env._held += 1
        self.stats.busy_time += serialization
        latency = self.params.latency
        if latency > 0:
            arrived = sent + latency
            if not horizon > arrived:
                return self._propagate(nbytes)
            env._now = arrived
            env._held += 1
        self.stats.transfers += 1
        self.stats.bytes_sent += nbytes
        return ()

    def _send(
        self,
        nbytes: int,
        priority: int,
        grant: Optional[Request] = None,
        serialization: Optional[float] = None,
    ) -> Generator:
        """Process: the part of :meth:`transfer` that waits on the kernel.

        Without ``grant`` it queues for the wire, and serialization
        starts the instant the wire is granted (:meth:`_serialization`);
        the grant fires at its end.  With one (the wire :meth:`transfer`
        claimed in place) ``serialization`` ends past the horizon, so it
        waits on a timeout.
        """
        wire = self._wire
        if grant is None:
            grant = done = wire.serve(priority, partial(self._serialization, nbytes))
        else:
            done = self.env.timeout(serialization, serialization)
        try:
            serialization = yield done
            self.stats.busy_time += serialization
        finally:
            wire.release(grant)
        yield from self._propagate(nbytes)

    def _serialization(self, nbytes: int) -> float:
        """Time to put ``nbytes`` on the wire at the current bandwidth."""
        return nbytes / self.params.bandwidth

    def _propagate(self, nbytes: int) -> Generator:
        """Process: propagation, off the wire (pipelined with later sends)."""
        if self.params.latency > 0:
            hold = self.env.hold(self.params.latency)
            if hold is not None:
                yield hold
        self.stats.transfers += 1
        self.stats.bytes_sent += nbytes
