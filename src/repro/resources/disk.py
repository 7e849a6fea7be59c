"""Disk model: a single spindle with distinct random and sequential costs.

The paper's servers use dedicated local disks, and disk I/O is "both
the most difficult resource to partition and often a particularly
stressed resource in databases" (Section 5.1.2) — it is the shared
bottleneck through which the migration stream interferes with tenant
queries.  We model the disk as a single work-conserving FIFO server:

* **random** accesses (buffer-pool page misses, dirty-page writes) pay
  a positioning time (seek + rotational latency, drawn from an
  exponential distribution for realistic latency spikes) plus a
  transfer time at the media rate;
* **sequential** accesses (the XtraBackup snapshot scan, delta copies)
  pay the positioning time only when the arm moved away since the
  stream's previous request — so a snapshot scan running alone streams
  at full media rate, but one interleaved with random tenant I/O
  re-seeks for every chunk.  This "broken sequentiality" is the
  physical mechanism that makes migration cost more while tenants are
  active, producing the latency-vs-throttle behaviour of the paper's
  Figures 5, 6, and 11a;
* **cached** writes (the group-commit log flush absorbed by the drive's
  write cache) pay transfer time only and do not move the arm.

Requests from all tenants and from migration queue FIFO on one arm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import log as _log
from typing import Generator, Iterable, Optional

from ..simulation import Environment, Request, Resource, default_rng
from .units import MB

__all__ = ["DiskParams", "DiskStats", "Disk"]


@dataclass(frozen=True)
class DiskParams:
    """Performance parameters for one disk spindle.

    Defaults approximate a ~7200 RPM SATA disk of the paper's era.
    """

    #: Mean positioning time (seek + rotation) for a random access, seconds.
    seek_time: float = 5.0e-3
    #: Media transfer rate for sequential access, bytes/second.
    sequential_bandwidth: float = 90.0 * MB
    #: Media transfer rate once positioned, for random access, bytes/second.
    random_bandwidth: float = 60.0 * MB
    #: If True, positioning time is exponentially distributed around
    #: ``seek_time`` (realistic bursty tail); if False it is constant.
    stochastic_seek: bool = True

    def __post_init__(self) -> None:
        if self.seek_time < 0:
            raise ValueError(f"seek_time must be >= 0, got {self.seek_time}")
        if self.sequential_bandwidth <= 0 or self.random_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")


@dataclass
class DiskStats:
    """Running counters for one disk."""

    random_reads: int = 0
    random_writes: int = 0
    sequential_reads: int = 0
    sequential_writes: int = 0
    cached_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0
    #: Total time requests spent queued (not being served).
    queue_time: float = 0.0
    #: Sequential requests that had to re-position the arm.
    broken_streams: int = 0

    @property
    def total_requests(self) -> int:
        return (
            self.random_reads
            + self.random_writes
            + self.sequential_reads
            + self.sequential_writes
            + self.cached_writes
        )

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time the disk spent serving requests."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed


class Disk:
    """A single disk spindle shared by tenant I/O and migration I/O."""

    def __init__(
        self,
        env: Environment,
        params: Optional[DiskParams] = None,
        rng: Optional[random.Random] = None,
        name: str = "disk",
    ):
        self.env = env
        self.params = params or DiskParams()
        # Derive the fallback seed from the component name so two
        # resources built without explicit RNGs stay decorrelated.
        self.rng = rng if rng is not None else default_rng(name)
        self.name = name
        self.stats = DiskStats()
        self._arm = Resource(env, capacity=1)
        #: Stream id of the last arm-moving request, for sequentiality.
        self._last_stream: Optional[str] = None
        self._seen_streams: set[str] = set()

    @property
    def queue_length(self) -> int:
        """Requests currently waiting for the disk arm."""
        return self._arm.queue_length

    def read(
        self,
        nbytes: int,
        sequential: bool = False,
        stream: Optional[str] = None,
        priority: int = 0,
    ) -> Iterable:
        """Read ``nbytes`` (queue on the arm, then transfer).

        Consume the result at once with ``yield from`` inside a process
        (see :meth:`_access`).
        """
        return self._access(
            nbytes, sequential, stream, is_write=False, cached=False, priority=priority
        )

    def write(
        self,
        nbytes: int,
        sequential: bool = False,
        stream: Optional[str] = None,
        cached: bool = False,
        priority: int = 0,
    ) -> Iterable:
        """Write ``nbytes``; consume it like :meth:`read`.

        ``cached=True`` models a write absorbed by the drive's write
        cache (used for group-commit log flushes): transfer time only,
        no arm movement.
        """
        return self._access(
            nbytes, sequential, stream, is_write=True, cached=cached, priority=priority
        )

    # -- internals ---------------------------------------------------------

    def _positioning_time(self) -> float:
        params = self.params
        if params.seek_time == 0:
            return 0.0
        if params.stochastic_seek:
            # CPython's ``expovariate(1.0 / params.seek_time)``, without
            # the method call: the same draw, bit for bit.
            return -_log(1.0 - self.rng.random()) / (1.0 / params.seek_time)
        return params.seek_time

    def _service(self, access: tuple) -> float:
        """At the grant: count the time queued, then draw the in-service
        time and update arm-position state.

        ``access`` is ``(queued_at, nbytes, sequential, stream, cached)``.
        """
        queued_at, nbytes, sequential, stream, cached = access
        self.stats.queue_time += self.env._now - queued_at
        params = self.params
        if cached:
            return nbytes / params.sequential_bandwidth
        if sequential:
            service = nbytes / params.sequential_bandwidth
            if stream is None or stream != self._last_stream:
                service += self._positioning_time()
                if stream is not None and stream in self._seen_streams:
                    # An established stream had to re-seek: something
                    # else moved the arm since its previous chunk.
                    self.stats.broken_streams += 1
            if stream is not None:
                self._seen_streams.add(stream)
            self._last_stream = stream
            return service
        self._last_stream = None
        return self._positioning_time() + nbytes / params.random_bandwidth

    def _access(
        self,
        nbytes: int,
        sequential: bool,
        stream: Optional[str],
        is_write: bool,
        cached: bool,
        priority: int,
    ) -> Iterable:
        """Queue on the arm, then serve; ``()`` when it all ran in place.

        The contract of :meth:`~repro.resources.cpu.Cpu.execute`: the
        access is one :meth:`Resource.serve`, which runs it here when it
        ends before the next event the kernel would process, and ``()``
        comes back; otherwise a generator that waits for its end.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        env = self.env
        if env._active_process is None:
            return self._later(nbytes, sequential, stream, is_write, cached, priority)
        service = self._arm.serve(
            priority, self._service, (env._now, nbytes, sequential, stream, cached)
        )
        if service.__class__ is Request:
            return self._wait(service, nbytes, sequential, is_write, cached)
        self.stats.busy_time += service
        self._count(nbytes, sequential, is_write, cached)
        return ()

    def _later(
        self,
        nbytes: int,
        sequential: bool,
        stream: Optional[str],
        is_write: bool,
        cached: bool,
        priority: int,
    ) -> Generator:
        """Process: :meth:`_access` called outside a process, run once started."""
        yield from self._access(nbytes, sequential, stream, is_write, cached, priority)

    def _wait(
        self,
        grant: Request,
        nbytes: int,
        sequential: bool,
        is_write: bool,
        cached: bool,
    ) -> Generator:
        """Process: wait for an access that did not end in place, then free the arm."""
        try:
            service = yield grant
            self.stats.busy_time += service
            self._count(nbytes, sequential, is_write, cached)
        finally:
            self._arm.release(grant)

    def _count(
        self, nbytes: int, sequential: bool, is_write: bool, cached: bool
    ) -> None:
        if is_write:
            self.stats.bytes_written += nbytes
            if cached:
                self.stats.cached_writes += 1
            elif sequential:
                self.stats.sequential_writes += 1
            else:
                self.stats.random_writes += 1
        else:
            self.stats.bytes_read += nbytes
            if sequential:
                self.stats.sequential_reads += 1
            else:
                self.stats.random_reads += 1
