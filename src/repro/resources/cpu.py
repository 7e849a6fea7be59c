"""CPU model: a fixed number of cores shared by queries and migration.

The paper's testbed uses quad-core 2.4 GHz Xeons.  CPU is rarely the
bottleneck in its experiments (disk is), but migration still carries
"processing overhead" (Section 3), so we model cores as a capacity-N
queueing resource that query execution and snapshot processing both
hold for short slices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import log as _log
from typing import Generator, Iterable, Optional

from ..simulation import Environment, Request, Resource, default_rng

__all__ = ["CpuParams", "CpuStats", "Cpu"]


@dataclass(frozen=True)
class CpuParams:
    """Parameters for the server CPU."""

    #: Number of hardware cores.
    cores: int = 4
    #: If True, requested burst lengths get exponential jitter.
    stochastic: bool = True

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"cores must be positive, got {self.cores}")


@dataclass
class CpuStats:
    """Running counters for one CPU."""

    bursts: int = 0
    busy_time: float = 0.0

    def utilization(self, elapsed: float, cores: int) -> float:
        """Mean fraction of total core-time spent busy over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * cores)


class Cpu:
    """A multi-core CPU as a capacity-``cores`` FIFO resource."""

    def __init__(
        self,
        env: Environment,
        params: Optional[CpuParams] = None,
        rng: Optional[random.Random] = None,
        name: str = "cpu",
    ):
        self.env = env
        self.params = params or CpuParams()
        # Derive the fallback seed from the component name so two
        # resources built without explicit RNGs stay decorrelated.
        self.rng = rng if rng is not None else default_rng(name)
        self.name = name
        self.stats = CpuStats()
        self._cores = Resource(env, capacity=self.params.cores)

    @property
    def queue_length(self) -> int:
        """Bursts waiting for a free core."""
        return self._cores.queue_length

    def burst_time(self, mean_seconds: float) -> float:
        """Draw the actual length of a burst with the given mean."""
        if mean_seconds < 0:
            raise ValueError(f"mean_seconds must be >= 0, got {mean_seconds}")
        if mean_seconds == 0:
            return 0.0
        if self.params.stochastic:
            # CPython's ``expovariate(1.0 / mean_seconds)``, without the
            # method call: the same draw, bit for bit.
            return -_log(1.0 - self.rng.random()) / (1.0 / mean_seconds)
        return mean_seconds

    def execute(self, mean_seconds: float, priority: int = 0) -> Iterable:
        """Run a burst of roughly ``mean_seconds`` on one core.

        Consume the result at once with ``yield from`` inside a process.
        The burst is one :meth:`Resource.serve`: when it runs in place
        ``now`` has advanced past it and ``()`` comes back; otherwise a
        generator that waits for its end.  Outside a process it is
        always a generator, which does all of the work once it runs.
        """
        if mean_seconds < 0:
            raise ValueError(f"mean_seconds must be >= 0, got {mean_seconds}")
        if self.env._active_process is None:
            return self._later(mean_seconds, priority)
        burst = self._cores.serve(priority, self.burst_time, mean_seconds)
        if burst.__class__ is Request:
            return self._wait(burst)
        stats = self.stats
        stats.bursts += 1
        stats.busy_time += burst
        return ()

    def _later(self, mean_seconds: float, priority: int) -> Generator:
        """Process: :meth:`execute` called outside a process, run once started."""
        yield from self.execute(mean_seconds, priority)

    def _wait(self, grant: Request) -> Generator:
        """Process: wait for a burst that did not end in place, then free its core."""
        try:
            burst = yield grant
            stats = self.stats
            stats.bursts += 1
            stats.busy_time += burst
        finally:
            self._cores.release(grant)
