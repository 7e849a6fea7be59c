"""CPU model: a fixed number of cores shared by queries and migration.

The paper's testbed uses quad-core 2.4 GHz Xeons.  CPU is rarely the
bottleneck in its experiments (disk is), but migration still carries
"processing overhead" (Section 3), so we model cores as a capacity-N
queueing resource that query execution and snapshot processing both
occupy for short slices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
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
            return self.rng.expovariate(1.0 / mean_seconds)
        return mean_seconds

    def execute(self, mean_seconds: float, priority: int = 0) -> Iterable:
        """Occupy one core for a burst of roughly ``mean_seconds``.

        Consume the result at once with ``yield from`` inside a process.
        When a core is free and the whole burst ends before the next
        event the kernel would process, the burst runs here: ``now``
        advances past it and ``()`` comes back.  Otherwise a process
        generator that finishes the burst comes back.  Outside a
        process it is always a generator, which does all of the work
        once it runs.
        """
        if mean_seconds < 0:
            raise ValueError(f"mean_seconds must be >= 0, got {mean_seconds}")
        cores = self._cores
        horizon = cores.claim_in_place()
        if horizon is None:
            return self._burst(mean_seconds, priority)
        burst = self.burst_time(mean_seconds)
        env = self.env
        end = env._now + burst
        if horizon > end:
            env._now = end
            env._held += 1
            stats = self.stats
            stats.bursts += 1
            stats.busy_time += burst
            return ()
        return self._burst(mean_seconds, priority, cores.occupy(priority), burst)

    def _burst(
        self,
        mean_seconds: float,
        priority: int,
        grant: Optional[Request] = None,
        burst: Optional[float] = None,
    ) -> Generator:
        """Process: the part of :meth:`execute` that waits on the kernel.

        Without ``grant`` it queues for a core, and the burst is drawn
        the instant one is granted (:meth:`Resource.serve`); the grant
        fires at the burst's end.  With one (a core :meth:`execute`
        claimed in place) the drawn ``burst`` ends past the horizon,
        so it waits on a timeout.
        """
        cores = self._cores
        if grant is None:
            grant = done = cores.serve(priority, partial(self.burst_time, mean_seconds))
        else:
            done = self.env.timeout(burst, burst)
        try:
            burst = yield done
            self.stats.bursts += 1
            self.stats.busy_time += burst
        finally:
            cores.release(grant)
