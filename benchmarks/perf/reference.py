"""A frozen yardstick for the host's current speed, and a clock that uses it.

The benchmark's hosts are shared machines whose single-thread speed
swings by up to 2x, and by a fifth between two samples a second apart,
as neighbours come and go.  Raw host times taken minutes apart then
differ by more than any useful bound.  So every host time the
benchmark reports is normalised: :class:`HostClock` runs
:func:`reference_seconds`, a small pure-Python discrete-event
simulation that uses none of ``src/``, every :data:`SAMPLE_PERIOD`
seconds from a timer signal, in the middle of whatever is being timed.
It subtracts the time the samples took and scales the rest to the
speed at which the reference takes :data:`NOMINAL_SECONDS`.  The
reference has the character of the simulator (generators resumed from
a heap, an LRU ``OrderedDict``, small allocations), so the two slow
down together, though not by the same factor: :data:`ELASTICITY` is
the measured ratio.

Never change this module: a change rescales every host metric, and
runs before and after it stop being comparable.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from collections import OrderedDict

__all__ = [
    "NOMINAL_SECONDS",
    "ELASTICITY",
    "SAMPLE_PERIOD",
    "HostClock",
    "reference_seconds",
    "normalise",
]

#: Reference time on the nominal host (about the fastest seen on the
#: 2-vCPU shared VM the benchmark was sized on).
NOMINAL_SECONDS = 0.007
#: How much slower the simulator gets, in log terms, per unit the
#: reference gets slower.  Fitted on that VM: repeated runs of the
#: four workloads at one seed, and batches within a run, agree best
#: at 0.8 (0.7 and 0.9 leave more spread; 1.0 over-corrects their slow
#: stretches).
ELASTICITY = 0.8
#: Wall seconds between two reference samples (each takes about
#: :data:`NOMINAL_SECONDS`, so sampling costs about a tenth of the run).
SAMPLE_PERIOD = 0.07

_EVENTS = 6000
_PROCESSES = 32
_KEYS = 8000
_CACHE = 2000


def reference_seconds() -> float:
    """Host seconds the frozen reference simulation takes right now.

    The garbage collector is off while it runs: a collection triggered
    here would walk the benchmark's heap and bill its size to the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _simulate()
    finally:
        if enabled:
            gc.enable()


def _simulate() -> float:
    state = [12345]
    cache: OrderedDict = OrderedDict()

    def draw(bound: int) -> int:
        state[0] = (state[0] * 1103515245 + 12345) & 0x7FFFFFFF
        return state[0] % bound

    def process(pid: int):
        while True:
            key = draw(_KEYS)
            if key in cache:
                cache.move_to_end(key)
            else:
                cache[key] = [pid, key]
                if len(cache) > _CACHE:
                    cache.popitem(last=False)
            yield 1 + draw(1000) / 100.0

    started = time.perf_counter()
    processes = [process(pid) for pid in range(_PROCESSES)]
    queue = [(next(p), pid) for pid, p in enumerate(processes)]
    heapq.heapify(queue)
    for _ in range(_EVENTS):
        now, pid = heapq.heappop(queue)
        heapq.heappush(queue, (now + processes[pid].send(None), pid))
    return time.perf_counter() - started


def normalise(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured while the reference took ``samples``, on the nominal host.

    The samples are evenly spaced in wall time, so the host's mean speed
    over ``seconds`` is the mean of the samples' speeds, not the speed
    of their mean time: a stretch at half speed beside one at full
    speed averages to three quarters, not to two thirds.
    """
    return seconds * statistics.fmean(
        (NOMINAL_SECONDS / sample) ** ELASTICITY for sample in samples
    )


class HostClock:
    """Times a stretch of work, sampling the reference while it runs.

    While the clock is entered, a ``SIGALRM`` handler runs the
    reference every :data:`SAMPLE_PERIOD` seconds, between two
    bytecodes of whatever the main thread is doing.  The work being
    timed sees only a pause: nothing it computes changes.
    """

    def __init__(self, since: float | None = None):
        """``since``: the ``time.perf_counter()`` reading the work started at."""
        self._start = time.perf_counter() if since is None else since
        self._spent = 0.0
        self._samples: list[float] = []
        self._previous = None

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self._samples.append(reference_seconds())
        self._spent += time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD)

    def read(self) -> tuple[float, float, int]:
        """(normalised seconds, raw seconds, samples) since the start.

        Both leave out the samples' own time.  Work too short to hold a
        sample is measured against a sample taken right after it.
        """
        seconds = time.perf_counter() - self._start - self._spent
        samples = self._samples or [reference_seconds()]
        return normalise(seconds, samples), seconds, len(samples)
