"""Time-series trace recording for simulation runs.

A :class:`Trace` collects named (time, value) series while a simulation
runs — transaction latencies, throttle-rate changes, queue depths — and
offers the summaries the paper reports: means, standard deviations,
percentiles, and sliding-window smoothing (the paper smooths latency
over a 3-second window for its time-series plots).
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Optional

__all__ = ["Series", "Trace", "float_sum", "sliding_window_average"]


def float_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum: the same bits on every supported Python.

    From Python 3.12 the builtin ``sum`` compensates float rounding, so
    a mean that steers the simulation (a PID window, a hotspot scan) or
    that a pinned fingerprint records would move with the interpreter.
    This is the uncompensated sum of 3.10 and 3.11.
    """
    return reduce(operator.add, values, 0.0)


@dataclass
class Series:
    """A single named time series of (time, value) samples."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        """Record ``value`` at ``time``; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"series {self.name!r}: time {time} precedes last "
                f"sample at {self.times[-1]}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    # -- summaries ---------------------------------------------------------

    def mean(self) -> float:
        """Arithmetic mean of the values (NaN if empty)."""
        if not self.values:
            return math.nan
        return sum(self.values) / len(self.values)

    def stddev(self) -> float:
        """Population standard deviation of the values (NaN if empty)."""
        if not self.values:
            return math.nan
        mu = self.mean()
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / len(self.values))

    def min(self) -> float:
        return min(self.values) if self.values else math.nan

    def max(self) -> float:
        return max(self.values) if self.values else math.nan

    def percentile(self, pct: float) -> float:
        """The ``pct``-th percentile (nearest-rank; pct in [0, 100])."""
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile {pct} outside [0, 100]")
        if not self.values:
            return math.nan
        ordered = sorted(self.values)
        rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def between(self, start: float, end: float) -> "Series":
        """Sub-series with samples in the half-open window [start, end)."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return Series(self.name, self.times[lo:hi], self.values[lo:hi])

    def window_values(
        self, start: float, end: float, closed: str = "left"
    ) -> list[float]:
        """Values sampled in the window from ``start`` to ``end``.

        ``closed`` picks the interval's end semantics explicitly:

        * ``"left"`` (default) — half-open ``[start, end)``, the right
          choice for tiling a run into non-overlapping buckets;
        * ``"both"`` — closed ``[start, end]``, the right choice for a
          trailing window anchored at the current instant, where a
          sample recorded exactly *at* ``end`` (a transaction completing
          at the sampling instant) must be included.

        The closed form exists so callers never reach for a
        ``end + epsilon`` fudge, which silently stops working once the
        epsilon falls below the float spacing of the timestamps.
        """
        lo = bisect.bisect_left(self.times, start)
        if closed == "left":
            hi = bisect.bisect_left(self.times, end)
        elif closed == "both":
            hi = bisect.bisect_right(self.times, end)
        else:
            raise ValueError(f"closed must be 'left' or 'both', got {closed!r}")
        return self.values[lo:hi]

    def smoothed(self, window: float) -> "Series":
        """Trailing-window moving average, one point per input sample.

        Matches the paper's presentation: "latencies averaged over a
        sliding 3 second window to provide modest smoothing".
        """
        out = Series(f"{self.name}:smoothed({window}s)")
        for i, t in enumerate(self.times):
            # half-open window (t - window, t]
            lo = bisect.bisect_right(self.times, t - window)
            chunk = self.values[lo : i + 1]
            out.append(t, sum(chunk) / len(chunk))
        return out


def sliding_window_average(
    series: Series, now: float, window: float
) -> Optional[float]:
    """Average of samples in [now - window, now], or None if empty.

    This is the controller's process-variable filter: the PID input at
    each 1-second timestep is the mean latency over the trailing
    3-second window.
    """
    lo = bisect.bisect_left(series.times, now - window)
    hi = bisect.bisect_right(series.times, now)
    chunk = series.values[lo:hi]
    if not chunk:
        return None
    return sum(chunk) / len(chunk)


class Trace:
    """A bag of named :class:`Series` recorded during one simulation run."""

    def __init__(self):
        self._series: dict[str, Series] = {}

    def series(self, name: str) -> Series:
        """Return (creating if needed) the series called ``name``."""
        if name not in self._series:
            self._series[name] = Series(name)
        return self._series[name]

    def record(self, name: str, time: float, value: float) -> None:
        """Append one sample to the series called ``name``."""
        self.series(name).append(time, value)

    def names(self) -> list[str]:
        """Names of all recorded series, in creation order."""
        return list(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __getitem__(self, name: str) -> Series:
        return self._series[name]


def merge_values(series_list: Iterable[Series]) -> list[float]:
    """All values from several series, pooled (for server-wide stats)."""
    pooled: list[float] = []
    for series in series_list:
        pooled.extend(series.values)
    return pooled
