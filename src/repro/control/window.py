"""The controller's process-variable filter: sliding-window latency.

"The input to the controller at each timestep consists of the current
average transaction latency over a small sliding window of time ...
We empirically found 3 seconds to be a reasonable window size, with a
1 second timestep" (Section 4.2.3).

:class:`LatencyWindow` samples one or more latency series (multiple
for the multi-tenant case, where "Slacker simply computes latency
averages across all tenant databases", Section 5.6) and reports the
trailing-window mean; if the window is empty it holds the last value,
so a momentarily idle tenant does not destabilize the controller.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..simulation.trace import Series, float_sum

__all__ = ["LatencyWindow", "DEFAULT_WINDOW", "DEFAULT_TIMESTEP"]

#: Paper's sliding-window size, seconds.
DEFAULT_WINDOW = 3.0
#: Paper's controller timestep, seconds.
DEFAULT_TIMESTEP = 1.0


class LatencyWindow:
    """Trailing-window mean over one or more latency series."""

    def __init__(
        self,
        series: Sequence[Series],
        window: float = DEFAULT_WINDOW,
        initial_value: Optional[float] = None,
    ):
        if not series:
            raise ValueError("need at least one latency series")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.series = list(series)
        self.window = window
        self._last_value = initial_value

    def sample(self, now: float) -> Optional[float]:
        """Mean latency of samples in [now - window, now], pooled.

        Returns the previous sample (or the configured initial value)
        if no transaction finished in the window, and None only if no
        value has ever been observed.
        """
        values: list[float] = []
        for series in self.series:
            # Closed window [now - window, now]: a transaction that
            # completes exactly at the sampling instant counts.
            values.extend(
                series.window_values(now - self.window, now, closed="both")
            )
        if values:
            self._last_value = float_sum(values) / len(values)
        return self._last_value
