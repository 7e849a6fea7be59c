"""The PID-driven dynamic throttle (the paper's Section 4).

:class:`DynamicThrottleController` closes the loop the paper's
Figure 8 draws:

* the **process variable** is the mean transaction latency over a
  3-second sliding window, sampled once per second;
* the **setpoint** is the target latency (chosen from the SLA);
* the **output** is the throttle speed, expressed as a percent of the
  maximum migration speed, driven by a velocity-form PID with the
  paper's gains (Kp = 0.025, Ki = 0.005, Kd = 0.015, error in ms).

The controller ramps migration up while latency sits below the
setpoint, and backs off — down to a full pause — when bursts push
latency above it.  For the Section 6 extension, feed it windows from
both the source and the target server with ``combine="max"``:
"whichever server has the least amount of slack will be responsible
for determining the throttling rate".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from ..control.pid import PAPER_GAINS, PidGains, VelocityPidController
from ..control.window import DEFAULT_TIMESTEP, DEFAULT_WINDOW, LatencyWindow
from ..resources.units import to_millis
from ..simulation import Environment, Event, Interrupt, PeriodicTicker, Trace, float_sum
from .throttle import Throttle

__all__ = ["ControllerConfig", "DynamicThrottleController", "LatencyController"]


class LatencyController(Protocol):
    """The controller interface Slacker needs (PID or adaptive PID)."""

    output: float
    setpoint: float

    def update(self, process_variable: float, dt: float = 1.0) -> float:
        ...  # pragma: no cover


@dataclass(frozen=True)
class ControllerConfig:
    """Tunables of the dynamic throttle loop."""

    #: Target mean transaction latency, seconds.
    setpoint: float
    #: Full-speed migration rate that 100 % output maps to, bytes/second.
    max_rate: float
    #: PID gains, interpreting error in milliseconds -> output in percent.
    gains: PidGains = PAPER_GAINS
    #: Sliding window over which latency is averaged, seconds.
    window: float = DEFAULT_WINDOW
    #: Controller timestep, seconds.
    timestep: float = DEFAULT_TIMESTEP
    #: Initial output, percent of max_rate.
    initial_output_pct: float = 0.0
    #: Floor on the output, percent of max_rate.  The paper's controller
    #: floors at 0 (it may pause migration entirely); a small positive
    #: floor guarantees forward progress even when the setpoint is
    #: unreachable — useful for emergency evacuations, where finishing
    #: the migration is itself the cure for the overload.
    min_output_pct: float = 0.0
    #: Combine rule when multiple latency windows are given.
    combine: str = "mean"

    def __post_init__(self) -> None:
        if self.setpoint <= 0:
            raise ValueError(f"setpoint must be positive, got {self.setpoint}")
        if self.max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {self.max_rate}")
        if self.window <= 0 or self.timestep <= 0:
            raise ValueError("window and timestep must be positive")
        if not 0 <= self.initial_output_pct <= 100:
            raise ValueError(
                f"initial_output_pct must be in [0, 100], got {self.initial_output_pct}"
            )
        if not 0 <= self.min_output_pct < 100:
            raise ValueError(
                f"min_output_pct must be in [0, 100), got {self.min_output_pct}"
            )
        if self.combine not in ("mean", "max"):
            raise ValueError(f"combine must be 'mean' or 'max', got {self.combine!r}")


class DynamicThrottleController:
    """Closes the latency → PID → throttle loop once per timestep."""

    def __init__(
        self,
        env: Environment,
        throttle: Throttle,
        windows: Sequence[LatencyWindow],
        config: ControllerConfig,
        controller: Optional[LatencyController] = None,
        trace: Optional[Trace] = None,
        name: str = "slacker-controller",
        obs=None,
    ):
        if not windows:
            raise ValueError("need at least one latency window")
        self.env = env
        self.throttle = throttle
        self.windows = list(windows)
        self.config = config
        self.trace = trace
        self.name = name
        #: Optional :class:`~repro.obs.Observability`; ``None`` keeps
        #: the step loop free of metric updates.
        self.obs = obs
        # The PID works in (ms error -> percent output) space, per paper.
        self.controller: LatencyController = controller or VelocityPidController(
            config.gains,
            setpoint=to_millis(config.setpoint),
            output_min=config.min_output_pct,
            output_max=100.0,
            initial_output=max(config.initial_output_pct, config.min_output_pct),
        )
        self.steps = 0
        self._stopped = False
        throttle.set_rate(config.initial_output_pct / 100.0 * config.max_rate)

    @property
    def output_pct(self) -> float:
        """Current controller output, percent of max rate."""
        return self.controller.output

    @property
    def stopped(self) -> bool:
        """True once the loop has been told to stop (idempotent)."""
        return self._stopped

    def stop(self) -> None:
        """Stop the control loop (migration finished or aborted).

        Idempotent: both the success path and the abort/rollback path
        may call it, in any order, any number of times.
        """
        self._stopped = True

    def _measure(self) -> Optional[float]:
        """Combined process variable across the windows, seconds."""
        samples = [w.sample(self.env.now) for w in self.windows]
        samples = [s for s in samples if s is not None]
        if not samples:
            return None
        if self.config.combine == "max":
            return max(samples)
        return float_sum(samples) / len(samples)

    def run(self, until: Optional[Event] = None):
        """Process: step the loop each timestep until stopped.

        ``until`` (typically the migration process) also terminates the
        loop when it fires — whether it *succeeds* (handover done) or
        *fails* (``MigrationAborted``); an aborted migration must not
        leave a controller stepping a dead throttle.  Interrupting the
        loop process stops it cleanly as well.
        """
        # Every step does real control work (PID update + set_rate), so
        # no tick can be elided; the ticker keeps the control grid on
        # the coalesced-timer API with exact chained timestamps.
        ticker = PeriodicTicker(self.env, self.config.timestep)
        try:
            while not self._stopped and not (until is not None and until.triggered):
                yield ticker.tick()
                if self._stopped or (until is not None and until.triggered):
                    break
                latency = self._measure()
                if latency is None:
                    continue  # no signal yet: hold the current rate
                output_pct = self.controller.update(
                    to_millis(latency), dt=self.config.timestep
                )
                rate = output_pct / 100.0 * self.config.max_rate
                self.throttle.set_rate(rate)
                self.steps += 1
                if self.obs is not None:
                    self.obs.on_controller_step(
                        self.controller.setpoint - to_millis(latency),
                        output_pct,
                        rate,
                    )
                if self.trace is not None:
                    now = self.env.now
                    self.trace.record(f"{self.name}:window_latency", now, latency)
                    self.trace.record(f"{self.name}:throttle_rate", now, rate)
                    self.trace.record(f"{self.name}:output_pct", now, output_pct)
        except Interrupt:
            pass
        self._stopped = True
