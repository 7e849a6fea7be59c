"""Controller tuning: Ziegler–Nichols rules and relay auto-tuning.

"In the implementation of Slacker, we began with a well-known approach,
the Ziegler-Nichols method, and applied some manual tuning on top of
this" (Section 6).  This module provides:

* :func:`ziegler_nichols` — the classic table mapping the ultimate
  gain Ku and oscillation period Tu to P/PI/PD/PID gains;
* :class:`RelayTuner` — an Åström–Hägglund relay experiment that
  discovers Ku and Tu online by toggling the actuator between two
  levels and measuring the induced oscillation, so a Slacker
  deployment can derive its own starting gains without an operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..simulation.trace import float_sum
from .pid import PidGains

__all__ = ["ziegler_nichols", "budget_setpoint", "RelayTuner", "RelayResult"]

#: Ziegler–Nichols tuning table: variant -> (Kp/Ku, Ti/Tu, Td/Tu).
#: Ti = inf means no integral action; Td = 0 means no derivative action.
_ZN_TABLE: dict[str, tuple[float, float, float]] = {
    "p": (0.50, math.inf, 0.0),
    "pi": (0.45, 1.0 / 1.2, 0.0),
    "pd": (0.80, math.inf, 0.125),
    "pid": (0.60, 0.50, 0.125),
    "pessen": (0.70, 0.40, 0.15),
    "some-overshoot": (0.33, 0.50, 1.0 / 3.0),
    "no-overshoot": (0.20, 0.50, 1.0 / 3.0),
}


def ziegler_nichols(
    ultimate_gain: float, ultimate_period: float, variant: str = "pid"
) -> PidGains:
    """Gains from the Ziegler–Nichols closed-loop (ultimate) method.

    ``ultimate_gain`` (Ku) is the proportional gain at which the loop
    oscillates with constant amplitude; ``ultimate_period`` (Tu) is the
    oscillation period.  ``variant`` picks a row of the classic table
    ('p', 'pi', 'pd', 'pid', plus the 'pessen', 'some-overshoot' and
    'no-overshoot' refinements).
    """
    if ultimate_gain <= 0:
        raise ValueError(f"ultimate_gain must be positive, got {ultimate_gain}")
    if ultimate_period <= 0:
        raise ValueError(f"ultimate_period must be positive, got {ultimate_period}")
    try:
        kp_ratio, ti_ratio, td_ratio = _ZN_TABLE[variant]
    except KeyError:
        raise ValueError(
            f"unknown variant {variant!r}; choose from {sorted(_ZN_TABLE)}"
        ) from None
    kp = kp_ratio * ultimate_gain
    ti = ti_ratio * ultimate_period
    td = td_ratio * ultimate_period
    ki = 0.0 if math.isinf(ti) else kp / ti
    kd = kp * td
    return PidGains(kp=kp, ki=ki, kd=kd)


def budget_setpoint(
    base_setpoint: float, share: float, baseline: float = 0.0
) -> float:
    """Effective latency setpoint for a stream holding a slack share.

    Slacker's slack is the latency headroom between the workload's
    baseline and the setpoint; the PID ramps the transfer until that
    headroom is consumed.  When a node's slack budget is split across
    concurrent streams (see
    :class:`repro.placement.budget.SlackBudgetLedger`), each stream may
    only consume its share of the headroom, so its controller gets a
    proportionally tighter target::

        effective = baseline + share * (base_setpoint - baseline)

    ``baseline`` is the latency floor attributed to the workload itself
    (0.0 when unknown — the conservative split).  ``share = 1.0``
    returns ``base_setpoint`` exactly, so a lone stream is bit-identical
    to the unbudgeted serialized path.
    """
    if base_setpoint <= 0:
        raise ValueError(f"base_setpoint must be positive, got {base_setpoint}")
    if not 0 < share <= 1:
        raise ValueError(f"share must be in (0, 1], got {share}")
    if not 0 <= baseline < base_setpoint:
        raise ValueError(
            f"baseline must be in [0, {base_setpoint}), got {baseline}"
        )
    if share >= 1.0:
        return base_setpoint
    return baseline + share * (base_setpoint - baseline)


@dataclass(frozen=True)
class RelayResult:
    """Outcome of a completed relay experiment."""

    ultimate_gain: float
    ultimate_period: float
    #: Peak-to-peak amplitude of the induced process oscillation.
    oscillation_amplitude: float
    #: Number of full oscillation cycles observed.
    cycles: int


class RelayTuner:
    """Åström–Hägglund relay feedback experiment.

    Feed it (time, process_variable) samples via :meth:`step`; it
    returns the actuator level to apply (``high`` or ``low``).  The
    relay switches each time the process variable crosses the setpoint
    (with hysteresis), inducing a limit cycle.  After ``cycles_needed``
    stable cycles, :attr:`result` holds Ku and Tu::

        Ku = 4 * d / (pi * a)

    where d is the relay half-amplitude and a the oscillation
    half-amplitude.
    """

    def __init__(
        self,
        setpoint: float,
        low: float,
        high: float,
        hysteresis: float = 0.0,
        cycles_needed: int = 3,
    ):
        if low >= high:
            raise ValueError(f"low {low} must be < high {high}")
        if hysteresis < 0:
            raise ValueError(f"hysteresis must be >= 0, got {hysteresis}")
        if cycles_needed < 1:
            raise ValueError(f"cycles_needed must be >= 1, got {cycles_needed}")
        self.setpoint = setpoint
        self.low = low
        self.high = high
        self.hysteresis = hysteresis
        self.cycles_needed = cycles_needed
        self._output = high
        self._switch_up_times: list[float] = []
        self._pv_min = math.inf
        self._pv_max = -math.inf
        self.result: Optional[RelayResult] = None

    @property
    def output(self) -> float:
        """Current relay actuator level."""
        return self._output

    @property
    def done(self) -> bool:
        """True once Ku and Tu have been measured."""
        return self.result is not None

    def step(self, time: float, process_variable: float) -> float:
        """Record one sample; returns the actuator level to apply next."""
        self._pv_min = min(self._pv_min, process_variable)
        self._pv_max = max(self._pv_max, process_variable)

        if (
            self._output == self.high
            and process_variable > self.setpoint + self.hysteresis
        ):
            self._output = self.low
        elif (
            self._output == self.low
            and process_variable < self.setpoint - self.hysteresis
        ):
            self._output = self.high
            self._switch_up_times.append(time)
            self._maybe_finish()
        return self._output

    def _maybe_finish(self) -> None:
        if self.done or len(self._switch_up_times) < self.cycles_needed + 1:
            return
        times = self._switch_up_times
        periods = [b - a for a, b in zip(times, times[1:])]
        tu = float_sum(periods) / len(periods)
        amplitude = (self._pv_max - self._pv_min) / 2.0
        if amplitude <= 0 or tu <= 0:
            return
        relay_half_amplitude = (self.high - self.low) / 2.0
        ku = 4.0 * relay_half_amplitude / (math.pi * amplitude)
        self.result = RelayResult(
            ultimate_gain=ku,
            ultimate_period=tu,
            oscillation_amplitude=2.0 * amplitude,
            cycles=len(periods),
        )
