"""Figure 11: fixed throttles vs. Slacker's dynamic throttle.

The paper's core evaluation (Sections 5.2–5.4):

* **11a** — mean latency against average migration speed, for a sweep
  of fixed throttle rates and for Slacker runs with setpoints from
  500 ms to 5000 ms.  Fixed latency explodes past the slack knee;
  Slacker's speed rises with the setpoint and then plateaus near the
  knee ("migration speed will never exceed the available slack"), and
  at equal speed Slacker's latency sits *below* the fixed curve.
* **11b** — achieved latency against the setpoint: once the controller
  locks on (steady state), achieved latency tracks the setpoint
  closely, and Slacker's latency variance at a given speed is lower
  than a fixed throttle's.

Run standalone::

    python -m repro.experiments.fig11_setpoint_sweep
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis.report import Table, format_ms, format_rate
from ..core.config import EVALUATION, ExperimentConfig
from ..parallel import ResultCache, SweepPoint, SweepRunner
from ..resources.units import MB, mb_per_sec
from ..simulation import float_sum
from .common import scaled_config
from .harness import ExperimentOutcome, MigrationSpec

__all__ = ["FixedPoint", "SlackerPoint", "Fig11Result", "run", "main"]

#: Paper's Slacker anchor points: setpoint ms -> average speed MB/s.
PAPER_SLACKER_SPEEDS = {500: 6.1, 1000: 12.6, 2500: 18.7, 3500: 23.0}

#: Fixed rates swept (MB/s).  The paper sweeps 5-30 on faster disks;
#: our effective disk tops out lower, so the sweep is scaled (~0.6x).
DEFAULT_FIXED_RATES = (3, 6, 9, 12, 15, 18)

#: Setpoints swept, seconds (paper: 500 ms to 5000 ms in 500 ms steps).
DEFAULT_SETPOINTS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)


@dataclass(frozen=True)
class FixedPoint:
    """One fixed-throttle run."""

    rate_mb: float
    achieved_rate_mb: float
    mean_latency: float
    latency_stddev: float
    duration: float


@dataclass(frozen=True)
class SlackerPoint:
    """One dynamic-throttle run."""

    setpoint: float
    average_rate_mb: float
    mean_latency: float
    latency_stddev: float
    #: Mean latency after the controller first reached the setpoint.
    steady_latency: float
    duration: float

    @property
    def steady_error_fraction(self) -> float:
        """(steady latency - setpoint) / setpoint."""
        return self.steady_latency / self.setpoint - 1.0


def steady_state_latency(outcome: ExperimentOutcome, setpoint: float) -> float:
    """Mean latency from the first time the controller's window latency
    reached the setpoint (excludes the ramp-up transient)."""
    series = outcome.controller_latency_series
    cross = None
    if series is not None:
        cross = next((t for t, v in series if v >= setpoint), None)
    if cross is None:
        cross = outcome.window_start
    values: list[float] = []
    for tenant in outcome.tenants:
        values.extend(tenant.latency.window_values(cross, outcome.window_end))
    if not values:
        return math.nan
    return float_sum(values) / len(values)


@dataclass
class Fig11Result:
    """Both curves of Figure 11."""

    fixed: list[FixedPoint]
    slacker: list[SlackerPoint]

    def knee_rate_mb(self) -> Optional[float]:
        """Fixed-curve knee: sharpest latency acceleration (MB/s)."""
        from ..migration.slack import EmpiricalSlackEstimator

        estimator = EmpiricalSlackEstimator()
        for point in self.fixed:
            estimator.add(point.rate_mb * MB, point.mean_latency)
        knee = estimator.knee_rate()
        return knee / MB if knee is not None else None

    def plateau_rate_mb(self) -> float:
        """Highest Slacker average speed across the setpoint sweep."""
        return max(point.average_rate_mb for point in self.slacker)

    def fixed_latency_at(self, rate_mb: float) -> float:
        """Piecewise-linear interpolation of the fixed curve, seconds."""
        points = sorted(self.fixed, key=lambda p: p.rate_mb)
        if rate_mb <= points[0].rate_mb:
            return points[0].mean_latency
        for a, b in zip(points, points[1:]):
            if a.rate_mb <= rate_mb <= b.rate_mb:
                frac = (rate_mb - a.rate_mb) / (b.rate_mb - a.rate_mb)
                return a.mean_latency + frac * (b.mean_latency - a.mean_latency)
        return points[-1].mean_latency

    def table_11a(self) -> Table:
        table = Table(
            "Figure 11a: latency vs. average migration speed",
            ["curve", "point", "avg speed", "mean latency", "std"],
        )
        for point in self.fixed:
            table.add_row(
                "fixed",
                f"{point.rate_mb:g} MB/s set",
                format_rate(point.achieved_rate_mb * MB),
                format_ms(point.mean_latency),
                format_ms(point.latency_stddev),
            )
        for point in self.slacker:
            table.add_row(
                "slacker",
                f"{point.setpoint * 1000:.0f} ms setpoint",
                format_rate(point.average_rate_mb * MB),
                format_ms(point.mean_latency),
                format_ms(point.latency_stddev),
            )
        knee = self.knee_rate_mb()
        if knee is not None:
            table.add_note(f"fixed-curve knee ~{knee:.0f} MB/s (paper: ~25 MB/s)")
        table.add_note(
            f"slacker plateau {self.plateau_rate_mb():.1f} MB/s "
            "(paper: ~23 MB/s; rates scale ~0.6x on our slower disk)"
        )
        return table

    def table_11b(self) -> Table:
        table = Table(
            "Figure 11b: setpoint vs. achieved latency",
            ["setpoint", "achieved (full run)", "achieved (steady)", "error", "std"],
        )
        for point in self.slacker:
            table.add_row(
                format_ms(point.setpoint),
                format_ms(point.mean_latency),
                format_ms(point.steady_latency),
                f"{point.steady_error_fraction * 100:+.1f}%",
                format_ms(point.latency_stddev),
            )
        table.add_note(
            "paper: achieved within 10% of setpoint; ours holds within "
            "~10% over the controllable range, and undershoots (safe "
            "direction) where the setpoint exceeds reachable latency"
        )
        return table


def sweep_points(
    cfg: ExperimentConfig,
    fixed_rates_mb: Sequence[float] = DEFAULT_FIXED_RATES,
    setpoints: Sequence[float] = DEFAULT_SETPOINTS,
    warmup: float = 20.0,
) -> list[SweepPoint]:
    """Both Figure 11 curves as one flat list of independent points."""
    points = [
        SweepPoint(
            label=("fixed", rate),
            config=cfg,
            spec=MigrationSpec.fixed(mb_per_sec(rate)),
            kwargs={"warmup": warmup},
        )
        for rate in fixed_rates_mb
    ]
    points.extend(
        SweepPoint(
            label=("slacker", setpoint),
            config=cfg,
            spec=MigrationSpec.dynamic(setpoint),
            kwargs={"warmup": warmup},
        )
        for setpoint in setpoints
    )
    return points


def run(
    scale: float = 1.0,
    config: Optional[ExperimentConfig] = None,
    seed: Optional[int] = None,
    fixed_rates_mb: Sequence[float] = DEFAULT_FIXED_RATES,
    setpoints: Sequence[float] = DEFAULT_SETPOINTS,
    warmup: float = 20.0,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    pool=None,
) -> Fig11Result:
    """Run both sweeps of Figure 11.

    This is the repo's biggest sweep (16 full simulations at the
    defaults), so it benefits most from ``jobs > 1``; results stay
    bit-identical to a serial run.  ``pool`` reuses a shared warm
    :class:`~repro.parallel.WorkerPool` across sweeps.
    """
    cfg = scaled_config(config or EVALUATION, scale, seed)
    runner = SweepRunner(jobs=jobs, cache=cache, pool=pool)
    outcomes = runner.run_labelled(
        sweep_points(
            cfg,
            fixed_rates_mb=fixed_rates_mb,
            setpoints=setpoints,
            warmup=warmup,
        )
    )
    fixed = [
        FixedPoint(
            rate_mb=rate,
            achieved_rate_mb=outcome.average_migration_rate / MB,
            mean_latency=outcome.mean_latency,
            latency_stddev=outcome.latency_stddev,
            duration=outcome.duration,
        )
        for rate in fixed_rates_mb
        for outcome in (outcomes[("fixed", rate)],)
    ]
    slacker = [
        SlackerPoint(
            setpoint=setpoint,
            average_rate_mb=outcome.average_migration_rate / MB,
            mean_latency=outcome.mean_latency,
            latency_stddev=outcome.latency_stddev,
            steady_latency=steady_state_latency(outcome, setpoint),
            duration=outcome.duration,
        )
        for setpoint in setpoints
        for outcome in (outcomes[("slacker", setpoint)],)
    ]
    return Fig11Result(fixed=fixed, slacker=slacker)


def main() -> None:  # pragma: no cover - CLI entry point
    result = run()
    print(result.table_11a().render())
    print()
    print(result.table_11b().render())


if __name__ == "__main__":  # pragma: no cover
    main()
