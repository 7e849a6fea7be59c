"""Figure 13b: migrating one of five collocated tenants.

"We evaluate a 5-tenant scenario by creating five tenant databases and
running five independent workloads ... We then migrate only a single
tenant, while the other four continue to execute their workloads ...
As in the single tenant case ... latency is maintained close to the
setpoint, and absolute latency is significantly below the fixed
throttle case."  (Section 5.6)

Slacker's PID input here is the latency average across *all* tenants
on the server — the per-server SLA model of Section 5.6.

Run standalone::

    python -m repro.experiments.fig13b_multitenant
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.report import Table, format_ms, format_rate
from ..analysis.stats import summarize
from ..core.config import EVALUATION, ExperimentConfig
from ..parallel import SweepPoint, SweepRunner
from .common import scaled_config
from .harness import ExperimentOutcome, MigrationSpec

__all__ = ["Fig13bResult", "run", "main"]

#: Setpoint for the multi-tenant run, seconds.
DEFAULT_SETPOINT = 1.5

#: Number of collocated tenants (paper: 5).
DEFAULT_TENANTS = 5


@dataclass
class Fig13bResult:
    """Slacker vs. equal-speed fixed throttle on a 5-tenant server."""

    slacker: ExperimentOutcome
    fixed: ExperimentOutcome
    setpoint: float
    num_tenants: int

    def per_tenant_means(self, outcome: ExperimentOutcome) -> list[float]:
        """Mean latency per tenant inside the measurement window."""
        means = []
        for tenant in outcome.tenants:
            summary = summarize(
                tenant.window_latencies(outcome.window_start, outcome.window_end)
            )
            means.append(summary.mean)
        return means

    def table(self) -> Table:
        table = Table(
            f"Figure 13b: migrating 1 of {self.num_tenants} tenants "
            f"({self.setpoint * 1000:.0f} ms setpoint)",
            ["run", "speed", "server-wide latency", "std", "per-tenant means"],
        )
        for label, outcome in (("slacker", self.slacker), ("fixed", self.fixed)):
            per_tenant = ", ".join(
                f"{m * 1000:.0f}" for m in self.per_tenant_means(outcome)
            )
            table.add_row(
                label,
                format_rate(outcome.average_migration_rate),
                format_ms(outcome.mean_latency),
                format_ms(outcome.latency_stddev),
                per_tenant + " ms",
            )
        table.add_note(
            "paper: server-wide latency near the setpoint and below the "
            "equal-speed fixed throttle"
        )
        return table


def run(
    scale: float = 1.0,
    config: Optional[ExperimentConfig] = None,
    seed: Optional[int] = None,
    setpoint: float = DEFAULT_SETPOINT,
    num_tenants: int = DEFAULT_TENANTS,
    warmup: float = 20.0,
    jobs: int = 1,
    cache=None,
    pool=None,
) -> Fig13bResult:
    """Run the multi-tenant migration and its fixed comparator.

    The comparator's rate comes from the Slacker run, so the points
    are sequential; both dispatch through the :class:`SweepRunner`,
    sharing ``run all``'s warm worker pool and result cache.
    """
    cfg = scaled_config(config or EVALUATION, scale, seed)
    runner = SweepRunner(jobs=jobs, cache=cache, pool=pool)

    def point(label: str, spec: MigrationSpec) -> SweepPoint:
        return SweepPoint(
            label=label,
            config=cfg,
            spec=spec,
            kwargs={"num_tenants": num_tenants, "warmup": warmup},
        )

    [slacker] = runner.run([point("slacker", MigrationSpec.dynamic(setpoint))])
    [fixed] = runner.run(
        [point("fixed", MigrationSpec.fixed(slacker.average_migration_rate))]
    )
    return Fig13bResult(
        slacker=slacker, fixed=fixed, setpoint=setpoint, num_tenants=num_tenants
    )


def main() -> None:  # pragma: no cover - CLI entry point
    print(run().table().render())


if __name__ == "__main__":  # pragma: no cover
    main()
