"""Section 6 extension: throttling both source and target.

"A migration similarly impacts the target server and may interfere
with preexisting tenants.  We have implemented a version of Slacker
that accounts for this case by considering transaction latencies on
both the source and target server — at each timestep, the PID
controller is simply provided the max of the source and target
latencies."

The experiment places a busy tenant on the *target* server, migrates a
tenant into it, and compares source-only control against
max(source, target) control: with both-ends control, the target
tenant's latency is held near the setpoint instead of being collateral
damage.

Run standalone::

    python -m repro.experiments.ext_source_target
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..analysis.report import Table, format_ms, format_rate
from ..core.config import EVALUATION, ExperimentConfig
from ..parallel import SweepPoint, SweepRunner
from ..simulation import RandomStreams, Trace, float_sum
from .common import scaled_config
from .harness import _build_cluster, attach_workload

__all__ = ["SourceTargetResult", "variant_point", "run", "main"]

#: Task path of :func:`variant_point` for :class:`SweepPoint`.
VARIANT_TASK = "repro.experiments.ext_source_target:variant_point"

#: Setpoint used for both variants, seconds.
DEFAULT_SETPOINT = 1.0


@dataclass
class SourceTargetResult:
    """One variant's measurements."""

    both_ends: bool
    source_latency_mean: float
    target_latency_mean: float
    migration_rate: float
    duration: float


@dataclass
class SourceTargetComparison:
    """Source-only vs. max(source, target) control."""

    source_only: SourceTargetResult
    both_ends: SourceTargetResult
    setpoint: float

    def table(self) -> Table:
        table = Table(
            "Section 6 extension: throttle by max(source, target) latency "
            f"({self.setpoint * 1000:.0f} ms setpoint)",
            ["controller input", "speed", "source tenant", "target tenant"],
        )
        for result in (self.source_only, self.both_ends):
            table.add_row(
                "max(source, target)" if result.both_ends else "source only",
                format_rate(result.migration_rate),
                format_ms(result.source_latency_mean),
                format_ms(result.target_latency_mean),
            )
        table.add_note(
            "paper: whichever server has the least slack determines the rate"
        )
        return table


def _run_variant(
    config: ExperimentConfig, setpoint: float, both_ends: bool, warmup: float
) -> SourceTargetResult:
    streams = RandomStreams(config.seed)
    cluster = _build_cluster(config, streams, throttle_both_ends=both_ends)
    env = cluster.env
    trace = Trace()
    source = cluster.node("source")
    target = cluster.node("target")

    moving = source.create_tenant(1, config.tenant.data_bytes)
    moving_client, _ = attach_workload(
        cluster, config, moving, streams, trace, series="tenant-1"
    )
    moving_client.start()
    source.attach_latency_series(1, trace.series("tenant-1"))

    # A pre-existing busy tenant on the target server: migration writes
    # land on its disk.  Its workload runs hotter than the mover's.
    resident = target.create_tenant(2, config.tenant.data_bytes)
    resident_client, _ = attach_workload(
        cluster,
        config,
        resident,
        streams,
        trace,
        series="tenant-2",
        arrival_rate=config.workload.arrival_rate * 1.5,
    )
    resident_client.start()
    target.attach_latency_series(2, trace.series("tenant-2"))

    def experiment():
        yield env.timeout(warmup)
        start = env.now
        result = yield env.process(
            source.migrate_tenant(1, "target", setpoint=setpoint)
        )
        return start, env.now, result

    proc = env.process(experiment())
    start, end, migration = env.run(until=proc)

    def window_mean(series_name: str) -> float:
        values = trace.series(series_name).window_values(start, end)
        if not values:
            return math.nan
        return float_sum(values) / len(values)

    return SourceTargetResult(
        both_ends=both_ends,
        source_latency_mean=window_mean("tenant-1"),
        target_latency_mean=window_mean("tenant-2"),
        migration_rate=migration.average_rate,
        duration=migration.duration,
    )


def variant_point(
    config: ExperimentConfig,
    spec=None,
    setpoint: float = DEFAULT_SETPOINT,
    both_ends: bool = False,
    warmup: float = 20.0,
) -> SourceTargetResult:
    """One controller variant as a sweep task (compact picklable result)."""
    return _run_variant(config, setpoint, both_ends=both_ends, warmup=warmup)


def run(
    scale: float = 1.0,
    config: Optional[ExperimentConfig] = None,
    seed: Optional[int] = None,
    setpoint: float = DEFAULT_SETPOINT,
    warmup: float = 20.0,
    jobs: int = 1,
    cache=None,
    pool=None,
) -> SourceTargetComparison:
    """Run both controller variants against a loaded target server.

    The two variants are independent simulations, dispatched together
    through the :class:`SweepRunner` so they fan out across ``run
    all``'s shared warm worker pool.
    """
    cfg = scaled_config(config or EVALUATION, scale, seed)
    # Slow the target disk so the incoming snapshot writes genuinely
    # contend with the resident tenant there.
    disk = replace(cfg.server.disk, sequential_bandwidth=cfg.server.disk.sequential_bandwidth / 2)
    cfg = replace(cfg, server=replace(cfg.server, disk=disk))
    runner = SweepRunner(jobs=jobs, cache=cache, pool=pool)
    source_only, both_ends = runner.run(
        [
            SweepPoint(
                label="source-only",
                config=cfg,
                spec=None,
                task=VARIANT_TASK,
                kwargs={"setpoint": setpoint, "both_ends": False, "warmup": warmup},
            ),
            SweepPoint(
                label="both-ends",
                config=cfg,
                spec=None,
                task=VARIANT_TASK,
                kwargs={"setpoint": setpoint, "both_ends": True, "warmup": warmup},
            ),
        ]
    )
    return SourceTargetComparison(
        source_only=source_only,
        both_ends=both_ends,
        setpoint=setpoint,
    )


def main() -> None:  # pragma: no cover - CLI entry point
    print(run().table().render())


if __name__ == "__main__":  # pragma: no cover
    main()
