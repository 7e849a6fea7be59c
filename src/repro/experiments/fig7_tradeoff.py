"""Figure 7: the migration-speed / workload-performance tradeoff.

Plots (as rows) the mean transaction latency, its standard deviation,
and the migration duration for each fixed throttle of the case study.
"Increasing the migration speed increases both average latency and
latency instability" while the migration finishes sooner — the
tradeoff the setpoint lets an operator choose along.

The **extended** sweep (``--extended``) adds a method axis: at each
fixed rate it runs live, stop-and-copy, on-demand, and fluid chunked
migration of the same tenant, and reports the p99.9 tail next to the
mean — the tail is where the methods separate.  Live's single freeze
stalls *every* write for the whole final-delta window and lands
squarely in the p99.9; fluid's per-chunk freezes are each ~1/N as long
and block only the ~1/N of traffic whose write set touches the frozen
chunk, so at equal migration time fluid's tail is strictly better.
Each extended point rides the :class:`~repro.parallel.SweepRunner`; the
sweep fingerprint hashes every latency sample and must replay
bit-identically (``--check``).

Run standalone::

    python -m repro.experiments.fig7_tradeoff
    python -m repro.experiments.fig7_tradeoff --extended --scale 0.1 --check
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Optional

from ..analysis.report import Table, format_ms, format_seconds
from ..core.config import CASE_STUDY, ExperimentConfig
from ..parallel import SweepPoint, SweepRunner
from ..parallel.record import PointRecord
from ..parallel.tasks import SINGLE_TENANT
from ..resources.units import MB
from .common import scaled_config
from .fingerprint import trajectory_fingerprint
from .fig5_throttle_sweep import PAPER_ANCHORS, Fig5Result
from .fig5_throttle_sweep import run as run_fig5
from .harness import MigrationSpec

__all__ = [
    "Fig7Result",
    "ExtendedFig7Result",
    "extended_points",
    "run",
    "run_extended",
    "main",
]

#: Paper-reported migration durations (s) per rate; 0 MB/s has none.
PAPER_DURATION_S = {4: 281.0, 8: 164.0, 12: 130.0}


@dataclass
class Fig7Result:
    """Speed/performance tradeoff rows derived from the Figure 5 runs."""

    fig5: Fig5Result

    def rows(self) -> list[tuple[int, float, float, Optional[float]]]:
        """(rate MB/s, mean ms, stddev ms, duration s or None) per run."""
        out = []
        for rate in sorted(self.fig5.outcomes):
            outcome = self.fig5.outcomes[rate]
            duration = outcome.duration if rate != 0 else None
            out.append(
                (
                    rate,
                    outcome.mean_latency * 1000,
                    outcome.latency_stddev * 1000,
                    duration,
                )
            )
        return out

    def table(self) -> Table:
        table = Table(
            "Figure 7: migration speed vs. workload performance",
            [
                "speed",
                "paper mean",
                "measured mean",
                "measured std",
                "migration duration",
            ],
        )
        for rate, mean_ms, std_ms, duration in self.rows():
            table.add_row(
                "no migration" if rate == 0 else f"{rate} MB/s",
                format_ms(PAPER_ANCHORS[rate] / 1000),
                format_ms(mean_ms / 1000),
                format_ms(std_ms / 1000),
                format_seconds(duration) if duration is not None else "-",
            )
        table.add_note(
            "both mean latency and latency variance rise with speed; "
            "duration falls — the slack tradeoff of Section 3.3"
        )
        return table


def run(
    scale: float = 1.0,
    config: Optional[ExperimentConfig] = None,
    seed: Optional[int] = None,
    fig5: Optional[Fig5Result] = None,
    jobs: int = 1,
    cache=None,
) -> Fig7Result:
    """Derive the tradeoff from (or re-run) the Figure 5 sweep.

    ``jobs``/``cache`` are forwarded to the Figure 5 sweep runner; a
    shared ``cache`` means fig5 and fig7 together simulate each point
    exactly once.
    """
    if fig5 is None:
        fig5 = run_fig5(
            scale=scale, config=config or CASE_STUDY, seed=seed,
            jobs=jobs, cache=cache,
        )
    return Fig7Result(fig5=fig5)


# -- extended sweep: method x rate, with the p99.9 tail axis ------------------

#: Fixed rates of the extended sweep, MB/s (the case-study throttles).
EXTENDED_RATES_MB = (4, 8, 12)

#: Methods compared at each rate, in presentation order.
EXTENDED_METHODS = ("live", "stop-and-copy", "on-demand", "fluid")

#: Chunk count for the fluid points (the module default).
DEFAULT_FLUID_CHUNKS = 16


def _extended_spec(method: str, rate: float, chunks: int) -> MigrationSpec:
    if method == "live":
        return MigrationSpec.fixed(rate)
    if method == "stop-and-copy":
        return MigrationSpec(kind="stop-and-copy", rate=rate)
    if method == "on-demand":
        return MigrationSpec.on_demand(rate)
    if method == "fluid":
        return MigrationSpec.fluid(rate, chunks=chunks)
    raise ValueError(f"unknown extended method {method!r}")


def extended_points(
    config: Optional[ExperimentConfig] = None,
    scale: float = 1.0,
    seed: Optional[int] = None,
    chunks: int = DEFAULT_FLUID_CHUNKS,
) -> list[SweepPoint]:
    """Every (method, rate) pair as an independent sweep point."""
    cfg = scaled_config(config or CASE_STUDY, scale, seed)
    return [
        SweepPoint(
            label=f"{method}@{rate}MB",
            config=cfg,
            spec=_extended_spec(method, rate * MB, chunks),
            task=SINGLE_TENANT,
        )
        for rate in EXTENDED_RATES_MB
        for method in EXTENDED_METHODS
    ]


@dataclass
class ExtendedFig7Result:
    """Method x rate records of the extended tradeoff sweep."""

    records: dict[str, PointRecord]
    chunks: int = DEFAULT_FLUID_CHUNKS

    def record(self, method: str, rate: int) -> PointRecord:
        return self.records[f"{method}@{rate}MB"]

    def rows(self) -> list[tuple[str, int, float, float, float, float, float]]:
        """(method, rate MB/s, duration, downtime, mean, p99, p99.9)."""
        out = []
        for rate in EXTENDED_RATES_MB:
            for method in EXTENDED_METHODS:
                rec = self.record(method, rate)
                migration = rec.migration
                out.append(
                    (
                        method,
                        rate,
                        migration.duration,
                        migration.downtime,
                        rec.mean_latency,
                        rec.latency_percentile(99.0),
                        rec.latency_percentile(99.9),
                    )
                )
        return out

    def violations(self) -> list[str]:
        """The sweep's headline claim, as a checkable invariant.

        At every matched rate, fluid must beat live on the p99.9 tail —
        per-chunk freezes hit ~1/N of traffic for ~1/N as long, so the
        tail has to come down even though the bytes moved are the same.
        """
        out = []
        for rate in EXTENDED_RATES_MB:
            live = self.record("live", rate).latency_percentile(99.9)
            fluid = self.record("fluid", rate).latency_percentile(99.9)
            if fluid >= live:
                out.append(
                    f"fluid p99.9 {fluid * 1000:.2f} ms >= live "
                    f"{live * 1000:.2f} ms at {rate} MB/s"
                )
        return out

    def fingerprint(self) -> str:
        """The trajectory fingerprint of every point in the sweep."""
        return trajectory_fingerprint(self.records)

    def table(self) -> Table:
        table = Table(
            "Figure 7 (extended): migration method vs. tail latency "
            f"(fluid: {self.chunks} chunks)",
            [
                "speed",
                "method",
                "duration",
                "downtime",
                "mean",
                "p99",
                "p99.9",
            ],
        )
        for method, rate, duration, downtime, mean, p99, p999 in self.rows():
            table.add_row(
                f"{rate} MB/s",
                method,
                format_seconds(duration),
                format_ms(downtime),
                format_ms(mean),
                format_ms(p99),
                format_ms(p999),
            )
        table.add_note(
            "fluid hands the tenant over chunk by chunk: each freeze is "
            "~1/N as long and blocks ~1/N of the writes, so the p99.9 "
            "drops below live's at equal migration time"
        )
        return table


def run_extended(
    scale: float = 1.0,
    config: Optional[ExperimentConfig] = None,
    seed: Optional[int] = None,
    chunks: int = DEFAULT_FLUID_CHUNKS,
    jobs: int = 1,
    cache=None,
    pool=None,
) -> ExtendedFig7Result:
    """Run the method x rate sweep through the shared sweep runner."""
    runner = SweepRunner(jobs=jobs, cache=cache, pool=pool)
    records = runner.run_labelled(
        extended_points(config, scale=scale, seed=seed, chunks=chunks)
    )
    return ExtendedFig7Result(records=records, chunks=chunks)


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover - CLI
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--extended",
        action="store_true",
        help="run the method x rate sweep with the p99.9 tail axis",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--chunks", type=int, default=DEFAULT_FLUID_CHUNKS)
    parser.add_argument(
        "--check",
        action="store_true",
        help="(extended) exit non-zero unless fluid beats live on p99.9 "
        "at every rate and a serial replay reproduces the fingerprint",
    )
    parser.add_argument("--out", type=str, default=None, help="write JSON report")
    args = parser.parse_args(argv)

    if not args.extended:
        print(run(scale=args.scale, seed=args.seed, jobs=args.jobs).table().render())
        return 0

    result = run_extended(
        scale=args.scale, seed=args.seed, chunks=args.chunks, jobs=args.jobs
    )
    print(result.table().render())
    fingerprint = result.fingerprint()
    print(f"fingerprint: {fingerprint}")

    if args.out:
        payload = {
            "chunks": result.chunks,
            "fingerprint": fingerprint,
            "rows": [
                {
                    "method": method,
                    "rate_mb": rate,
                    "duration": duration,
                    "downtime": downtime,
                    "mean_latency": mean,
                    "p99_latency": p99,
                    "p999_latency": p999,
                }
                for method, rate, duration, downtime, mean, p99, p999 in result.rows()
            ],
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    if args.check:
        failures = result.violations()
        replay = run_extended(
            scale=args.scale, seed=args.seed, chunks=args.chunks, jobs=1
        )
        if replay.fingerprint() != fingerprint:
            failures.append("REPLAY DIVERGED: serial replay fingerprint differs")
        if failures:
            for failure in failures:
                print(failure, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
