"""Compact, picklable result records for parallel sweeps.

A sweep worker runs one full simulation and must ship its results back
to the parent process.  Pickling the live :class:`~repro.experiments.harness.ExperimentOutcome`
is impossible (migration results hold the target engine, whose server
holds running generator processes) and wasteful (the full
:class:`~repro.simulation.trace.Trace` carries every series the run
recorded).  :class:`PointRecord` keeps exactly what the figure drivers
consume — the measured latency/throttle series plus scalar summaries —
in plain dataclasses of floats, lists, and strings, so it pickles
compactly and hashes deterministically for the result cache.

``PointRecord`` mirrors the query API of ``ExperimentOutcome``
(``mean_latency``, ``latency_percentile``, ``tenants[i].latency`` ...),
so a driver ported onto the sweep runner keeps its downstream code
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..experiments.harness import ExperimentOutcome, MigrationSpec, PooledLatencyStats
from ..core.config import ExperimentConfig
from ..migration.result import MigrationResult
from ..obs import RunReport
from ..simulation import Series

__all__ = ["TenantRecord", "PointRecord"]


@dataclass
class TenantRecord:
    """Per-tenant measurements, structurally matching ``TenantOutcome``."""

    tenant_id: int
    latency: Series
    completed: int

    def window_latencies(self, start: float, end: float) -> list[float]:
        return self.latency.window_values(start, end)


@dataclass
class PointRecord(PooledLatencyStats):
    """One sweep point's results, ready to cross a process boundary."""

    config: ExperimentConfig
    spec: Optional[MigrationSpec]
    tenants: list[TenantRecord]
    window_start: float
    window_end: float
    #: The migration result, detached from its target engine.
    migration: Optional[MigrationResult] = None
    throttle_series: Optional[Series] = None
    controller_latency_series: Optional[Series] = None
    #: Observability snapshot (plain dicts/tuples, pickles compactly)
    #: when the point ran with ``observe=True``.
    run_report: Optional[RunReport] = None
    sim_end: float = 0.0

    @property
    def average_migration_rate(self) -> float:
        """Mean transfer rate over the migration, bytes/second."""
        return self.migration.average_rate if self.migration is not None else 0.0

    @classmethod
    def from_outcome(cls, outcome: ExperimentOutcome) -> "PointRecord":
        """Strip an in-process outcome down to its portable essentials."""
        return cls(
            config=outcome.config,
            spec=outcome.spec,
            tenants=[
                TenantRecord(
                    tenant_id=t.tenant_id, latency=t.latency, completed=t.completed
                )
                for t in outcome.tenants
            ],
            window_start=outcome.window_start,
            window_end=outcome.window_end,
            migration=(
                replace(outcome.migration, target=None)
                if outcome.migration is not None
                else None
            ),
            throttle_series=outcome.throttle_series,
            controller_latency_series=outcome.controller_latency_series,
            run_report=outcome.run_report,
            sim_end=outcome.sim_end,
        )
