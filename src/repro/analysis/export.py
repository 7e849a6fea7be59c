"""Exporting experiment results to CSV and JSON.

The figure drivers print plain-text tables; downstream users who want
to plot the reproduced figures need machine-readable data.  This module
writes :class:`~repro.analysis.report.Table` objects and raw
:class:`~repro.simulation.trace.Series` to CSV, and experiment outcomes
to JSON, without any third-party dependency.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Iterable, Optional

from ..simulation.trace import Series
from .report import Table

__all__ = [
    "table_to_csv",
    "series_to_csv",
    "outcome_to_dict",
    "write_csv",
    "write_json",
]


def table_to_csv(table: Table) -> str:
    """Render a result table as CSV (header row + data rows)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow(row)
    return buffer.getvalue()


def series_to_csv(
    series_list: Iterable[Series],
    time_column: str = "time_s",
) -> str:
    """Render one or more series as long-form CSV: (series, time, value)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["series", time_column, "value"])
    for series in series_list:
        for t, v in series:
            writer.writerow([series.name, f"{t:.6f}", f"{v:.9g}"])
    return buffer.getvalue()


def _clean(value: Any) -> Any:
    """JSON-ready scalar: NaN/inf become None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def outcome_to_dict(outcome) -> dict:
    """A JSON-ready summary of an :class:`ExperimentOutcome`."""
    migration: Optional[dict] = None
    result = outcome.migration
    if result is not None:
        migration = {
            "kind": result.kind,
            "duration_s": _clean(result.duration),
            "downtime_s": _clean(result.downtime),
            "total_bytes": result.total_bytes,
            "average_rate_bytes_per_s": _clean(result.average_rate),
            "snapshot_bytes": result.snapshot_bytes,
            "delta_rounds": result.delta_rounds,
            "num_chunks": result.num_chunks,
            "total_freeze_time_s": _clean(result.total_freeze_time),
            "remote_fetches": result.remote_fetches,
        }
    return {
        "spec": {
            "kind": outcome.spec.kind,
            "rate": _clean(outcome.spec.rate),
            "setpoint": _clean(outcome.spec.setpoint),
        },
        "window": {
            "start_s": _clean(outcome.window_start),
            "end_s": _clean(outcome.window_end),
            "duration_s": _clean(outcome.duration),
        },
        "latency": {
            "mean_s": _clean(outcome.mean_latency),
            "stddev_s": _clean(outcome.latency_stddev),
            "p95_s": _clean(outcome.latency_percentile(95)),
            "p99_s": _clean(outcome.latency_percentile(99)),
            "samples": len(outcome.pooled_latencies()),
        },
        "tenants": [
            {"tenant_id": t.tenant_id, "completed": t.completed}
            for t in outcome.tenants
        ],
        "migration": migration,
    }


def write_csv(path: str, content: str) -> None:
    """Write CSV text to ``path``."""
    with open(path, "w", newline="") as f:
        f.write(content)


def write_json(path: str, payload: dict) -> None:
    """Write a JSON document to ``path``."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
