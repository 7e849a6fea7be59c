"""One trajectory fingerprint for every experiment driver.

A fingerprint is a SHA-256 over what a simulation *did*: every
tenant's latency samples, the migration's outcome, the measurement
window, the PID loop's throttle and latency series, the final
simulated time, and whatever a driver decided beyond those (a fleet's
placement decisions, a fuzz run's protocol counters).  It never reads
kernel bookkeeping — event counts, in-place continuations, elided
ticks — nor RunReports, so a change that makes the kernel cheaper
without moving the trajectory leaves every fingerprint alone, and a
change that moves the trajectory moves it.

This module is the only owner of the digest format (lint rule SLK014).
The checked-in spec ``tests/golden/fingerprints.json`` pins one
fingerprint per driver; ``tests/test_golden.py`` recomputes them.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from ..migration.result import MigrationResult
from ..simulation import Series

__all__ = ["Run", "trajectory_fingerprint"]


@dataclass(frozen=True)
class Run:
    """What the fingerprint reads of a run that has no outcome object.

    :class:`~repro.experiments.harness.ExperimentOutcome` and
    :class:`~repro.parallel.record.PointRecord` already have these
    attributes; drivers that build their own clusters (the fleet and
    the fuzzer) describe their run with this.
    """

    #: Objects with a ``tenant_id`` and a ``latency`` :class:`Series`.
    tenants: Sequence[Any]
    sim_end: float
    migration: Optional[MigrationResult] = None
    window_start: Optional[float] = None
    window_end: Optional[float] = None
    throttle_series: Optional[Series] = None
    controller_latency_series: Optional[Series] = None


def trajectory_fingerprint(runs: Mapping[Any, Any], facts: Any = ()) -> str:
    """SHA-256 hex digest over ``runs`` (label -> run) and ``facts``.

    Each run is an outcome, a point record or a :class:`Run`.  Labels
    are hashed in sorted order.  ``facts`` holds what a driver decided
    beyond its runs; it must have a deterministic ``repr``.
    """
    digest = hashlib.sha256()
    for label in sorted(runs):
        run = runs[label]
        migration = run.migration
        summary = (
            None
            if migration is None
            else (
                migration.kind,
                migration.duration,
                migration.downtime,
                migration.total_bytes,
            )
        )
        digest.update(
            repr(
                (label, summary, run.window_start, run.window_end, run.sim_end)
            ).encode()
        )
        for tenant in run.tenants:
            _update_series(digest, tenant.tenant_id, tenant.latency)
        for name in ("throttle_series", "controller_latency_series"):
            series = getattr(run, name)
            if series is not None:
                _update_series(digest, name, series)
    digest.update(repr(facts).encode())
    return digest.hexdigest()


def _update_series(digest, key: Any, series: Series) -> None:
    """Every sample of ``series``, as exact IEEE doubles."""
    digest.update(repr((key, len(series.times))).encode())
    digest.update(array("d", series.times).tobytes())
    digest.update(array("d", series.values).tobytes())
