"""Parallel sweep execution: process-pool runner, records, result cache.

The paper's figures are sweeps of independent, seed-deterministic
simulation runs; this subpackage fans those points across worker
processes (:class:`SweepRunner`), ships compact picklable results back
(:class:`PointRecord`), and memoizes points on disk keyed by a content
hash of their inputs and the repo's code fingerprint
(:class:`ResultCache`).  See ``docs/PERF.md``.

The core invariant — no shared mutable module-level state reachable
from worker entry points — is machine-enforced by slackerlint rule
SLK008 rather than left as convention.
"""

from .cache import ResultCache, code_fingerprint, point_key
from .pool import WorkerPool
from .record import PointRecord, TenantRecord
from .runner import SweepPoint, SweepRunner, resolve_jobs
from .tasks import MULTI_TENANT, SINGLE_TENANT, resolve_task

__all__ = [
    "MULTI_TENANT",
    "PointRecord",
    "ResultCache",
    "SINGLE_TENANT",
    "SweepPoint",
    "SweepRunner",
    "TenantRecord",
    "WorkerPool",
    "code_fingerprint",
    "point_key",
    "resolve_jobs",
    "resolve_task",
]
