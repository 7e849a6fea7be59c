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

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "PointRecord": ".record",
        "ResultCache": ".cache",
        "SINGLE_TENANT": ".tasks",
        "SweepPoint": ".runner",
        "SweepRunner": ".runner",
        "TenantRecord": ".record",
        "WorkerPool": ".pool",
        "code_fingerprint": ".cache",
        "point_key": ".cache",
        "resolve_jobs": ".runner",
        "resolve_task": ".tasks",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
