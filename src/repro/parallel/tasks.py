"""Standard worker entry points for sweep points.

A :class:`~repro.parallel.runner.SweepPoint` names its task as a
``"module:function"`` string rather than carrying a callable, so points
pickle trivially and the worker process resolves the function against
*its own* imported code.  The contract for a task function:

* it is importable at module top level (no closures, no lambdas);
* it takes ``(config, spec, **kwargs)`` with picklable kwargs;
* it is deterministic in those inputs (fresh ``Environment``, RNG
  derived from ``config.seed`` — never shared module state, which lint
  rule SLK008 enforces for this package);
* it returns a compact picklable record, normally a
  :class:`~repro.parallel.record.PointRecord`.

The task here wraps the shared experiment harness; experiment modules
may register their own (see ``repro.experiments.ablations``).
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Optional

from ..core.config import ExperimentConfig
from ..experiments.harness import MigrationSpec, run_single_tenant
from .record import PointRecord

__all__ = [
    "SINGLE_TENANT",
    "resolve_task",
    "single_tenant_point",
    "execute_batch",
]

#: Task path of :func:`single_tenant_point` (the default for sweeps).
SINGLE_TENANT = "repro.parallel.tasks:single_tenant_point"


def resolve_task(path: str) -> Callable:
    """Import a ``"module:function"`` task path."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(f"task path {path!r} is not 'module:function'")
    function = getattr(import_module(module_name), attr, None)
    if not callable(function):
        raise ValueError(f"task path {path!r} does not name a callable")
    return function


def single_tenant_point(
    config: ExperimentConfig, spec: MigrationSpec, **kwargs
) -> PointRecord:
    """One harness run (the paper's fundamental case), as a record."""
    return PointRecord.from_outcome(run_single_tenant(config, spec, **kwargs))


def execute(
    task: str,
    config: ExperimentConfig,
    spec: Optional[MigrationSpec],
    kwargs: Optional[dict] = None,
):
    """Resolve and run one task — the function worker processes execute."""
    return resolve_task(task)(config, spec, **(kwargs or {}))


def execute_batch(items) -> list:
    """Run a chunk of tasks in one worker round-trip, results in order.

    ``items`` is a sequence of ``(task, config, spec, kwargs)`` tuples.
    Submitting chunks instead of single points amortizes the process
    pool's per-task overhead (argument pickling, queue round-trips,
    future bookkeeping) across the whole chunk — the difference between
    a win and a loss for sweeps whose per-point runtime is comparable
    to the dispatch cost itself.  Points within a chunk still run in
    submission order, so results stay deterministic.
    """
    return [execute(task, config, spec, kwargs) for task, config, spec, kwargs in items]
