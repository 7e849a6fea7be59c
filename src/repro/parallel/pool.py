"""Warm, reusable worker pool for back-to-back sweeps.

A :class:`~repro.parallel.runner.SweepRunner` without a pool pays for a
fresh ``ProcessPoolExecutor`` on every ``run()`` — each worker process
starts, imports :mod:`repro`, runs its chunks, and dies.  For a driver
that runs *many* sweeps back to back (``run_all_experiments.py``,
``python -m repro run all``), that start-up tax repeats per sweep and
dominates once the simulations themselves get fast.

:class:`WorkerPool` keeps one executor alive across sweeps:

* workers are spawned **once**, lazily on first dispatch, from a
  ``forkserver`` context — the forkserver preloads
  :mod:`repro.parallel.tasks`, which pulls in the simulation kernel,
  the layers a point runs and the experiment harness, so every worker
  forks warm from an interpreter that has already paid that import
  cost.  The package ``__init__``s import nothing eagerly, so the
  preload leaves out the figure drivers and :mod:`repro.analysis`; a
  task path naming a driver (``repro.experiments.fleet_sweep:...``)
  imports it in the worker on that worker's first such task;
* subsequent sweeps reuse the same processes; there is no per-sweep
  executor teardown barrier;
* the pool is an explicit object handed down from the driver's
  entry point (``with WorkerPool(jobs) as pool: ...``) — never a
  module-level singleton, which worker entry points could observe and
  lint rule SLK008 exists to prevent.

The pool changes *where* points run, never *what* they compute: tasks
are resolved and executed by the same :mod:`repro.parallel.tasks`
machinery, so results remain bit-identical to a cold pool or a serial
run.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from .runner import resolve_jobs

__all__ = ["WorkerPool", "PREFERRED_CONTEXT"]

#: Start method used when the platform offers it.  ``forkserver``
#: combines fork-speed worker creation with spawn-grade isolation from
#: the (possibly thread-carrying) driver process.
PREFERRED_CONTEXT = "forkserver"

#: Modules the forkserver imports before the first fork, so every
#: worker starts with the kernel and harness already loaded.
_PRELOAD_MODULES = ("repro.parallel.tasks",)


class WorkerPool:
    """One executor, spawned lazily, shared across any number of sweeps.

    Parameters
    ----------
    jobs:
        Worker count; ``0``/``None`` means all cores (see
        :func:`~repro.parallel.runner.resolve_jobs`).
    context:
        ``multiprocessing`` start-method name.  Defaults to
        ``forkserver``; silently falls back to the platform default if
        the method is unavailable.
    """

    def __init__(self, jobs: int = 0, context: str = PREFERRED_CONTEXT):
        self.jobs = resolve_jobs(jobs)
        self._context_name = context
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Number of ``executor()`` calls that found the pool already
        #: warm — i.e. dispatches that skipped worker start-up.
        self.warm_hits = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def started(self) -> bool:
        """True once the executor (and its workers) exists."""
        return self._executor is not None

    def executor(self) -> ProcessPoolExecutor:
        """The shared executor, created on first use."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=self._make_context()
            )
        else:
            self.warm_hits += 1
        return self._executor

    def _make_context(self):
        try:
            context = multiprocessing.get_context(self._context_name)
        except ValueError:
            return multiprocessing.get_context()
        if self._context_name == "forkserver":
            try:
                context.set_forkserver_preload(list(_PRELOAD_MODULES))
            except (AttributeError, OSError):  # pragma: no cover
                pass
        return context

    def close(self) -> None:
        """Shut the workers down.  Idempotent; the pool restarts lazily
        if used again."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        state = "warm" if self.started else "cold"
        return f"WorkerPool(jobs={self.jobs}, {state})"
