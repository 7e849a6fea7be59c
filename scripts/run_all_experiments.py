"""Regenerate every experiment and dump results to a directory.

Writes, for each experiment id:

* ``results/<id>.txt`` — the paper-style result table(s), and
* ``results/<id>.csv`` — the same table as CSV, plus
* ``results/<id>.latency.csv`` — raw latency series where available.

Usage::

    python scripts/run_all_experiments.py [--scale 1.0] [--out results]
                                          [--jobs 4] [--no-cache]

Sweep experiments (fig5, fig7, fig11) fan their independent points
across ``--jobs`` worker processes — results are bit-identical to a
serial run — and memoize finished points in ``<out>/.sweep-cache`` so
a re-run after an interruption (or with unchanged code) only computes
what is missing.
"""

from __future__ import annotations

import argparse
import inspect
import time
from pathlib import Path

from repro.analysis.export import series_to_csv, table_to_csv, write_csv
from repro.experiments import REGISTRY
from repro.parallel import ResultCache, WorkerPool


def _walltime() -> float:
    """Wall-clock seconds, for reporting how long a driver took.

    Scripts are SLK001-exempt by configuration, but the pragma'd helper
    pattern from ``src/repro/__main__.py`` keeps the wall-clock read
    single and auditable here too: it only feeds the per-experiment
    timing footer and never enters simulated results.
    """
    return time.time()  # slackerlint: disable=SLK001


def tables_of(result):
    if hasattr(result, "table"):
        return [result.table()]
    if hasattr(result, "table_11a"):
        return [result.table_11a(), result.table_11b()]
    return []


def latency_series_of(result):
    outcome = getattr(result, "outcome", None)
    if outcome is not None:
        return [t.latency for t in outcome.tenants]
    slacker = getattr(result, "slacker", None)
    if slacker is not None and hasattr(slacker, "tenants"):
        return [t.latency for t in slacker.tenants]
    return []


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", default="results")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of experiment ids")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep experiments "
                             "(0 = all cores; results identical to serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every sweep point (skip the "
                             "on-disk result cache)")
    parser.add_argument("--obs", action="store_true",
                        help="attach the observability runtime to drivers "
                             "that support it; RunReports and span traces "
                             "land in <out>/obs/ (results are bit-identical "
                             "either way)")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = None if args.no_cache else ResultCache(out_dir / ".sweep-cache")
    obs_dir = out_dir / "obs"
    if args.obs:
        obs_dir.mkdir(parents=True, exist_ok=True)

    # One warm worker pool for the whole driver run: workers spawn once
    # (forkserver, repro preloaded) and every sweep reuses them instead
    # of paying executor start-up per experiment.
    pool = WorkerPool(args.jobs) if args.jobs != 1 else None

    ids = args.only or list(REGISTRY)
    try:
        for experiment_id in ids:
            module = REGISTRY[experiment_id]
            started = _walltime()
            # Pass each option only to the drivers that take it: only
            # sweep drivers accept jobs/cache/pool, and stop-and-copy
            # sweeps sizes rather than scaling one tenant.
            parameters = inspect.signature(module.run).parameters
            kwargs = {"scale": args.scale} if "scale" in parameters else {}
            if "jobs" in parameters:
                kwargs["jobs"] = args.jobs
            if "cache" in parameters:
                kwargs["cache"] = cache
            if pool is not None and "pool" in parameters:
                kwargs["pool"] = pool
            if args.obs and "obs_dir" in parameters:
                kwargs["obs_dir"] = str(obs_dir)
            if args.obs and "observe" in parameters:
                kwargs["observe"] = True
            result = module.run(**kwargs)
            elapsed = _walltime() - started

            stem = experiment_id.replace("/", "-")
            tables = tables_of(result)
            text = "\n\n".join(t.render() for t in tables)
            (out_dir / f"{stem}.txt").write_text(text + "\n")
            if tables:
                write_csv(str(out_dir / f"{stem}.csv"), table_to_csv(tables[0]))
            series = latency_series_of(result)
            if series:
                write_csv(
                    str(out_dir / f"{stem}.latency.csv"), series_to_csv(series)
                )
            print(f"{experiment_id:<18} {elapsed:6.1f} s wall -> {out_dir}/{stem}.*")
    finally:
        if pool is not None:
            pool.close()
    if pool is not None and pool.warm_hits:
        print(f"worker pool: {pool.jobs} worker(s), {pool.warm_hits} warm reuse(s)")
    if cache is not None:
        print(
            f"sweep cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"-> {cache.root}"
        )


if __name__ == "__main__":
    main()
