"""Command-line entry point: run the paper's experiments by id.

Usage::

    python -m repro list                 # show available experiments
    python -m repro run fig5             # regenerate one figure
    python -m repro run fig11 --scale .5 # faster, shape-preserving
    python -m repro run all              # everything (a few minutes)
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from .experiments.registry import EXPERIMENTS, REGISTRY


def _walltime() -> float:
    """Wall-clock seconds, for reporting how long a driver took.

    This is the one sanctioned wall-clock read in the package: it only
    feeds the human-facing "[figN: 12.3 s wall]" footer and never enters
    simulated results, so the linter exception stays scoped to this
    helper rather than allowlisting the whole module.
    """
    return time.time()  # slackerlint: disable=SLK001


def _render(experiment_id: str, result) -> str:
    if hasattr(result, "table"):
        return result.table().render()
    if hasattr(result, "table_11a"):
        return result.table_11a().render() + "\n\n" + result.table_11b().render()
    return repr(result)


def cmd_list() -> int:
    width = max(len(eid) for eid in EXPERIMENTS)
    for eid, (_, description) in EXPERIMENTS.items():
        print(f"  {eid.ljust(width)}  {description}")
    return 0


def cmd_run(
    experiment_ids: list[str],
    scale: float,
    seed: int | None,
    config_path: str | None = None,
    jobs: int = 1,
) -> int:
    if experiment_ids == ["all"]:
        experiment_ids = list(REGISTRY)
    unknown = [eid for eid in experiment_ids if eid not in REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use `python -m repro list`", file=sys.stderr)
        return 2
    config = None
    if config_path is not None:
        from .core.configfile import ConfigFileError, load_config

        try:
            config = load_config(config_path)
        except ConfigFileError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    # Sweep drivers dispatch their points through the SweepRunner; with
    # --jobs they share one warm WorkerPool for the whole command, so
    # `run all --jobs 4` spawns workers once, not once per figure.
    pool = None
    if jobs != 1:
        from .parallel import WorkerPool

        pool = WorkerPool(jobs)
    try:
        for eid in experiment_ids:
            module = REGISTRY[eid]
            started = _walltime()
            kwargs = {}
            parameters = inspect.signature(module.run).parameters
            # stop-and-copy sweeps sizes rather than scaling one tenant
            if "scale" in parameters:
                kwargs["scale"] = scale
            if seed is not None:
                kwargs["seed"] = seed
            if config is not None:
                kwargs["config"] = config
            if jobs != 1 and "jobs" in parameters:
                kwargs["jobs"] = jobs
            if pool is not None and "pool" in parameters:
                kwargs["pool"] = pool
            result = module.run(**kwargs)
            print(_render(eid, result))
            print(f"[{eid}: {_walltime() - started:.1f} s wall]\n")
    finally:
        if pool is not None:
            pool.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Slacker (EDBT 2012) reproduction: run paper experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runner = sub.add_parser("run", help="run experiments by id (or 'all')")
    runner.add_argument("experiments", nargs="+", metavar="ID")
    runner.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="database-size scale factor (default 1.0 = the paper's 1 GB)",
    )
    runner.add_argument(
        "--seed", type=int, default=None, help="override the preset RNG seed"
    )
    runner.add_argument(
        "--config",
        default=None,
        help="TOML config file overriding the experiment preset",
    )
    runner.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep experiments (0 = all cores; "
        "one warm pool is shared across the whole command and results "
        "are bit-identical to serial)",
    )
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    return cmd_run(args.experiments, args.scale, args.seed, args.config, args.jobs)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
