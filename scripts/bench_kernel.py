"""Kernel + sweep benchmark: events/sec and serial-vs-parallel wall time.

Measures two things and appends them to a ``BENCH_kernel.json``
trajectory (one record per invocation, so successive commits build a
perf history):

1. **Kernel microbenchmark** — raw event-loop throughput: N generator
   processes each yielding a chain of timeouts, reported as events/sec.
2. **Reference sweep** — the 4-point Figure 5 sweep (baseline + 4/8/12
   MB/s) run serially and with ``--jobs`` workers, reported as wall
   seconds each plus the speedup.  The cache is disabled for both runs
   so the comparison is honest, and the two results are checked for
   bit-identical latency series before timings are recorded.

Optionally it also times a fleet-scale run:

3. **Fleet drain** (``--fleet``) — the 100-node/1000-tenant drain
   scenario, reported as wall seconds, kernel events/sec, and the
   events the coalesced timers *elided* (the ticks an eager one-event-
   per-tick implementation would have processed on top).

Usage::

    python scripts/bench_kernel.py [--scale 0.5] [--jobs 4]
                                   [--events 200000] [--out BENCH_kernel.json]
                                   [--skip-sweep] [--gate-pct 3]
                                   [--sweep-gate-pct 5] [--fleet]

With ``--gate-pct N`` the run also *gates*: after appending its record
it compares kernel events/sec against the most recent prior record in
the trajectory file and exits non-zero if throughput dropped by more
than N percent.  The benchmark runs with observability disabled, so
this is the backstop that keeps the obs layer's no-op path free.

``--sweep-gate-pct N`` gates parallel dispatch overhead instead: the
warm-pool parallel sweep must finish within N percent of the serial
wall time (on a multi-core box it should beat it outright), so a
regression in pool dispatch, pickling, or worker start-up fails CI.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import time
from pathlib import Path

from repro.experiments import fig5_throttle_sweep, fleet_sweep
from repro.parallel import WorkerPool
from repro.simulation.core import Environment


def _elapsed() -> float:
    """Wall-clock seconds for timing real work (never simulated time).

    Scripts are SLK001-exempt by configuration; the pragma'd helper
    keeps the wall-clock reads single and auditable regardless.
    """
    return time.perf_counter()  # slackerlint: disable=SLK001


def _utc_stamp() -> str:
    return time.strftime(  # slackerlint: disable=SLK001
        "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
    )


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _pump(env: Environment, count: int):
    timeout = env.timeout
    for _ in range(count):
        yield timeout(1.0)


def bench_kernel(total_events: int = 200_000, processes: int = 4) -> dict:
    """Time a pure timeout-chain workload through the event loop."""
    env = Environment()
    per_process = total_events // processes
    for _ in range(processes):
        env.process(_pump(env, per_process))
    started = _elapsed()
    env.run()
    seconds = _elapsed() - started
    # The drained run processed every event it scheduled, so the
    # kernel's processed-event counter is the exact event total.
    events = env.processed_events
    return {
        "processes": processes,
        "events": events,
        "seconds": round(seconds, 4),
        "events_per_sec": round(events / seconds),
    }


def bench_sweep(scale: float, jobs: int, chunksize: int | None = None) -> dict:
    """Time the 4-point Figure 5 sweep serially and with ``jobs`` workers.

    The parallel leg runs twice on one shared :class:`WorkerPool`: the
    first run pays worker start-up (``parallel_cold_seconds``), the
    second reuses the warm workers (``parallel_seconds``) — the number
    a multi-sweep driver actually sees per sweep, and the one the
    ``--sweep-gate-pct`` dispatch-overhead gate judges.
    """
    started = _elapsed()
    serial = fig5_throttle_sweep.run(scale=scale, jobs=1, cache=None)
    serial_seconds = _elapsed() - started

    with WorkerPool(jobs) as pool:
        started = _elapsed()
        fig5_throttle_sweep.run(
            scale=scale, jobs=jobs, cache=None, chunksize=chunksize, pool=pool
        )
        cold_seconds = _elapsed() - started

        started = _elapsed()
        parallel = fig5_throttle_sweep.run(
            scale=scale, jobs=jobs, cache=None, chunksize=chunksize, pool=pool
        )
        parallel_seconds = _elapsed() - started

    for rate, outcome in serial.outcomes.items():
        mine, theirs = outcome, parallel.outcomes[rate]
        if [tuple(p) for p in mine.tenants[0].latency] != [
            tuple(p) for p in theirs.tenants[0].latency
        ]:
            raise AssertionError(
                f"serial and jobs={jobs} sweeps diverged at rate {rate}"
            )
    return {
        "scale": scale,
        "points": len(serial.outcomes),
        "jobs": jobs,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_cold_seconds": round(cold_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 2),
    }


def bench_fleet(nodes: int = 100, tenants: int = 1000) -> dict:
    """Time the fleet drain scenario once, in-process.

    Alongside wall time and events/sec, reports how many tick events
    the coalesced timers elided: ``events + elided_events`` is what the
    same bit-identical trajectory would have cost with one event per
    heartbeat/detector/refill tick.  ``inline_grants`` counts resource
    grants and ``inline_holds`` CPU, disk and wire holds that continued
    in place instead of costing an event.
    """
    points = fleet_sweep.sweep_points(None, nodes=nodes, tenants=tenants)
    drain = next(p for p in points if p.label == "drain")
    started = _elapsed()
    record = fleet_sweep.fleet_point(drain.config, drain.spec, **drain.kwargs)
    seconds = _elapsed() - started
    naive = record.events + record.elided
    return {
        "scenario": "drain",
        "nodes": nodes,
        "tenants": tenants,
        "ok": record.ok,
        "fingerprint": record.fingerprint,
        "sim_end": round(record.sim_end, 3),
        "seconds": round(seconds, 3),
        "events": record.events,
        "events_per_sec": round(record.events / seconds),
        "elided_events": record.elided,
        "inline_grants": record.inline,
        "inline_holds": record.held,
        "event_reduction_pct": round(100.0 * record.elided / naive, 1)
        if naive else 0.0,
    }


def latest_kernel_rate(path: Path) -> float | None:
    """Events/sec from the most recent record in the trajectory file.

    Returns ``None`` when there is no usable prior record (first run,
    missing file, corrupt JSON) so a fresh checkout never fails a gate
    it has no baseline for.
    """
    if not path.is_file():
        return None
    try:
        trajectory = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return None
    for run in reversed(trajectory.get("runs", [])):
        rate = run.get("kernel", {}).get("events_per_sec")
        if isinstance(rate, (int, float)) and rate > 0:
            return float(rate)
    return None


def append_record(path: Path, record: dict) -> dict:
    """Append ``record`` to the trajectory file at ``path``."""
    if path.is_file():
        try:
            trajectory = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            trajectory = {"schema": 1, "runs": []}
    else:
        trajectory = {"schema": 1, "runs": []}
    trajectory.setdefault("runs", []).append(record)
    path.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")
    return trajectory


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--events", type=int, default=200_000,
                        help="timeout events for the kernel microbench")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="database scale for the reference sweep")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel sweep run")
    parser.add_argument("--chunksize", type=int, default=None,
                        help="sweep points per worker dispatch "
                             "(default: auto, ~4 chunks per worker)")
    parser.add_argument("--out", default="BENCH_kernel.json",
                        help="trajectory file to append to")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="only run the kernel microbench")
    parser.add_argument("--note", default=None,
                        help="free-form label stored with the record")
    parser.add_argument("--gate-pct", type=float, default=None,
                        help="fail if kernel events/sec regresses more "
                             "than this percentage vs the latest prior "
                             "record in --out")
    parser.add_argument("--sweep-gate-pct", type=float, default=None,
                        help="fail if the warm-pool parallel sweep takes "
                             "more than this percentage longer than the "
                             "serial run (dispatch-overhead gate)")
    parser.add_argument("--fleet", action="store_true",
                        help="also time the 100-node/1000-tenant fleet "
                             "drain and record events, events/sec, and "
                             "the coalescing event reduction")
    parser.add_argument("--fleet-nodes", type=int, default=100)
    parser.add_argument("--fleet-tenants", type=int, default=1000)
    args = parser.parse_args()

    baseline = (
        latest_kernel_rate(Path(args.out))
        if args.gate_pct is not None else None
    )

    kernel = bench_kernel(total_events=args.events)
    print(
        f"kernel: {kernel['events']} events in {kernel['seconds']:.3f} s "
        f"-> {kernel['events_per_sec']:,} events/sec"
    )

    record = {
        "timestamp": _utc_stamp(),
        "git_rev": _git_rev(),
        # Speedup numbers are meaningless without this: on a 1-core
        # box jobs=4 *cannot* beat serial wall-clock.
        "cpu_count": os.cpu_count(),
        "kernel": kernel,
    }
    if args.note:
        record["note"] = args.note
    if not args.skip_sweep:
        sweep = bench_sweep(
            scale=args.scale, jobs=args.jobs, chunksize=args.chunksize
        )
        if args.chunksize is not None:
            sweep["chunksize"] = args.chunksize
        record["sweep"] = sweep
        print(
            f"sweep:  {sweep['points']} points at scale {sweep['scale']:g}: "
            f"serial {sweep['serial_seconds']:.2f} s, "
            f"jobs={sweep['jobs']} cold {sweep['parallel_cold_seconds']:.2f} s, "
            f"warm {sweep['parallel_seconds']:.2f} s "
            f"-> {sweep['speedup']:.2f}x (bit-identical results)"
        )

    if args.fleet:
        fleet = bench_fleet(nodes=args.fleet_nodes, tenants=args.fleet_tenants)
        record["fleet"] = fleet
        print(
            f"fleet:  {fleet['nodes']}n/{fleet['tenants']}t drain in "
            f"{fleet['seconds']:.1f} s wall "
            f"({fleet['sim_end']:.0f} s simulated): "
            f"{fleet['events']:,} events "
            f"-> {fleet['events_per_sec']:,} events/sec, "
            f"{fleet['elided_events']:,} ticks elided "
            f"({fleet['event_reduction_pct']:g}% fewer events than "
            f"one-event-per-tick), "
            f"{fleet['inline_grants']:,} grants and "
            f"{fleet['inline_holds']:,} holds continued in place"
        )

    append_record(Path(args.out), record)
    print(f"appended to {args.out}")

    if args.sweep_gate_pct is not None and "sweep" in record:
        sweep = record["sweep"]
        overhead_pct = 100.0 * (
            sweep["parallel_seconds"] - sweep["serial_seconds"]
        ) / sweep["serial_seconds"]
        print(
            f"sweep gate: warm parallel {sweep['parallel_seconds']:.2f} s vs "
            f"serial {sweep['serial_seconds']:.2f} s "
            f"({overhead_pct:+.1f}% overhead, limit {args.sweep_gate_pct:g}%)"
        )
        if overhead_pct > args.sweep_gate_pct:
            raise SystemExit(
                f"parallel sweep dispatch overhead {overhead_pct:.1f}% "
                f"(> {args.sweep_gate_pct:g}% allowed)"
            )

    if args.gate_pct is not None:
        if baseline is None:
            print(f"gate: no prior record in {args.out}, nothing to compare")
        else:
            drop_pct = 100.0 * (baseline - kernel["events_per_sec"]) / baseline
            print(
                f"gate: {kernel['events_per_sec']:,} vs baseline "
                f"{baseline:,.0f} events/sec ({drop_pct:+.1f}% drop, "
                f"limit {args.gate_pct:g}%)"
            )
            if drop_pct > args.gate_pct:
                raise SystemExit(
                    f"kernel throughput regressed {drop_pct:.1f}% "
                    f"(> {args.gate_pct:g}% allowed)"
                )


if __name__ == "__main__":
    main()
