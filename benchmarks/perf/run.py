"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root::

    python3 benchmarks/perf/run.py --workload pid-1g --seed 42 --seconds 25 --trace 0

With ``--trace 0`` the units run once to warm up, then back to back as
often as fit in ``--seconds`` (at least :data:`MIN_BATCHES` times).
Host times are normalised to the nominal host while they are measured
(see :mod:`benchmarks.perf.reference`), and the host metrics are
medians over the timed batches.  Every repeat must reproduce each
unit's fingerprint.  Set-up time is the median of
:data:`SETUP_PROBES` fresh interpreters (see :mod:`benchmarks.perf.probe`).

With ``--trace 1`` the units run once to warm up, once untraced and
once under cProfile, and the per-layer split of the traced batch is
reported (see :mod:`benchmarks.perf.layers`).  All three batches must
agree on every fingerprint.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--detail PATH``
also writes the per-unit fingerprints, the batch times and, when
traced, the spans and the costliest functions.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from collections import Counter
from pathlib import Path

if not __package__:
    _ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from repro.resources.units import MB  # noqa: E402
from repro.simulation import Series  # noqa: E402

from benchmarks.perf import layers, units, workloads  # noqa: E402
from benchmarks.perf.reference import HostClock  # noqa: E402

__all__ = ["END_TO_END", "PER_LAYER", "run_workload", "main"]

#: Fewest timed batches per run, however short ``--seconds`` is.
MIN_BATCHES = 4
#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 5
#: Seconds one set-up probe may take before the run is abandoned.
PROBE_TIMEOUT = 60
PROBE = Path(__file__).with_name("probe.py")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "txn_per_s": "txn/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer() -> dict[str, str]:
    out = {}
    for layer in layers.LAYERS:
        out[f"{layer}.self_frac"] = "frac"
        out[f"{layer}.calls_per_txn"] = "calls/txn"
        out[f"{layer}.resumes_per_txn"] = "resumes/txn"
    out.update(
        {
            "simulation.events_per_txn": "events/txn",
            "simulation.elided_events": "count",
            "workload.peak_queue": "count",
            "workload.sim_p99_ms": "sim_ms",
            "db.pool_hit_ratio": "ratio",
            "db.misses_per_txn": "misses/txn",
            "db.dirty_evictions_per_txn": "evictions/txn",
            "db.replica_applied_mb": "MB",
            "resources.disk_busy_frac": "frac",
            "resources.disk_queue_ms_per_txn": "sim_ms/txn",
            "resources.broken_streams": "count",
            "resources.nic_mb": "MB",
            "migration.sim_duration_s": "sim_s",
            "migration.bytes_per_data_byte": "ratio",
            "migration.freeze_ms": "sim_ms",
            "migration.delta_rounds": "count",
            "migration.remote_fetches": "count",
            "migration.cross_hops": "count",
            "control.pid_steps": "count",
            "control.rate_changes": "count",
            "middleware.messages": "count",
            "middleware.delivery_ratio": "ratio",
            "middleware.retries": "count",
            "middleware.timeouts": "count",
            "placement.waves": "count",
            "placement.completed_ratio": "ratio",
            "faults.activations": "count",
            "obs.calls": "count",
            "trace.overhead": "ratio",
        }
    )
    return out


#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = _per_layer()


def _setup_seconds(name: str, seed: int, detail: dict) -> float:
    """Median normalised set-up time over :data:`SETUP_PROBES` fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(PROBE), name, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True,
        )
        samples.append(float(probe.stdout.split()[-1]))
    detail["setup_probes"] = samples
    return statistics.median(samples)


class _Batches:
    """Runs a workload's units and keeps the checks across repeats."""

    def __init__(self, points):
        self.points = points
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Unit label -> fingerprint of its first run.
        self.fingerprints: dict[str, str] = {}
        #: (label, start, end) clock readings of the latest batch's units.
        self.timeline: list[tuple[str, float, float]] = []
        #: Results of the first batch.
        self.first: list[units.UnitResult] = []

    def run(self, capture: units.Capture) -> list[units.UnitResult]:
        """Run every unit once and check it."""
        results = []
        self.timeline = []
        for point in self.points:
            self.attempted += 1
            started = time.perf_counter()
            try:
                result = units.run_unit(point, capture)
            except Exception:  # a crashed unit is a failed unit; keep going
                capture.take()
                self._fail(f"{point.label}: raised\n{traceback.format_exc()}")
                continue
            # A finished unit is one large reference cycle.  Freeing it here
            # makes the heap each unit starts from, and so the peak RSS, the
            # same whenever the collector last ran.
            gc.collect()
            self.timeline.append((result.label, started, time.perf_counter()))
            expected = self.fingerprints.setdefault(result.label, result.fingerprint)
            problems = list(result.violations)
            if result.fingerprint != expected:
                problems.append("fingerprint differs from the first run")
            if problems:
                self._fail(f"{result.label}: {'; '.join(problems)}")
            results.append(result)
        if not self.first:
            self.first = results
        return results

    def warm_up(self, capture: units.Capture) -> None:
        """Run every unit once, untimed, then freeze the heap that survives.

        Lazy imports and first-call caches settle here.  Frozen objects
        (modules, caches, the units) are left out of every later
        collection, so the per-unit collections scan only what a unit
        built.  The caller unfreezes when it is done.
        """
        self.run(capture)
        gc.collect()
        gc.freeze()

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def batch_fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(repr(sorted(self.fingerprints.items())).encode())
        return digest.hexdigest()

    def batch_seconds(self) -> float:
        """Raw host seconds of the latest batch's units."""
        return sum(end - start for _, start, end in self.timeline)


def _p99_ms(results) -> float:
    pooled = Series("latency", values=[v for r in results for v in r.latencies])
    return pooled.percentile(99) * 1000.0


def _sim_duration_s(results) -> float:
    durations = [r.migration_s for r in results if r.migration_s is not None]
    return statistics.fmean(durations) if durations else 0.0


def _measure(batches: _Batches, seconds: float, detail: dict) -> dict:
    """Warm up, then time whole batches until ``seconds`` have passed."""
    started = time.perf_counter()
    timed = []  # (normalised seconds, raw seconds, reference samples)
    with units.Capture() as capture:
        batches.warm_up(capture)
        while True:
            with HostClock() as clock:
                batches.run(capture)
                timed.append(clock.read())
            if len(timed) == MIN_BATCHES:
                # after a fixed count of repeats, so growth across them
                # shows whatever ``seconds`` is
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            elapsed = time.perf_counter() - started
            typical = statistics.median(raw for _, raw, _ in timed)
            if len(timed) >= MIN_BATCHES and elapsed + typical > seconds:
                break
    gc.unfreeze()
    txns =sum(r.txns for r in batches.first)
    batch_s = statistics.median(norm for norm, _, _ in timed)
    detail.update(
        batches=timed,
        txns=txns,
        events=sum(r.counters["events"] for r in batches.first),
    )
    return {"txn_per_s": txns / batch_s, "peak_rss_mb": peak_kb / 1024.0}


def _trace(batches: _Batches, name: str, detail: dict) -> dict:
    with units.Capture() as capture:
        batches.warm_up(capture)  # so both timed batches below run warm
        batches.run(capture)
        untraced = batches.batch_seconds()
        profiler = cProfile.Profile()
        origin = time.perf_counter()
        profiler.enable()
        results = batches.run(capture)
        profiler.disable()
        finished = time.perf_counter()
        traced = batches.batch_seconds()
    gc.unfreeze()
    run_id = uuid.uuid4().hex
    spans = [{"id": 0, "parent": None, "run_id": run_id, "name": name,
              "start": 0.0, "end": finished - origin}]
    spans += [
        {"id": index, "parent": 0, "run_id": run_id, "name": label,
         "start": start - origin, "end": end - origin}
        for index, (label, start, end) in enumerate(batches.timeline, start=1)
    ]
    split = layers.split(pstats.Stats(profiler))
    txns = sum(r.txns for r in results) or 1
    sums = Counter()
    for result in results:
        sums.update(result.counters)
    metrics = {}
    for layer, share in split.self_frac().items():
        metrics[f"{layer}.self_frac"] = share
        metrics[f"{layer}.calls_per_txn"] = split.calls[layer] / txns
        metrics[f"{layer}.resumes_per_txn"] = split.resumes[layer] / txns
    delivered = sums["messages"]
    metrics.update(
        {
            "simulation.events_per_txn": sums["events"] / txns,
            "simulation.elided_events": sums["elided_events"],
            "workload.peak_queue": max(
                (r.counters["peak_queue"] for r in results), default=0
            ),
            "workload.sim_p99_ms": _p99_ms(results),
            "db.pool_hit_ratio": sums["pool_hits"]
            / max(1, sums["pool_hits"] + sums["pool_misses"]),
            "db.misses_per_txn": sums["pool_misses"] / txns,
            "db.dirty_evictions_per_txn": sums["dirty_evictions"] / txns,
            "db.replica_applied_mb": sums["replica_applied_bytes"] / MB,
            "resources.disk_busy_frac": sums["disk_busy_frac"] / max(1, len(results)),
            "resources.disk_queue_ms_per_txn": sums["disk_queue_s"] * 1000.0 / txns,
            "resources.broken_streams": sums["broken_streams"],
            "resources.nic_mb": sums["nic_bytes"] / MB,
            "migration.sim_duration_s": _sim_duration_s(results),
            "migration.bytes_per_data_byte": sums["migrated_bytes"]
            / max(1, sums["data_bytes"]),
            "migration.freeze_ms": sums["downtime_s"] * 1000.0
            / max(1, sums["migrations"]),
            "migration.delta_rounds": sums["delta_rounds"],
            "migration.remote_fetches": sums["remote_fetches"],
            "migration.cross_hops": sums["cross_hops"],
            "control.pid_steps": sums["pid_steps"],
            "control.rate_changes": sums["rate_changes"],
            "middleware.messages": delivered,
            "middleware.delivery_ratio": delivered
            / max(1, delivered + sums["messages_lost"]),
            "middleware.retries": sums["retries"],
            "middleware.timeouts": sums["timeouts"],
            "placement.waves": sums["waves"],
            "placement.completed_ratio": sums["placed"]
            / max(1, sums["placement_attempts"]),
            "faults.activations": sums["fault_activations"],
            "obs.calls": split.calls["obs"],
            "trace.overhead": traced / untraced if untraced else 0.0,
        }
    )
    detail.update(
        {
            "walls": [untraced, traced],
            "spans": spans,
            "layer_seconds": split.seconds,
            "outside_frac": split.outside_frac(),
            "unlayered": split.unlayered,
            "top": [
                {"self_s": s, "function": label, "layer": layer}
                for s, label, layer in split.top
            ],
        }
    )
    return metrics


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, small: bool = False,
    detail_path=None,
) -> dict:
    """Run one workload; returns the result object the CLI prints."""
    batches = _Batches(workloads.build(name, seed, small))
    detail = {"workload": name, "seed": seed, "trace": trace}
    if trace:
        values = _trace(batches, name, detail)
        metrics = {key: {"value": values[key], "unit": PER_LAYER[key]} for key in PER_LAYER}
    else:
        values = _measure(batches, seconds, detail)
        values["setup_s"] = _setup_seconds(name, seed, detail)
        metrics = {key: {"value": values[key], "unit": END_TO_END[key]} for key in END_TO_END}
    detail["fingerprints"] = batches.fingerprints
    detail["batch_fingerprint"] = batches.batch_fingerprint()
    detail["problems"] = batches.problems
    if detail_path is not None:
        Path(detail_path).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for problem in batches.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": batches.failed == 0,
        "attempted": batches.attempted,
        "failed": batches.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", default=None, help="also write per-unit detail JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), detail_path=args.detail
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
