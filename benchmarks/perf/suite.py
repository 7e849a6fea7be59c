"""Repeat every workload, summarise the runs, and compare two summaries.

Run all four workloads five times each, then trace each once::

    PYTHONPATH=src python -m benchmarks.perf run --seed 42 --out perf.json --trace

Every repeat is a fresh ``benchmarks/perf/run.py`` process, and repeats
go round-robin across workloads, so drift on the host hits every
workload alike.  ``perf.json`` holds, per workload, each end-to-end
metric's median, quartiles, sample count and values, the failure
count, and (when traced) the per-layer metrics.  ``perf_trace.json``
holds the traced runs' spans, per-layer seconds and costliest
functions.  The command exits non-zero if any unit fails or any
workload's fingerprint differs between repeats or between the traced
and untraced runs.

Compare two summaries of the same seed::

    PYTHONPATH=src python -m benchmarks.perf compare A.json B.json

Each end-to-end metric gets one row per workload with both sides'
median and quartiles, judged against its bound in ``BENCHMARK.json``:
``REGRESSION`` when B's median is worse than A's by more than the
bound, ``unresolved`` when either side's spread (interquartile range
over median) is wider than the bound, unless every run of B beats every
run of A.  The deterministic per-layer metrics (all but the time
shares and the tracing overhead) and the unit fingerprints are diffed
exactly.  Exits non-zero on any regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

__all__ = ["ROOT", "summarise", "compare", "main"]

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).with_name("run.py")
#: Fresh processes per workload; summaries compare only at equal counts.
REPEATS = 5

#: Per-layer metrics measured in host time, hence noisy.
_TIMED_SUFFIXES = (".self_frac",)
_TIMED_NAMES = ("trace.overhead",)


def _run_once(workload: str, seed: int, seconds: float, trace: bool, scratch: str):
    detail = os.path.join(scratch, f"{workload}-{int(trace)}.json")
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace)), "--detail", detail],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(detail, encoding="utf-8") as handle:
        return result, json.load(handle)


def summarise(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's runs."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def run_suite(
    seed: int, seconds: float, workloads: list[str], trace: bool
) -> tuple[dict, dict, list[str]]:
    """Run the suite; returns (summary, trace detail, problems)."""
    collected = {
        name: {"metrics": {}, "units": {}, "attempted": 0, "failed": 0, "fingerprints": set()}
        for name in workloads
    }
    traces = {}
    problems = []
    with tempfile.TemporaryDirectory(prefix=".perf-", dir=ROOT) as scratch:
        for repeat in range(REPEATS):
            for name in workloads:
                print(f"[{repeat + 1}/{REPEATS}] {name}", file=sys.stderr, flush=True)
                result, detail = _run_once(name, seed, seconds, False, scratch)
                entry = collected[name]
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["fingerprints"].add(detail["batch_fingerprint"])
                for metric, reading in result["metrics"].items():
                    entry["units"][metric] = reading["unit"]
                    entry["metrics"].setdefault(metric, []).append(reading["value"])
        if trace:
            for name in workloads:
                print(f"[trace] {name}", file=sys.stderr, flush=True)
                result, detail = _run_once(name, seed, seconds, True, scratch)
                entry = collected[name]
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["fingerprints"].add(detail["batch_fingerprint"])
                entry["per_layer"] = result["metrics"]
                traces[name] = detail

    summary = {}
    for name, entry in collected.items():
        if len(entry["fingerprints"]) > 1:
            problems.append(f"{name}: fingerprint differs between runs")
        if entry["failed"]:
            problems.append(f"{name}: {entry['failed']} of {entry['attempted']} units failed")
        summary[name] = {
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "fail_frac": entry["failed"] / entry["attempted"],
            "fingerprints": sorted(entry["fingerprints"]),
            "metrics": {
                metric: {"unit": entry["units"][metric], **summarise(values)}
                for metric, values in entry["metrics"].items()
            },
        }
        if "per_layer" in entry:
            summary[name]["per_layer"] = entry["per_layer"]
    return summary, traces, problems


def _git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=ROOT,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _print_summary(summary: dict) -> None:
    for name, entry in summary.items():
        print(f"{name}: {entry['failed']}/{entry['attempted']} units failed")
        for metric, stats in entry["metrics"].items():
            print(
                f"  {metric:18s} {stats['median']:12.4f} {stats['unit']:6s} "
                f"[{stats['q1']:.4f}, {stats['q3']:.4f}] n={stats['n']}"
            )


# -- compare ------------------------------------------------------------------


def _spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def _is_deterministic(metric: str) -> bool:
    return not (metric.endswith(_TIMED_SUFFIXES) or metric in _TIMED_NAMES)


def compare(a: dict, b: dict, spec: dict) -> tuple[list[dict], list[str], int]:
    """Judge B against A; returns (rows, exact-count diffs, regressions)."""
    rows, diffs, regressions = [], [], 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            diffs.append(f"{name}: missing from B")
            regressions += 1
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        if side_b["fail_frac"] > side_a["fail_frac"]:
            regressions += 1
            rows.append({"workload": name, "metric": "fail_frac",
                         "a": side_a["fail_frac"], "b": side_b["fail_frac"],
                         "verdict": "REGRESSION"})
        if side_a["fingerprints"] != side_b["fingerprints"]:
            diffs.append(f"{name}: fingerprint changed")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            stats_a, stats_b = side_a["metrics"][key], side_b["metrics"][key]
            verdict = _verdict(stats_a, stats_b, metric)
            regressions += verdict == "REGRESSION"
            rows.append({"workload": name, "metric": key, "a": stats_a, "b": stats_b,
                         "bound": metric["bound"], "verdict": verdict})
        layer_a = side_a.get("per_layer", {})
        layer_b = side_b.get("per_layer", {})
        for key in sorted(set(layer_a) & set(layer_b)):
            if _is_deterministic(key) and layer_a[key]["value"] != layer_b[key]["value"]:
                diffs.append(
                    f"{name}.{key}: {layer_a[key]['value']!r} -> {layer_b[key]['value']!r}"
                )
    return rows, diffs, regressions


def _verdict(stats_a: dict, stats_b: dict, metric: dict) -> str:
    lower = metric["better"] == "lower"
    sign = 1.0 if lower else -1.0
    worse_by = sign * (stats_b["median"] - stats_a["median"]) / stats_a["median"]
    worst_b = max(stats_b["values"]) if lower else min(stats_b["values"])
    best_b = min(stats_b["values"]) if lower else max(stats_b["values"])
    worst_a = max(stats_a["values"]) if lower else min(stats_a["values"])
    best_a = min(stats_a["values"]) if lower else max(stats_a["values"])
    b_always_better = sign * (worst_b - best_a) < 0
    b_always_worse = sign * (best_b - worst_a) > 0
    if b_always_better:
        return "better"
    if worse_by > metric["bound"] and b_always_worse:
        return "REGRESSION"
    if max(_spread(stats_a), _spread(stats_b)) > metric["bound"]:
        return "unresolved"
    return "REGRESSION" if worse_by > metric["bound"] else "ok"


def _print_compare(rows: list[dict], diffs: list[str], regressions: int) -> None:
    for row in rows:
        if row["metric"] == "fail_frac":
            print(f"{row['workload']:14s} fail_frac {row['a']:.4f} -> {row['b']:.4f} "
                  f"{row['verdict']}")
            continue
        a, b = row["a"], row["b"]
        change = (b["median"] - a["median"]) / a["median"] * 100.0
        print(
            f"{row['workload']:14s} {row['metric']:16s} "
            f"A {a['median']:11.4f} [{a['q1']:.4f}, {a['q3']:.4f}]  "
            f"B {b['median']:11.4f} [{b['q1']:.4f}, {b['q3']:.4f}]  "
            f"{change:+6.1f}% (bound {row['bound'] * 100:.0f}%)  {row['verdict']}"
        )
    print(f"exact counts: {'identical' if not diffs else f'{len(diffs)} differ'}")
    for diff in diffs:
        print(f"  {diff}")
    print(f"{regressions} regression(s)")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)
    spec = _load(str(ROOT / "BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]

    run = sub.add_parser("run", help="repeat every workload and summarise")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--out", default="perf.json")
    run.add_argument("--trace", action="store_true",
                     help="also trace each workload once, into <out>_trace.json")

    cmp_ = sub.add_parser("compare", help="judge run B against run A")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "compare":
        rows, diffs, regressions = compare(_load(args.a), _load(args.b), spec)
        _print_compare(rows, diffs, regressions)
        return 1 if regressions else 0

    seconds = spec["run_seconds"]
    summary, traces, problems = run_suite(args.seed, seconds, names, args.trace)
    out = Path(args.out)
    payload = {
        "meta": {
            "seed": args.seed,
            "seconds": seconds,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "git_revision": _git_revision(),
        },
        "workloads": summary,
    }
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        trace_out = out.with_name(f"{out.stem}_trace.json")
        trace_out.write_text(json.dumps(traces, indent=1) + "\n", encoding="utf-8")
    _print_summary(summary)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0
