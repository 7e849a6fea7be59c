"""Self-tests of the benchmark, on tiny versions of its workloads.

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import pytest

from benchmarks.perf import layers, run, suite, units

SPEC = json.loads((suite.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _small(name, trace, tmp_path=None, seed=7):
    detail = None if tmp_path is None else tmp_path / f"{name}-{int(trace)}.json"
    result = run.run_workload(name, seed, 0.01, trace, small=True, detail_path=detail)
    if detail is None:
        return result, None
    return result, json.loads(detail.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One small traced run of every workload: name -> (result, detail)."""
    tmp = tmp_path_factory.mktemp("traced")
    return {name: _small(name, True, tmp) for name in WORKLOADS}


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    """One small untraced run of every workload: name -> (result, detail)."""
    tmp = tmp_path_factory.mktemp("untraced")
    return {name: _small(name, False, tmp) for name in WORKLOADS}


def test_spec_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert set(WORKLOADS) == set(run.workloads.WORKLOADS)


def test_untraced_run_emits_every_end_to_end_metric(untraced):
    for name, (result, detail) in untraced.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, name
        # one warm-up batch, then at least MIN_BATCHES timed ones
        assert result["attempted"] >= (run.MIN_BATCHES + 1) * len(detail["fingerprints"])
        for metric in SPEC["end_to_end"]:
            reading = result["metrics"][metric["name"]]
            assert reading["unit"] == metric["unit"]
            assert reading["value"] > 0, (name, metric["name"])


def test_traced_run_emits_every_per_layer_metric(traced):
    for name, (result, _) in traced.items():
        assert result["correct"], name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER


def test_layer_shares_cover_all_repro_time(traced):
    for name, (result, detail) in traced.items():
        assert detail["unlayered"] == [], name
        shares = sum(result["metrics"][f"{layer}.self_frac"]["value"] for layer in layers.LAYERS)
        assert shares == pytest.approx(1.0, abs=0.01), name
        assert result["metrics"]["obs.calls"]["value"] == 0, name


def test_layer_call_counts_repeat_exactly(traced):
    again, _ = _small("chaos-fuzz", True)
    first, _ = traced["chaos-fuzz"]
    for key, reading in first["metrics"].items():
        if suite._is_deterministic(key):
            assert again["metrics"][key]["value"] == reading["value"], key


def test_traced_and_untraced_fingerprints_agree(traced, untraced):
    for name in WORKLOADS:
        assert untraced[name][1]["fingerprints"] == traced[name][1]["fingerprints"], name


def _tamper(monkeypatch, how):
    """Make ``units.execute`` hand back a damaged record."""
    real = units.execute
    calls = {"n": 0}

    def execute(task, config, spec, kwargs):
        record = real(task, config, spec, kwargs)
        calls["n"] += 1
        if how == "no-migration":
            return replace(record, migration=None)
        if calls["n"] > 1:  # every run after the first drifts
            record.tenants[0].latency.values[0] += 1.0
        return record

    monkeypatch.setattr(units, "execute", execute)


@pytest.mark.parametrize("how", ["no-migration", "fingerprint-drift"])
def test_a_tampered_unit_counts_as_failed(monkeypatch, how):
    _tamper(monkeypatch, how)
    result = run.run_workload("pid-1g", 7, 0.01, True, small=True)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def _summary(worse=None, by=0.0):
    """A one-workload summary with metric ``worse`` made worse by share ``by``."""
    base = [10.0, 10.2, 10.1, 9.9, 10.0]
    metrics = {}
    for metric in SPEC["end_to_end"]:
        factor = 1.0
        if metric["name"] == worse:
            factor = 1.0 + by if metric["better"] == "lower" else 1.0 - by
        values = [v * factor for v in base]
        metrics[metric["name"]] = {"unit": metric["unit"], **suite.summarise(values)}
    workload = {"attempted": 10, "failed": 0, "fail_frac": 0.0,
                "fingerprints": ["f"], "metrics": metrics}
    return {"workloads": {"pid-1g": workload}}


def test_compare_passes_identical_runs():
    base = _summary()
    rows, diffs, regressions = suite.compare(base, copy.deepcopy(base), SPEC)
    assert regressions == 0 and diffs == []
    assert {row["verdict"] for row in rows} == {"ok"}


@pytest.mark.parametrize("metric", SPEC["end_to_end"], ids=lambda m: m["name"])
def test_compare_applies_each_bound(metric):
    name, bound = metric["name"], metric["bound"]
    rows, _, regressions = suite.compare(_summary(), _summary(name, 2 * bound), SPEC)
    assert regressions == 1
    (row,) = [row for row in rows if row["metric"] == name]
    assert row["verdict"] == "REGRESSION"
    _, _, regressions = suite.compare(_summary(), _summary(name, bound / 2), SPEC)
    assert regressions == 0
