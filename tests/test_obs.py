"""Tests for the observability layer (repro.obs).

Covers the instruments, the sim-time tracer, RunReport serialization,
end-to-end instrumentation through a real migration, the zero-cost /
bit-identity guarantee, and the ``python -m repro.obs summarize`` CLI.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.config import CASE_STUDY
from repro.experiments.chaos_fuzz import fuzz_point
from repro.experiments.common import scaled_config
from repro.experiments.harness import MigrationSpec, run_single_tenant
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
    RunReport,
    Tracer,
    config_fingerprint,
    names,
    read_jsonl,
)
from repro.obs.cli import main as obs_main, summarize_text
from repro.simulation import Environment

TINY = scaled_config(CASE_STUDY, 0.0625, 7)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("x")
        g.set(1.5)
        g.set(0.25)
        assert g.value == 0.25


class TestHistogram:
    def test_bucket_counts_inclusive_upper_bound(self):
        h = Histogram("x", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 2.0, 4.9, 100.0):
            h.observe(v)
        summary = h.summary()
        buckets = dict((str(b), n) for b, n in summary["buckets"])
        assert buckets["1.0"] == 2  # 0.5 and exactly 1.0
        assert buckets["2.0"] == 2  # 1.5 and exactly 2.0
        assert buckets["5.0"] == 1
        assert buckets["+Inf"] == 1
        assert summary["count"] == 6
        assert summary["min"] == 0.5
        assert summary["max"] == 100.0

    def test_mean(self):
        h = Histogram("x", buckets=(10.0,))
        h.observe(1.0)
        h.observe(3.0)
        assert h.mean == pytest.approx(2.0)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=(2.0, 1.0))


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter(names.MIGRATION_PHASES_TOTAL)
        b = reg.counter(names.MIGRATION_PHASES_TOTAL)
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter(names.MIGRATION_PHASES_TOTAL)
        with pytest.raises(TypeError):
            reg.gauge(names.MIGRATION_PHASES_TOTAL)

    def test_suffix_separates_instruments(self):
        reg = MetricsRegistry()
        a = reg.gauge(names.DISK_UTILIZATION, suffix="source")
        b = reg.gauge(names.DISK_UTILIZATION, suffix="target")
        assert a is not b
        a.set(0.5)
        snap = reg.snapshot()
        assert "disk.utilization:source" in snap["gauges"]
        assert "disk.utilization:target" in snap["gauges"]

    def test_snapshot_is_sorted_and_plain(self):
        reg = MetricsRegistry()
        reg.counter(names.TRANSPORT_SENDS_TOTAL).inc()
        reg.counter(names.MIGRATION_PHASES_TOTAL).inc(2)
        snap = reg.snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])
        json.dumps(snap)  # JSON-ready without custom encoders


class TestTracer:
    def test_span_records_sim_time(self):
        env = Environment()
        tracer = Tracer(env)

        def proc():
            with tracer.span(names.MIGRATION_PHASE_SPAN, phase="snapshot"):
                yield env.timeout(2.5)

        env.process(proc())
        env.run()
        (record,) = tracer.to_dicts()
        assert record["name"] == names.MIGRATION_PHASE_SPAN
        assert record["start"] == pytest.approx(0.0)
        assert record["end"] == pytest.approx(2.5)
        assert record["attrs"]["phase"] == "snapshot"

    def test_event_is_zero_length(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.event(names.FAULT_EVENT, kind="crash_node")
        (record,) = tracer.to_dicts()
        assert record["start"] == record["end"]

    def test_end_is_idempotent(self):
        env = Environment()
        tracer = Tracer(env)
        span = tracer.begin(names.MIGRATION_PHASE_SPAN)
        span.end()
        span.end()
        assert len(tracer.to_dicts()) == 1

    def test_finish_closes_dangling_spans(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.begin(names.MIGRATION_PHASE_SPAN, phase="delta")
        tracer.finish()
        (record,) = tracer.to_dicts()
        assert record["attrs"]["unfinished"] is True

    def test_jsonl_roundtrip(self, tmp_path):
        env = Environment()
        tracer = Tracer(env)
        tracer.event(names.FAULT_EVENT, kind="nic_stall", node="target")
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        assert read_jsonl(str(path)) == tracer.to_dicts()


class TestRunReport:
    def test_json_roundtrip(self, tmp_path):
        report = RunReport(
            config_fingerprint=config_fingerprint({"a": 1}, None),
            sim_end=12.5,
            metrics={"counters": {"x": 3}},
            spans=({"name": "s", "start": 0.0, "end": 1.0, "attrs": {}},),
            trace_path="t.jsonl",
        )
        path = tmp_path / "run.report.json"
        report.write(str(path))
        loaded = RunReport.read(str(path))
        assert loaded == report
        assert loaded.counter("x") == 3
        assert loaded.counter("missing") == 0
        assert loaded.spans_named("s") == [dict(report.spans[0])]

    def test_fingerprint_stable_and_sensitive(self):
        assert config_fingerprint({"a": 1}) == config_fingerprint({"a": 1})
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})


class TestEndToEndInstrumentation:
    @pytest.fixture(scope="class")
    def observed(self):
        return run_single_tenant(
            TINY, MigrationSpec.dynamic(1.0), warmup=5.0, observe=True
        )

    def test_migration_phase_spans_recorded(self, observed):
        report = observed.run_report
        spans = report.spans_named(names.MIGRATION_PHASE_SPAN)
        phases = [s["attrs"]["phase"] for s in spans]
        assert "snapshot" in phases and "handover" in phases
        for span in spans:
            assert span["end"] >= span["start"]
        assert report.counter(names.MIGRATION_PHASES_TOTAL) == len(phases) + 1

    def test_handover_freeze_observed(self, observed):
        freeze = observed.run_report.histogram(names.MIGRATION_FREEZE_SECONDS)
        assert freeze["count"] == 1
        assert 0 < freeze["max"] < 5.0

    def test_controller_steps_counted(self, observed):
        report = observed.run_report
        steps = report.counter(names.CONTROLLER_STEPS_TOTAL)
        assert steps > 0
        assert report.histogram(names.CONTROLLER_ERROR_MS)["count"] == steps
        assert report.histogram(names.CONTROLLER_OUTPUT_PCT)["count"] == steps

    def test_transport_accounting_consistent(self, observed):
        report = observed.run_report
        sends = report.counter(names.TRANSPORT_SENDS_TOTAL)
        delivered = report.counter(names.TRANSPORT_DELIVERED_TOTAL)
        assert sends > 0
        assert delivered <= sends
        assert report.counter(names.TRANSPORT_DROPS_TOTAL) == 0

    def test_resource_utilization_sampled(self, observed):
        report = observed.run_report
        disk = report.histogram(names.DISK_UTILIZATION_DIST)
        assert disk["count"] > 0
        assert 0.0 <= disk["min"] and disk["max"] <= 1.0
        gauges = report.metrics["gauges"]
        assert "disk.utilization:source" in gauges
        assert "nic.utilization:target" in gauges

    def test_disabled_run_has_no_report(self):
        outcome = run_single_tenant(
            TINY, MigrationSpec.dynamic(1.0), warmup=5.0
        )
        assert outcome.run_report is None

    def test_observation_is_bit_identical(self, observed):
        """The tentpole guarantee: watching the run must not change it."""
        unobserved = run_single_tenant(
            TINY, MigrationSpec.dynamic(1.0), warmup=5.0, observe=False
        )
        a, b = observed.tenants[0].latency, unobserved.tenants[0].latency
        assert list(a.times) == list(b.times)
        assert list(a.values) == list(b.values)
        assert observed.migration.duration == unobserved.migration.duration
        assert observed.migration.downtime == unobserved.migration.downtime

    def test_trace_written_when_path_given(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        outcome = run_single_tenant(
            TINY,
            MigrationSpec.dynamic(1.0),
            warmup=5.0,
            observe=True,
            obs_trace_path=str(path),
        )
        assert outcome.run_report.trace_path == str(path)
        records = read_jsonl(str(path))
        assert records and all("name" in r for r in records)


class TestChaosObservation:
    def test_fingerprint_unchanged_by_observation(self):
        kwargs = dict(
            config=TINY,
            label="obs-check",
            warmup=3.0,
            run_limit=120.0,
        )
        plain = fuzz_point(**kwargs)
        watched = fuzz_point(observe=True, **kwargs)
        assert watched.fingerprint == plain.fingerprint
        assert replace(watched, report=None) == plain
        assert plain.report is None
        assert watched.report is not None
        assert watched.report.counter(names.TRANSPORT_SENDS_TOTAL) > 0

    def test_fault_activations_surface_in_report(self):
        record = fuzz_point(
            config=TINY,
            label="faulty",
            scheduled=(
                {"at": 4.0, "kind": "nic_stall", "node": "target",
                 "duration": 0.5},
            ),
            warmup=3.0,
            run_limit=120.0,
            observe=True,
        )
        report = record.report
        assert report.counter(names.FAULT_ACTIVATIONS_TOTAL) >= 1
        events = report.spans_named(names.FAULT_EVENT)
        assert any(e["attrs"]["kind"] == "nic_stall" for e in events)


class TestObservabilityRuntime:
    def test_sample_interval_validation(self):
        with pytest.raises(ValueError):
            Observability(Environment(), sample_interval=-1.0)

    def test_abort_counted(self):
        env = Environment()
        obs = Observability(env)

        class FakePhase:
            def __init__(self, value):
                self.value = value

        class FakeEngine:
            name = "tenant-1"

        class FakeMigration:
            source = FakeEngine()

        migration = FakeMigration()
        obs.on_migration_phase(migration, FakePhase("snapshot"))
        obs.on_migration_phase(migration, FakePhase("aborted"))
        assert obs.migration_aborts.value == 1
        assert obs.migration_phases.value == 2
        # the snapshot span was closed by the transition; none dangle
        obs.finish()
        spans = obs.tracer.to_dicts()
        assert len(spans) == 1
        assert "unfinished" not in spans[0]["attrs"]


class TestSummarizeCli:
    def _write_report(self, tmp_path, label="fig12"):
        outcome = run_single_tenant(
            TINY, MigrationSpec.dynamic(1.0), warmup=5.0, observe=True
        )
        path = tmp_path / f"{label}.report.json"
        outcome.run_report.write(str(path))
        return path, outcome.run_report

    def test_summarize_sections(self, tmp_path, capsys):
        path, _ = self._write_report(tmp_path)
        assert obs_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "phase snapshot" in out
        assert "phase handover" in out
        assert "steps=" in out
        assert "sends=" in out
        assert "disk utilization" in out

    def test_summarize_directory(self, tmp_path, capsys):
        self._write_report(tmp_path, label="a")
        self._write_report(tmp_path, label="b")
        assert obs_main(["summarize", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("RunReport") == 2

    def test_summarize_missing_file_fails(self, tmp_path, capsys):
        missing = tmp_path / "nope.report.json"
        assert obs_main(["summarize", str(missing)]) == 2

    def test_summarize_text_labels(self):
        report = RunReport(config_fingerprint="abc123", sim_end=1.0)
        text = summarize_text(report, label="demo")
        assert text.startswith("RunReport demo")
        assert "(no migration phases recorded)" in text
