"""Tests for result export and workload record/replay."""

import json
import random

import pytest

from repro.analysis.export import (
    outcome_to_dict,
    series_to_csv,
    table_to_csv,
    write_csv,
    write_json,
)
from repro.analysis.report import Table
from repro.core import EVALUATION
from repro.experiments import MigrationSpec, run_single_tenant, scaled_config
from repro.resources.units import MB, mb_per_sec
from repro.simulation import Series
from repro.workload.generator import PoissonArrivals
from repro.workload.replay import (
    RecordingArrivals,
    ReplayArrivals,
    load_trace,
    save_trace,
)

TINY = scaled_config(EVALUATION, 32 * MB / EVALUATION.tenant.data_bytes)


class TestTableCsv:
    def test_header_and_rows(self):
        table = Table("T", ["a", "b"])
        table.add_row("x", 1)
        table.add_row("y, z", 2)  # comma must be quoted
        csv_text = table_to_csv(table)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "x,1"
        assert '"y, z"' in lines[2]


class TestSeriesCsv:
    def test_long_form(self):
        s = Series("lat")
        s.append(1.0, 0.25)
        s.append(2.0, 0.5)
        csv_text = series_to_csv([s])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "series,time_s,value"
        assert lines[1].startswith("lat,1.000000,")
        assert len(lines) == 3

    def test_multiple_series(self):
        a, b = Series("a"), Series("b")
        a.append(0.0, 1.0)
        b.append(0.0, 2.0)
        csv_text = series_to_csv([a, b])
        assert csv_text.count("\n") == 3


class TestOutcomeJson:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_single_tenant(TINY, MigrationSpec.fixed(mb_per_sec(8)), warmup=3)

    def test_structure(self, outcome):
        payload = outcome_to_dict(outcome)
        assert payload["spec"]["kind"] == "fixed"
        assert payload["latency"]["samples"] > 0
        assert payload["migration"]["duration_s"] > 0
        assert payload["tenants"][0]["tenant_id"] == 1

    def test_json_serializable(self, outcome):
        text = json.dumps(outcome_to_dict(outcome))
        assert "duration_s" in text

    @pytest.mark.parametrize(
        "spec",
        [
            MigrationSpec.fixed(mb_per_sec(8)),
            MigrationSpec.dynamic(0.5),
            MigrationSpec.fluid(mb_per_sec(8), chunks=4),
            MigrationSpec.on_demand(mb_per_sec(8)),
            MigrationSpec(kind="stop-and-copy"),
            MigrationSpec(kind="dump-reimport"),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_every_migration_kind_exports(self, spec):
        # On-demand outcomes used to crash here (no ``downtime``).
        outcome = run_single_tenant(TINY, spec, warmup=2, cooldown=1)
        migration = json.loads(json.dumps(outcome_to_dict(outcome)))["migration"]
        assert migration["kind"] == spec.method
        assert migration["duration_s"] > 0
        assert migration["downtime_s"] >= 0
        assert migration["total_bytes"] >= TINY.tenant.data_bytes

    def test_baseline_has_no_migration(self):
        outcome = run_single_tenant(
            TINY, MigrationSpec.none(), warmup=2, baseline_duration=5
        )
        assert outcome_to_dict(outcome)["migration"] is None

    def test_file_writers(self, outcome, tmp_path):
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        write_json(str(json_path), outcome_to_dict(outcome))
        write_csv(str(csv_path), series_to_csv([outcome.tenants[0].latency]))
        assert json.loads(json_path.read_text())["spec"]["kind"] == "fixed"
        assert csv_path.read_text().startswith("series,")


class TestRecordReplay:
    def test_recording_preserves_stream(self):
        inner = PoissonArrivals(5.0, random.Random(3))
        recorder = RecordingArrivals(inner)
        gaps = [recorder.next_interarrival() for _ in range(50)]
        assert recorder.gaps == gaps

    def test_replay_is_exact(self):
        inner = PoissonArrivals(5.0, random.Random(3))
        recorder = RecordingArrivals(inner)
        original = [recorder.next_interarrival() for _ in range(50)]
        replay = ReplayArrivals(recorder.gaps)
        assert [replay.next_interarrival() for _ in range(50)] == original

    def test_replay_exhaustion_raises(self):
        replay = ReplayArrivals([0.1])
        replay.next_interarrival()
        with pytest.raises(RuntimeError):
            replay.next_interarrival()

    def test_replay_fallback(self):
        fallback = PoissonArrivals(5.0, random.Random(4))
        replay = ReplayArrivals([0.1], fallback=fallback)
        assert replay.next_interarrival() == 0.1
        assert replay.next_interarrival() > 0  # from the fallback

    def test_negative_gaps_rejected(self):
        with pytest.raises(ValueError):
            ReplayArrivals([-0.1])

    def test_remaining_counter(self):
        replay = ReplayArrivals([0.1, 0.2])
        assert replay.remaining == 2
        replay.next_interarrival()
        assert replay.remaining == 1

    def test_rate_controls_pass_through(self):
        inner = PoissonArrivals(5.0, random.Random(3))
        recorder = RecordingArrivals(inner)
        recorder.scale_rate(2.0)
        assert recorder.rate == pytest.approx(10.0)
        recorder.set_rate(1.0)
        assert inner.rate == 1.0

    def test_save_and_load_trace(self, tmp_path):
        path = tmp_path / "gaps.json"
        save_trace(str(path), [0.1, 0.25, 0.3])
        assert load_trace(str(path)) == [0.1, 0.25, 0.3]

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(ValueError):
            load_trace(str(path))
