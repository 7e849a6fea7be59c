"""The seeded chaos fuzzer: plans, invariants, shrinking, reproducers."""

import json
import pickle
from pathlib import Path

import pytest

from repro.core.config import CASE_STUDY
from repro.experiments.chaos_fuzz import (
    FUZZ_TASK,
    FuzzRecord,
    _atoms,
    _without,
    fuzz_point,
    fuzz_points,
    generate_plan,
    main,
    plan_points,
    reproducer,
    run,
    shrink,
)
from repro.faults.invariants import plan_from_kwargs
from repro.experiments.common import scaled_config
from repro.parallel import SweepRunner

#: The config every CLI/CI fuzz run uses at this scale and seed; the
#: broken-fencing tests below rely on schedule 5's known violation.
CFG = scaled_config(CASE_STUDY, 0.0625, 42)

#: Schedule seed whose plan (with fencing disabled) is known to commit
#: a handover under an expired lease — the fuzzer's self-test fixture.
BROKEN_SEED = 5

#: The scenario library: fixed plans in the reproducer format.
PLANS = Path(__file__).parent / "chaos_plans"

#: Scenario label -> (expected outcome, a counter that is positive only
#: if the plan's fault fired; None for the fault-free baseline).
SCENARIOS = {
    "baseline": ("completed", None),
    "drop-05": ("completed", "messages_dropped"),
    "drop-20": ("completed", "messages_duplicated"),
    "dup-delay": ("completed", "messages_delayed"),
    "crash-target": ("aborted", "faults_node_crashes"),
    "abort-backup": ("aborted", "faults_backup_aborts"),
    "nic-collapse": ("completed", "faults_nic_rate_collapses"),
    "oneway-target-source": ("aborted", "messages_dropped_partition"),
    "split-mid-migration": ("aborted", "messages_dropped_partition"),
    "flap-source-target": ("completed", "messages_dropped_partition"),
    "gray-target": ("completed", "faults_gray_drops"),
    "stall-source": ("completed", "faults_disk_stalls"),
}


def _run(point):
    return fuzz_point(point.config, point.spec, **point.kwargs)


class TestPlanGeneration:
    def test_plans_are_pure_functions_of_the_seed(self):
        assert generate_plan(7) == generate_plan(7)
        assert any(generate_plan(i) != generate_plan(0) for i in range(1, 6))

    def test_generated_plans_are_valid_and_picklable(self):
        for seed in range(30):
            kwargs = generate_plan(seed)
            plan = plan_from_kwargs(
                kwargs["messages"], kwargs["scheduled"], kwargs["partitions"]
            )
            pickle.dumps(kwargs)  # must cross the worker-pool boundary
            for fault in plan.partitions:
                names = {fault.src, fault.dst, fault.node} | {
                    n for group in fault.groups for n in group
                }
                assert names <= {"", "source", "target", "controller"}

    def test_source_never_crashes(self):
        # A crashed source takes the migration driver down with it —
        # that is the fleet healer's experiment, not a fuzzable fault.
        for seed in range(60):
            for fault in generate_plan(seed)["scheduled"]:
                if fault["kind"] == "crash_node":
                    assert fault["node"] == "target"

    def test_fuzz_points_wrap_the_plans(self):
        points = fuzz_points(3, scale=0.0625, seed=42, first_schedule=10)
        assert [p.label for p in points] == [
            "fuzz-0010", "fuzz-0011", "fuzz-0012",
        ]
        for point in points:
            assert point.task == FUZZ_TASK
            assert point.kwargs["schedule_seed"] >= 10
            pickle.dumps(point.kwargs)


class TestAtoms:
    KWARGS = {
        "messages": {"drop_prob": 0.1},
        "scheduled": ({"at": 3.0, "kind": "abort_backup", "node": "source"},),
        "partitions": (
            {"at": 2.0, "duration": 1.0, "kind": "oneway",
             "src": "source", "dst": "target"},
        ),
        "controller_down": (4.0, 2.0),
    }

    def test_every_fault_is_one_atom(self):
        atoms = _atoms(
            self.KWARGS["messages"],
            self.KWARGS["scheduled"],
            self.KWARGS["partitions"],
            self.KWARGS["controller_down"],
        )
        assert atoms == [
            ("messages", None),
            ("scheduled", 0),
            ("partitions", 0),
            ("controller_down", None),
        ]

    def test_without_removes_exactly_one_atom(self):
        out = _without(self.KWARGS, ("messages", None))
        assert out["messages"] is None and out["scheduled"]
        out = _without(self.KWARGS, ("scheduled", 0))
        assert out["scheduled"] == () and out["messages"]
        out = _without(self.KWARGS, ("controller_down", None))
        assert out["controller_down"] is None
        # The original is never mutated.
        assert self.KWARGS["controller_down"] == (4.0, 2.0)


class TestFuzzRuns:
    def test_smoke_batch_holds_every_invariant(self):
        records = run(schedules=12, scale=0.0625, seed=42)
        assert len(records) == 12
        for record in records.values():
            assert record.ok, (record.label, record.violations)
            assert record.outcome in ("completed", "aborted", "skipped")
        # The space is genuinely adversarial: some schedules force the
        # migration to roll back, others let it through.
        outcomes = {r.outcome for r in records.values()}
        assert "completed" in outcomes and "aborted" in outcomes

    def test_replay_is_bit_identical(self):
        kwargs = generate_plan(3)
        first = fuzz_point(CFG, label="replay", schedule_seed=3, **kwargs)
        second = fuzz_point(CFG, label="replay", schedule_seed=3, **kwargs)
        assert first.fingerprint == second.fingerprint
        assert first.counters == second.counters
        assert first.sim_end == second.sim_end

    def test_identical_fingerprints_on_rerun(self):
        # A fixed message-fault plan from the scenario library, run twice
        # in one process: the whole record, fingerprint included, repeats.
        (point,) = plan_points(PLANS / "drop-20.json")
        first = _run(point)
        second = _run(point)
        assert first.fingerprint == second.fingerprint
        assert first == second

    def test_different_seed_different_fingerprint(self):
        kwargs = generate_plan(3)
        first = fuzz_point(CFG, label="seeded", schedule_seed=3, **kwargs)
        second = fuzz_point(
            CFG.with_seed(CFG.seed + 1), label="seeded", schedule_seed=3, **kwargs
        )
        assert first.fingerprint != second.fingerprint

    def test_parallel_agrees_with_serial(self):
        points = [
            point
            for name in ("drop-20", "abort-backup")
            for point in plan_points(PLANS / f"{name}.json")
        ]
        serial = SweepRunner(jobs=1).run(points)
        parallel = SweepRunner(jobs=2).run(points)
        assert serial == parallel  # frozen dataclasses: full equality
        for record in serial:
            assert record.ok, record.violations

    def test_record_counter_lookup(self):
        record = FuzzRecord(
            label="x",
            schedule_seed=0,
            outcome="completed",
            violations=(),
            fingerprint="f",
            atoms=0,
            counters=(("a", 1.0),),
            sim_end=1.0,
        )
        assert record.ok and record.counter("a") == 1.0
        assert record.report is None
        with pytest.raises(KeyError):
            record.counter("missing")


@pytest.mark.parametrize(
    "path", sorted(PLANS.glob("*.json")), ids=lambda path: path.stem
)
def test_scenario_plan(path):
    [point] = plan_points(path)
    outcome, counter = SCENARIOS[point.label]
    record = _run(point)
    assert record.outcome == outcome
    assert record.ok, record.violations
    if counter is None:
        assert all(v == 0 for k, v in record.counters if k.startswith("faults_"))
    else:
        assert record.counter(counter) > 0


class TestPlanFiles:
    def test_library_covers_the_scenarios(self):
        points = plan_points(PLANS)
        assert sorted(p.label for p in points) == sorted(SCENARIOS)
        assert [p.label for p in points] == sorted(p.stem for p in PLANS.glob("*.json"))
        for point in points:
            assert point.task == FUZZ_TASK
            assert point.kwargs["label"] == point.label
            assert "observe" not in point.kwargs
            pickle.dumps(point.kwargs)
        watched = plan_points(PLANS / "baseline.json", observe=True)
        assert watched[0].kwargs["observe"] is True

    def test_missing_plans_are_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no plan files"):
            plan_points(tmp_path)


class TestOrphanedSends:
    """A send whose waiter is interrupted (the lease-renew loop stopped
    by "migration finished") runs on alone; if it then gives up, its
    DeliveryError must be counted, not escape ``Environment.run``."""

    @pytest.mark.parametrize(
        ("schedule", "fluid_chunks"),
        [(195, 0), (320, 8), (317, 0), (407, 0), (442, 0), (355, 8), (618, 8)],
        ids=["live", "fluid", "live-317", "live-407", "live-442", "fluid-355", "fluid-618"],
    )
    def test_schedule_finishes(self, schedule, fluid_chunks):
        [point] = fuzz_points(
            1, first_schedule=schedule, fluid_chunks=fluid_chunks
        )
        record = fuzz_point(point.config, point.spec, **point.kwargs)
        assert record.ok, record.violations


class TestBrokenFencingSelfTest:
    """The acceptance gate: a deliberately broken fencing check must be
    caught by the invariant suite and shrunk to a minimized reproducer."""

    def _broken_kwargs(self):
        kwargs = dict(generate_plan(BROKEN_SEED))
        kwargs["break_fencing"] = True
        return kwargs

    def test_violation_is_caught(self):
        record = fuzz_point(
            CFG, label="broken", schedule_seed=BROKEN_SEED, **self._broken_kwargs()
        )
        assert not record.ok
        assert any("invalid lease token" in v for v in record.violations)
        # The same schedule with fencing intact is healthy.
        healthy = fuzz_point(
            CFG, label="fixed", schedule_seed=BROKEN_SEED,
            **generate_plan(BROKEN_SEED),
        )
        assert healthy.ok, healthy.violations

    def test_shrinks_to_a_one_atom_reproducer(self):
        kwargs = self._broken_kwargs()
        minimal, record, runs = shrink(CFG, kwargs)
        assert not record.ok
        assert record.atoms == 1
        assert runs >= 2  # at least the initial run plus one trial
        # The surviving atom is the renewal-starving partition: the
        # source->controller cut that lets the lease run out.
        assert minimal["messages"] is None
        assert minimal["scheduled"] == ()
        [partition] = minimal["partitions"]
        assert (partition["kind"], partition["src"], partition["dst"]) == (
            "oneway", "source", "controller",
        )

    def test_shrink_refuses_a_healthy_plan(self):
        with pytest.raises(ValueError, match="violating plan"):
            shrink(CFG, dict(generate_plan(BROKEN_SEED)))

    def test_reproducer_payload_replays(self):
        kwargs = self._broken_kwargs()
        record = fuzz_point(
            CFG, label="broken", schedule_seed=BROKEN_SEED, **kwargs
        )
        minimal, min_record, _ = shrink(CFG, kwargs)
        payload = reproducer(CFG, record, kwargs, minimal, min_record, 0.0625)
        json.dumps(payload)  # must serialize as the CI artifact
        assert payload["schedule_seed"] == BROKEN_SEED
        assert payload["minimal_atoms"] == 1
        assert payload["minimal_atoms"] <= payload["original_atoms"]
        assert f"--first-schedule {BROKEN_SEED}" in payload["replay"]
        assert payload["minimal_plan"]["break_fencing"] is True
        assert payload["violations"] == list(min_record.violations)

    def test_reproducer_replays_through_the_plan_loader(self, tmp_path, capsys):
        kwargs = self._broken_kwargs()
        record = fuzz_point(
            CFG, label="broken", schedule_seed=BROKEN_SEED, **kwargs
        )
        minimal, min_record, _ = shrink(CFG, kwargs)
        payload = reproducer(CFG, record, kwargs, minimal, min_record, 0.0625)
        path = tmp_path / "broken.repro.json"
        path.write_text(json.dumps(payload))
        [point] = plan_points(path)
        assert point.label == "broken"
        replayed = _run(point)
        assert not replayed.ok
        assert list(replayed.violations) == payload["violations"]
        assert replayed.fingerprint == payload["fingerprint"]
        # The CLI fails on it again, serial replay included.
        assert main(["--plan", str(path), "--check"]) == 1
        assert "invalid lease token" in capsys.readouterr().out
