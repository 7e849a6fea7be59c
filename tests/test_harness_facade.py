"""Tests for the experiment harness and the Slacker facade."""

from dataclasses import replace

import pytest

from repro.control.pid import PidGains
from repro.core import EVALUATION, Slacker
from repro.experiments import ext_source_target, harness
from repro.experiments import (
    MigrationSpec,
    RateChange,
    run_single_tenant,
    scaled_config,
)
from repro.resources.units import MB, mb_per_sec

#: A very small config for fast harness tests.
TINY = scaled_config(EVALUATION, 32 * MB / EVALUATION.tenant.data_bytes)


class TestMigrationSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            MigrationSpec(kind="teleport")
        with pytest.raises(ValueError):
            MigrationSpec(kind="fixed")  # needs a rate
        with pytest.raises(ValueError):
            MigrationSpec(kind="dynamic")  # needs a setpoint

    def test_constructors(self):
        assert MigrationSpec.none().kind == "none"
        assert MigrationSpec.fixed(5.0).rate == 5.0
        assert MigrationSpec.dynamic(1.5).setpoint == 1.5


class TestRateChange:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateChange(at=-1, factor=1.4)
        with pytest.raises(ValueError):
            RateChange(at=0, factor=0)


class TestSingleTenantHarness:
    def test_baseline_run(self):
        outcome = run_single_tenant(
            TINY, MigrationSpec.none(), warmup=5, baseline_duration=20
        )
        assert outcome.migration is None
        assert outcome.duration == pytest.approx(20.0)
        assert outcome.mean_latency > 0
        assert len(outcome.pooled_latencies()) > 10

    def test_fixed_migration_run(self):
        outcome = run_single_tenant(
            TINY, MigrationSpec.fixed(mb_per_sec(8)), warmup=5
        )
        assert outcome.migration is not None
        assert outcome.migration.downtime < 1.0
        assert outcome.average_migration_rate > 0
        assert outcome.throttle_series is None  # fixed: no controller trace

    def test_dynamic_migration_records_controller(self):
        outcome = run_single_tenant(TINY, MigrationSpec.dynamic(0.5), warmup=5)
        assert outcome.throttle_series is not None
        assert outcome.controller_latency_series is not None
        assert len(outcome.throttle_series) > 0

    def test_stop_and_copy_kinds(self):
        for kind in ("stop-and-copy", "dump-reimport"):
            outcome = run_single_tenant(
                TINY, MigrationSpec(kind=kind), warmup=2, cooldown=1
            )
            assert outcome.migration.downtime > 0
            assert outcome.migration.kind == kind

    def test_rate_change_applied(self):
        outcome = run_single_tenant(
            TINY,
            MigrationSpec.none(),
            warmup=2,
            baseline_duration=20,
            rate_change=RateChange(at=5.0, factor=3.0),
        )
        first = len(outcome.tenants[0].latency.window_values(
            outcome.window_start, outcome.window_start + 5))
        second = len(outcome.tenants[0].latency.window_values(
            outcome.window_start + 5, outcome.window_end))
        # 3x the arrivals in 3x the window: clearly more completions
        assert second > 1.5 * first

    def test_percentiles_and_stddev(self):
        outcome = run_single_tenant(
            TINY, MigrationSpec.none(), warmup=2, baseline_duration=15
        )
        assert outcome.latency_percentile(99) >= outcome.latency_percentile(50)
        assert outcome.latency_stddev >= 0

    def test_deterministic_given_seed(self):
        a = run_single_tenant(TINY, MigrationSpec.none(), warmup=2,
                              baseline_duration=10)
        b = run_single_tenant(TINY, MigrationSpec.none(), warmup=2,
                              baseline_duration=10)
        assert a.mean_latency == b.mean_latency

    def test_different_seeds_differ(self):
        a = run_single_tenant(TINY, MigrationSpec.none(), warmup=2,
                              baseline_duration=10)
        b = run_single_tenant(TINY.with_seed(7), MigrationSpec.none(), warmup=2,
                              baseline_duration=10)
        assert a.mean_latency != b.mean_latency


class TestMultiTenantHarness:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_single_tenant(TINY, MigrationSpec.none(), num_tenants=0)
        with pytest.raises(ValueError):
            run_single_tenant(TINY, MigrationSpec.none(), migrate_tenant_id=9,
                              num_tenants=3)
        with pytest.raises(ValueError):
            run_single_tenant(TINY, MigrationSpec.none(), num_tenants=2,
                              per_tenant_rate=[1.0])

    def test_three_tenants_one_migrates(self):
        outcome = run_single_tenant(
            TINY, MigrationSpec.fixed(mb_per_sec(8)), num_tenants=3,
            warmup=5,
        )
        assert len(outcome.tenants) == 3
        assert outcome.migration is not None
        for tenant in outcome.tenants:
            assert tenant.completed > 0

    def test_pooled_latencies_cover_all_tenants(self):
        outcome = run_single_tenant(
            TINY, MigrationSpec.none(), num_tenants=2, warmup=2,
            baseline_duration=15,
        )
        pooled = len(outcome.pooled_latencies())
        per_tenant = sum(
            len(t.window_latencies(outcome.window_start, outcome.window_end))
            for t in outcome.tenants
        )
        assert pooled == per_tenant


class TestSlackerFacade:
    def test_end_to_end_dynamic_migration(self):
        slacker = Slacker(TINY, nodes=["a", "b"])
        slacker.add_tenant(1, node="a", workload=True)
        slacker.advance(5.0)
        result = slacker.migrate(1, "b", setpoint=0.5)
        assert slacker.locate(1) == "b"
        assert result.downtime < 1.0
        assert len(slacker.latency_series(1)) > 0

    def test_fixed_migration(self):
        slacker = Slacker(TINY, nodes=["a", "b"])
        slacker.add_tenant(1, node="a", workload=True)
        slacker.advance(2.0)
        result = slacker.migrate(1, "b", fixed_rate=mb_per_sec(8))
        assert result.average_rate == pytest.approx(mb_per_sec(8), rel=0.5)

    def test_tenant_without_workload(self):
        slacker = Slacker(TINY, nodes=["a", "b"])
        slacker.add_tenant(2, node="a")
        with pytest.raises(KeyError):
            slacker.client(2)
        with pytest.raises(KeyError):
            slacker.scale_workload(2, 2.0)

    def test_delete_tenant(self):
        slacker = Slacker(TINY, nodes=["a", "b"])
        slacker.add_tenant(1, node="a", workload=True)
        slacker.advance(2.0)
        slacker.delete_tenant(1)
        assert slacker.locate(1) is None

    def test_migrate_unknown_tenant(self):
        slacker = Slacker(TINY, nodes=["a", "b"])
        with pytest.raises(KeyError):
            slacker.migrate(99, "b", setpoint=1.0)

    def test_scale_workload(self):
        slacker = Slacker(TINY, nodes=["a", "b"])
        slacker.add_tenant(1, node="a", workload=True)
        slacker.advance(5.0)
        before = slacker.client(1).stats.arrived
        slacker.scale_workload(1, 5.0)
        slacker.advance(5.0)
        after = slacker.client(1).stats.arrived - before
        assert after > 2 * before

    def test_advance_validation(self):
        slacker = Slacker(TINY)
        with pytest.raises(ValueError):
            slacker.advance(-1)

    def test_node_names(self):
        slacker = Slacker(TINY, nodes=["z", "a"])
        assert slacker.node_names() == ["a", "z"]


class TestConfigGains:
    """Every cluster a driver builds takes its PID gains from the config."""

    GAINS = PidGains(kp=0.05, ki=0.01, kd=0.2)

    def test_facade_nodes_carry_config_gains(self):
        slacker = Slacker(replace(TINY, gains=self.GAINS), nodes=["a", "b"])
        for node in slacker.cluster.nodes.values():
            assert node.config.gains == self.GAINS

    def test_ext_source_target_nodes_carry_config_gains(self, monkeypatch):
        built = []

        def spy(*args, **kwargs):
            built.append(harness._build_cluster(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(ext_source_target, "_build_cluster", spy)
        ext_source_target._run_variant(
            replace(TINY, gains=self.GAINS), setpoint=1.0, both_ends=True, warmup=1.0
        )
        [cluster] = built
        for node in cluster.nodes.values():
            assert node.config.gains == self.GAINS
