"""Tests for migration economics, heartbeats, the CLI, and controller floor."""

import pytest

from repro.__main__ import main
from repro.core import EVALUATION, LatencySla, Slacker
from repro.core.sla import SlaMonitor
from repro.experiments import REGISTRY, scaled_config
from repro.experiments.registry import EXPERIMENTS
from repro.middleware.protocol import Heartbeat
from repro.placement import CostEstimate, CostParameters, MigrationCostBenefit
from repro.resources.units import GB, MB, mb_per_sec
from repro.simulation import Series

TINY = scaled_config(EVALUATION, 32 * MB / EVALUATION.tenant.data_bytes)


def violating_series(rate: float, duration: float = 120.0) -> Series:
    """A latency series where ``rate`` of 10s windows violate p95<=0.5s."""
    s = Series("lat")
    windows = int(duration / 10)
    for w in range(windows):
        bad = (w / max(1, windows - 1)) < rate if windows > 1 else rate > 0
        value = 2.0 if bad else 0.1
        for i in range(10):
            s.append(w * 10 + i, value)
    return s


class TestCostParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostParameters(penalty_per_window=-1)
        with pytest.raises(ValueError):
            CostParameters(window=0)
        with pytest.raises(ValueError):
            CostParameters(horizon=0)


class TestMigrationCostBenefit:
    def make(self, horizon=3600.0):
        sla = LatencySla(percentile=95, bound=0.5)
        return MigrationCostBenefit(
            sla, CostParameters(horizon=horizon, migration_fixed_cost=2.0)
        )

    def test_violation_rate_measured(self):
        cb = self.make()
        series = violating_series(rate=0.5)
        rate = cb.observed_violation_rate(series, 0, 120)
        assert 0.3 <= rate <= 0.7

    def test_clean_series_zero_rate(self):
        cb = self.make()
        rate = cb.observed_violation_rate(violating_series(0.0), 0, 120)
        assert rate == 0.0

    def test_expected_duration(self):
        cb = self.make()
        assert cb.expected_migration_seconds(GB, mb_per_sec(10)) == pytest.approx(
            102.4, rel=0.01
        )
        with pytest.raises(ValueError):
            cb.expected_migration_seconds(GB, 0)
        with pytest.raises(ValueError):
            cb.expected_migration_seconds(-1, 1)

    def test_violating_tenant_worth_migrating(self):
        cb = self.make()
        estimate = cb.estimate(
            violating_series(0.8), now=120, lookback=120,
            data_bytes=GB, expected_rate=mb_per_sec(10), setpoint=0.4,
        )
        assert isinstance(estimate, CostEstimate)
        assert estimate.worthwhile
        assert estimate.net_benefit > 0

    def test_clean_tenant_not_worth_migrating(self):
        cb = self.make()
        estimate = cb.estimate(
            violating_series(0.0), now=120, lookback=120,
            data_bytes=GB, expected_rate=mb_per_sec(10), setpoint=0.4,
        )
        assert not estimate.worthwhile

    def test_setpoint_above_bound_penalizes_migration(self):
        cb = self.make(horizon=600.0)
        common = dict(now=120, lookback=120, data_bytes=GB,
                      expected_rate=mb_per_sec(10))
        gentle = cb.estimate(violating_series(0.3), setpoint=0.4, **common)
        harsh = cb.estimate(violating_series(0.3), setpoint=5.0, **common)
        assert harsh.cost_of_migrating > gentle.cost_of_migrating

    def test_short_horizon_discourages_migration(self):
        long_cb = self.make(horizon=36000.0)
        short_cb = self.make(horizon=60.0)
        series = violating_series(0.5)
        common = dict(now=120, lookback=120, data_bytes=GB,
                      expected_rate=mb_per_sec(10), setpoint=0.4)
        assert long_cb.estimate(series, **common).net_benefit > (
            short_cb.estimate(series, **common).net_benefit
        )


class TestHeartbeats:
    def test_peers_receive_load_reports(self):
        slacker = Slacker(TINY, nodes=["a", "b"])
        slacker.add_tenant(1, node="a", workload=True)
        slacker.cluster.node("a").start_heartbeats(interval=5.0)
        slacker.advance(16.0)
        received = slacker.cluster.node("b").peer_loads
        assert "a" in received
        beat = received["a"]
        assert isinstance(beat, Heartbeat)
        assert beat.tenant_count == 1
        assert 0.0 <= beat.disk_utilization <= 1.0

    def test_double_start_rejected(self):
        slacker = Slacker(TINY, nodes=["a", "b"])
        node = slacker.cluster.node("a")
        node.start_heartbeats(interval=5.0)
        with pytest.raises(RuntimeError):
            node.start_heartbeats(interval=5.0)

    def test_interval_validation(self):
        slacker = Slacker(TINY, nodes=["a", "b"])
        with pytest.raises(ValueError):
            slacker.cluster.node("a").start_heartbeats(interval=0)

    def test_utilization_reflects_activity(self):
        slacker = Slacker(TINY, nodes=["a", "b"])
        slacker.add_tenant(1, node="a", workload=True)
        node_a = slacker.cluster.node("a")
        node_a.start_heartbeats(interval=5.0)
        slacker.cluster.node("b").start_heartbeats(interval=5.0)
        slacker.advance(20.0)
        busy = slacker.cluster.node("b").peer_loads["a"].disk_utilization
        idle = node_a.peer_loads["b"].disk_utilization
        assert busy > idle


class TestControllerFloor:
    def test_min_output_pct_guarantees_progress(self, env):
        from repro.control.window import LatencyWindow
        from repro.migration.controller import (
            ControllerConfig,
            DynamicThrottleController,
        )
        from repro.migration.throttle import Throttle

        throttle = Throttle(env, rate=0.0)
        series = Series("lat")
        config = ControllerConfig(
            setpoint=0.5, max_rate=20 * MB, min_output_pct=5.0
        )
        controller = DynamicThrottleController(
            env, throttle, [LatencyWindow([series])], config
        )

        def hopeless_plant(env):
            # latency is always far above the setpoint
            while True:
                yield env.timeout(0.5)
                series.append(env.now, 30.0)

        env.process(hopeless_plant(env))
        env.process(controller.run())
        env.run(until=60.0)
        assert controller.output_pct >= 5.0
        assert throttle.rate >= 0.05 * 20 * MB

    def test_floor_validation(self):
        from repro.migration.controller import ControllerConfig

        with pytest.raises(ValueError):
            ControllerConfig(setpoint=1, max_rate=1, min_output_pct=100)


class TestAdaptiveNodePath:
    def test_node_config_controller_validation(self):
        from repro.middleware.node import NodeConfig

        with pytest.raises(ValueError):
            NodeConfig(controller="fuzzy")

    def test_adaptive_migration_completes(self):
        from dataclasses import replace

        from repro.middleware.node import NodeConfig

        config = scaled_config(EVALUATION, 0.125)
        slacker = Slacker(config, nodes=["a", "b"])
        # rebuild node config with the adaptive controller
        for node in slacker.cluster.nodes.values():
            node.config = NodeConfig(
                buffer_bytes=config.tenant.buffer_bytes,
                max_migration_rate=config.max_migration_rate,
                chunk_bytes=config.chunk_bytes,
                controller="adaptive",
            )
        slacker.add_tenant(1, node="a", workload=True)
        slacker.advance(5.0)
        result = slacker.migrate(1, "b", setpoint=1.0)
        assert result.downtime < 1.0
        assert slacker.locate(1) == "b"


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in REGISTRY:
            assert eid in out

    def test_descriptions_cover_registry(self):
        assert set(EXPERIMENTS) == set(REGISTRY)
        assert all(description for _, description in EXPERIMENTS.values())

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_single_experiment(self, capsys):
        assert main(["run", "fig6", "--scale", "0.125"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "diverging?" in out
