"""SweepRunner: serial/parallel bit-identity, ordering, and caching.

The paper-shape claims all rest on seed-determinism, so the parallel
fan-out must be *invisible* in the results: ``jobs=1`` and ``jobs=N``
have to agree to the last bit, and a cache hit has to reproduce the
record a live run would have produced.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.config import CASE_STUDY
from repro.experiments import fig5_throttle_sweep
from repro.experiments.common import scaled_config
from repro.parallel import (
    PointRecord,
    ResultCache,
    SweepPoint,
    SweepRunner,
    WorkerPool,
    code_fingerprint,
    point_key,
    resolve_jobs,
    resolve_task,
)

SCALE = 0.125


@pytest.fixture(scope="module")
def points():
    """A small Figure 5 sweep: baseline + 4 and 8 MB/s throttles."""
    cfg = scaled_config(CASE_STUDY, SCALE, None)
    return fig5_throttle_sweep.sweep_points(cfg, scale=SCALE, rates_mb=(4, 8))


@pytest.fixture(scope="module")
def serial_records(points):
    return SweepRunner(jobs=1).run(points)


def latency_series(record):
    return [tuple(sample) for sample in record.tenants[0].latency]


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_bit_identical_records(self, points, serial_records, jobs):
        parallel_records = SweepRunner(jobs=jobs).run(points)
        assert len(parallel_records) == len(serial_records)
        for serial, parallel in zip(serial_records, parallel_records):
            assert isinstance(parallel, PointRecord)
            assert latency_series(serial) == latency_series(parallel)
            assert serial.mean_latency == parallel.mean_latency
            assert serial.latency_stddev == parallel.latency_stddev
            assert serial == parallel  # full dataclass equality

    def test_identical_summary_tables(self, points, serial_records):
        parallel = SweepRunner(jobs=2).run_labelled(points)
        serial = {p.label: r for p, r in zip(points, serial_records)}
        table_serial = fig5_throttle_sweep.Fig5Result(outcomes=serial).table()
        table_parallel = fig5_throttle_sweep.Fig5Result(outcomes=parallel).table()
        assert table_serial.render() == table_parallel.render()

    def test_result_order_matches_point_order(self, points, serial_records):
        labelled = SweepRunner(jobs=2).run_labelled(points)
        assert list(labelled) == [p.label for p in points]


class TestResultCache:
    def test_miss_then_hit_round_trips_records(self, points, serial_records, tmp_path):
        cache = ResultCache(tmp_path / "sweep")
        first = SweepRunner(jobs=1, cache=cache).run(points)
        assert cache.misses == len(points)
        assert cache.hits == 0
        assert len(cache) == len(points)

        rerun_cache = ResultCache(tmp_path / "sweep")
        second = SweepRunner(jobs=1, cache=rerun_cache).run(points)
        assert rerun_cache.hits == len(points)
        assert rerun_cache.misses == 0
        assert second == first == serial_records

    def test_partial_hits_only_compute_missing_points(self, points, tmp_path):
        cache = ResultCache(tmp_path / "sweep")
        SweepRunner(jobs=1, cache=cache).run(points[:1])
        followup = ResultCache(tmp_path / "sweep")
        SweepRunner(jobs=1, cache=followup).run(points)
        assert followup.hits == 1
        assert followup.misses == len(points) - 1

    def test_key_changes_with_config_spec_kwargs_and_code(self, points):
        base = points[1]
        fingerprint = code_fingerprint()
        key = base.cache_key(fingerprint)
        assert key != points[0].cache_key(fingerprint)  # different spec
        assert key != points[2].cache_key(fingerprint)  # different rate
        tweaked = SweepPoint(
            label=base.label,
            config=base.config,
            spec=base.spec,
            task=base.task,
            kwargs={**base.kwargs, "warmup": 99.0},
        )
        assert key != tweaked.cache_key(fingerprint)  # different kwargs
        assert key != base.cache_key("other-code-version")  # code changed

    def test_stale_code_fingerprint_is_a_miss(self, points, tmp_path):
        cache = ResultCache(tmp_path / "sweep")
        record = SweepRunner(jobs=1, cache=cache).run(points[:1])[0]
        old_key = points[0].cache_key("old-fingerprint")
        assert cache.get(old_key) is None
        new_key = points[0].cache_key(code_fingerprint())
        assert cache.get(new_key) == record

    def test_corrupt_entry_is_a_miss(self, points, tmp_path):
        cache = ResultCache(tmp_path / "sweep")
        key = points[0].cache_key(code_fingerprint())
        cache.put(key, {"ok": True})
        (cache.root / f"{key}.pkl").write_bytes(b"not a pickle")
        assert cache.get(key) is None


class TestHelpers:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_resolve_task_round_trip(self):
        from repro.parallel.tasks import single_tenant_point

        resolved = resolve_task("repro.parallel.tasks:single_tenant_point")
        assert resolved is single_tenant_point

    def test_resolve_task_rejects_bad_paths(self):
        with pytest.raises(ValueError):
            resolve_task("no_colon_here")
        with pytest.raises(ValueError):
            resolve_task("repro.parallel.tasks:not_a_function")

    def test_point_key_is_stable_across_calls(self, points):
        assert point_key(
            points[0].task, points[0].config, points[0].spec, points[0].kwargs
        ) == point_key(
            points[0].task, points[0].config, points[0].spec, points[0].kwargs
        )


class TestChaosSweepParallelEquivalence:
    """Chaos plans — whose every fault is drawn from seeded rng streams —
    must stay bit-identical between jobs=1 and jobs=2, fingerprints
    included, and must replay within one process through the task path.
    Uses a message-fault plan and a node-crash plan from the scenario
    library; ``test_chaos_fuzz`` covers the drop and abort-backup ones."""

    @pytest.fixture(scope="class")
    def chaos_points(self):
        from repro.experiments.chaos_fuzz import plan_points

        plans = Path(__file__).parent / "chaos_plans"
        return [
            point
            for name in ("dup-delay", "crash-target")
            for point in plan_points(plans / f"{name}.json")
        ]

    def test_chaos_records_bit_identical_across_jobs(self, chaos_points):
        serial = SweepRunner(jobs=1).run(chaos_points)
        parallel = SweepRunner(jobs=2).run(chaos_points)
        assert serial == parallel  # frozen dataclasses: full equality
        assert [record.outcome for record in serial] == ["completed", "aborted"]
        for record in serial:
            assert record.ok, record.violations

    def test_chaos_fingerprint_replays_within_process(self, chaos_points):
        from repro.parallel.tasks import execute

        point = chaos_points[0]
        first = execute(point.task, point.config, point.spec, point.kwargs)
        again = execute(point.task, point.config, point.spec, point.kwargs)
        assert first.fingerprint == again.fingerprint
        assert first == again


class TestWarmPool:
    """One WorkerPool spawned once and shared across sweeps: workers
    must be reused, results must stay bit-identical to serial, and
    cache hits must short-circuit before any dispatch."""

    def test_pool_reused_across_sweeps_bit_identically(
        self, points, serial_records
    ):
        with WorkerPool(2) as pool:
            first = SweepRunner(pool=pool).run(points)
            assert pool.started
            assert pool.warm_hits == 0  # first executor() call spawned it
            second = SweepRunner(pool=pool).run(points)
            assert pool.warm_hits == 1  # same workers, no respawn
            executor = pool.executor()
            assert pool.warm_hits == 2
            assert executor is pool.executor()  # literally the same object
        assert first == serial_records
        assert second == serial_records
        assert not pool.started  # close() tears down and resets

    def test_pool_jobs_override_runner_jobs(self):
        with WorkerPool(3) as pool:
            runner = SweepRunner(jobs=1, pool=pool)
            assert runner.jobs == 3
            # constructing a runner must not spawn workers
            assert not pool.started

    def test_runner_leaves_the_pool_running(self, points):
        with WorkerPool(2) as pool:
            SweepRunner(pool=pool).run(points[:1])
            executor = pool.executor()
            # still usable: the runner never shuts a shared pool down
            assert executor.submit(int, "7").result() == 7

    def test_cache_hits_short_circuit_before_dispatch(self, points, tmp_path):
        baseline = SweepRunner(
            jobs=1, cache=ResultCache(tmp_path / "warm")
        ).run(points)
        warm_cache = ResultCache(tmp_path / "warm")
        with WorkerPool(2) as pool:
            records = SweepRunner(cache=warm_cache, pool=pool).run(points)
            # every point was probed hot in the parent: no dispatch,
            # no workers ever spawned
            assert not pool.started
        assert warm_cache.hits == len(points)
        assert warm_cache.misses == 0
        assert records == baseline
