"""Parallel sweep dispatch: the warm-pool overhead gate and the speed-up claim.

Both run the 4-point Figure 5 sweep (baseline + 4/8/12 MB/s) with the
result cache off, serially and through the :class:`~repro.parallel.SweepRunner`,
and check that the two sweeps have the same trajectory fingerprint
before they judge the wall time.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from benchmarks.conftest import run_once
from repro.experiments import fig5_throttle_sweep
from repro.experiments.fingerprint import trajectory_fingerprint
from repro.parallel import WorkerPool


def _timed(sweep):
    started = time.perf_counter()
    result = sweep()
    return result, time.perf_counter() - started


def _assert_identical(serial, parallel):
    assert trajectory_fingerprint(serial.outcomes) == trajectory_fingerprint(
        parallel.outcomes
    )


#: Alternating serial / warm-pool sweeps whose medians the overhead gate compares.
OVERHEAD_ROUNDS = 5


def test_warm_pool_dispatch_overhead(benchmark):
    """A warm-pool sweep dispatched as one chunk lands within 5 % of serial.

    The first parallel run pays worker start-up; later ones reuse the
    warm workers, the cost a multi-sweep driver sees per sweep.  With
    ``chunksize=4`` the whole sweep is one dispatch, so the gap to the
    serial run is pool dispatch, pickling and batching overhead alone,
    and a regression there fails even on a starved runner.  Serial and
    warm sweeps alternate for :data:`OVERHEAD_ROUNDS` rounds and their
    medians are compared, so one slow run on a shared host cannot
    decide the gate; every warm sweep must equal its serial one.
    """

    def measure():
        serial_runs, parallel_runs = [], []
        with WorkerPool(4) as pool:

            def sweep():
                return fig5_throttle_sweep.run(
                    scale=0.25, jobs=4, cache=None, chunksize=4, pool=pool
                )

            sweep()
            for _ in range(OVERHEAD_ROUNDS):
                serial_runs.append(
                    _timed(lambda: fig5_throttle_sweep.run(scale=0.25, jobs=1, cache=None))
                )
                parallel_runs.append(_timed(sweep))
        return serial_runs, parallel_runs

    serial_runs, parallel_runs = run_once(benchmark, measure)
    for (serial, _), (parallel, _) in zip(serial_runs, parallel_runs):
        _assert_identical(serial, parallel)
    serial_s = statistics.median(t for _, t in serial_runs)
    parallel_s = statistics.median(t for _, t in parallel_runs)
    overhead_pct = 100.0 * (parallel_s - serial_s) / serial_s
    print(
        f"\nsweep medians over {OVERHEAD_ROUNDS} rounds: serial {serial_s:.2f}s, "
        f"warm jobs=4 {parallel_s:.2f}s ({overhead_pct:+.1f}% overhead, limit 5%)"
    )
    assert overhead_pct <= 5.0


def test_parallel_sweep_speedup(benchmark):
    """jobs=4 beats serial by >= 1.8x on the 4-point Figure 5 sweep.

    Scale 0.5 keeps each point heavy enough (seconds, not
    milliseconds) that worker startup cannot dominate.
    """
    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 cores for a meaningful speedup claim")

    def measure():
        serial, serial_s = _timed(
            lambda: fig5_throttle_sweep.run(scale=0.5, jobs=1, cache=None)
        )
        parallel, parallel_s = _timed(
            lambda: fig5_throttle_sweep.run(scale=0.5, jobs=4, cache=None)
        )
        return serial, parallel, serial_s, parallel_s

    serial, parallel, serial_s, parallel_s = run_once(benchmark, measure)
    _assert_identical(serial, parallel)
    speedup = serial_s / parallel_s
    print(
        f"\nsweep: serial {serial_s:.2f}s, jobs=4 {parallel_s:.2f}s "
        f"-> {speedup:.2f}x"
    )
    assert speedup >= 1.8
