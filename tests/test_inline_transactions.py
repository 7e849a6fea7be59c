"""A/B bit-identity: transactions inline in the client vs one process each.

``BenchmarkClient`` and ``ClosedBenchmarkClient`` run each transaction
with ``yield from engine.execute(txn)`` inside the worker.  Their old
loops, which started a child ``Process`` per transaction, are kept in
``tests/reference_kernel.py``; these tests replay the same points
through both and demand equal records.  Only the kernel's event counts
may differ: the inline loop saves each transaction's process-start and
completion events, and its first grant can continue in place.  Grants
and holds that continue in place are counted apart from the events.
"""

from __future__ import annotations

from dataclasses import replace

import reference_kernel
from repro.core.config import CASE_STUDY, EVALUATION
from repro.db.engine import DatabaseEngine
from repro.db.pages import TableLayout
from repro.experiments.chaos_fuzz import fuzz_point
from repro.experiments.common import scaled_config
from repro.experiments.fleet_sweep import fleet_point
from repro.experiments.harness import MigrationSpec
from repro.parallel.tasks import single_tenant_point
from repro.resources.server import Server
from repro.resources.units import MB, mb_per_sec
from repro.simulation import Environment, RandomStreams, Trace
from repro.workload.client import BenchmarkClient, ClosedBenchmarkClient

from test_client import make_factory


def _with_child_processes(fn):
    """Run ``fn`` with both clients starting one process per transaction."""
    originals = (BenchmarkClient._worker_loop, ClosedBenchmarkClient._user_loop)
    BenchmarkClient._worker_loop = reference_kernel.process_per_txn_worker_loop
    ClosedBenchmarkClient._user_loop = reference_kernel.process_per_txn_user_loop
    try:
        return fn()
    finally:
        BenchmarkClient._worker_loop, ClosedBenchmarkClient._user_loop = originals


def _ab(fn):
    return fn(), _with_child_processes(fn)


class TestABExperimentReplay:
    def test_fig5_throttle_point(self):
        cfg = scaled_config(CASE_STUDY, 0.06, None)
        spec = MigrationSpec.fixed(mb_per_sec(8))
        fast, reference = _ab(
            lambda: single_tenant_point(cfg, spec, warmup=2.0, cooldown=1.0)
        )
        assert fast == reference
        assert fast.mean_latency > 0

    def test_chaos_fault_injection_point(self):
        cfg = scaled_config(CASE_STUDY, 0.06, None)
        fast, reference = _ab(
            lambda: fuzz_point(
                cfg,
                label="drop-20",
                messages={"drop_prob": 0.20, "dup_prob": 0.05},
                warmup=2.0,
                run_limit=120.0,
            )
        )
        assert fast == reference

    def test_fleet_drain_point(self):
        cfg = scaled_config(EVALUATION, 0.125, 11)
        spec = MigrationSpec.dynamic(1.0)
        fast, reference = _ab(
            lambda: fleet_point(
                cfg,
                spec,
                label="drain",
                scenario="drain",
                nodes=4,
                tenants=12,
                warmup=10.0,
                run_limit=400.0,
            )
        )
        costs = dict(events=0, inline=0, held=0)
        assert replace(fast, **costs) == replace(reference, **costs)
        assert (
            fast.events + fast.inline + fast.held
            < reference.events + reference.inline + reference.held
        )
        assert fast.ok


def _closed_run():
    """MPL 4 closed users with think time on a small tenant; the trace."""
    env = Environment()
    server = Server(env, "test-server", streams=RandomStreams(seed=1234))
    engine = DatabaseEngine(
        env, server, TableLayout.for_data_size(16 * MB), buffer_bytes=2 * MB
    )
    trace = Trace()
    client = ClosedBenchmarkClient(
        env, engine, make_factory(engine), mpl=4, think_time=0.01,
        trace=trace, series="lat",
    )
    client.start()
    env.run(until=3.0)
    client.stop()
    series = trace["lat"]
    return tuple(series.times), tuple(series.values), client.stats.completed


def test_closed_users_are_bit_identical():
    fast, reference = _ab(_closed_run)
    assert fast == reference
    assert fast[2] > 0
