"""Baseline: Slacker vs. an on-demand-pull (Zephyr-style) migration.

Regenerates the Section 7 qualitative comparison: on-demand migration
switches ownership almost instantly but makes the *tenant* pay for cold
pages inside its transactions, and throttling it backfires — "slowing
on-demand pulls exacerbates latency rather than mitigating it as in a
throttled background transfer".
"""

from benchmarks.conftest import run_once
from repro.core.config import EVALUATION
from repro.experiments import MigrationSpec, run_single_tenant, scaled_config
from repro.migration import OnDemandMigration, Throttle
from repro.resources import MB, Server, mb_per_sec
from repro.simulation import Environment, RandomStreams, Trace
from repro.workload import (
    BenchmarkClient,
    PoissonArrivals,
    TransactionFactory,
    UniformChooser,
)


class Handle:
    def __init__(self, engine):
        self.engine = engine


def run_on_demand(push_rate_mb, data_mb=256, seed=42):
    from repro.db import DatabaseEngine, TableLayout

    env = Environment()
    streams = RandomStreams(seed)
    src = Server(env, "src", params=EVALUATION.server, streams=streams)
    dst = Server(env, "dst", params=EVALUATION.server, streams=streams)
    layout = TableLayout.for_data_size(data_mb * MB)
    engine = DatabaseEngine(env, src, layout, name="t",
                            buffer_bytes=data_mb * MB // 8)
    handle = Handle(engine)
    trace = Trace()
    factory = TransactionFactory(
        layout, UniformChooser(layout.num_rows, streams.stream("k")),
        streams.stream("o"),
    )
    client = BenchmarkClient(
        env, handle, factory,
        PoissonArrivals(EVALUATION.workload.arrival_rate, streams.stream("a")),
        trace=trace, series="lat",
    )
    client.start()
    throttle = Throttle(env, rate=mb_per_sec(push_rate_mb))
    migration = OnDemandMigration(
        env, engine, dst, push_throttle=throttle,
        on_handover=lambda t: setattr(handle, "engine", t),
    )

    def experiment():
        yield env.timeout(15.0)
        result = yield env.process(migration.run())
        return result

    result = env.run(until=env.process(experiment()))
    throttle.stop()
    window = trace["lat"].window_values(
        migration.switched_at, migration.switched_at + 20.0
    )
    mean_20s = sum(window) / len(window) if window else float("nan")
    return result, mean_20s


def compare():
    scale = 256 * MB / EVALUATION.tenant.data_bytes
    slacker = run_single_tenant(
        scaled_config(EVALUATION, scale), MigrationSpec.dynamic(1.0), warmup=15
    )
    on_demand_fast, fast_20s = run_on_demand(push_rate_mb=16)
    on_demand_slow, slow_20s = run_on_demand(push_rate_mb=1)
    return slacker, (on_demand_fast, fast_20s), (on_demand_slow, slow_20s)


def test_on_demand_baseline(benchmark):
    slacker, (fast, fast_20s), (slow, slow_20s) = run_once(benchmark, compare)
    print()
    print(f"  slacker (1000 ms setpoint): downtime "
          f"{slacker.migration.downtime * 1000:.0f} ms, "
          f"mean latency {slacker.mean_latency * 1000:.0f} ms")
    print(f"  on-demand push 16 MB/s: switch {fast.downtime * 1000:.0f} ms, "
          f"{fast.remote_fetches} remote fetches, "
          f"post-switch 20 s mean {fast_20s * 1000:.0f} ms")
    print(f"  on-demand push  1 MB/s: switch {slow.downtime * 1000:.0f} ms, "
          f"{slow.remote_fetches} remote fetches, "
          f"post-switch 20 s mean {slow_20s * 1000:.0f} ms")

    # Both approaches achieve effectively-zero blackout...
    assert slacker.migration.downtime < 1.0
    assert fast.downtime < 5.0

    # ...but on-demand charges the tenant for cold pages in-transaction,
    assert fast.remote_fetches > 0

    # and throttling it is counterproductive: more in-transaction pulls,
    # no latency relief (Slacker's throttle, by contrast, is exactly the
    # knob that trades speed for latency — Figures 7 and 11).
    assert slow.remote_fetches > 2 * fast.remote_fetches
    assert slow_20s > 0.9 * fast_20s
