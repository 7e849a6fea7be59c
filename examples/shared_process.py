"""Shared-process multitenancy: de-consolidating a noisy tenant.

The paper's Section 8 future work: "one MySQL daemon handling all
tenants rather than just one", migratable because "the Percona variant
of MySQL offers table-level hot backup" (Section 6).

Three tenants share one daemon — and therefore one buffer pool.  When
tenant 2 turns scan-heavy it evicts its neighbours' hot pages (the
isolation failure the paper's process-per-tenant model avoids).  A
table-level live migration pulls tenant 2 out into a dedicated daemon
on another server.  Each tenant of the daemon is a database engine of
its own on the shared pool, so the migration is the ordinary live
migration of that engine: only its tablespace is scanned, only its
binlog ships, and its table write-lock handover leaves the neighbours
untouched.

Run::

    python examples/shared_process.py
"""

from repro.analysis import summarize
from repro.core.config import EVALUATION
from repro.db import SharedProcessEngine, TableLayout
from repro.migration import FluidMigration, Throttle
from repro.resources import MB, Server, mb_per_sec
from repro.simulation import Environment, RandomStreams, Trace
from repro.workload import (
    BenchmarkClient,
    PoissonArrivals,
    TransactionFactory,
    UniformChooser,
)


def latency(trace, series, start, end):
    values = trace.series(series).window_values(start, end)
    return summarize(values)


def main() -> None:
    env = Environment()
    streams = RandomStreams(42)
    consolidated = Server(env, "consolidated", params=EVALUATION.server,
                          streams=streams)
    standby = Server(env, "standby", params=EVALUATION.server, streams=streams)

    # One daemon, three tenants, ONE shared 96 MB buffer pool.
    shared = SharedProcessEngine(env, consolidated, buffer_bytes=96 * MB)
    trace = Trace()
    arrivals = {}
    for tenant_id in (1, 2, 3):
        layout = TableLayout.for_data_size(256 * MB)
        tenant = shared.add_tenant(tenant_id, layout)
        factory = TransactionFactory(
            layout,
            UniformChooser(layout.num_rows, streams.stream(f"keys-{tenant_id}")),
            streams.stream(f"ops-{tenant_id}"),
        )
        arrivals[tenant_id] = PoissonArrivals(
            1.2, streams.stream(f"arrivals-{tenant_id}")
        )
        client = BenchmarkClient(
            env, tenant, factory, arrivals[tenant_id],
            trace=trace, series=f"tenant-{tenant_id}",
        )
        client.start()

    t0 = env.now
    env.run(until=40.0)
    print("consolidated daemon, balanced load:")
    for tenant_id in (1, 2, 3):
        summary = latency(trace, f"tenant-{tenant_id}", t0, env.now)
        print(f"  tenant {tenant_id}: mean {summary.mean * 1000:5.0f} ms  "
              f"pool hit-ratio shared across all tenants")

    # Tenant 2 turns hot: 5x the traffic, thrashing the shared pool.
    arrivals[2].scale_rate(5.0)
    t1 = env.now
    env.run(until=env.now + 40.0)
    print("\ntenant 2 surges 5x (shared pool thrashing):")
    for tenant_id in (1, 2, 3):
        summary = latency(trace, f"tenant-{tenant_id}", t1, env.now)
        print(f"  tenant {tenant_id}: mean {summary.mean * 1000:5.0f} ms")

    # Table-level live migration of tenant 2 to its own daemon.
    print("\nmigrating tenant 2 out (table-level hot backup, 8 MB/s)...")
    throttle = Throttle(env, rate=mb_per_sec(8))
    # The tenant's clients follow it: its stopped engine forwards them.
    migration = FluidMigration(env, shared.tenants[2], standby, throttle)
    result = env.run(until=env.process(migration.run()))
    throttle.stop()
    print(f"  snapshot {result.snapshot_bytes / MB:.0f} MB (tenant 2's "
          f"tablespace only), deltas {result.total_bytes - result.snapshot_bytes} B "
          f"in {result.delta_rounds} rounds, "
          f"downtime {result.downtime * 1000:.0f} ms")
    print(f"  tenant 2 now runs in its own daemon: {result.target.name}")

    t2 = env.now
    env.run(until=env.now + 40.0)
    print("\nafter de-consolidation:")
    for tenant_id in (1, 2, 3):
        summary = latency(trace, f"tenant-{tenant_id}", t2, env.now)
        where = "standby (dedicated)" if tenant_id == 2 else "consolidated (shared)"
        print(f"  tenant {tenant_id} on {where}: "
              f"mean {summary.mean * 1000:5.0f} ms")


if __name__ == "__main__":
    main()
