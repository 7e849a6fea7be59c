"""Quickstart: live-migrate a busy tenant with zero downtime.

Builds a two-node Slacker cluster, puts a 1 GB tenant with a live
YCSB-style workload on the first node, and migrates it to the second
with the PID-driven dynamic throttle targeting 1000 ms latency.

Run::

    python examples/quickstart.py
"""

from repro import EVALUATION, Slacker
from repro.analysis import summarize
from repro.resources import MB


def main() -> None:
    slacker = Slacker(EVALUATION, nodes=["db-01", "db-02"])

    # A tenant with an attached benchmark workload (Poisson arrivals,
    # 10-operation transactions, 85/15 read/write — the paper's mix).
    slacker.add_tenant(1, node="db-01", workload=True)
    print(f"tenant 1 lives on {slacker.locate(1)}")

    # Warm the buffer pool and reach steady state.
    slacker.advance(30.0)
    warm = summarize(slacker.latency_series(1).values)
    print(f"baseline latency: {warm.mean * 1000:.0f} ms mean, "
          f"p95 {warm.p95 * 1000:.0f} ms")

    # Live-migrate with a 1000 ms latency setpoint.  The call blocks
    # until handover; the workload keeps running the whole time.
    result = slacker.migrate(1, "db-02", setpoint=1.0)

    print(f"\nmigration finished in {result.duration:.1f} s")
    print(f"  snapshot:      {result.snapshot_bytes / MB:.0f} MB")
    delta_bytes = result.total_bytes - result.snapshot_bytes
    print(f"  delta rounds:  {result.delta_rounds} "
          f"({delta_bytes / 1024:.0f} KB shipped)")
    print(f"  average speed: {result.average_rate / MB:.1f} MB/s")
    print(f"  downtime:      {result.downtime * 1000:.0f} ms "
          f"(freeze-and-handover window)")
    print(f"tenant 1 now lives on {slacker.locate(1)}")

    # The client kept executing against the tenant throughout.
    slacker.advance(10.0)
    client = slacker.client(1)
    print(f"\ntransactions: {client.stats.completed} completed "
          f"of {client.stats.arrived} arrived (none lost)")


if __name__ == "__main__":
    main()
