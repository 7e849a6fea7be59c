"""Fleet sweep: wave-scheduled migrations at datacenter scale.

The ROADMAP's north-star scenario: a :class:`~repro.middleware.cluster.FleetSpec`
fleet (default 100 nodes / 1000 heterogeneous tenants), a placement
manager running *waves* of concurrent PID-throttled migrations under
per-node slack budgets, and fleet-level SLOs — pooled p99 latency,
migration throughput, and time-to-drain — reported per run and, with
observability attached, threaded into a :class:`~repro.obs.RunReport`.

Two scenarios ride the :class:`~repro.parallel.SweepRunner`:

* ``drain`` — a maintenance drain of one node (the operational runbook
  case): the manager evacuates every tenant in budget-bounded waves
  while the rest of the fleet serves traffic;
* ``rebalance`` — continuous rebalancing: one node's tenants run hot,
  the detector trips, and the manager relieves the hotspot with
  concurrent wave migrations.

Every point is a pure function of (spec, seed): the ``fingerprint``
hashes the full observable trajectory (final census, every placement
decision, every latency sample) and must replay bit-identically across
process counts and runs — ``--check`` enforces it.  The per-node
slack-budget invariant (inbound + outbound reservations never exceed
capacity at any simulated time) is asserted on the ledger's audit
history after every run.

Run standalone::

    python -m repro.experiments.fleet_sweep --nodes 100 --tenants 1000
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from ..analysis.report import Table, format_ms
from ..core.config import CASE_STUDY, ExperimentConfig
from ..faults import FaultInjector, FaultPlan, MessageFaults, ScheduledFault
from ..middleware.cluster import FleetSpec, SlackerCluster
from ..middleware.transport import RetryPolicy
from ..obs import Observability, RunReport
from ..parallel import SweepPoint, SweepRunner
from ..placement import LatencyHotspotDetector, PlacementManager
from ..resources.units import MB
from ..simulation import Environment, RandomStreams, Trace
from .common import scaled_config
from .fingerprint import Run, trajectory_fingerprint
from .harness import MigrationSpec, TenantOutcome, attach_workload

__all__ = ["FleetRecord", "fleet_point", "sweep_points", "run", "main"]

#: Task path of :func:`fleet_point` for :class:`SweepPoint`.
FLEET_TASK = "repro.experiments.fleet_sweep:fleet_point"

#: Simulated-seconds-per-hour, for the migration-throughput SLO.
_SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class FleetRecord:
    """Compact, picklable outcome of one fleet scenario."""

    label: str
    #: "drain" or "rebalance".
    scenario: str
    #: Invariants that failed (empty = healthy run).
    violations: tuple[str, ...]
    #: SHA-256 over the full observable trajectory.
    fingerprint: str
    nodes: int
    tenants: int
    #: Wave-executor outcome counters.
    migrations: int
    aborted: int
    skipped: int
    waves: int
    #: Fleet SLOs.
    p99_latency: float
    migrations_per_hour: float
    #: Seconds to empty the drained node; None for rebalance points.
    time_to_drain: Optional[float]
    #: Highest per-node budget ever in use (must stay <= capacity).
    budget_peak_used: float
    drained_node: Optional[str]
    #: Tenants left on the drained node (0 = fully drained).
    remaining: int
    sim_end: float
    #: Kernel events processed during the run.  Excluded from
    #: ``fingerprint`` on purpose: tick coalescing changes how many
    #: events a trajectory costs, never the trajectory itself.
    events: int = 0
    #: Tick events the coalesced timers elided (``events + elided`` is
    #: the one-event-per-tick cost of the same trajectory).
    elided: int = 0
    #: Resource grants that continued in place instead of costing an
    #: event (``events + inline`` is the one-event-per-grant cost).
    #: Excluded from ``fingerprint`` like ``events`` and ``elided``.
    inline: int = 0
    #: Holds that advanced time in place instead of costing a timeout
    #: event (``events + inline + held`` is the one-event-per-hold
    #: cost).  Excluded from ``fingerprint`` like ``inline``.
    held: int = 0
    #: Observability snapshot when run with ``observe=True``; excluded
    #: from ``fingerprint`` (watching must not change the trajectory).
    report: Optional[RunReport] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(pct / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def fleet_point(
    config: ExperimentConfig,
    spec: MigrationSpec,
    label: str = "",
    scenario: str = "drain",
    nodes: int = 20,
    tenants: int = 100,
    min_tenant_mb: int = 2,
    max_tenant_mb: int = 16,
    max_concurrent: int = 8,
    max_streams_per_node: int = 2,
    interval: float = 5.0,
    cooldown: float = 10.0,
    warmup: float = 20.0,
    run_limit: float = 600.0,
    arrival_rate: float = 2.0,
    active_stride: int = 10,
    hot_rate_factor: float = 8.0,
    latency_threshold: float = 0.05,
    scheduled: tuple = (),
    observe: bool = False,
) -> FleetRecord:
    """One fleet scenario: build, drive, audit, fingerprint.

    A :class:`FleetSpec` fleet is built from ``config.seed``; every
    ``active_stride``-th tenant gets a workload client (plus, for the
    rebalance scenario, every tenant of the hot node, at
    ``hot_rate_factor`` times the base ``arrival_rate``).  ``scenario``
    picks the driver: ``"drain"`` evacuates the first node,
    ``"rebalance"`` runs the autonomous manager loop against the hot
    node.  ``scheduled`` injects faults (dict-tuples as in the chaos
    fuzzer) on a hardened control plane — the drain-under-crash case.
    """
    if scenario not in ("drain", "rebalance"):
        raise ValueError(f"scenario must be 'drain' or 'rebalance', got {scenario!r}")
    setpoint = spec.setpoint if spec.setpoint is not None else 1.0

    streams = RandomStreams(config.seed)
    trace = Trace()
    fleet_spec = FleetSpec(
        nodes=nodes,
        tenants=tenants,
        min_tenant_bytes=min_tenant_mb * MB,
        max_tenant_bytes=max_tenant_mb * MB,
    )
    hardened = bool(scheduled)
    env = Environment()
    cluster = SlackerCluster.build_fleet(
        env,
        fleet_spec,
        streams=streams,
        trace=trace,
        retry_policy=RetryPolicy() if hardened else None,
    )
    injector = None
    if hardened:
        plan = FaultPlan(
            messages=MessageFaults(),
            scheduled=tuple(ScheduledFault(**dict(s)) for s in scheduled),
        )
        injector = FaultInjector(env, plan, streams).attach(cluster)
        # Same liveness tuning as the chaos fuzzer: the detector horizon
        # (interval * miss_threshold = 1.5 s) must exceed the heartbeat
        # period or every peer reads as perpetually silent.
        cluster.start_heartbeats(0.5)
        cluster.start_failure_detectors(0.5, 3.0)
    obs = Observability(env).attach(cluster) if observe else None

    names = fleet_spec.node_names()
    drain_node = names[0] if scenario == "drain" else None
    hot_node = names[1 % len(names)] if scenario == "rebalance" else None

    # Attach workload clients: a deterministic sample of the fleet,
    # plus every tenant of the hot node (they must emit the latency
    # signal the detector trips on).
    clients = []
    for tenant_id in range(tenants):
        home = cluster.locate(tenant_id)
        is_hot = hot_node is not None and home == hot_node
        if tenant_id % active_stride and not is_hot:
            continue
        node = cluster.node(home)
        tenant = node.registry.get(tenant_id)
        tag = f"tenant-{tenant_id}"
        rate = arrival_rate * (hot_rate_factor if is_hot else 1.0)
        client, _ = attach_workload(
            cluster, config, tenant, streams, trace, series=tag, arrival_rate=rate
        )
        client.start()
        node.attach_latency_series(tenant_id, trace.series(tag))
        clients.append(client)

    detector = LatencyHotspotDetector(latency_threshold=latency_threshold)
    manager = PlacementManager(
        cluster,
        trace,
        setpoint=setpoint,
        detector=detector,
        interval=interval,
        cooldown=cooldown,
        max_concurrent=max_concurrent,
        max_streams_per_node=max_streams_per_node,
        obs=obs,
    )

    drain_report = None
    if scenario == "drain":

        def driver():
            yield env.timeout(warmup)
            report = yield env.process(manager.drain(drain_node))
            return report

        proc = env.process(driver())
        env.run(until=env.any_of([proc, env.timeout(run_limit)]))
        if proc.triggered:
            drain_report = proc.value
    else:
        env.process(manager.run())
        env.run(until=run_limit)
    for client in clients:
        client.stop()

    # -- fleet SLOs ------------------------------------------------------
    pooled: list[float] = []
    for client in clients:
        series = trace.series(client.series)
        pooled.extend(series.values)
    p99 = _percentile(pooled, 99.0)
    sim_hours = env.now / _SECONDS_PER_HOUR
    migrations_per_hour = (
        manager.stats.migrations / sim_hours if sim_hours > 0 else 0.0
    )
    time_to_drain = drain_report.duration if drain_report is not None else None

    # -- invariants ------------------------------------------------------
    violations: list[str] = []
    oversubscribed = manager.ledger.oversubscriptions()
    if oversubscribed:
        worst = max(e.used_after for e in oversubscribed)
        violations.append(
            f"slack budget oversubscribed: {len(oversubscribed)} events, "
            f"worst {worst:.3f} > capacity {manager.ledger.capacity:.3f}"
        )
    if manager.ledger.active_streams():
        violations.append(
            f"{manager.ledger.active_streams()} reservations never released"
        )
    census = cluster.tenant_census()
    for tenant_id in range(tenants):
        hosts = census.get(tenant_id, [])
        if len(hosts) != 1:
            violations.append(
                f"tenant {tenant_id} hosted on {hosts!r}, expected exactly one"
            )
            break  # one example is enough; the census hash has the rest
    if scenario == "drain":
        if drain_report is None:
            violations.append("drain did not finish within the run limit")
        elif not drain_report.drained and not hardened:
            violations.append(
                f"fault-free drain left {drain_report.remaining} tenants behind"
            )

    # -- fingerprint -----------------------------------------------------
    census_pairs = tuple(
        (tenant_id, tuple(hosts)) for tenant_id, hosts in sorted(census.items())
    )
    decision_rows = tuple(
        (
            d.time,
            d.proposal.tenant_id,
            d.proposal.source,
            d.proposal.target,
            d.outcome,
            d.duration,
            d.downtime,
        )
        for d in manager.stats.decisions
    )
    fault_counters = (
        sorted(injector.stats.counters().items()) if injector is not None else None
    )
    run = Run(
        tenants=[
            TenantOutcome(
                client.series, trace.series(client.series), client.stats.completed
            )
            for client in clients
        ],
        sim_end=env.now,
    )
    fingerprint = trajectory_fingerprint(
        {scenario: run}, facts=(census_pairs, decision_rows, fault_counters)
    )

    report = None
    if obs is not None:
        obs.set_fleet_slos(
            p99_latency_seconds=p99, migrations_per_hour=migrations_per_hour
        )
        report = obs.run_report(config, spec)

    return FleetRecord(
        label=label,
        scenario=scenario,
        violations=tuple(violations),
        fingerprint=fingerprint,
        nodes=nodes,
        tenants=tenants,
        migrations=manager.stats.migrations,
        aborted=manager.stats.aborted,
        skipped=manager.stats.skipped,
        waves=manager.stats.waves,
        p99_latency=p99,
        migrations_per_hour=migrations_per_hour,
        time_to_drain=time_to_drain,
        budget_peak_used=manager.ledger.peak_used,
        drained_node=drain_node,
        remaining=drain_report.remaining if drain_report is not None else 0,
        sim_end=env.now,
        events=env.processed_events,
        elided=env.elided_events,
        inline=env.inline_grants,
        held=env.inline_holds,
        report=report,
    )


# -- the sweep ----------------------------------------------------------------


def sweep_points(
    config: Optional[ExperimentConfig] = None,
    nodes: int = 20,
    tenants: int = 100,
    seed: Optional[int] = None,
    setpoint: float = 1.0,
    run_limit: float = 600.0,
    observe: bool = False,
) -> list[SweepPoint]:
    """The fleet scenarios as independent sweep points."""
    cfg = scaled_config(config or CASE_STUDY, 1.0, seed)
    spec = MigrationSpec.dynamic(setpoint)
    shared = {
        "nodes": nodes,
        "tenants": tenants,
        "run_limit": run_limit,
        **({"observe": True} if observe else {}),
    }

    def point(label: str, **kwargs) -> SweepPoint:
        return SweepPoint(
            label=label,
            config=cfg,
            spec=spec,
            task=FLEET_TASK,
            kwargs={"label": label, **shared, **kwargs},
        )

    return [
        point("drain", scenario="drain"),
        point("rebalance", scenario="rebalance"),
    ]


def run(
    nodes: int = 20,
    tenants: int = 100,
    config: Optional[ExperimentConfig] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    run_limit: float = 600.0,
    observe: bool = False,
    pool=None,
) -> dict[str, FleetRecord]:
    """Run both fleet scenarios; records keyed by scenario label."""
    runner = SweepRunner(jobs=jobs, pool=pool)
    return runner.run_labelled(
        sweep_points(
            config,
            nodes=nodes,
            tenants=tenants,
            seed=seed,
            run_limit=run_limit,
            observe=observe,
        )
    )


def table(records: dict[str, FleetRecord]) -> Table:
    out = Table(
        "Fleet sweep: wave-scheduled migrations under slack budgets",
        [
            "scenario",
            "fleet",
            "migrations",
            "waves",
            "p99 latency",
            "migrations/h",
            "time-to-drain",
            "budget peak",
            "invariants",
        ],
    )
    for label, rec in records.items():
        out.add_row(
            label,
            f"{rec.nodes}n/{rec.tenants}t",
            f"{rec.migrations} (+{rec.aborted} aborted)",
            str(rec.waves),
            format_ms(rec.p99_latency),
            f"{rec.migrations_per_hour:.0f}",
            f"{rec.time_to_drain:.0f} s" if rec.time_to_drain is not None else "-",
            f"{rec.budget_peak_used:.2f}",
            "OK" if rec.ok else "; ".join(rec.violations),
        )
    out.add_note(
        "per-node slack budgets cap concurrent inbound+outbound streams; "
        "fingerprints replay bit-identically"
    )
    return out


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover - CLI
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=20)
    parser.add_argument("--tenants", type=int, default=100)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--run-limit", type=float, default=600.0)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any invariant is violated or replay diverges",
    )
    parser.add_argument("--out", type=str, default=None, help="write JSON report")
    parser.add_argument(
        "--report-out",
        type=str,
        default="fleet_obs",
        help="directory for per-scenario RunReport artifacts "
        "(SLO gauges included); '-' disables",
    )
    args = parser.parse_args(argv)

    observe = args.report_out != "-"
    records = run(
        nodes=args.nodes,
        tenants=args.tenants,
        seed=args.seed,
        jobs=args.jobs,
        run_limit=args.run_limit,
        observe=observe,
    )
    print(table(records).render())

    if observe:
        os.makedirs(args.report_out, exist_ok=True)
        for label, rec in records.items():
            if rec.report is not None:
                rec.report.write(
                    os.path.join(args.report_out, f"{label}.report.json")
                )

    replay_ok = True
    if args.check:
        # Replay serially, observability off: the trajectory must be a
        # pure function of (spec, seed) — independent of job count and
        # of whether anyone was watching.
        replay = run(
            nodes=args.nodes,
            tenants=args.tenants,
            seed=args.seed,
            jobs=1,
            run_limit=args.run_limit,
            observe=False,
        )
        for label, rec in records.items():
            if replay[label].fingerprint != rec.fingerprint:
                replay_ok = False
                print(f"REPLAY DIVERGED: {label}", file=sys.stderr)

    if args.out:
        payload = {
            label: {
                "scenario": rec.scenario,
                "violations": list(rec.violations),
                "fingerprint": rec.fingerprint,
                "nodes": rec.nodes,
                "tenants": rec.tenants,
                "migrations": rec.migrations,
                "aborted": rec.aborted,
                "skipped": rec.skipped,
                "waves": rec.waves,
                "p99_latency": rec.p99_latency,
                "migrations_per_hour": rec.migrations_per_hour,
                "time_to_drain": rec.time_to_drain,
                "budget_peak_used": rec.budget_peak_used,
                "remaining": rec.remaining,
                "sim_end": rec.sim_end,
            }
            for label, rec in records.items()
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    if args.check:
        bad = [label for label, rec in records.items() if not rec.ok]
        if bad or not replay_ok:
            print(f"invariant violations in: {bad}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
