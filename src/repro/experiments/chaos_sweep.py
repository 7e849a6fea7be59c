"""Chaos sweep: live migrations under deterministic fault injection.

Each point runs the paper's fundamental case — one tenant migrated
from ``source`` to ``target`` — on a *hardened* control plane (retry
policy on the bus, heartbeats, failure detectors) while a
:class:`~repro.faults.FaultPlan` mistreats it: dropped/duplicated/
delayed control messages, node crashes, NIC collapses, mid-stream
backup aborts.  After the run a battery of **invariants** is checked:

* the run terminates (no wedged migration);
* the tenant lives on exactly one node (exactly-once census) and the
  frontend agrees with the hosting node's registry;
* a *completed* migration left the tenant on the target, the source
  engine stopped with its successor wired for forwarding;
* an *aborted* migration rolled back: tenant ``ACTIVE`` on the source,
  source engine ``RUNNING`` (never left frozen);
* latency accounting is exact: one sample per completed transaction.

Every fault is drawn from ``simulation.rng`` streams, so a point is a
pure function of (config seed, plan) and replays bit-identically — the
``fingerprint`` field hashes the full observable trajectory, and the
sweep asserts serial and ``--jobs N`` runs agree.

Run standalone::

    python -m repro.experiments.chaos_sweep --scale 0.125 --jobs 2 --check
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from ..analysis.report import Table, format_ms
from ..core.config import CASE_STUDY, ExperimentConfig
from ..faults import FaultInjector
from ..faults.invariants import check_invariants, plan_from_kwargs
from ..migration.live import MigrationAborted
from ..obs import Observability, RunReport
from ..parallel import SweepPoint, SweepRunner
from ..resources.units import mb_per_sec
from ..simulation import RandomStreams, Trace
from .common import scaled_config
from .harness import MigrationSpec, _build_cluster, _run_migration_spec, attach_workload
from ..middleware.transport import RetryPolicy

__all__ = ["ChaosRecord", "chaos_point", "sweep_points", "run", "main"]

#: Task path of :func:`chaos_point` for :class:`SweepPoint`.
CHAOS_TASK = "repro.experiments.chaos_sweep:chaos_point"


@dataclass(frozen=True)
class ChaosRecord:
    """Compact, picklable outcome of one chaos point."""

    label: str
    #: "completed", "aborted", or "wedged" (the latter is a violation).
    outcome: str
    abort_reason: str
    #: Invariants that failed (empty = healthy run).
    violations: tuple[str, ...]
    #: SHA-256 over the full observable trajectory; identical across
    #: replays of the same (seed, plan) and across jobs=1 vs jobs=N.
    fingerprint: str
    #: Bus + injector + node counters, sorted (name, value) pairs.
    counters: tuple[tuple[str, float], ...]
    completed: int
    arrived: int
    mean_latency: float
    sim_end: float
    #: Observability snapshot when the point ran with ``observe=True``.
    #: Deliberately *excluded* from ``fingerprint``: the fingerprint
    #: hashes the simulated trajectory, which must not change whether
    #: or not anyone was watching.
    report: Optional[RunReport] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def counter(self, name: str) -> float:
        for key, value in self.counters:
            if key == name:
                return value
        raise KeyError(name)


def chaos_point(
    config: ExperimentConfig,
    spec: MigrationSpec,
    label: str = "",
    messages: Optional[dict] = None,
    scheduled: tuple = (),
    partitions: tuple = (),
    warmup: float = 5.0,
    run_limit: float = 240.0,
    cooldown: float = 2.0,
    heartbeat_interval: float = 0.5,
    detector_interval: float = 0.5,
    miss_threshold: float = 3.0,
    suspect_grace: float = 0.0,
    lease_ttl: Optional[float] = None,
    observe: bool = False,
) -> ChaosRecord:
    """One chaos run: hardened cluster + fault plan + invariant checks.

    ``messages``, ``scheduled``, and ``partitions`` are plain
    dicts/dict-tuples (so sweep points pickle); they are rehydrated
    into a :class:`FaultPlan` here.  ``lease_ttl`` enables migration
    ownership leases with fencing tokens; ``suspect_grace`` inserts the
    failure detector's suspect state.  ``observe=True`` attaches the
    observability runtime and fills ``record.report`` — without
    changing the fingerprint, since observation is read-only.
    """
    plan = plan_from_kwargs(messages, tuple(scheduled), tuple(partitions))
    streams = RandomStreams(config.seed)
    cluster = _build_cluster(
        config, streams, retry_policy=RetryPolicy(), lease_ttl=lease_ttl
    )
    env = cluster.env
    trace = Trace()
    injector = FaultInjector(env, plan, streams).attach(cluster)
    obs = Observability(env).attach(cluster) if observe else None

    source = cluster.node("source")
    target = cluster.node("target")
    tenant = source.create_tenant(
        1, config.tenant.data_bytes, buffer_bytes=config.tenant.buffer_bytes
    )
    source_engine = tenant.engine
    client, _ = attach_workload(
        cluster, config, tenant, streams, trace, series="tenant-1"
    )
    client.start()
    source.attach_latency_series(1, trace.series("tenant-1"))
    cluster.start_heartbeats(heartbeat_interval)
    cluster.start_failure_detectors(detector_interval, miss_threshold, suspect_grace)

    def driver():
        yield env.timeout(warmup)
        try:
            yield env.process(_run_migration_spec(cluster, spec, 1))
        except MigrationAborted as exc:
            return ("aborted", str(exc))
        return ("completed", "")

    proc = env.process(driver())
    env.run(until=env.any_of([proc, env.timeout(run_limit)]))
    if proc.triggered:
        outcome, abort_reason = proc.value
        # Cooldown: late duplicates and retries drain, exercising the
        # idempotent handlers after the terminal state is reached.
        env.run(until=env.now + cooldown)
    else:
        outcome, abort_reason = "wedged", ""
    client.stop()

    violations = check_invariants(
        outcome, cluster, tenant, source_engine, client, trace
    )

    counters: dict[str, float] = dict(cluster.bus.counters())
    for key, value in injector.stats.counters().items():
        counters[f"faults_{key}"] = value
    counters["source_migrations_aborted"] = source.stats.migrations_aborted
    counters["source_notify_failures"] = source.stats.notify_failures
    counters["source_peers_declared_dead"] = source.stats.peers_declared_dead
    counters["duplicates_ignored"] = (
        source.stats.duplicates_ignored + target.stats.duplicates_ignored
    )
    if cluster.lease_manager is not None:
        counters.update(cluster.lease_manager.stats.counters())
        counters["stale_tokens_rejected"] = (
            source.stats.stale_tokens_rejected + target.stats.stale_tokens_rejected
        )
        counters["lease_expired_aborts"] = source.stats.lease_expired_aborts
    counter_pairs = tuple(sorted(counters.items()))

    series = trace.series("tenant-1")
    digest = hashlib.sha256()
    digest.update(
        repr(
            (
                outcome,
                abort_reason,
                counter_pairs,
                tuple(series.times),
                tuple(series.values),
                env.now,
            )
        ).encode()
    )

    return ChaosRecord(
        label=label,
        outcome=outcome,
        abort_reason=abort_reason,
        violations=tuple(violations),
        fingerprint=digest.hexdigest(),
        counters=counter_pairs,
        completed=client.stats.completed,
        arrived=client.stats.arrived,
        mean_latency=series.mean() if len(series) else 0.0,
        sim_end=env.now,
        report=obs.run_report(config, spec) if obs is not None else None,
    )


# -- the sweep ----------------------------------------------------------------


def sweep_points(
    config: Optional[ExperimentConfig] = None,
    scale: float = 0.125,
    seed: Optional[int] = None,
    rate_mb: int = 8,
    observe: bool = False,
) -> list[SweepPoint]:
    """The chaos scenarios as independent sweep points."""
    cfg = scaled_config(config or CASE_STUDY, scale, seed)
    spec = MigrationSpec.fixed(mb_per_sec(rate_mb))
    extra = {"observe": True} if observe else {}

    def point(label: str, **kwargs) -> SweepPoint:
        return SweepPoint(
            label=label,
            config=cfg,
            spec=spec,
            task=CHAOS_TASK,
            kwargs={"label": label, **extra, **kwargs},
        )

    return [
        point("baseline"),
        point("drop-05", messages={"drop_prob": 0.05}),
        point("drop-20", messages={"drop_prob": 0.20, "dup_prob": 0.05}),
        point(
            "dup-delay",
            messages={
                "dup_prob": 0.2,
                "delay_prob": 0.3,
                "delay_max": 0.05,
                "reorder_prob": 0.05,
            },
        ),
        point(
            "crash-target",
            scheduled=(
                {"at": 9.0, "kind": "crash_node", "node": "target", "duration": 8.0},
            ),
        ),
        point(
            "abort-backup",
            scheduled=({"at": 8.0, "kind": "abort_backup", "node": "source"},),
        ),
        point(
            "nic-collapse",
            scheduled=(
                {
                    "at": 7.0,
                    "kind": "nic_rate",
                    "node": "target",
                    "factor": 0.25,
                    "duration": 8.0,
                },
            ),
        ),
        # Partition + lease scenarios (PR 9): one-way silence, a full
        # split, a flapping link, a gray node — with leases + the
        # suspect-grace detector guarding the handover.
        point(
            "oneway-target-source",
            partitions=(
                {
                    "at": 8.0,
                    "duration": 6.0,
                    "kind": "oneway",
                    "src": "target",
                    "dst": "source",
                },
            ),
            lease_ttl=4.0,
            suspect_grace=2.0,
        ),
        point(
            "split-mid-migration",
            partitions=(
                {
                    "at": 9.0,
                    "duration": 5.0,
                    "kind": "split",
                    "groups": (("source",), ("target",)),
                },
            ),
            lease_ttl=4.0,
            suspect_grace=2.0,
        ),
        point(
            "flap-source-target",
            partitions=(
                {
                    "at": 7.0,
                    "duration": 10.0,
                    "kind": "flap",
                    "src": "source",
                    "dst": "target",
                    "period": 1.0,
                    "duty": 0.4,
                },
            ),
            lease_ttl=4.0,
            suspect_grace=2.0,
        ),
        point(
            "gray-target",
            partitions=(
                {
                    "at": 6.0,
                    "duration": 8.0,
                    "kind": "gray",
                    "node": "target",
                    "drop_prob": 0.4,
                    "delay": 0.02,
                },
            ),
            lease_ttl=4.0,
            suspect_grace=2.0,
        ),
    ]


def run(
    scale: float = 0.125,
    config: Optional[ExperimentConfig] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    observe: bool = False,
    pool=None,
) -> dict[str, ChaosRecord]:
    """Run all chaos scenarios; records keyed by scenario label."""
    runner = SweepRunner(jobs=jobs, pool=pool)
    return runner.run_labelled(
        sweep_points(config, scale=scale, seed=seed, observe=observe)
    )


def table(records: dict[str, ChaosRecord]) -> Table:
    out = Table(
        "Chaos sweep: migration under fault injection",
        ["scenario", "outcome", "invariants", "mean latency", "txns", "drops/dups"],
    )
    for label, rec in records.items():
        drops = rec.counter("messages_dropped") + rec.counter("messages_dropped_dead")
        out.add_row(
            label,
            rec.outcome + (f" ({rec.abort_reason})" if rec.abort_reason else ""),
            "OK" if rec.ok else "; ".join(rec.violations),
            format_ms(rec.mean_latency),
            str(rec.completed),
            f"{int(drops)}/{int(rec.counter('messages_duplicated'))}",
        )
    out.add_note(
        "all faults drawn from seeded rng streams; fingerprints replay bit-identically"
    )
    return out


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover - CLI
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.125)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any invariant is violated or replay diverges",
    )
    parser.add_argument("--out", type=str, default=None, help="write JSON report")
    parser.add_argument(
        "--obs-out",
        type=str,
        default=None,
        help="run with observability attached and write one "
        "<label>.report.json per scenario into this directory",
    )
    args = parser.parse_args(argv)

    observe = args.obs_out is not None
    records = run(scale=args.scale, seed=args.seed, jobs=args.jobs, observe=observe)
    print(table(records).render())

    if args.obs_out:
        os.makedirs(args.obs_out, exist_ok=True)
        for label, rec in records.items():
            if rec.report is not None:
                rec.report.write(os.path.join(args.obs_out, f"{label}.report.json"))

    replay_ok = True
    if args.check:
        # Replay serially and compare fingerprints: the whole sweep must
        # be a pure function of (seed, plan), regardless of job count —
        # and of whether observability was attached.
        replay = run(scale=args.scale, seed=args.seed, jobs=1, observe=False)
        for label, rec in records.items():
            if replay[label].fingerprint != rec.fingerprint:
                replay_ok = False
                print(f"REPLAY DIVERGED: {label}", file=sys.stderr)

    if args.out:
        payload = {
            label: {
                "outcome": rec.outcome,
                "abort_reason": rec.abort_reason,
                "violations": list(rec.violations),
                "fingerprint": rec.fingerprint,
                "completed": rec.completed,
                "arrived": rec.arrived,
                "mean_latency": rec.mean_latency,
                "sim_end": rec.sim_end,
                "counters": {k: v for k, v in rec.counters},
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
