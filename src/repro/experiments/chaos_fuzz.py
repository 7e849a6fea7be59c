"""Chaos fuzzer: fault plans vs. the invariant battery.

Each run is the paper's fundamental case — one tenant migrated from
``source`` to ``target`` — on a hardened, leased control plane (retry
policy on the bus, heartbeats, a suspect-grace failure detector) while
a :class:`~repro.faults.FaultPlan` mistreats it: partition windows
(including source↔controller links that starve lease renewals), node
crashes, NIC collapses, backup aborts, message soups, and controller
outages.  The migration is driven through
:class:`~repro.placement.executor.WaveExecutor` so the slack-budget
ledger participates and its release invariant is checkable.

A schedule seed deterministically expands into a random plan
(``--schedules``), or ``--plan PATH`` runs fixed plans from JSON files
in the reproducer format: the scenario library in
``tests/chaos_plans/`` and the minimized reproducers written here.

After every run the full invariant battery fires: exactly-once
tenancy, no handover committed under a stale/expired fencing token, no
budget reservation leaked, rollback leaves the source consistent, and
latency accounting conserved.  A failing seeded schedule is **shrunk**:
fault atoms are greedily removed one at a time, keeping a removal
whenever the violation persists, until no single atom can be dropped —
the minimized reproducer is emitted as JSON and replays with
``--plan``.

A seeded plan is a pure function of ``schedule_seed`` (drawn from the
named ``fuzz:plans`` stream), and a run is a pure function of
(config seed, plan), so every run replays exactly; ``--check`` replays
the whole batch serially with observation off and compares
fingerprints::

    python -m repro.experiments.chaos_fuzz --schedules 100 --jobs 4 --check
    python -m repro.experiments.chaos_fuzz --plan tests/chaos_plans --jobs 2 --check
    python -m repro.experiments.chaos_fuzz --plan fuzz_repros/fuzz-0005.repro.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..core.config import CASE_STUDY, ExperimentConfig
from ..faults import FaultInjector
from ..faults.invariants import check_invariants, plan_from_kwargs
from ..obs import Observability, RunReport
from ..parallel import SweepPoint, SweepRunner
from ..placement.budget import SlackBudgetLedger
from ..placement.executor import WaveExecutor
from ..placement.policy import MigrationProposal
from ..simulation import RandomStreams, Trace
from .common import scaled_config
from .fingerprint import Run, trajectory_fingerprint
from .harness import TenantOutcome, _build_cluster, attach_workload

__all__ = [
    "FuzzRecord",
    "generate_plan",
    "fuzz_point",
    "fuzz_points",
    "plan_points",
    "run",
    "shrink",
    "reproducer",
    "main",
]

#: Task path of :func:`fuzz_point` for :class:`SweepPoint`.
FUZZ_TASK = "repro.experiments.chaos_fuzz:fuzz_point"

#: Names reachable on the bus: the two nodes plus the lease endpoint.
#: Partitioning ``source``↔``controller`` starves renewals without
#: touching the data path — the nastiest case for fencing.
_ENDPOINTS = ("source", "target", "controller")

_EPSILON = 1e-9


@dataclass(frozen=True)
class FuzzRecord:
    """Compact, picklable outcome of one chaos run."""

    label: str
    #: Seed the plan was expanded from (replays bit-identically); 0
    #: for a fixed plan file without one.
    schedule_seed: int
    #: "completed", "aborted", "skipped", or "wedged".
    outcome: str
    #: Invariants that failed (empty = healthy run).
    violations: tuple[str, ...]
    #: SHA-256 over the observable trajectory; stable across replays
    #: and across jobs=1 vs jobs=N.
    fingerprint: str
    #: Number of fault atoms in the plan (shrinking's search space).
    atoms: int
    counters: tuple[tuple[str, float], ...]
    sim_end: float
    #: Observability snapshot when run with ``observe=True``; excluded
    #: from ``fingerprint``, which must not depend on who was watching.
    report: Optional[RunReport] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def counter(self, name: str) -> float:
        for key, value in self.counters:
            if key == name:
                return value
        raise KeyError(name)


# -- plan generation ----------------------------------------------------------


def generate_plan(schedule_seed: int, horizon: float = 20.0) -> dict:
    """Expand a schedule seed into picklable fault-plan kwargs.

    Pure function of ``schedule_seed``: all draws come from the
    ``fuzz:plans`` stream of a :class:`RandomStreams` rooted at the
    seed, so the same seed always yields the same plan.  Returns the
    kwargs consumed by :func:`fuzz_point` — ``messages``,
    ``scheduled``, ``partitions``, ``controller_down``.
    """
    rng = RandomStreams(schedule_seed).stream("fuzz:plans")

    messages = None
    if rng.random() < 0.5:
        messages = {
            "drop_prob": round(rng.uniform(0.0, 0.15), 4),
            "dup_prob": round(rng.uniform(0.0, 0.10), 4),
            "delay_prob": round(rng.uniform(0.0, 0.30), 4),
            "delay_max": round(rng.uniform(0.005, 0.05), 4),
            "after": round(rng.uniform(0.0, horizon * 0.25), 3),
        }

    partitions = []
    for _ in range(rng.randrange(3)):
        at = round(rng.uniform(2.0, horizon * 0.6), 3)
        duration = round(rng.uniform(1.0, horizon * 0.4), 3)
        kind = rng.choice(("oneway", "oneway", "split", "flap", "gray"))
        if kind == "oneway":
            src = rng.choice(_ENDPOINTS)
            dst = rng.choice(tuple(n for n in _ENDPOINTS if n != src))
            partitions.append(
                {"at": at, "duration": duration, "kind": "oneway",
                 "src": src, "dst": dst}
            )
        elif kind == "split":
            lone = rng.choice(_ENDPOINTS)
            rest = tuple(n for n in _ENDPOINTS if n != lone)
            groups = ((lone,), rest if rng.random() < 0.5 else rest[:1])
            partitions.append(
                {"at": at, "duration": duration, "kind": "split",
                 "groups": groups}
            )
        elif kind == "flap":
            src = rng.choice(_ENDPOINTS)
            dst = rng.choice(tuple(n for n in _ENDPOINTS if n != src))
            partitions.append(
                {"at": at, "duration": duration, "kind": "flap",
                 "src": src, "dst": dst,
                 "period": round(rng.uniform(0.5, 2.0), 3),
                 "duty": round(rng.uniform(0.2, 0.8), 3)}
            )
        else:
            partitions.append(
                {"at": at, "duration": duration, "kind": "gray",
                 "node": rng.choice(_ENDPOINTS),
                 "drop_prob": round(rng.uniform(0.1, 0.6), 3),
                 "delay": round(rng.uniform(0.0, 0.03), 4)}
            )

    scheduled = []
    for _ in range(rng.randrange(3)):
        at = round(rng.uniform(3.0, horizon * 0.6), 3)
        kind = rng.choice(("crash_target", "abort_backup", "nic_rate", "nic_stall"))
        if kind == "crash_target":
            # Only the target crashes: a crashed source takes the
            # migration driver down with it, which is a different
            # experiment (the fleet healer's), not a fuzzable fault.
            scheduled.append(
                {"at": at, "kind": "crash_node", "node": "target",
                 "duration": round(rng.uniform(2.0, 8.0), 3)}
            )
        elif kind == "abort_backup":
            scheduled.append({"at": at, "kind": "abort_backup", "node": "source"})
        elif kind == "nic_rate":
            scheduled.append(
                {"at": at, "kind": "nic_rate",
                 "node": rng.choice(("source", "target")),
                 "factor": round(rng.uniform(0.2, 0.6), 3),
                 "duration": round(rng.uniform(2.0, 8.0), 3)}
            )
        else:
            scheduled.append(
                {"at": at, "kind": "nic_stall",
                 "node": rng.choice(("source", "target")),
                 "duration": round(rng.uniform(0.5, 3.0), 3)}
            )

    controller_down = None
    if rng.random() < 0.3:
        controller_down = (
            round(rng.uniform(3.0, horizon * 0.5), 3),
            round(rng.uniform(2.0, horizon * 0.4), 3),
        )

    return {
        "messages": messages,
        "scheduled": tuple(scheduled),
        "partitions": tuple(partitions),
        "controller_down": controller_down,
    }


# -- one fuzz run -------------------------------------------------------------


def fuzz_point(
    config: ExperimentConfig,
    spec=None,
    label: str = "",
    schedule_seed: int = 0,
    messages: Optional[dict] = None,
    scheduled: tuple = (),
    partitions: tuple = (),
    controller_down: Optional[tuple] = None,
    setpoint: float = 0.25,
    warmup: float = 5.0,
    run_limit: float = 240.0,
    cooldown: float = 2.0,
    heartbeat_interval: float = 0.5,
    detector_interval: float = 0.5,
    miss_threshold: float = 3.0,
    suspect_grace: float = 2.0,
    lease_ttl: float = 4.0,
    break_fencing: bool = False,
    fluid_chunks: int = 0,
    observe: bool = False,
) -> FuzzRecord:
    """One chaos run: leased cluster + fault plan + invariant checks.

    ``messages``, ``scheduled`` and ``partitions`` are plain dicts (so
    points pickle), rehydrated into a :class:`FaultPlan` here.  The
    migration is a one-proposal wave of a :class:`WaveExecutor` with a
    dedicated :class:`SlackBudgetLedger`, so "every reservation
    released" is part of the checked surface.  ``controller_down``
    models a fail-stop controller outage (leases starve, holders must
    self-fence).  ``break_fencing=True`` disables the self-fence gate
    on every node — the deliberate bug the fuzzer must catch and
    shrink; it is only ever set by tests and the ``--break-fencing``
    demonstration flag.  ``fluid_chunks > 0`` migrates through the
    fluid chunked path instead of live; either way the chunk battery
    (:func:`~repro.migration.fluid.check_fluid_invariants`) is part of
    the checked invariants.
    ``observe=True`` fills ``record.report``; the fingerprint does not
    change, since observation is read-only.
    """
    plan = plan_from_kwargs(messages, tuple(scheduled), tuple(partitions))
    streams = RandomStreams(config.seed)
    cluster = _build_cluster(config, streams, lease_ttl=lease_ttl)
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
    if break_fencing:
        for node in cluster.nodes.values():
            node.fencing_enabled = False

    if controller_down is not None:
        down_at, down_for = controller_down

        def controller_outage():
            yield env.timeout(down_at)
            cluster.lease_manager.crash()
            yield env.timeout(down_for)
            cluster.lease_manager.restart()

        env.process(controller_outage())

    ledger = SlackBudgetLedger()
    executor = WaveExecutor(
        cluster, setpoint=setpoint, ledger=ledger, cooldown=0.0, obs=obs
    )
    proposal = MigrationProposal(
        tenant_id=1, source="source", target="target", reason="chaos-fuzz",
        chunks=fluid_chunks,
    )

    def driver():
        yield env.timeout(warmup)
        executor.launch_wave([proposal])
        yield from executor.settle()

    proc = env.process(driver())
    env.run(until=env.any_of([proc, env.timeout(run_limit)]))
    if proc.triggered:
        outcome = executor.stats.decisions[-1].outcome
        # Drain late duplicates/retries through the idempotent handlers.
        env.run(until=env.now + cooldown)
    else:
        outcome = "wedged"
    client.stop()

    # Live (one chunk) or fluid: the same engine, the same battery.
    migration = source.last_fluid_migration
    violations = check_invariants(
        outcome, cluster, tenant, source_engine, client, trace,
        # A wedged run is mid-flight by definition; the chunk battery's
        # terminal-state checks only apply once the migration resolved.
        fluid_migration=migration if outcome != "wedged" else None,
    )
    # The fuzzer's extra surface: the budget ledger must be whole again.
    leaked = ledger.reservations()
    if leaked:
        violations.append(
            f"budget reservations leaked: {[r.tenant_id for r in leaked]}"
        )
    for name in ("source", "target"):
        if abs(ledger.available(name) - ledger.capacity) > _EPSILON:
            violations.append(
                f"budget not restored on {name}: "
                f"{ledger.available(name):.6f} of {ledger.capacity:.6f} free"
            )

    counters: dict[str, float] = dict(cluster.bus.counters())
    for key, value in injector.stats.counters().items():
        counters[f"faults_{key}"] = value
    counters.update(cluster.lease_manager.stats.counters())
    counters["stale_tokens_rejected"] = (
        source.stats.stale_tokens_rejected + target.stats.stale_tokens_rejected
    )
    counters["lease_expired_aborts"] = source.stats.lease_expired_aborts
    counters["source_migrations_aborted"] = source.stats.migrations_aborted
    counters["duplicates_ignored"] = (
        source.stats.duplicates_ignored + target.stats.duplicates_ignored
    )
    counters["budget_events"] = len(ledger.history)
    if fluid_chunks and migration is not None:
        # Only present when fluid is on, so live fingerprints are
        # untouched.
        counters["fluid_chunk_flips"] = migration.chunk_map.flips
        counters["fluid_stale_flips_rejected"] = (
            migration.chunk_map.stale_flips_rejected
        )
        counters["fluid_writes_to_target"] = migration.router.writes_to_target
        counters["fluid_cross_hops"] = migration.router.cross_hops
        counters["fluid_foreign_serves"] = migration.router.foreign_serves
    counter_pairs = tuple(sorted(counters.items()))

    run = Run(
        tenants=[TenantOutcome(1, trace.series("tenant-1"), client.stats.completed)],
        sim_end=env.now,
    )
    fingerprint = trajectory_fingerprint({"fuzz": run}, facts=(outcome, counter_pairs))

    return FuzzRecord(
        label=label,
        schedule_seed=schedule_seed,
        outcome=outcome,
        violations=tuple(violations),
        fingerprint=fingerprint,
        atoms=_atom_count(messages, scheduled, partitions, controller_down),
        counters=counter_pairs,
        sim_end=env.now,
        report=obs.run_report(config, spec) if obs is not None else None,
    )


# -- the fuzz loop ------------------------------------------------------------


def fuzz_points(
    schedules: int = 100,
    config: Optional[ExperimentConfig] = None,
    scale: float = 0.0625,
    seed: Optional[int] = None,
    first_schedule: int = 0,
    break_fencing: bool = False,
    fluid_chunks: int = 0,
    observe: bool = False,
) -> list[SweepPoint]:
    """One sweep point per schedule seed, plans pre-expanded in the parent."""
    cfg = scaled_config(config or CASE_STUDY, scale, seed)
    extra = {"observe": True} if observe else {}
    points = []
    for schedule_seed in range(first_schedule, first_schedule + schedules):
        kwargs = generate_plan(schedule_seed)
        label = f"fuzz-{schedule_seed:04d}"
        points.append(
            SweepPoint(
                label=label,
                config=cfg,
                spec=None,
                task=FUZZ_TASK,
                kwargs={
                    "label": label,
                    "schedule_seed": schedule_seed,
                    "break_fencing": break_fencing,
                    # omitted when 0 so legacy points keep their cache keys
                    **({"fluid_chunks": fluid_chunks} if fluid_chunks else {}),
                    **kwargs,
                    **extra,
                },
            )
        )
    return points


def plan_points(path: str, observe: bool = False) -> list[SweepPoint]:
    """One sweep point per fixed-plan JSON file at ``path``.

    ``path`` is a file or a directory of ``*.json`` files (read in name
    order).  Each file is in the :func:`reproducer` format: its
    ``minimal_plan`` runs at the file's own ``scale`` and
    ``config_seed``, under the file's ``label``.
    """
    root = Path(path)
    files = sorted(root.glob("*.json")) if root.is_dir() else [root]
    if not files:
        raise ValueError(f"no plan files at {path}")
    extra = {"observe": True} if observe else {}
    points = []
    for file in files:
        data = json.loads(file.read_text())
        points.append(
            SweepPoint(
                label=data["label"],
                config=scaled_config(CASE_STUDY, data["scale"], data["config_seed"]),
                spec=None,
                task=FUZZ_TASK,
                kwargs={
                    "label": data["label"],
                    "schedule_seed": data.get("schedule_seed", 0),
                    # The plan's keys are fuzz_point's own arguments.
                    **data["minimal_plan"],
                    **extra,
                },
            )
        )
    return points


def run(
    schedules: int = 100,
    config: Optional[ExperimentConfig] = None,
    scale: float = 0.0625,
    seed: Optional[int] = None,
    first_schedule: int = 0,
    jobs: int = 1,
    break_fencing: bool = False,
    fluid_chunks: int = 0,
    pool=None,
) -> dict[str, FuzzRecord]:
    """Fuzz ``schedules`` seeded plans; records keyed by label."""
    runner = SweepRunner(jobs=jobs, pool=pool)
    return runner.run_labelled(
        fuzz_points(
            schedules,
            config,
            scale=scale,
            seed=seed,
            first_schedule=first_schedule,
            break_fencing=break_fencing,
            fluid_chunks=fluid_chunks,
        )
    )


# -- shrinking ----------------------------------------------------------------


def _atoms(messages, scheduled, partitions, controller_down) -> list[tuple]:
    """The plan's independently-removable fault atoms, in stable order."""
    atoms: list[tuple] = []
    if messages:
        atoms.append(("messages", None))
    for index in range(len(scheduled)):
        atoms.append(("scheduled", index))
    for index in range(len(partitions)):
        atoms.append(("partitions", index))
    if controller_down is not None:
        atoms.append(("controller_down", None))
    return atoms


def _atom_count(messages, scheduled, partitions, controller_down) -> int:
    return len(_atoms(messages, scheduled, partitions, controller_down))


def _without(kwargs: dict, atom: tuple) -> dict:
    """Plan kwargs with one atom removed."""
    out = dict(kwargs)
    kind, index = atom
    if kind == "messages":
        out["messages"] = None
    elif kind == "controller_down":
        out["controller_down"] = None
    else:
        items = tuple(out[kind])
        out[kind] = items[:index] + items[index + 1 :]
    return out


def shrink(
    config: ExperimentConfig,
    kwargs: dict,
    **fixed,
) -> tuple[dict, FuzzRecord, int]:
    """Greedy fault-removal shrinking of a violating plan.

    Repeatedly re-runs the point with one atom removed; a removal is
    kept whenever *some* invariant still fails.  Loops to a fixpoint
    (no single atom can be removed), so the result is 1-minimal.
    Returns ``(minimal_kwargs, final_record, runs_spent)``.  Runs
    serially in the caller — shrinking is rare and each run is small.
    """
    current = dict(kwargs)
    record = fuzz_point(config, **current, **fixed)
    if record.ok:
        raise ValueError("shrink() needs a violating plan to start from")
    runs = 1
    shrunk = True
    while shrunk:
        shrunk = False
        for atom in _atoms(
            current.get("messages"),
            current.get("scheduled", ()),
            current.get("partitions", ()),
            current.get("controller_down"),
        ):
            candidate = _without(current, atom)
            trial = fuzz_point(config, **candidate, **fixed)
            runs += 1
            if not trial.ok:
                current, record = candidate, trial
                shrunk = True
                break
    return current, record, runs


def reproducer(
    config: ExperimentConfig,
    record: FuzzRecord,
    kwargs: dict,
    minimal_kwargs: dict,
    minimal_record: FuzzRecord,
    scale: float,
) -> dict:
    """The minimized-reproducer payload written next to a failure."""
    return {
        "label": record.label,
        "schedule_seed": record.schedule_seed,
        "config_seed": config.seed,
        "scale": scale,
        "violations": list(minimal_record.violations),
        "original_violations": list(record.violations),
        "original_atoms": record.atoms,
        "minimal_atoms": minimal_record.atoms,
        "fingerprint": minimal_record.fingerprint,
        "plan": _plan_payload(kwargs),
        "minimal_plan": _plan_payload(minimal_kwargs),
        "replay": (
            f"python -m repro.experiments.chaos_fuzz --schedules 1 "
            f"--first-schedule {record.schedule_seed} --scale {scale:g}"
            + (f" --seed {config.seed}" if config.seed is not None else "")
        ),
    }


def _plan_payload(kwargs: dict) -> dict:
    return {
        "messages": kwargs.get("messages"),
        "scheduled": [dict(s) for s in kwargs.get("scheduled", ())],
        "partitions": [
            {k: list(v) if isinstance(v, tuple) else v for k, v in dict(p).items()}
            for p in kwargs.get("partitions", ())
        ],
        "controller_down": (
            list(kwargs["controller_down"])
            if kwargs.get("controller_down") is not None
            else None
        ),
        "break_fencing": bool(kwargs.get("break_fencing", False)),
        "fluid_chunks": int(kwargs.get("fluid_chunks", 0)),
    }


# -- CLI ----------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover - CLI
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schedules", type=int, default=100)
    parser.add_argument("--first-schedule", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.0625)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on any invariant violation, or if a serial "
        "replay without observability changes any fingerprint",
    )
    parser.add_argument(
        "--break-fencing",
        action="store_true",
        help="disable self-fencing on every node: the deliberate bug "
        "the fuzzer must catch (demonstration / CI self-test)",
    )
    parser.add_argument(
        "--fluid-chunks",
        type=int,
        default=0,
        help="migrate through the fluid chunked path with this many "
        "chunks (0 = live migration, the one-chunk case)",
    )
    parser.add_argument(
        "--plan",
        type=str,
        default=None,
        help="run the fixed plan of this reproducer-format JSON file, or "
        "of every *.json file in this directory, at each file's own "
        "scale and config seed, instead of seeded schedules",
    )
    parser.add_argument("--out", type=str, default=None, help="write JSON report")
    parser.add_argument(
        "--obs-out",
        type=str,
        default=None,
        help="run with observability attached and write one "
        "<label>.report.json per run into this directory",
    )
    parser.add_argument(
        "--repro-out",
        type=str,
        default=None,
        help="directory for minimized-reproducer JSON files",
    )
    args = parser.parse_args(argv)
    if args.plan and (args.break_fencing or args.fluid_chunks):
        parser.error("--plan takes --break-fencing and --fluid-chunks from each file")

    def points(observe: bool) -> list[SweepPoint]:
        if args.plan:
            return plan_points(args.plan, observe=observe)
        return fuzz_points(
            args.schedules,
            scale=args.scale,
            seed=args.seed,
            first_schedule=args.first_schedule,
            break_fencing=args.break_fencing,
            fluid_chunks=args.fluid_chunks,
            observe=observe,
        )

    records = SweepRunner(jobs=args.jobs).run_labelled(points(args.obs_out is not None))

    outcomes: dict[str, int] = {}
    for rec in records.values():
        outcomes[rec.outcome] = outcomes.get(rec.outcome, 0) + 1
    failures = {label: rec for label, rec in records.items() if not rec.ok}
    print(
        f"chaos fuzz: {len(records)} {'plans' if args.plan else 'schedules'}, "
        f"outcomes {outcomes}, {len(failures)} invariant failure(s)"
    )

    if args.obs_out:
        os.makedirs(args.obs_out, exist_ok=True)
        for label, rec in records.items():
            rec.report.write(os.path.join(args.obs_out, f"{label}.report.json"))

    diverged = []
    if args.check:
        # The batch must be a pure function of (seed, plan), regardless
        # of job count and of whether observability was attached.
        replay = SweepRunner(jobs=1).run_labelled(points(observe=False))
        diverged = [
            label
            for label, rec in records.items()
            if replay[label].fingerprint != rec.fingerprint
        ]
        for label in diverged:
            print(f"REPLAY DIVERGED: {label}", file=sys.stderr)

    cfg = scaled_config(CASE_STUDY, args.scale, args.seed)
    for label, rec in sorted(failures.items()):
        if args.plan:
            # A plan file is already minimal or hand-written: report it.
            print(f"  {label}: {'; '.join(rec.violations)}")
            continue
        kwargs = dict(generate_plan(rec.schedule_seed))
        kwargs["break_fencing"] = args.break_fencing
        if args.fluid_chunks:
            kwargs["fluid_chunks"] = args.fluid_chunks
        minimal, min_rec, runs = shrink(cfg, kwargs)
        payload = reproducer(cfg, rec, kwargs, minimal, min_rec, args.scale)
        print(
            f"  {label}: {rec.atoms} atoms -> {min_rec.atoms} "
            f"({runs} shrink runs): {'; '.join(min_rec.violations)}"
        )
        if args.repro_out:
            os.makedirs(args.repro_out, exist_ok=True)
            path = os.path.join(args.repro_out, f"{label}.repro.json")
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            print(f"  wrote {path} (replay with --plan {path})")

    if args.out:
        payload = {
            label: {
                "schedule_seed": rec.schedule_seed,
                "outcome": rec.outcome,
                "violations": list(rec.violations),
                "fingerprint": rec.fingerprint,
                "atoms": rec.atoms,
                "sim_end": rec.sim_end,
                "counters": dict(rec.counters),
            }
            for label, rec in records.items()
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    if args.check and failures:
        print(f"invariant violations in: {sorted(failures)}", file=sys.stderr)
    return 1 if args.check and (failures or diverged) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
