"""The invariant battery every chaos run is checked against.

After a migration reaches a terminal state (or is declared wedged),
:func:`check_invariants` audits the cluster: exactly-once tenancy, the
frontend agreeing with the registries, a consistent source after a
completion or a rollback, conserved latency accounting, no handover
committed under an invalid lease and no lease left held, plus the
fluid chunk-ownership battery when a fluid migration ran.  The chaos
fuzzer calls it after every run.
"""

from __future__ import annotations

from typing import Optional

from ..db.engine import EngineState
from ..middleware.tenant import TenantStatus
from ..migration.fluid import check_fluid_invariants
from .plan import FaultPlan, MessageFaults, PartitionFault, ScheduledFault

__all__ = ["check_invariants", "plan_from_kwargs"]


def plan_from_kwargs(
    messages: Optional[dict], scheduled: tuple, partitions: tuple = ()
) -> FaultPlan:
    """Rehydrate a :class:`FaultPlan` from picklable dicts/dict-tuples."""
    return FaultPlan(
        messages=MessageFaults(**messages) if messages else MessageFaults(),
        scheduled=tuple(ScheduledFault(**dict(s)) for s in scheduled),
        partitions=tuple(PartitionFault(**dict(p)) for p in partitions),
    )


def check_invariants(
    outcome: str, cluster, tenant, source_engine, client, trace,
    fluid_migration=None,
) -> list[str]:
    """Audit tenant 1 after a chaos run; returns violation strings.

    ``outcome`` is "completed", "aborted" or "wedged"; ``tenant`` and
    ``source_engine`` are the migrated tenant and the engine it started
    on; ``client`` and ``trace`` are its workload and latency record.
    """
    violations: list[str] = []
    if outcome == "wedged":
        violations.append("migration neither completed nor aborted (wedged)")

    census = cluster.tenant_census()
    hosts = census.get(1, [])
    if len(hosts) != 1:
        violations.append(f"tenant 1 hosted on {hosts!r}, expected exactly one node")
    located = cluster.locate(1)
    if hosts and located != hosts[0]:
        violations.append(
            f"frontend says tenant 1 is on {located!r}, registry says {hosts[0]!r}"
        )

    if outcome == "completed":
        if hosts != ["target"]:
            violations.append(f"completed migration left tenant on {hosts!r}")
        if source_engine.state is not EngineState.STOPPED:
            violations.append(
                f"completed migration left source engine {source_engine.state}"
            )
        elif source_engine.successor is None:
            violations.append("stopped source engine has no successor wired")
    elif outcome == "aborted":
        if hosts != ["source"]:
            violations.append(f"aborted migration left tenant on {hosts!r}")
        if tenant.status is not TenantStatus.ACTIVE:
            violations.append(f"aborted migration left tenant status {tenant.status}")
        if source_engine.state is not EngineState.RUNNING:
            violations.append(
                f"aborted migration left source engine {source_engine.state}"
            )
    if source_engine.is_frozen:
        violations.append("source engine left frozen")

    samples = len(trace.series("tenant-1"))
    if samples != client.stats.completed:
        violations.append(
            f"latency accounting mismatch: {samples} samples, "
            f"{client.stats.completed} completions"
        )

    manager = cluster.lease_manager
    if manager is not None:
        # No handover may ever commit under an expired or superseded
        # lease — the controller's audit log is ground truth.
        for record in manager.commit_log:
            if not record.valid:
                violations.append(
                    f"handover committed under invalid lease token "
                    f"{record.token} for tenant {record.tenant_id} "
                    f"at t={record.at:g}"
                )
        held = manager.outstanding()
        if held:
            violations.append(
                f"leases still held after terminal state: {held}"
            )

    if fluid_migration is not None:
        # The live/fluid engine adds its own surface: every chunk owned
        # exactly once, no page ever served by a non-owner, nothing
        # left frozen, write accounting conserved across residents.
        violations.extend(check_fluid_invariants(fluid_migration))
    return violations
