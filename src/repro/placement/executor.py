"""Wave planning and execution: concurrent migrations under slack budgets.

The original manager hard-serialized on a ``_migrating`` flag — correct
(two PID throttles on one node each consume the slack the other is
discovering) but hopeless at fleet scale, where draining a node or
rebalancing a hundred-node cluster must run many transfers at once.

The refactor splits the old detect-propose-execute loop into:

* :class:`WavePlanner` — turns one load snapshot into a *wave* of
  non-conflicting :class:`~repro.placement.policy.MigrationProposal`s
  (no node or tenant appears twice in a wave);
* :class:`WaveExecutor` — admits proposals against the per-node
  :class:`~repro.placement.budget.SlackBudgetLedger` and a fleet-wide
  concurrency cap, then runs each admitted migration as its own
  process.  A stream's budget share scales its latency setpoint via
  :func:`repro.control.tuning.budget_setpoint`, so concurrent
  transfers split a node's slack instead of fighting over it.

The executor is the **only** placement module allowed to call
``node.migrate_tenant`` (lint rule SLK106): every migration the
placement layer starts is visible to the ledger, so the oversubscription
invariant holds by construction.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..control.tuning import budget_setpoint
from ..middleware.cluster import SlackerCluster
from ..migration.result import MigrationAborted
from .budget import BudgetReservation, SlackBudgetLedger
from .decisions import PlacementDecision, PlacementStats
from .monitor import NodeLoad
from .policy import HotspotDetector, MigrationProposal, PlacementChooser

__all__ = ["WavePlanner", "WaveExecutor"]

#: Tolerance for float accumulation in budget comparisons.
_EPSILON = 1e-9


class WavePlanner:
    """Turns one load snapshot into a wave of non-conflicting proposals.

    Detection order and chooser inputs match the pre-wave serialized
    manager's when nothing is busy: the first proposal of a
    :meth:`plan` wave is the one that manager would have executed
    (``tests/test_fleet.py::TestK1BitIdentity`` relies on it).
    """

    def __init__(self, detector: HotspotDetector, chooser: PlacementChooser):
        self.detector = detector
        self.chooser = chooser

    def plan(
        self,
        loads: dict[str, NodeLoad],
        busy_tenants: Iterable[int] = (),
        busy_nodes: Iterable[str] = (),
        excluded_targets: Iterable[str] = (),
    ) -> list[MigrationProposal]:
        """One detector-driven wave for the given snapshot.

        ``busy_tenants``/``busy_nodes`` are already migrating (or
        budget-saturated) and are planned around; ``excluded_targets``
        (draining or dead nodes) never receive tenants.  Each proposal
        claims its tenant and both endpoints, so the wave is
        conflict-free by construction.
        """
        claimed_nodes = set(busy_nodes)
        claimed_tenants = set(busy_tenants)
        excluded = set(excluded_targets)
        wave: list[MigrationProposal] = []
        for hot in self.detector.hot_nodes(loads):
            if hot in claimed_nodes:
                continue
            visible = {
                name: load
                for name, load in loads.items()
                if name == hot
                or (name not in claimed_nodes and name not in excluded)
            }
            proposal = self.chooser.propose(hot, visible)
            if proposal is None or proposal.tenant_id in claimed_tenants:
                continue
            wave.append(proposal)
            claimed_nodes.update((proposal.source, proposal.target))
            claimed_tenants.add(proposal.tenant_id)
        return wave

    def plan_drain(
        self,
        source: str,
        loads: dict[str, NodeLoad],
        busy_tenants: Iterable[int] = (),
        excluded_targets: Iterable[str] = (),
    ) -> list[MigrationProposal]:
        """A wave evacuating every remaining tenant of ``source``.

        Targets are the alive, non-excluded nodes; tenants are spread
        by projected (tenant count, data bytes) so one wave does not
        pile a whole node onto the single coolest neighbour.  Biggest
        data directories go first: the longest transfers start
        earliest, so the drain's makespan tracks the largest tenant
        rather than the sum.
        """
        source_load = loads.get(source)
        if source_load is None:
            return []
        claimed = set(busy_tenants)
        excluded = set(excluded_targets) | {source}
        targets = [
            load
            for name, load in loads.items()
            if name not in excluded and load.alive
        ]
        if not targets:
            return []
        # Projected per-target pressure (count, bytes) as this wave is
        # laid out, seeded from the snapshot.
        projected: dict[str, list[float]] = {
            load.node: [
                float(load.tenant_count),
                float(sum(t.data_bytes for t in load.tenants)),
            ]
            for load in targets
        }
        pending = sorted(
            (t for t in source_load.tenants if t.tenant_id not in claimed),
            key=lambda t: (-t.data_bytes, t.tenant_id),
        )
        wave: list[MigrationProposal] = []
        for tenant in pending:
            name = min(
                projected,
                key=lambda n: (projected[n][0], projected[n][1], n),
            )
            projected[name][0] += 1.0
            projected[name][1] += float(tenant.data_bytes)
            wave.append(
                MigrationProposal(
                    tenant_id=tenant.tenant_id,
                    source=source,
                    target=name,
                    reason=f"drain {source}: tenant {tenant.tenant_id} to {name}",
                )
            )
        return wave


class WaveExecutor:
    """Admits and runs waves of migrations under the slack-budget ledger.

    ``max_concurrent`` caps fleet-wide in-flight migrations;
    ``max_streams_per_node`` fixes each stream's budget share at
    ``capacity / max_streams_per_node``, which in turn scales the
    stream's effective latency setpoint.  With both at 1 a wave holds
    one migration at the full setpoint.  After each migration,
    completed or aborted, both of its endpoints rest for ``cooldown``
    seconds.
    """

    def __init__(
        self,
        cluster: SlackerCluster,
        setpoint: float,
        stats: Optional[PlacementStats] = None,
        ledger: Optional[SlackBudgetLedger] = None,
        cooldown: float = 30.0,
        max_concurrent: int = 1,
        max_streams_per_node: int = 1,
        obs=None,
    ):
        if setpoint <= 0:
            raise ValueError(f"setpoint must be positive, got {setpoint}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if max_streams_per_node < 1:
            raise ValueError(
                f"max_streams_per_node must be >= 1, got {max_streams_per_node}"
            )
        self.cluster = cluster
        self.setpoint = setpoint
        self.stats = stats if stats is not None else PlacementStats()
        self.ledger = ledger if ledger is not None else SlackBudgetLedger()
        self.cooldown = cooldown
        self.max_concurrent = max_concurrent
        self.max_streams_per_node = max_streams_per_node
        #: Budget share each admitted stream reserves at both endpoints.
        self.share = self.ledger.capacity / max_streams_per_node
        self.obs = obs
        #: tenant_id -> in-flight migration process.
        self.active: dict[int, object] = {}
        self._node_cooldown_until: dict[str, float] = {}

    # -- queries ---------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self.active)

    def busy_tenants(self) -> frozenset[int]:
        """Tenants currently mid-migration."""
        return frozenset(self.active)

    def blocked_nodes(self, now: float) -> set[str]:
        """Nodes that cannot take another stream right now.

        A node is blocked while it rests in its post-migration cooldown
        or while its remaining budget cannot fit one more share.
        """
        blocked = {
            node
            for node, until in self._node_cooldown_until.items()
            if now < until
        }
        for reservation in self.ledger.reservations():
            for node in (reservation.source, reservation.target):
                if self.ledger.available(node) < self.share - _EPSILON:
                    blocked.add(node)
        return blocked

    def active_for_node(self, node: str) -> int:
        """In-flight migrations touching ``node`` (either endpoint)."""
        return sum(
            1
            for r in self.ledger.reservations()
            if node in (r.source, r.target)
        )

    # -- waves -----------------------------------------------------------

    def launch_wave(
        self,
        proposals: Sequence[MigrationProposal],
        respect_cooldown: bool = True,
        setpoint: Optional[float] = None,
    ) -> list[PlacementDecision]:
        """Admit and start as many proposals as budget allows.

        Proposals are considered in order; each is admitted only if the
        fleet-wide cap has room, its tenant is not already moving, both
        endpoints are out of cooldown (unless ``respect_cooldown`` is
        off — drains do not rest), and the ledger can fit one more
        share at both endpoints.  Returns the decisions actually
        launched; budget-deferred proposals are simply re-planned next
        wave, while stale ones (tenant already gone) record a skip.
        """
        env = self.cluster.env
        now = env.now
        launched: list[PlacementDecision] = []
        for proposal in proposals:
            if len(self.active) >= self.max_concurrent:
                break
            if proposal.tenant_id in self.active:
                continue
            if respect_cooldown and (
                now < self._node_cooldown_until.get(proposal.source, 0.0)
                or now < self._node_cooldown_until.get(proposal.target, 0.0)
            ):
                continue
            source = self.cluster.node(proposal.source)
            if not source.alive:
                continue
            if proposal.tenant_id not in source.registry:
                self.stats.skipped += 1
                self.stats.decisions.append(
                    PlacementDecision(
                        time=now,
                        proposal=proposal,
                        executed=False,
                        outcome="skipped",
                    )
                )
                continue
            if not self.ledger.can_admit(
                proposal.source, proposal.target, self.share
            ):
                continue
            reservation = self.ledger.reserve(
                proposal.tenant_id,
                proposal.source,
                proposal.target,
                share=self.share,
                time=now,
            )
            decision = PlacementDecision(
                time=now, proposal=proposal, executed=False
            )
            self.stats.decisions.append(decision)
            process = env.process(
                self._run_one(proposal, reservation, decision, setpoint)
            )
            self.active[proposal.tenant_id] = process
            launched.append(decision)
        if launched:
            self.stats.waves += 1
            if self.obs is not None:
                self.obs.on_wave(len(launched))
        return launched

    def _run_one(
        self,
        proposal: MigrationProposal,
        reservation: BudgetReservation,
        decision: PlacementDecision,
        setpoint: Optional[float] = None,
    ):
        """Process: one budgeted migration, releasing its share at exit."""
        env = self.cluster.env
        source = self.cluster.node(proposal.source)
        base = self.setpoint if setpoint is None else setpoint
        effective = budget_setpoint(
            base, reservation.share / self.ledger.capacity
        )
        try:
            result = yield env.process(
                source.migrate_tenant(
                    proposal.tenant_id,
                    proposal.target,
                    setpoint=effective,
                    chunks=proposal.chunks or None,
                    method="fluid" if proposal.chunks else "live",
                )
            )
        except MigrationAborted:
            decision.outcome = "aborted"
            self.stats.aborted += 1
            if self.obs is not None:
                self.obs.on_fleet_migration(aborted=True)
        else:
            decision.executed = True
            decision.outcome = "completed"
            decision.duration = result.duration
            decision.downtime = result.downtime
            self.stats.migrations += 1
            if self.obs is not None:
                self.obs.on_fleet_migration(
                    aborted=False, seconds=result.duration
                )
        finally:
            self.active.pop(proposal.tenant_id, None)
            self.ledger.release(reservation, time=env.now)
            rest = env.now + self.cooldown
            self._node_cooldown_until[proposal.source] = rest
            self._node_cooldown_until[proposal.target] = rest

    def settle(self):
        """Process: wait until every in-flight migration has finished."""
        env = self.cluster.env
        while self.active:
            yield env.all_of(tuple(self.active.values()))
