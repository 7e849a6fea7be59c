"""The fault injector: binds a :class:`FaultPlan` to one simulation.

The injector hooks the existing layers rather than replacing them:

* message faults ride the bus's ``faults`` attribute — the transport
  asks :meth:`FaultInjector.message_fate` once per delivery and
  :meth:`FaultInjector.is_down` at each end of the hop;
* node crashes call :meth:`SlackerNode.crash` (fail-stop of the
  middleware daemon: heartbeats stop, messages vanish, outgoing
  migrations abort) and later :meth:`SlackerNode.restart`;
* NIC/disk stalls hold the underlying capacity-1 resource at high
  priority, so everything behind them queues — exactly what a hung
  controller or a firmware pause looks like;
* NIC/disk rate collapses rebind the resource's parameter block to a
  scaled-bandwidth copy for the duration;
* ``abort_backup`` cancels whatever migration the named node is
  running mid-stream via :meth:`FluidMigration.try_abort`.

All randomness comes from one named ``RandomStreams`` child stream, so
a chaos run is a pure function of (config seed, plan) and replays
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..simulation import Environment, RandomStreams, Request
from .plan import FaultPlan, PartitionFault, ScheduledFault

__all__ = ["MessageFate", "FaultStats", "FaultInjector"]


@dataclass(frozen=True)
class MessageFate:
    """The injector's verdict for one message delivery."""

    drop: bool = False
    duplicate: bool = False
    delay: float = 0.0


@dataclass
class FaultStats:
    """Running counters for one injector."""

    fates_drawn: int = 0
    node_crashes: int = 0
    node_restarts: int = 0
    nic_stalls: int = 0
    nic_rate_collapses: int = 0
    disk_stalls: int = 0
    disk_rate_collapses: int = 0
    backup_aborts: int = 0
    partitions_started: int = 0
    partitions_ended: int = 0
    gray_drops: int = 0
    #: Scheduled faults that found nothing to act on (e.g. an
    #: ``abort_backup`` when no migration was in flight).
    noops: int = 0

    def counters(self) -> dict[str, int]:
        return {
            "fates_drawn": self.fates_drawn,
            "node_crashes": self.node_crashes,
            "node_restarts": self.node_restarts,
            "nic_stalls": self.nic_stalls,
            "nic_rate_collapses": self.nic_rate_collapses,
            "disk_stalls": self.disk_stalls,
            "disk_rate_collapses": self.disk_rate_collapses,
            "backup_aborts": self.backup_aborts,
            "partitions_started": self.partitions_started,
            "partitions_ended": self.partitions_ended,
            "gray_drops": self.gray_drops,
            "noops": self.noops,
        }


class FaultInjector:
    """Executes a :class:`FaultPlan` against one cluster."""

    def __init__(
        self,
        env: Environment,
        plan: FaultPlan,
        streams: RandomStreams,
    ):
        self.env = env
        self.plan = plan
        self._rng = streams.stream("faults:messages")
        self.stats = FaultStats()
        self._down: set[str] = set()
        #: Hard-blocked (sender, recipient) links, refcounted because
        #: overlapping splits/oneways may block the same pair.
        self._blocked_links: dict[tuple[str, str], int] = {}
        #: Active flapping faults (checked per message via arithmetic,
        #: not timer processes, so an idle flap costs zero events).
        self._flapping: list[PartitionFault] = []
        #: node -> active gray failures touching it.
        self._gray: dict[str, list[PartitionFault]] = {}
        #: Lazily-created stream for gray-failure fate draws; separate
        #: from ``faults:messages`` so adding a partition to a plan
        #: never perturbs the probabilistic message-fault draws.
        self._streams = streams
        self._gray_rng = None
        self.cluster = None
        #: Optional :class:`~repro.obs.Observability`, set by
        #: ``Observability.attach``; ``None`` keeps fault paths free of
        #: metric updates.
        self.obs = None

    def attach(self, cluster) -> "FaultInjector":
        """Hook the plan into a :class:`SlackerCluster`; returns self.

        Attaching an *empty* plan is free: the bus hook short-circuits
        before drawing anything, and no scheduler processes start.
        """
        self.cluster = cluster
        cluster.bus.faults = self
        for fault in self.plan.scheduled:
            self.env.process(self._run_scheduled(fault))
        for fault in self.plan.partitions:
            self.env.process(self._run_partition(fault))
        return self

    # -- bus hooks ---------------------------------------------------------

    def is_down(self, name: str) -> bool:
        """True while ``name``'s middleware daemon is crashed."""
        return name in self._down

    def link_blocked(self, sender: str, recipient: str) -> bool:
        """True while the ``sender`` → ``recipient`` link is cut.

        Hard blocks (oneway/split windows) are refcounted set lookups;
        flapping links are pure arithmetic on the window phase, so no
        timer events fire per flap cycle.
        """
        if self._blocked_links.get((sender, recipient), 0) > 0:
            return True
        if self._flapping:
            now = self.env.now
            for fault in self._flapping:
                if fault.src == sender and fault.dst == recipient:
                    phase = (now - fault.at) % fault.period
                    if phase < fault.period * fault.duty:
                        return True
        return False

    def message_fate(self, sender: str, recipient: str) -> Optional[MessageFate]:
        """Draw the fate of one message, or ``None`` for fault-free."""
        fate: Optional[MessageFate] = None
        mf = self.plan.messages
        if mf.active and self.env.now >= mf.after:
            rng = self._rng
            self.stats.fates_drawn += 1
            if mf.drop_prob > 0 and rng.random() < mf.drop_prob:
                if self.obs is not None:
                    self.obs.fault_activations.inc()
                return MessageFate(drop=True)
            duplicate = mf.dup_prob > 0 and rng.random() < mf.dup_prob
            delay = 0.0
            if mf.delay_prob > 0 and rng.random() < mf.delay_prob:
                delay = rng.uniform(mf.delay_min, mf.delay_max)
            elif mf.reorder_prob > 0 and rng.random() < mf.reorder_prob:
                # Reordering is a targeted long delay: later messages on
                # the same hop overtake this one.
                delay = mf.reorder_delay
            if duplicate or delay > 0.0:
                if self.obs is not None:
                    self.obs.fault_activations.inc()
                fate = MessageFate(duplicate=duplicate, delay=delay)
        if self._gray:
            fate = self._gray_fate(sender, recipient, fate)
        return fate

    def _gray_fate(
        self, sender: str, recipient: str, fate: Optional[MessageFate]
    ) -> Optional[MessageFate]:
        """Layer active gray failures on top of a probabilistic fate."""
        drop_prob = 0.0
        extra_delay = 0.0
        for name in (sender, recipient):
            for fault in self._gray.get(name, ()):
                drop_prob = max(drop_prob, fault.drop_prob)
                extra_delay += fault.delay
        if drop_prob <= 0.0 and extra_delay <= 0.0:
            return fate
        if self._gray_rng is None:
            self._gray_rng = self._streams.stream("faults:gray")
        if drop_prob > 0.0 and self._gray_rng.random() < drop_prob:
            self.stats.gray_drops += 1
            if self.obs is not None:
                self.obs.fault_activations.inc()
            return MessageFate(drop=True)
        if extra_delay <= 0.0:
            return fate
        if fate is None:
            return MessageFate(delay=extra_delay)
        return MessageFate(duplicate=fate.duplicate, delay=fate.delay + extra_delay)

    # -- scheduled faults --------------------------------------------------

    def _node(self, name: str):
        if self.cluster is None:
            raise RuntimeError("injector is not attached to a cluster")
        return self.cluster.node(name)

    def _run_scheduled(self, fault: ScheduledFault):
        yield self.env.timeout(fault.at)
        if self.obs is not None:
            self.obs.on_scheduled_fault(fault)
        kind = fault.kind
        if kind == "crash_node":
            yield from self._crash(fault)
        elif kind == "restart_node":
            self._restart(fault.node)
        elif kind == "nic_stall":
            server = self._node(fault.node).server
            self.stats.nic_stalls += 1
            yield from self._stall(server.nic_out._wire, fault.duration)
        elif kind == "disk_stall":
            server = self._node(fault.node).server
            self.stats.disk_stalls += 1
            yield from self._stall(server.disk._arm, fault.duration)
        elif kind == "nic_rate":
            server = self._node(fault.node).server
            self.stats.nic_rate_collapses += 1
            yield from self._collapse_nic(server, fault)
        elif kind == "disk_rate":
            server = self._node(fault.node).server
            self.stats.disk_rate_collapses += 1
            yield from self._collapse_disk(server, fault)
        elif kind == "abort_backup":
            self._abort_backup(fault)

    def _crash(self, fault: ScheduledFault):
        node = self._node(fault.node)
        self._down.add(fault.node)
        node.crash(reason=fault.reason or f"injected crash at t={fault.at:g}")
        self.stats.node_crashes += 1
        if fault.duration > 0:
            yield self.env.timeout(fault.duration)
            self._restart(fault.node)

    def _restart(self, name: str) -> None:
        node = self._node(name)
        self._down.discard(name)
        if not node.alive:
            node.restart()
            self.stats.node_restarts += 1
        else:
            self.stats.noops += 1

    def _stall(self, resource, duration: float):
        """Serve a stall of ``duration`` on a capacity-1 resource, ahead
        of every other waiter, so everything behind it queues."""
        stall = resource.serve(-(10**6), float, duration)
        if stall.__class__ is Request:
            try:
                yield stall
            finally:
                resource.release(stall)

    def _collapse_nic(self, server, fault: ScheduledFault):
        for link in (server.nic_out, server.nic_in):
            link.params = replace(
                link.params, bandwidth=link.params.bandwidth * fault.factor
            )
        yield self.env.timeout(fault.duration)
        for link in (server.nic_out, server.nic_in):
            link.params = replace(
                link.params, bandwidth=link.params.bandwidth / fault.factor
            )

    def _collapse_disk(self, server, fault: ScheduledFault):
        disk = server.disk
        disk.params = replace(
            disk.params,
            sequential_bandwidth=disk.params.sequential_bandwidth * fault.factor,
            random_bandwidth=disk.params.random_bandwidth * fault.factor,
        )
        yield self.env.timeout(fault.duration)
        disk.params = replace(
            disk.params,
            sequential_bandwidth=disk.params.sequential_bandwidth / fault.factor,
            random_bandwidth=disk.params.random_bandwidth / fault.factor,
        )

    # -- partitions --------------------------------------------------------

    def _run_partition(self, fault: PartitionFault):
        """Activate one partition window and tear it down after."""
        yield self.env.timeout(fault.at)
        self.stats.partitions_started += 1
        if self.obs is not None:
            self.obs.fault_activations.inc()
        links = fault.links()
        if fault.kind == "flap":
            self._flapping.append(fault)
        elif fault.kind == "gray":
            self._gray.setdefault(fault.node, []).append(fault)
        else:
            for link in links:
                self._blocked_links[link] = self._blocked_links.get(link, 0) + 1
        yield self.env.timeout(fault.duration)
        if fault.kind == "flap":
            self._flapping.remove(fault)
        elif fault.kind == "gray":
            entries = self._gray[fault.node]
            entries.remove(fault)
            if not entries:
                del self._gray[fault.node]
        else:
            for link in links:
                remaining = self._blocked_links[link] - 1
                if remaining:
                    self._blocked_links[link] = remaining
                else:
                    del self._blocked_links[link]
        self.stats.partitions_ended += 1

    def _abort_backup(self, fault: ScheduledFault) -> None:
        node = self._node(fault.node)
        reason = fault.reason or "backup stream aborted by fault injection"
        aborted = False
        for migration in list(node.active_migrations.values()):
            if migration.try_abort(reason):
                aborted = True
                self.stats.backup_aborts += 1
        if not aborted:
            self.stats.noops += 1
