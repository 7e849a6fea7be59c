"""A Slacker node: the per-server migration controller.

"Each server running an instance of Slacker operates a single
server-wide migration controller that migrates MySQL instances on the
server between other servers running Slacker.  In addition to
migrating existing tenants, the middleware is also responsible for
instantiating (or deleting) MySQL instances for new tenants"
(Section 2).

The node owns tenant lifecycle (create/delete), answers control-plane
messages from peers, and runs outgoing migrations — with either a
fixed throttle or the PID-driven dynamic throttle.  For dynamic
migrations the controller's process variable pools the latency of
*all* tenants on the node (and optionally the target node), per
Sections 5.6 and 6.

Failure handling
----------------

The control plane is hardened against an unreliable bus (see
``docs/FAULTS.md``):

* every handler is **idempotent** — duplicate or late control messages
  (the natural consequence of at-least-once delivery under retries)
  are detected and ignored;
* outgoing migrations are bounded: the accept round-trip races a
  timeout (when the bus carries a retry policy), and undeliverable
  requests abort the migration with the tenant rolled back to plain
  ``ACTIVE`` at the source;
* a node can ``crash()`` (fail-stop of the middleware daemon: its
  messages vanish, heartbeats stop, outgoing migrations abort; tenant
  mysqld daemons keep serving — they are separate processes) and later
  ``restart()``;
* a **failure detector** declares peers dead after a configurable
  number of missed heartbeats and cancels in-flight migrations whose
  target is the dead peer (Zephyr semantics: the tenant stays at the
  source).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..control.adaptive import AdaptivePidController
from ..control.pid import PAPER_GAINS, PidGains
from ..control.window import DEFAULT_WINDOW, LatencyWindow
from ..db.engine import DatabaseEngine
from ..db.pages import TableLayout
from ..migration.controller import ControllerConfig, DynamicThrottleController
from ..migration.fluid import DEFAULT_NUM_CHUNKS, FluidMigration
from ..migration.on_demand import OnDemandMigration
from ..migration.result import MigrationAborted, MigrationResult
from ..migration.stop_and_copy import DumpReimportMigration, StopAndCopyMigration
from ..migration.throttle import Throttle
from ..resources.server import Server
from ..resources.units import MB
from ..simulation import Environment, Event, Interrupt, PeriodicTicker, Series, Trace
from .frontend import Frontend
from .protocol import (
    ChunkHandover,
    ChunkOwnership,
    CreateTenantReply,
    CreateTenantRequest,
    DeleteTenantReply,
    DeleteTenantRequest,
    Heartbeat,
    LeaseRenewReply,
    LeaseRenewRequest,
    MigrateTenantAccept,
    MigrateTenantComplete,
    MigrateTenantRequest,
    TenantLocationUpdate,
)
from .tenant import Tenant, TenantRegistry, TenantStatus
from .transport import DeliveryError, MessageBus

__all__ = ["MIGRATION_METHODS", "NodeConfig", "SlackerNode"]

#: Data planes :meth:`SlackerNode.migrate_tenant` can run.
MIGRATION_METHODS = ("live", "fluid", "on-demand", "stop-and-copy", "dump-reimport")

#: Methods that copy at full speed: they ignore any rate asked of them.
_FULL_SPEED_METHODS = ("stop-and-copy", "dump-reimport")


@dataclass(frozen=True)
class NodeConfig:
    """Per-node defaults for tenant creation and migration."""

    #: Default buffer pool per tenant, bytes.
    buffer_bytes: int = 128 * MB
    #: Full-speed migration rate (100 % PID output), bytes/second.
    max_migration_rate: float = 32.0 * MB
    #: Migration transfer chunk size, bytes.
    chunk_bytes: int = 4 * MB
    #: PID sliding window, seconds.
    window: float = DEFAULT_WINDOW
    #: PID gains driving dynamic migrations.
    gains: PidGains = PAPER_GAINS
    #: Controller kind: "velocity" (paper) or "adaptive" (Section 6's
    #: drop-in replacement: gains rescaled online by an RLS estimate of
    #: the plant's latency-vs-rate sensitivity).
    controller: str = "velocity"
    #: Plant sensitivity the base gains were tuned for, ms of latency
    #: per percent of max migration rate (adaptive controller only).
    adaptive_reference_gain: float = 40.0
    #: Also pool the target node's latency into the PID input (Section 6).
    throttle_both_ends: bool = False
    #: Floor on the dynamic throttle, percent of max rate (0 = the
    #: paper's behaviour: bursts may pause migration entirely).
    min_output_pct: float = 0.0
    #: How long to wait for a MigrateTenantAccept before aborting,
    #: seconds (only enforced when the bus carries a retry policy — a
    #: fault-free bus answers deterministically).
    accept_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.controller not in ("velocity", "adaptive"):
            raise ValueError(
                f"controller must be 'velocity' or 'adaptive', got {self.controller!r}"
            )
        if self.accept_timeout <= 0:
            raise ValueError(
                f"accept_timeout must be positive, got {self.accept_timeout}"
            )


@dataclass
class NodeStats:
    """Running counters for one node."""

    tenants_created: int = 0
    tenants_deleted: int = 0
    migrations_out: int = 0
    migrations_in: int = 0
    migrations_queued: int = 0
    migrations_aborted: int = 0
    messages_handled: int = 0
    #: Duplicate/late control messages recognised and ignored.
    duplicates_ignored: int = 0
    #: Best-effort sends (replies, heartbeats, completions) that failed.
    notify_failures: int = 0
    crashes: int = 0
    restarts: int = 0
    peers_declared_dead: int = 0
    #: Peers moved to the suspect grace state (one-way silence).
    peers_suspected: int = 0
    #: Ownership leases granted for this node's outgoing migrations.
    leases_acquired: int = 0
    #: Successful lease renewals observed (LeaseRenewReply ok=True).
    lease_renewals: int = 0
    #: Migrations self-fenced because the local lease view expired.
    lease_expired_aborts: int = 0
    #: Protocol frames rejected for carrying a stale fencing token.
    stale_tokens_rejected: int = 0
    completed: list[MigrationResult] = field(default_factory=list)


class SlackerNode:
    """The middleware instance running on one server."""

    def __init__(
        self,
        env: Environment,
        server: Server,
        bus: MessageBus,
        frontend: Frontend,
        config: Optional[NodeConfig] = None,
        trace: Optional[Trace] = None,
    ):
        self.env = env
        self.server = server
        self.bus = bus
        self.frontend = frontend
        self.config = config or NodeConfig()
        self.trace = trace if trace is not None else Trace()
        self.name = server.name
        self.endpoint = bus.endpoint(self.name)
        self.registry = TenantRegistry()
        self.stats = NodeStats()
        #: Optional :class:`~repro.obs.Observability`, set by
        #: ``Observability.attach``; threaded into every migration and
        #: dynamic-throttle controller this node starts.
        self.obs = None
        #: False while the middleware daemon is crashed (fail-stop).
        self.alive = True
        #: Peer directory, set by the cluster after all nodes exist.
        self.peers: dict[str, SlackerNode] = {}
        #: Peers this node's failure detector currently considers dead.
        self.dead_peers: set[str] = set()
        #: Peers in the suspect grace state: silent past the horizon
        #: but not yet long enough to be declared dead (only populated
        #: when the detector runs with ``suspect_grace > 0``).
        self.suspected_peers: set[str] = set()
        #: Optional :class:`~repro.migration.lease.LeaseManager`, wired
        #: by the cluster when leases are enabled; ``None`` keeps every
        #: migration on the token-0 legacy path, bit-identically.
        self.lease_manager = None
        #: Endpoint name lease renewals are sent to.
        self.lease_endpoint_name = "controller"
        #: When False the node skips *all* self-fencing — the
        #: pre-handover fence gate and the lease-expiry self-abort — a
        #: deliberately broken configuration that exists so the chaos
        #: fuzzer can prove the invariant suite catches the violation.
        self.fencing_enabled = True
        #: tenant_id -> newest fencing token seen (receiver-side
        #: staleness floor; survives lease release).
        self._fence_tokens: dict[int, int] = {}
        #: tenant_id -> this node's *local* view of its lease expiry,
        #: advanced only by LeaseRenewReply messages — never by peeking
        #: at the controller's live table (a partitioned node must act
        #: on its own stale knowledge; that is what self-fencing means).
        self._lease_expiry: dict[int, float] = {}
        #: tenant_id -> fencing token of this node's in-flight
        #: outgoing migration.
        self._lease_tokens: dict[int, int] = {}
        #: tenant_id -> in-flight *outgoing* migration engine (any
        #: method: all share the try_abort/target_server surface).
        self.active_migrations: dict[int, object] = {}
        #: Most recent outgoing live or fluid migration (kept past
        #: completion so chaos harnesses can audit its invariants).
        self.last_fluid_migration: Optional[FluidMigration] = None
        #: tenant_id -> (version, node, port) from TenantLocationUpdate
        #: frames (the node's subscriber-side routing cache).
        self.tenant_locations: dict[int, tuple] = {}
        #: (tenant_id, chunk_index) -> node from ChunkOwnership frames.
        self.chunk_locations: dict[tuple, str] = {}
        #: tenant_id -> chunk indices announced via ChunkHandover.
        self.chunk_handovers: dict[int, set] = {}
        #: tenant_id -> latency Series attached by workload clients.
        self._latency_series: dict[int, Series] = {}
        self._pending_accepts: dict[int, Event] = {}
        #: Last heartbeat received from each peer.
        self.peer_loads: dict[str, Heartbeat] = {}
        self._peer_last_seen: dict[str, float] = {}
        self._migration_queue: list = []
        self._migration_worker_running = False
        self._heartbeat_interval: Optional[float] = None
        self._detector_interval: Optional[float] = None
        self._last_disk_busy = 0.0
        self._last_heartbeat_at = 0.0
        #: Events parked periodic loops wait on while this node is
        #: crashed; ``restart()`` fires them (see _heartbeat_loop).
        self._restart_waiters: list[Event] = []
        self._dispatcher = env.process(self._dispatch_loop())

    # -- tenant lifecycle ------------------------------------------------------

    def create_tenant(
        self,
        tenant_id: int,
        data_bytes: int,
        buffer_bytes: Optional[int] = None,
    ) -> Tenant:
        """Instantiate a new tenant daemon on this node."""
        layout = TableLayout.for_data_size(data_bytes)
        engine = DatabaseEngine(
            self.env,
            self.server,
            layout,
            name=f"tenant-{tenant_id}@{self.name}",
            buffer_bytes=buffer_bytes or self.config.buffer_bytes,
        )
        tenant = Tenant(tenant_id=tenant_id, engine=engine, node=self.name)
        self.registry.add(tenant)
        self.frontend.update_location(tenant_id, self.name)
        self.stats.tenants_created += 1
        return tenant

    def delete_tenant(self, tenant_id: int) -> None:
        """Stop a tenant's daemon and delete its data directory."""
        tenant = self.registry.remove(tenant_id)
        tenant.engine.stop()
        tenant.status = TenantStatus.DELETED
        self.frontend.remove(tenant_id)
        self.stats.tenants_deleted += 1

    def adopt_tenant(self, tenant: Tenant, engine: DatabaseEngine) -> None:
        """Take over an incoming tenant at migration handover."""
        tenant.engine = engine
        tenant.status = TenantStatus.ACTIVE
        self.registry.add(tenant)
        self.stats.migrations_in += 1

    def attach_latency_series(self, tenant_id: int, series: Series) -> None:
        """Register a workload client's latency series for PID input."""
        if tenant_id not in self.registry:
            raise KeyError(f"no tenant {tenant_id} on node {self.name}")
        self._latency_series[tenant_id] = series

    def detach_latency_series(self, tenant_id: int) -> None:
        """Remove a tenant's latency series (tenant moved or deleted)."""
        self._latency_series.pop(tenant_id, None)

    def latency_series(self) -> list[Series]:
        """All latency series attached to tenants on this node."""
        return [
            self._latency_series[tid]
            for tid in sorted(self._latency_series)
            if tid in self.registry
        ]

    # -- crash / restart -------------------------------------------------------

    def crash(self, reason: str = "") -> None:
        """Fail-stop the middleware daemon.

        Heartbeats stop, the bus drops this node's messages (via the
        fault injector's ``is_down``), and every in-flight *outgoing*
        migration aborts — the tenant stays at the source.  Tenant
        engines keep serving: mysqld is a separate process from the
        Slacker daemon.  Idempotent.
        """
        if not self.alive:
            return
        self.alive = False
        self.stats.crashes += 1
        why = reason or f"node {self.name} crashed"
        for migration in list(self.active_migrations.values()):
            migration.try_abort(why)

    def restart(self) -> None:
        """Bring a crashed middleware daemon back.  Idempotent.

        Peers get a fresh grace period so the failure detector does not
        instantly re-declare them dead from stale timestamps.
        """
        if self.alive:
            return
        self.alive = True
        self.stats.restarts += 1
        now = self.env.now
        for peer in self.peers:
            self._peer_last_seen[peer] = now
        # Wake periodic loops parked during the crash window.
        waiters, self._restart_waiters = self._restart_waiters, []
        for event in waiters:
            event.succeed()

    # -- migration --------------------------------------------------------------

    def migrate_tenant(
        self,
        tenant_id: int,
        target: str,
        setpoint: Optional[float] = None,
        fixed_rate: Optional[float] = None,
        max_rate: Optional[float] = None,
        chunks: Optional[int] = None,
        method: str = "live",
    ):
        """Process: migrate a tenant to the named peer node.

        ``method`` picks the data plane (:data:`MIGRATION_METHODS`):
        ``"live"`` (snapshot, delta rounds, one freeze), ``"fluid"``
        (the same pipeline per chunk, with dual-resident routing,
        ``chunks`` chunks), ``"on-demand"`` (switch at once, pull pages on
        demand), ``"stop-and-copy"`` or ``"dump-reimport"``.  Whichever
        runs, this node owns the lease, the accept round trip, the
        throttle and PID loop, the frontend update, aborts and the
        completion report.

        ``setpoint`` (dynamic PID throttle, seconds) or ``fixed_rate``
        (bytes/second) meters the engine's throttle.  Live and fluid
        need exactly one; on-demand, which may take one for its
        background push, runs unthrottled without.  Stop-and-copy and
        dump-reimport copy at full speed and ignore both.
        Returns the :class:`MigrationResult`; raises
        :class:`MigrationAborted` when the migration is cancelled
        (undeliverable request, accept timeout, dead target, injected
        abort, ...), in which case the tenant is back to plain
        ``ACTIVE`` at the source.
        """
        if method not in MIGRATION_METHODS:
            raise ValueError(
                f"method must be one of {MIGRATION_METHODS}, got {method!r}"
            )
        if setpoint is not None and fixed_rate is not None:
            raise ValueError("give at most one of setpoint or fixed_rate")
        if setpoint is None and fixed_rate is None and method in ("live", "fluid"):
            raise ValueError("give exactly one of setpoint or fixed_rate")
        if chunks is not None and chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {chunks}")
        if method in _FULL_SPEED_METHODS:
            setpoint = fixed_rate = None
        chunks = (chunks or DEFAULT_NUM_CHUNKS) if method == "fluid" else 0
        if not self.alive:
            raise RuntimeError(f"node {self.name} is down")
        tenant = self.registry.get(tenant_id)
        if target not in self.peers:
            raise KeyError(f"unknown peer node {target!r}")
        if target in self.dead_peers:
            self.stats.migrations_aborted += 1
            raise MigrationAborted(f"target node {target} is marked dead")
        peer = self.peers[target]
        tenant.status = TenantStatus.MIGRATING_OUT

        # Ownership lease: grant before any protocol frame leaves, so
        # every message of this migration carries the fencing token.
        # The grant is a local call (the controller initiates the
        # migration, so it trivially reaches itself); *renewals* cross
        # the bus and are what partitions starve.
        token = 0
        if self.lease_manager is not None:
            lease = self.lease_manager.grant(tenant_id, self.name, target)
            token = lease.token
            self._lease_tokens[tenant_id] = token
            self._lease_expiry[tenant_id] = lease.expires_at
            self.stats.leases_acquired += 1

        # Control plane: ask the target to accept the tenant.
        accept_event = self.env.event()
        self._pending_accepts[tenant_id] = accept_event
        request = MigrateTenantRequest(
            tenant_id=tenant_id,
            target_node=target,
            setpoint=setpoint or 0.0,
            fixed_rate=fixed_rate or 0.0,
            token=token,
            chunks=chunks,
        )
        try:
            yield self.env.process(self.endpoint.send(target, request))
        except DeliveryError as exc:
            self._abandon_request(tenant, f"migrate request undeliverable: {exc}")
        if self.bus.retry_policy is None:
            # Fault-free bus: the accept is deterministic, no timeout
            # needed (and no extra events on the legacy fast path).
            yield accept_event
        else:
            deadline = self.env.timeout(self.config.accept_timeout)
            yield self.env.any_of([accept_event, deadline])
            if not accept_event.triggered:
                self._abandon_request(
                    tenant,
                    f"no accept from {target} within {self.config.accept_timeout}s",
                )
        accept = accept_event.value
        if accept is not None and not accept.ok:
            # The target refused — on the legacy path accepts are
            # always ok=True, so this only fires under fencing.
            self._abandon_request(
                tenant, f"{target} refused migrate request (stale fencing token)"
            )

        # Data plane.  The fence gate runs on this node's *local* lease
        # knowledge immediately before the engine's point of no return.
        fence = None
        if self.lease_manager is not None and self.fencing_enabled:
            fence = lambda: self.env.now < self._lease_expiry.get(tenant_id, 0.0)
        throttle = None
        if setpoint is not None or fixed_rate is not None:
            throttle = Throttle(self.env, rate=fixed_rate or 0.0)
        source_engine = tenant.engine
        hooks = dict(
            on_handover=lambda engine: self._handover(tenant, peer, engine),
            fence=fence,
            obs=self.obs,
        )
        chunked = False
        if method in ("live", "fluid"):
            # Live migration is the one-chunk case of the same pipeline.
            migration = FluidMigration(
                self.env,
                source_engine,
                peer.server,
                throttle,
                num_chunks=chunks or 1,
                chunk_bytes=self.config.chunk_bytes,
                token=token,
                **hooks,
            )
            self.last_fluid_migration = migration
            chunked = migration.chunked
            if chunked:
                migration.on_chunk_flip = self._chunk_flip_notifier(
                    migration, tenant_id, target, token
                )
                # Dual-resident window opens: requests route per chunk.
                tenant.engine = migration.router
                self.frontend.begin_chunked(
                    tenant_id, migration.num_chunks, self.name
                )
        elif method == "on-demand":
            migration = OnDemandMigration(
                self.env, source_engine, peer.server, throttle, **hooks
            )
        else:
            engine_cls = {
                "stop-and-copy": StopAndCopyMigration,
                "dump-reimport": DumpReimportMigration,
            }[method]
            migration = engine_cls(
                self.env,
                source_engine,
                peer.server,
                throttle,
                chunk_bytes=self.config.chunk_bytes,
                **hooks,
            )
        self.active_migrations[tenant_id] = migration
        migration_proc = self.env.process(migration.run())
        renew_proc = None
        if self.lease_manager is not None:
            renew_proc = self.env.process(
                self._lease_renew_loop(tenant_id, token, migration)
            )

        controller = None
        if setpoint is not None:
            series_list = self.latency_series()
            if not series_list:
                # No workload telemetry attached: assume zero observed
                # latency, so the controller ramps to full speed (an
                # unmonitored tenant cannot report interference).
                series_list = [Series(f"{self.name}:no-signal")]
            windows = [
                LatencyWindow(
                    series_list, window=self.config.window, initial_value=0.0
                )
            ]
            if self.config.throttle_both_ends and peer.latency_series():
                windows.append(
                    LatencyWindow(peer.latency_series(), window=self.config.window)
                )
            pid = None
            if self.config.controller == "adaptive":
                pid = AdaptivePidController(
                    self.config.gains,
                    setpoint=setpoint * 1000.0,  # controller works in ms
                    reference_gain=self.config.adaptive_reference_gain,
                )
            controller = DynamicThrottleController(
                self.env,
                throttle,
                windows,
                ControllerConfig(
                    setpoint=setpoint,
                    max_rate=max_rate or self.config.max_migration_rate,
                    gains=self.config.gains,
                    window=self.config.window,
                    min_output_pct=self.config.min_output_pct,
                    combine="max" if len(windows) > 1 else "mean",
                ),
                controller=pid,
                trace=self.trace,
                name=f"{self.name}:mig-{tenant_id}",
                obs=self.obs,
            )
            self.env.process(controller.run(until=migration_proc))

        try:
            result = yield migration_proc
            if chunked:
                # Single-homed again: the handover installed the target
                # engine; the per-chunk directory window closes.
                self.frontend.end_chunked(tenant_id)
        except MigrationAborted:
            # The migration rolled the engines back; restore the
            # control-plane view: the tenant is plain ACTIVE here.
            if chunked:
                if tenant.engine is migration.router:
                    tenant.engine = source_engine
                self.frontend.end_chunked(tenant_id)
            if tenant_id in self.registry:
                tenant.status = TenantStatus.ACTIVE
            self.stats.migrations_aborted += 1
            raise
        finally:
            self.active_migrations.pop(tenant_id, None)
            if throttle is not None:
                throttle.stop()
            if controller is not None:
                controller.stop()
            if renew_proc is not None and renew_proc.is_alive:
                renew_proc.interrupt("migration finished")
            if self.lease_manager is not None:
                # Completed or rolled back, the lease is over either
                # way; the fencing-token floor stays behind so stale
                # frames from this attempt keep bouncing.
                self.lease_manager.release(tenant_id, token)
                self._lease_tokens.pop(tenant_id, None)
                self._lease_expiry.pop(tenant_id, None)

        # Tell the target (and any observer) the migration finished.
        # Best-effort: the handover already happened, so a lost
        # completion report must not fail the migration.
        complete = MigrateTenantComplete(
            tenant_id=tenant_id,
            duration=result.duration,
            downtime=result.downtime,
            bytes_moved=result.total_bytes,
            token=token,
        )
        yield from self._send_tolerant(target, complete)
        self.stats.migrations_out += 1
        self.stats.completed.append(result)
        return result

    def _chunk_flip_notifier(
        self, migration: FluidMigration, tenant_id: int, target: str, token: int
    ):
        """Build the per-chunk-flip hook a fluid migration runs.

        Runs on the migration path right after each ownership flip:
        records the new owner in the frontend's per-chunk map (which
        broadcasts ``ChunkOwnership`` to subscribers) and announces the
        handover to the target node.  The announcement is best-effort —
        ownership already committed in the source-side chunk map, and a
        partition here starves lease renewals (aborting the migration)
        rather than losing a flip.
        """

        def notify(chunk_index: int, delta_bytes: int):
            self.frontend.update_chunk_location(
                tenant_id, chunk_index, target, token=token
            )
            handover = ChunkHandover(
                tenant_id=tenant_id,
                chunk_index=chunk_index,
                num_chunks=migration.num_chunks,
                delta_bytes=delta_bytes,
                token=token,
            )
            yield from self._send_tolerant(target, handover)

        return notify

    def _abandon_request(self, tenant: Tenant, reason: str):
        """Roll back a migration that died before the data plane started."""
        tenant_id = tenant.tenant_id
        self._pending_accepts.pop(tenant_id, None)
        if self.lease_manager is not None and tenant_id in self._lease_tokens:
            self.lease_manager.release(tenant_id, self._lease_tokens[tenant_id])
            self._lease_tokens.pop(tenant_id, None)
            self._lease_expiry.pop(tenant_id, None)
        tenant.status = TenantStatus.ACTIVE
        self.stats.migrations_aborted += 1
        raise MigrationAborted(reason)

    def _handover(self, tenant: Tenant, peer: "SlackerNode", engine) -> None:
        """Swap authority to the target engine (runs at handover time).

        Idempotent: a duplicate handover signal (late/duplicated
        control message, re-entered callback) finds the tenant already
        moved and does nothing.
        """
        if tenant.tenant_id not in self.registry:
            self.stats.duplicates_ignored += 1
            return
        if self.lease_manager is not None:
            # Audit hook: report this commit against the controller's
            # ground-truth lease table.  A correctly fenced node never
            # reaches here with an expired/superseded token — the chaos
            # fuzzer's invariant suite checks exactly that.
            self.lease_manager.record_commit(
                tenant.tenant_id, self._lease_tokens.get(tenant.tenant_id, 0)
            )
        self.registry.remove(tenant.tenant_id)
        self.detach_latency_series(tenant.tenant_id)
        tenant.record_move(self.env.now, self.name, peer.name)
        peer.adopt_tenant(tenant, engine)
        self.frontend.update_location(tenant.tenant_id, peer.name)

    # -- leases and fencing ----------------------------------------------------

    def check_fence(self, tenant_id: int, token: int) -> bool:
        """Receiver-side staleness check for a frame's fencing token.

        Token 0 is the unfenced legacy path and always passes.  A token
        older than the newest this node has seen for the tenant is a
        write from a superseded owner: rejected.  Newer tokens advance
        the floor.
        """
        if token == 0:
            return True
        if token < self._fence_tokens.get(tenant_id, 0):
            self.stats.stale_tokens_rejected += 1
            return False
        self._fence_tokens[tenant_id] = token
        return True

    def _lease_renew_loop(self, tenant_id: int, token: int, migration) -> object:
        """Process: keep the migration's lease renewed; self-fence on expiry.

        The cadence leaves ttl/3 headroom, so one lost renewal round
        trip is survivable but a real partition is not.  Expiry is
        judged on the node's *local* ``_lease_expiry`` view — the whole
        point is that a node cut off from the controller must abort on
        its own, before its stale ownership can do damage.
        """
        env = self.env
        period = self.lease_manager.ttl / 3.0
        try:
            while True:
                # Eager on purpose: each renewal send consumes sim time
                # (NIC + fault delays), so wakes drift like heartbeats.
                yield env.timeout(period)  # slackerlint: disable=SLK011
                if not self.alive or tenant_id not in self.active_migrations:
                    return
                if (
                    self.fencing_enabled
                    and env.now >= self._lease_expiry.get(tenant_id, 0.0)
                    and migration.try_abort(
                        f"ownership lease for tenant {tenant_id} expired"
                    )
                ):
                    self.stats.lease_expired_aborts += 1
                    return
                # A refused abort means the run is past its point of no
                # return (on-demand keeps pushing pages long after its
                # switch): keep renewing until it finishes.
                request = LeaseRenewRequest(
                    tenant_id=tenant_id, token=token, node=self.name
                )
                yield from self._send_tolerant(self.lease_endpoint_name, request)
        except Interrupt:
            return

    def enqueue_migration(
        self,
        tenant_id: int,
        target: str,
        setpoint: Optional[float] = None,
        fixed_rate: Optional[float] = None,
    ) -> Event:
        """Queue a migration; returns an event firing with its result.

        Concurrent migrations from one server would each consume the
        slack the other's controller is trying to discover, so the node
        serializes them: one data stream at a time, strictly FIFO.
        """
        if (setpoint is None) == (fixed_rate is None):
            raise ValueError("give exactly one of setpoint or fixed_rate")
        self.registry.get(tenant_id)  # fail fast on unknown tenants
        done = Event(self.env)
        self._migration_queue.append((tenant_id, target, setpoint, fixed_rate, done))
        self.stats.migrations_queued += 1
        if not self._migration_worker_running:
            self._migration_worker_running = True
            self.env.process(self._migration_worker())
        return done

    @property
    def queued_migrations(self) -> int:
        """Migrations waiting for (or holding) the single outbound slot."""
        return len(self._migration_queue)

    def _migration_worker(self):
        while self._migration_queue:
            tenant_id, target, setpoint, fixed_rate, done = self._migration_queue[0]
            try:
                result = yield self.env.process(
                    self.migrate_tenant(
                        tenant_id, target, setpoint=setpoint, fixed_rate=fixed_rate
                    )
                )
            except Exception as exc:  # surface the failure to the caller
                done.fail(exc)
            else:
                done.succeed(result)
            self._migration_queue.pop(0)
        self._migration_worker_running = False

    # -- heartbeats and failure detection -----------------------------------------

    def start_heartbeats(self, interval: float = 10.0) -> None:
        """Begin broadcasting periodic load reports to every peer.

        Each heartbeat carries the tenant count and the disk
        utilization over the last interval — the raw inputs a remote
        placement policy needs.  Heartbeats double as the liveness
        signal the failure detector consumes; a crashed node stops
        beating until restarted.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if self._heartbeat_interval is not None:
            raise RuntimeError(f"node {self.name} is already heartbeating")
        self._heartbeat_interval = interval
        self.env.process(self._heartbeat_loop())

    def current_heartbeat(self) -> Heartbeat:
        """Build this node's load report for the last interval."""
        now = self.env.now
        busy = self.server.disk.stats.busy_time
        span = now - self._last_heartbeat_at
        utilization = (busy - self._last_disk_busy) / span if span > 0 else 0.0
        self._last_disk_busy = busy
        self._last_heartbeat_at = now
        return Heartbeat(
            node=self.name,
            tenant_count=len(self.registry),
            disk_utilization=min(1.0, max(0.0, utilization)),
        )

    def _parked_until_restart(self) -> Event:
        """Event a periodic loop waits on while the node is crashed."""
        event = self.env.event()
        self._restart_waiters.append(event)
        return event

    def _heartbeat_loop(self):
        # NOT a fixed tick grid while alive: the interval is measured
        # from *send completion*, and delivering a heartbeat consumes
        # simulated time (network latency, fault delays), so each wake
        # drifts by however long the sends took and the eager timeout
        # is the correct form.  Crash windows ARE periodic — a dead
        # node sends nothing, so its wakes chain exactly from the wake
        # that found it dead — and there the loop parks on the restart
        # signal and rejoins that chain via PeriodicTicker instead of
        # waking every interval only to `continue`.
        env = self.env
        interval = self._heartbeat_interval
        while True:
            yield env.timeout(interval)  # slackerlint: disable=SLK011
            while not self.alive:
                # Anchored at this wake: next_time is exactly where the
                # eager loop's next (no-op) wake would have landed.
                ticker = PeriodicTicker(env, interval)
                yield self._parked_until_restart()
                # Beats that fell inside the crash window never happen;
                # a wake exactly at the restart time still fires (the
                # restart event precedes it in same-time event order).
                ticker.skip_until(env.now)
                yield ticker.tick()
            beat = self.current_heartbeat()
            for peer in self.peers:
                yield from self._send_tolerant(peer, beat)

    def start_failure_detector(
        self,
        interval: float = 1.0,
        miss_threshold: float = 3.0,
        suspect_grace: float = 0.0,
    ) -> None:
        """Watch peer heartbeats; a silence longer than ``interval *
        miss_threshold`` seconds declares the peer dead and cancels
        in-flight migrations targeting it (the tenant stays at the
        source).  Recovered peers (a fresh heartbeat) are un-declared.

        ``suspect_grace`` (seconds) inserts a *suspect* state between
        healthy and dead: a peer past the silence horizon is only
        suspected (``suspected_peers``; no migrations cancelled) until
        the silence also exceeds ``horizon + suspect_grace`` — so one
        one-way partition window doesn't instantly kill migrations
        that would have survived it.  The default ``0.0`` runs the
        original two-state detector on an unchanged event path
        (bit-identity locked by tests).
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if miss_threshold <= 0:
            raise ValueError(f"miss_threshold must be positive, got {miss_threshold}")
        if suspect_grace < 0:
            raise ValueError(f"suspect_grace must be >= 0, got {suspect_grace}")
        if self._detector_interval is not None:
            raise RuntimeError(f"node {self.name} already runs a failure detector")
        self._detector_interval = interval
        self.env.process(
            self._failure_detector_loop(interval, miss_threshold, suspect_grace)
        )

    def _failure_detector_loop(
        self, interval: float, miss_threshold: float, suspect_grace: float = 0.0
    ):
        now = self.env.now
        for peer in self.peers:
            self._peer_last_seen.setdefault(peer, now)
        horizon = interval * miss_threshold
        peer_names = sorted(self.peers)
        # Coalesced: no peer can newly exceed the silence horizon before
        # the first grid tick past the earliest deadline, and heartbeats
        # only push deadlines later, so sleeping straight to that tick
        # and rescanning is exact.  Two situations force per-tick
        # polling semantics back on: declared-dead peers (a recovery
        # must be noticed at the very next grid tick) and the scan
        # itself, which always runs with the eager loop's comparisons.
        ticker = PeriodicTicker(self.env, interval)
        while True:
            if (
                self.alive
                and peer_names
                and not self.dead_peers
                and not self.suspected_peers
            ):
                # Earliest tick at which the quietest peer's silence
                # could exceed the horizon, probed with the scan's own
                # float predicate (t - last > horizon) tick by tick so
                # no algebraic rearrangement can shift the wake tick.
                quietest = min(
                    self._peer_last_seen.get(peer, 0.0) for peer in peer_names
                )
                ticks = 1
                t = ticker.next_time
                while not (t - quietest > horizon):
                    t += interval
                    ticks += 1
                if ticks > 1:
                    ticker.skip(ticks - 1)
            yield ticker.tick()
            if not self.alive:
                yield self._parked_until_restart()
                ticker.skip_until(self.env.now)
                continue
            if suspect_grace > 0.0:
                for peer in peer_names:
                    silent = self.env.now - self._peer_last_seen.get(peer, 0.0)
                    if silent > horizon + suspect_grace:
                        self.suspected_peers.discard(peer)
                        if peer not in self.dead_peers:
                            self.dead_peers.add(peer)
                            self.stats.peers_declared_dead += 1
                            self._cancel_migrations_to(peer)
                    elif silent > horizon:
                        if (
                            peer not in self.suspected_peers
                            and peer not in self.dead_peers
                        ):
                            self.suspected_peers.add(peer)
                            self.stats.peers_suspected += 1
                    else:
                        self.suspected_peers.discard(peer)
                        self.dead_peers.discard(peer)
                continue
            # Legacy two-state scan, byte-for-byte the original
            # comparisons (the flag-off path is bit-identity locked).
            for peer in peer_names:
                silent = self.env.now - self._peer_last_seen.get(peer, 0.0)
                if silent > horizon:
                    if peer not in self.dead_peers:
                        self.dead_peers.add(peer)
                        self.stats.peers_declared_dead += 1
                        self._cancel_migrations_to(peer)
                else:
                    self.dead_peers.discard(peer)

    def _cancel_migrations_to(self, peer: str) -> None:
        for migration in list(self.active_migrations.values()):
            if migration.target_server.name == peer:
                migration.try_abort(f"target node {peer} declared dead")

    # -- control-plane dispatcher ------------------------------------------------

    def _send_tolerant(self, recipient: str, message) -> object:
        """Sub-generator: best-effort send; delivery failures are counted,
        not raised (replies, heartbeats, completion reports)."""
        proc = self.env.process(self.endpoint.send(recipient, message))
        try:
            yield proc
        except DeliveryError:
            self.stats.notify_failures += 1
        except Interrupt:
            # The waiter is going away but the send keeps running: count
            # and defuse its failure here, or nothing would handle it and
            # it would escape Environment.run.
            proc.callbacks.append(self._orphaned_send_done)
            raise

    def _orphaned_send_done(self, proc: Event) -> None:
        if not proc.ok and isinstance(proc.value, DeliveryError):
            proc.defused()
            self.stats.notify_failures += 1

    def _dispatch_loop(self):
        while True:
            envelope = yield self.endpoint.receive()
            self.stats.messages_handled += 1
            message = envelope.message
            if isinstance(message, CreateTenantRequest):
                if message.tenant_id in self.registry:
                    # Duplicate create (retried request): answer with
                    # the existing tenant instead of crashing.
                    self.stats.duplicates_ignored += 1
                    tenant = self.registry.get(message.tenant_id)
                else:
                    tenant = self.create_tenant(
                        message.tenant_id, message.data_bytes, message.buffer_bytes
                    )
                reply = CreateTenantReply(
                    tenant_id=tenant.tenant_id, port=tenant.port, ok=True
                )
                yield from self._send_tolerant(envelope.sender, reply)
            elif isinstance(message, DeleteTenantRequest):
                ok = message.tenant_id in self.registry
                if ok:
                    self.delete_tenant(message.tenant_id)
                else:
                    self.stats.duplicates_ignored += 1
                reply = DeleteTenantReply(tenant_id=message.tenant_id, ok=ok)
                yield from self._send_tolerant(envelope.sender, reply)
            elif isinstance(message, MigrateTenantRequest):
                # A peer announcing an incoming tenant: agree to receive
                # unless the frame carries a stale fencing token.
                # Re-sending an accept for a duplicate request is safe:
                # the source ignores accepts with no pending migration.
                ok = self.check_fence(message.tenant_id, message.token)
                accept = MigrateTenantAccept(
                    tenant_id=message.tenant_id, ok=ok, token=message.token
                )
                yield from self._send_tolerant(envelope.sender, accept)
            elif isinstance(message, MigrateTenantAccept):
                pending = self._pending_accepts.pop(message.tenant_id, None)
                if pending is not None and not pending.triggered:
                    pending.succeed(message)
                else:
                    # Late or duplicated accept: the migration already
                    # started (or timed out and was rolled back).
                    self.stats.duplicates_ignored += 1
            elif isinstance(message, MigrateTenantComplete):
                # Informational — but a completion under a stale token
                # is a superseded owner claiming a handover: reject it
                # (check_fence counts the rejection) rather than let it
                # shadow the live migration's bookkeeping.
                self.check_fence(message.tenant_id, message.token)
            elif isinstance(message, TenantLocationUpdate):
                # Subscriber-side routing cache.  Versions are monotonic
                # per tenant; an older (reordered or re-synced) frame
                # must not roll the cache back to a stale location.
                known = self.tenant_locations.get(message.tenant_id)
                if known is not None and message.version < known[0]:
                    self.stats.duplicates_ignored += 1
                else:
                    self.tenant_locations[message.tenant_id] = (
                        message.version,
                        message.node,
                        message.port,
                    )
            elif isinstance(message, ChunkHandover):
                # Target-side record of a fluid chunk flip.  A stale
                # fencing token is a superseded migration still talking:
                # rejected (and counted) by check_fence.
                if self.check_fence(message.tenant_id, message.token):
                    seen = self.chunk_handovers.setdefault(message.tenant_id, set())
                    if message.chunk_index in seen:
                        self.stats.duplicates_ignored += 1
                    else:
                        seen.add(message.chunk_index)
            elif isinstance(message, ChunkOwnership):
                # Subscriber-side per-chunk routing cache (the fluid
                # analogue of the TenantLocationUpdate arm above).
                if self.check_fence(message.tenant_id, message.token):
                    self.chunk_locations[
                        (message.tenant_id, message.chunk_index)
                    ] = message.node
            elif isinstance(message, Heartbeat):
                self.peer_loads[message.node] = message
                self._peer_last_seen[message.node] = self.env.now
            elif isinstance(message, LeaseRenewReply):
                if (
                    message.ok
                    and message.token == self._lease_tokens.get(message.tenant_id)
                ):
                    self._lease_expiry[message.tenant_id] = message.expires_at
                    self.stats.lease_renewals += 1
                else:
                    # Refused renewal, or a late reply for a finished
                    # (or superseded) migration: never *extend* local
                    # knowledge from it.
                    self.stats.duplicates_ignored += 1
            elif isinstance(message, LeaseRenewRequest):
                # Misrouted renewal (only the controller answers these).
                self.stats.duplicates_ignored += 1
            elif isinstance(message, (CreateTenantReply, DeleteTenantReply)):
                # Replies are normally consumed by the requesting client
                # endpoint; one reaching a node's own mailbox is a late
                # or duplicated delivery after a retry switched ports.
                self.stats.duplicates_ignored += 1
