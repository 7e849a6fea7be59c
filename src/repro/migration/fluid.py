"""Fluid migration: chunked state handover with dual-resident routing.

Slacker (and :mod:`repro.migration.live`) moves a tenant as one
snapshot + delta rounds + a single freeze.  Megaphone [Hoffmann et
al., arXiv:1812.01371] shows that splitting the state into fine-
grained chunks, each with its own mini-handover, cuts the latency
impact by orders of magnitude: no transaction ever waits behind the
*whole* tenant's final delta — only behind one chunk's.

The tenant's page space is partitioned into ``num_chunks`` contiguous
chunks.  Per chunk the pipeline is:

1. **Copy** — stream the chunk's pages to the target through the
   migration throttle (the source keeps serving everything).
2. **Freeze** — block *new writers to that chunk only*, wait for
   in-flight writers on the chunk to drain, ship the chunk's write
   delta unthrottled (a window ~1/N the length of live migration's,
   hit by ~1/N of the traffic).
3. **Flip** — check the fencing token, flip the chunk's ownership in
   the :class:`ChunkMap`, announce it (``ChunkHandover`` to the
   target, ``ChunkOwnership`` broadcast via the frontend), thaw.

While any chunk has flipped and any chunk has not, the tenant is
*dual-resident*: the :class:`FluidRouter` (installed as the tenant's
engine for the duration) routes every page access to whichever engine
owns that page's chunk, paying a network hop for transactions that
span both residents.

Failure semantics ride the live-migration machinery: until the last
chunk has flipped (``FINALIZING``) the migration can be aborted at any
instant — frozen chunks are thawed, flipped chunks are flipped back to
the source (their writes shipped home, so nothing is lost), the
half-built target is discarded, and the router's ownership map ends
all-source.  Every chunk is exactly-once owned at every instant by
construction: ownership is a single map on the source side, and the
wire frames merely announce its transitions.
"""

from __future__ import annotations

import enum
from typing import Callable, Generator, Optional

from ..db.backup import DEFAULT_CHUNK_BYTES
from ..db.engine import DatabaseEngine, EngineState
from ..db.transactions import Transaction
from ..resources.server import Server
from ..resources.units import PAGE_SIZE
from ..simulation import Environment, Event, Interrupt, Process
from .live import MigrationAborted
from .result import MigrationResult
from .throttle import Throttle

__all__ = [
    "FluidPhase",
    "ChunkState",
    "ChunkMap",
    "FluidRouter",
    "FluidMigration",
    "check_fluid_invariants",
]

#: Default number of chunks the page space is split into.
DEFAULT_NUM_CHUNKS = 16


class FluidPhase(enum.Enum):
    """Where a fluid migration currently is."""

    PENDING = "pending"
    MIGRATING = "migrating"
    FINALIZING = "finalizing"
    COMPLETE = "complete"
    ABORTED = "aborted"


#: Legal phase transitions.  ``FINALIZING`` (last chunk flipped, source
#: retiring) has no edge to ``ABORTED``: the target is authoritative
#: for every chunk and cancelling would lose writes.
_TRANSITIONS: dict[FluidPhase, frozenset[FluidPhase]] = {
    FluidPhase.PENDING: frozenset({FluidPhase.MIGRATING, FluidPhase.ABORTED}),
    FluidPhase.MIGRATING: frozenset({FluidPhase.FINALIZING, FluidPhase.ABORTED}),
    FluidPhase.FINALIZING: frozenset({FluidPhase.COMPLETE}),
    FluidPhase.COMPLETE: frozenset(),
    FluidPhase.ABORTED: frozenset(),
}

#: Phases from which an abort is refused.
_NO_ABORT_PHASES = frozenset(
    {FluidPhase.FINALIZING, FluidPhase.COMPLETE, FluidPhase.ABORTED}
)


class ChunkState(enum.Enum):
    """Per-chunk lifecycle within one fluid migration."""

    PENDING = "pending"
    COPYING = "copying"
    FROZEN = "frozen"
    MIGRATED = "migrated"
    ROLLED_BACK = "rolled-back"


#: Legal per-chunk transitions.  ``ROLLED_BACK`` is the abort-path
#: terminal (the chunk is source-owned again); ``MIGRATED`` chunks can
#: still be rolled back until the migration finalizes.
_CHUNK_TRANSITIONS: dict[ChunkState, frozenset[ChunkState]] = {
    ChunkState.PENDING: frozenset({ChunkState.COPYING}),
    ChunkState.COPYING: frozenset({ChunkState.FROZEN, ChunkState.ROLLED_BACK}),
    ChunkState.FROZEN: frozenset({ChunkState.MIGRATED, ChunkState.ROLLED_BACK}),
    ChunkState.MIGRATED: frozenset({ChunkState.ROLLED_BACK}),
    ChunkState.ROLLED_BACK: frozenset(),
}


class ChunkMap:
    """Exactly-once chunk ownership for one tenant's page space.

    This map is the single authority on who owns each chunk; the
    ``ChunkHandover``/``ChunkOwnership`` wire frames only *announce*
    its transitions.  Ownership flips must present the migration's
    fencing token (lint rule SLK108): a flip under a token below the
    highest one this map has committed is rejected and counted, the
    same monotonic-floor discipline nodes apply in ``check_fence``.
    """

    def __init__(self, num_pages: int, num_chunks: int):
        if num_pages < 1:
            raise ValueError(f"num_pages must be >= 1, got {num_pages}")
        if not 1 <= num_chunks <= num_pages:
            raise ValueError(
                f"num_chunks must be in [1, {num_pages}], got {num_chunks}"
            )
        self.num_pages = num_pages
        self.num_chunks = num_chunks
        self._owners: dict[int, str] = {c: "source" for c in range(num_chunks)}
        #: Highest fencing token a flip has committed under.
        self.token_floor = 0
        self.flips = 0
        self.stale_flips_rejected = 0
        #: (chunk, owner, token) log of committed flips, for audits.
        self.flip_log: list[tuple[int, str, int]] = []

    def chunk_of(self, page_id: int) -> int:
        """The chunk a page belongs to (contiguous, evenly split).

        Exact inverse of :meth:`page_range`: page ``p`` maps to chunk
        ``c`` iff ``page_range(c)[0] <= p < page_range(c)[1]``, also
        when ``num_pages % num_chunks != 0`` — routing and the chunk
        copier must agree on who owns every page.
        """
        return min(
            ((page_id + 1) * self.num_chunks - 1) // self.num_pages,
            self.num_chunks - 1,
        )

    def page_range(self, chunk_index: int) -> tuple[int, int]:
        """Half-open ``[lo, hi)`` page range of one chunk."""
        lo = chunk_index * self.num_pages // self.num_chunks
        hi = (chunk_index + 1) * self.num_pages // self.num_chunks
        return lo, hi

    def owner(self, chunk_index: int) -> str:
        """Current owner side of a chunk (``"source"``/``"target"``)."""
        return self._owners[chunk_index]

    def owners(self) -> dict[int, str]:
        """Snapshot of the whole ownership map."""
        return dict(self._owners)

    def flip_chunk(self, chunk_index: int, owner: str, *, token: int) -> bool:
        """Commit an ownership flip under a fencing token.

        Returns False (and counts the rejection) when ``token`` is
        below the committed floor — a migration holding a superseded
        lease must not move ownership.  All flips, including the abort
        path's flip-backs, go through here; there is no other writer
        of the ownership map.
        """
        if token < self.token_floor:
            self.stale_flips_rejected += 1
            return False
        self.token_floor = token
        self._owners[chunk_index] = owner
        self.flips += 1
        self.flip_log.append((chunk_index, owner, token))
        return True


class FluidRouter:
    """Dual-resident request router, installed as the tenant's engine.

    Implements the same ``execute(txn)`` generator contract as
    :class:`~repro.db.engine.DatabaseEngine` (the benchmark client
    resolves it per transaction), but routes every page access to the
    engine that owns the page's chunk *at access time*.  Writers that
    touch a frozen chunk block until the chunk thaws — a window ~1/N
    the length of a whole-tenant freeze, felt by ~1/N of the traffic.
    """

    def __init__(self, env: Environment, source: DatabaseEngine, chunk_map: ChunkMap):
        self.env = env
        self.chunk_map = chunk_map
        #: Owner side -> engine.  The migration adds ``"target"`` once
        #: the replica engine exists (no chunk flips before that).
        self.engines: dict[str, DatabaseEngine] = {"source": source}
        self.layout = source.layout
        self.costs = source.costs
        #: Per-chunk committed write-op counts (sizes the chunk delta).
        self.chunk_writes = [0] * chunk_map.num_chunks
        self._freeze_events: dict[int, Event] = {}
        self._inflight: dict[int, int] = {}
        self._quiesce_waiters: dict[int, list[Event]] = {}
        # -- accounting ----------------------------------------------------
        self.txns_routed = 0
        self.writes_committed = 0
        self.writes_to_source = 0
        self.writes_to_target = 0
        #: Transactions that stalled on a per-chunk freeze.
        self.writes_blocked = 0
        #: Extra network hops paid by transactions spanning both sides.
        self.cross_hops = 0
        #: Tripwire: page accesses served by a non-owner (must stay 0).
        self.foreign_serves = 0

    # -- per-chunk freeze / quiesce ---------------------------------------

    def freeze_chunk(self, chunk_index: int) -> None:
        """Block new writers to one chunk (reads keep flowing)."""
        if chunk_index in self._freeze_events:
            raise RuntimeError(f"chunk {chunk_index} is already frozen")
        self._freeze_events[chunk_index] = Event(self.env)

    def thaw_chunk(self, chunk_index: int) -> None:
        """Unblock writers to one chunk."""
        event = self._freeze_events.pop(chunk_index, None)
        if event is None:
            raise RuntimeError(f"chunk {chunk_index} is not frozen")
        event.succeed()

    def chunk_frozen(self, chunk_index: int) -> bool:
        return chunk_index in self._freeze_events

    @property
    def frozen_chunks(self) -> list[int]:
        return sorted(self._freeze_events)

    def chunk_write_quiesced(self, chunk_index: int) -> Event:
        """Event firing once no writer is in flight on the chunk."""
        event = Event(self.env)
        if self._inflight.get(chunk_index, 0) == 0:
            event.succeed()
        else:
            self._quiesce_waiters.setdefault(chunk_index, []).append(event)
        return event

    # -- transaction execution --------------------------------------------

    def _pages_of(self, op) -> list[int]:
        if op.op_type.is_scan:
            return self.layout.pages_of_scan(op.key, op.scan_length)
        return [self.layout.page_of(op.key)]

    def execute(self, txn: Transaction) -> Generator:
        """Process: run ``txn`` against whoever owns each touched page."""
        chunk_of = self.chunk_map.chunk_of
        write_chunks = sorted(
            {
                chunk_of(page)
                for op in txn.operations
                if op.op_type.is_write
                for page in self._pages_of(op)
            }
        )
        # Writers stall while any chunk they write is in its freeze
        # window — the fluid analogue of the whole-tenant write freeze.
        blocked = False
        while True:
            frozen = [c for c in write_chunks if c in self._freeze_events]
            if not frozen:
                break
            if not blocked:
                blocked = True
                self.writes_blocked += 1
            yield self._freeze_events[frozen[0]]
        if txn.started_at is None:
            txn.started_at = self.env.now
        for chunk in write_chunks:
            self._inflight[chunk] = self._inflight.get(chunk, 0) + 1
        self.txns_routed += 1
        try:
            written: dict[int, int] = {}
            for op in txn.operations:
                yield from self._execute_operation(txn, op, written)
            if txn.write_count > 0:
                yield from self._commit(txn, written)
        finally:
            for chunk in write_chunks:
                self._inflight[chunk] -= 1
                if self._inflight[chunk] == 0:
                    waiters = self._quiesce_waiters.pop(chunk, [])
                    for waiter in waiters:
                        waiter.succeed()
        txn.finished_at = self.env.now

    def _engine_for(self, chunk_index: int) -> tuple[str, DatabaseEngine]:
        side = self.chunk_map.owner(chunk_index)
        return side, self.engines[side]

    def _execute_operation(self, txn, op, written: dict[int, int]) -> Generator:
        pages = self._pages_of(op)
        anchor_side, anchor = self._engine_for(self.chunk_map.chunk_of(pages[0]))
        cpu_cost = self.costs.cpu_per_op
        if op.op_type.is_write:
            cpu_cost += self.costs.cpu_per_write
        yield from anchor.server.cpu.execute(cpu_cost)
        for page_id in pages:
            chunk = self.chunk_map.chunk_of(page_id)
            side, engine = self._engine_for(chunk)
            if engine is not anchor:
                # The op spans both residents: pay the hop to the other
                # side (the dual-residency tax Megaphone accepts).
                self.cross_hops += 1
                yield from anchor.server.nic_out.transfer(PAGE_SIZE)
            yield from engine._access_page(txn, page_id, op.op_type.is_write)
            if op.op_type.is_write:
                if self.chunk_map.owner(chunk) != side:
                    # Ownership moved under our feet: the write landed
                    # on a non-owner.  Cannot happen while flips wait
                    # for the chunk's writers to drain — tripwire only.
                    self.foreign_serves += 1
                engine.binlog.append(
                    size=self.costs.log_bytes_per_write,
                    time=self.env.now,
                    txn_id=txn.txn_id,
                )
                self.chunk_writes[chunk] += 1
                written[chunk] = written.get(chunk, 0) + 1
        anchor.stats.operations += 1

    def _commit(self, txn, written: dict[int, int]) -> Generator:
        """Group-commit on every engine this transaction wrote through."""
        for side in ("source", "target"):
            engine = self.engines.get(side)
            if engine is None:
                continue
            count = sum(
                n for chunk, n in written.items()
                if self.chunk_map.owner(chunk) == side
            )
            if count == 0:
                continue
            yield from engine.server.disk.write(
                self.costs.commit_flush_bytes,
                sequential=True,
                stream=engine._stream("binlog"),
                cached=True,
            )
            engine.stats.log_flushes += 1
            engine.stats.committed += 1
            engine.data_version += count
            self.writes_committed += count
            if side == "source":
                self.writes_to_source += count
            else:
                self.writes_to_target += count


class FluidMigration:
    """One fluid (chunked-handover) migration of a tenant engine."""

    def __init__(
        self,
        env: Environment,
        source: DatabaseEngine,
        target_server: Server,
        throttle: Throttle,
        num_chunks: int = DEFAULT_NUM_CHUNKS,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        on_handover: Optional[Callable[[DatabaseEngine], None]] = None,
        on_chunk_flip=None,
        fence: Optional[Callable[[], bool]] = None,
        token: int = 0,
        obs=None,
    ):
        if num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
        self.env = env
        self.source = source
        self.target_server = target_server
        self.throttle = throttle
        self.chunk_bytes = chunk_bytes
        self.on_handover = on_handover
        #: Optional generator function ``(chunk_index, delta_bytes)``
        #: run on the migration path after each flip — the node uses it
        #: to send the ``ChunkHandover`` frame and update the frontend.
        self.on_chunk_flip = on_chunk_flip
        #: Fencing gate, consulted immediately before *every* chunk
        #: flip (each flip is a mini point-of-no-return for its chunk).
        self.fence = fence
        #: Fencing token every ownership flip commits under.
        self.token = token
        self.obs = obs
        self.chunk_map = ChunkMap(
            source.layout.num_pages, min(num_chunks, source.layout.num_pages)
        )
        self.num_chunks = self.chunk_map.num_chunks
        self.router = FluidRouter(env, source, self.chunk_map)
        self.phase = FluidPhase.PENDING
        self.phase_history: list[tuple[float, FluidPhase]] = []
        self.chunk_states = [ChunkState.PENDING] * self.num_chunks
        self.target: Optional[DatabaseEngine] = None
        self.rolled_back = False
        #: Writes the abort path shipped back from the target (none are
        #: lost: they land in the source's data version again).
        self.reclaimed_writes = 0
        self._abort_reason: Optional[str] = None
        self._process: Optional[Process] = None
        self._handover_done = False

    @property
    def abort_reason(self) -> Optional[str]:
        return self._abort_reason

    def _transition(self, phase: FluidPhase) -> None:
        if phase not in _TRANSITIONS[self.phase]:
            raise RuntimeError(
                f"illegal fluid migration transition {self.phase.value} -> {phase.value}"
            )
        self.phase = phase
        self.phase_history.append((self.env.now, phase))
        if self.obs is not None:
            self.obs.on_migration_phase(self, phase)

    def _chunk_transition(self, chunk_index: int, state: ChunkState) -> None:
        current = self.chunk_states[chunk_index]
        if state not in _CHUNK_TRANSITIONS[current]:
            raise RuntimeError(
                f"illegal chunk {chunk_index} transition "
                f"{current.value} -> {state.value}"
            )
        self.chunk_states[chunk_index] = state

    # -- abort machinery (mirrors LiveMigration) ---------------------------

    def try_abort(self, reason: str = "cancelled") -> bool:
        """Request an abort; returns whether it was accepted.

        Accepted any time before the last chunk has flipped
        (``FINALIZING``): in-flight chunk work is interrupted, frozen
        chunks thaw, already-flipped chunks flip back to the source
        with their writes shipped home.
        """
        if self.phase in _NO_ABORT_PHASES:
            return False
        if self._abort_reason is None:
            self._abort_reason = reason
        proc = self._process
        if proc is not None and proc.is_alive and proc is not self.env.active_process:
            proc.interrupt(reason)
        return True

    def abort(self, reason: str = "operator cancelled") -> None:
        """Cancel before finalization; raises once finalizing/complete."""
        if self.phase is FluidPhase.ABORTED:
            return
        if not self.try_abort(reason):
            raise RuntimeError(
                f"cannot abort a fluid migration in phase {self.phase.value}"
            )

    def _check_abort(self) -> None:
        if self._abort_reason is not None and self.phase is not FluidPhase.ABORTED:
            self._rollback()
            raise MigrationAborted(self._abort_reason)

    def _rollback(self) -> None:
        """Restore an all-source-owned, unfrozen state (synchronous)."""
        for chunk in list(self.router.frozen_chunks):
            self.router.thaw_chunk(chunk)
        for chunk in range(self.num_chunks):
            if self.chunk_map.owner(chunk) != "source":
                # Flip-backs carry the same token the flips committed
                # under; the floor admits equal tokens, so the abort of
                # the lease holder itself always succeeds.
                self.chunk_map.flip_chunk(chunk, "source", token=self.token)
            if self.chunk_states[chunk] is not ChunkState.PENDING:
                self._chunk_transition(chunk, ChunkState.ROLLED_BACK)
        # Ship the target-resident writes home (instantaneous in the
        # rollback, like live migration's discard): nothing is lost.
        reclaim = self.router.writes_to_target - self.reclaimed_writes
        if reclaim > 0:
            self.reclaimed_writes += reclaim
            self.source.data_version += reclaim
        if self.target is not None and self.target.state is not EngineState.STOPPED:
            self.target.stop()
        self._transition(FluidPhase.ABORTED)
        self.rolled_back = True

    # -- pipeline pieces ---------------------------------------------------

    def _make_target(self) -> DatabaseEngine:
        return DatabaseEngine(
            self.env,
            self.target_server,
            self.source.layout,
            name=f"{self.source.name}@{self.target_server.name}",
            buffer_bytes=self.source.buffer_pool.capacity_pages
            * self.source.buffer_pool.page_size,
            costs=self.source.costs,
        )

    def _copy_chunk(self, chunk_index: int) -> Generator:
        """Stream one chunk's pages through the throttle to the target."""
        lo, hi = self.chunk_map.page_range(chunk_index)
        nbytes = (hi - lo) * PAGE_SIZE
        read_stream = self.source._stream("fluid")
        write_stream = self.source._stream("fluid-restore")
        shipped = 0
        while shipped < nbytes:
            size = min(self.chunk_bytes, nbytes - shipped)
            yield from self.throttle.acquire(size)
            yield from self.source.server.disk.read(
                size, sequential=True, stream=read_stream
            )
            yield from self.source.server.nic_out.transfer(size)
            yield from self.target_server.disk.write(
                size, sequential=True, stream=write_stream
            )
            shipped += size
        return nbytes

    def _ship_chunk_delta(self, nbytes: int) -> Generator:
        """Ship + apply one chunk's write delta, unthrottled (frozen)."""
        assert self.target is not None
        yield from self.source.server.disk.read(
            nbytes, sequential=True, stream=self.source._stream("binlog-ship")
        )
        yield from self.source.server.nic_out.transfer(nbytes)
        yield from self.target.apply_delta_bytes(
            nbytes, self.target.replicated_lsn + nbytes
        )

    # -- the migration -----------------------------------------------------

    def run(self) -> Generator:
        """Process: run the full chunked migration.

        Terminates either returning a :class:`MigrationResult`
        with phase ``COMPLETE`` (every chunk target-owned), or raising
        :class:`MigrationAborted` with phase ``ABORTED`` (every chunk
        source-owned again).
        """
        self._process = self.env.active_process
        started_at = self.env.now
        copied_bytes = 0
        delta_bytes_total = 0
        freeze_durations: list[float] = []
        try:
            self._check_abort()
            self._transition(FluidPhase.MIGRATING)
            self.target = self._make_target()
            self.router.engines["target"] = self.target

            for chunk in range(self.num_chunks):
                self._check_abort()
                self._chunk_transition(chunk, ChunkState.COPYING)
                write_baseline = self.router.chunk_writes[chunk]
                copied_bytes += yield from self._copy_chunk(chunk)
                self._check_abort()

                # Mini-handover: freeze just this chunk, drain its
                # writers, ship its delta, check the fence, flip.
                self._chunk_transition(chunk, ChunkState.FROZEN)
                freeze_started = self.env.now
                self.router.freeze_chunk(chunk)
                try:
                    yield self.router.chunk_write_quiesced(chunk)
                    delta_writes = (
                        self.router.chunk_writes[chunk] - write_baseline
                    )
                    chunk_delta = (
                        delta_writes * self.source.costs.log_bytes_per_write
                    )
                    if chunk_delta > 0:
                        yield from self._ship_chunk_delta(chunk_delta)
                        delta_bytes_total += chunk_delta
                    if self.fence is not None and not self.fence():
                        self._abort_reason = (
                            self._abort_reason
                            or "fencing check failed at chunk flip"
                        )
                        self._rollback()
                        raise MigrationAborted(self._abort_reason)
                    if not self.chunk_map.flip_chunk(
                        chunk, "target", token=self.token
                    ):
                        self._abort_reason = (
                            self._abort_reason or "stale fencing token at chunk flip"
                        )
                        self._rollback()
                        raise MigrationAborted(self._abort_reason)
                finally:
                    # Never leave a chunk frozen, whatever went wrong
                    # (the rollback thaws before this runs on aborts).
                    if self.router.chunk_frozen(chunk):
                        self.router.thaw_chunk(chunk)
                self._chunk_transition(chunk, ChunkState.MIGRATED)
                freeze_durations.append(self.env.now - freeze_started)
                if self.obs is not None:
                    self.obs.on_migration_freeze(self, freeze_durations[-1])
                if self.on_chunk_flip is not None:
                    yield from self.on_chunk_flip(
                        chunk, chunk_delta if delta_writes else 0
                    )
                self._check_abort()
        except Interrupt as interrupt:
            reason = self._abort_reason or str(interrupt.cause or "interrupted")
            self._abort_reason = reason
            self._rollback()
            raise MigrationAborted(reason) from None

        # Every chunk is target-owned: retire the source.  Aborts are
        # refused from here on (flipping back would lose writes).
        self._transition(FluidPhase.FINALIZING)
        if self.on_handover is not None and not self._handover_done:
            self._handover_done = True
            self.on_handover(self.target)
        self.source.stop(successor=self.target)
        self._transition(FluidPhase.COMPLETE)
        return MigrationResult(
            kind="fluid",
            duration=self.env.now - started_at,
            downtime=max(freeze_durations, default=0.0),
            total_bytes=copied_bytes + delta_bytes_total,
            snapshot_bytes=copied_bytes,
            num_chunks=self.num_chunks,
            total_freeze_time=sum(freeze_durations),
            target=self.target,
        )


def check_fluid_invariants(migration: FluidMigration) -> list[str]:
    """Audit one terminal fluid migration; returns violation strings.

    The battery the chaos fuzzer asserts after every fluid schedule:
    exactly-once chunk ownership consistent with the terminal phase, no
    page ever served by a non-owner, no chunk left frozen, and write
    conservation across both residents (nothing double-counted by the
    router, nothing lost by the rollback).
    """
    violations: list[str] = []
    router = migration.router
    owners = migration.chunk_map.owners()
    if len(owners) != migration.num_chunks:
        violations.append(
            f"chunk map holds {len(owners)} entries for "
            f"{migration.num_chunks} chunks"
        )
    if router.foreign_serves:
        violations.append(
            f"{router.foreign_serves} page writes served by a non-owner"
        )
    if router.frozen_chunks:
        violations.append(f"chunks left frozen: {router.frozen_chunks}")
    if migration.phase is FluidPhase.COMPLETE:
        wrong = sorted(c for c, side in owners.items() if side != "target")
        if wrong:
            violations.append(f"completed migration left chunks {wrong} on source")
        unmigrated = [
            c
            for c, state in enumerate(migration.chunk_states)
            if state is not ChunkState.MIGRATED
        ]
        if unmigrated:
            violations.append(
                f"completed migration left chunks {unmigrated} unmigrated"
            )
    elif migration.phase is FluidPhase.ABORTED:
        wrong = sorted(c for c, side in owners.items() if side != "source")
        if wrong:
            violations.append(f"aborted migration left chunks {wrong} on target")
        if migration.reclaimed_writes != router.writes_to_target:
            violations.append(
                f"abort reclaimed {migration.reclaimed_writes} writes but "
                f"{router.writes_to_target} were routed to the target"
            )
    else:
        violations.append(
            f"migration not terminal: phase {migration.phase.value}"
        )
    if router.writes_to_source + router.writes_to_target != router.writes_committed:
        violations.append(
            "router write conservation broken: "
            f"{router.writes_to_source} + {router.writes_to_target} != "
            f"{router.writes_committed}"
        )
    return violations
