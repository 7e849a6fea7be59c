"""Chunked live migration: one copy → freeze → handover pipeline.

The paper's live migration (Section 2.3.2) streams a consistent hot
snapshot, prepares it on the target, ships rounds of binlog deltas
and hands over under one brief write freeze.  Megaphone [Hoffmann et
al., arXiv:1812.01371] treats that all-at-once handover as the
one-chunk case of *fluid* migration: split the tenant's page space
into ``num_chunks`` contiguous chunks and give each its own
mini-handover, so no transaction ever waits behind the *whole*
tenant's final delta — only behind one chunk's.

:class:`FluidMigration` is that one engine.  Per chunk, in page order:

1. **Snapshot** — pipelined copy of the chunk's pages: the throttle
   admits a piece, a pipeline slot bounds the pieces in flight, a
   spawned process reads it on the source and wires it over, and a
   consumer writes it on the target (a streamed ``xtrabackup | pv |
   nc``).  The source keeps serving everything.
2. **Prepare** — apply the writes made to the chunk during its copy
   (crash recovery of the copied data); the first chunk's prepare
   creates the target engine.
3. **Delta rounds** — ship and apply what the chunk fell behind by,
   until the pending delta is small.
4. **Fence** — consult the ownership-lease gate.
5. **Freeze** — block writers to the chunk and drain the ones in
   flight.
6. **Final delta** — ship and apply the rest, unthrottled.
7. **Flip** — commit the chunk's owner in the :class:`ChunkMap` under
   the fencing token.

``num_chunks=1`` is the paper's live migration, and two things follow
from the chunk count alone.  With one chunk the freeze is the source
engine's whole-tenant write freeze and the pending delta is read from
the source binlog's LSN; the :class:`FluidRouter` is built but the
tenant keeps its engine, so no transaction makes a hop.  With more,
the router is installed as the tenant's engine for the duration: it
routes every page access to whichever engine owns the page's chunk
(the tenant is *dual-resident*), freezes one chunk at a time, and
counts each chunk's writes, which size its deltas.

Failure semantics (Zephyr-style): until the last chunk freezes
(``HANDOVER``) the migration can be aborted at any instant — the run
process and its pipeline children are interrupted, frozen chunks thaw,
flipped chunks flip back to the source with their writes shipped home,
the half-built target is discarded, and the tenant keeps serving at
the source.  From ``HANDOVER`` on aborts are refused: the target is
becoming authoritative.  The phase attribute is a real state machine
(:data:`_TRANSITIONS`); every run terminates in ``COMPLETE`` or
``ABORTED``.
"""

from __future__ import annotations

import enum
from typing import Callable, Generator, Optional

from ..db.backup import DEFAULT_CHUNK_BYTES, Snapshot
from ..db.engine import DatabaseEngine, EngineState, FreezeMode
from ..db.transactions import Transaction
from ..resources.server import Server
from ..resources.units import KB, PAGE_SIZE
from ..simulation import Container, Environment, Event, Interrupt, Process, Store
from .result import MigrationAborted, MigrationResult
from .throttle import Throttle

__all__ = [
    "MigrationPhase",
    "ChunkState",
    "ChunkMap",
    "FluidRouter",
    "FluidMigration",
    "check_fluid_invariants",
]

#: Number of chunks ``method="fluid"`` splits the page space into.
DEFAULT_NUM_CHUNKS = 16
#: A chunk's delta rounds stop once its pending delta is this small.
DELTA_THRESHOLD = 64 * KB
#: At most this many delta rounds per chunk before its freeze.
MAX_DELTA_ROUNDS = 8
#: Snapshot pieces in flight at once (xtrabackup/OS readahead).
PIPELINE_DEPTH = 32


class MigrationPhase(enum.Enum):
    """Where a migration is in its current chunk's pipeline."""

    PENDING = "pending"
    SNAPSHOT = "snapshot"
    PREPARE = "prepare"
    DELTA = "delta"
    HANDOVER = "handover"
    COMPLETE = "complete"
    ABORTED = "aborted"


#: Legal phase transitions.  ``DELTA -> SNAPSHOT`` starts the next
#: chunk once one has flipped.  ``HANDOVER`` (the last chunk's freeze)
#: refuses :meth:`FluidMigration.try_abort`; its one edge to
#: ``ABORTED`` is the flip itself failing its fencing check, which
#: rolls back before anything was handed over.
_TRANSITIONS: dict[MigrationPhase, frozenset[MigrationPhase]] = {
    MigrationPhase.PENDING: frozenset(
        {MigrationPhase.SNAPSHOT, MigrationPhase.ABORTED}
    ),
    MigrationPhase.SNAPSHOT: frozenset(
        {MigrationPhase.PREPARE, MigrationPhase.ABORTED}
    ),
    MigrationPhase.PREPARE: frozenset({MigrationPhase.DELTA, MigrationPhase.ABORTED}),
    MigrationPhase.DELTA: frozenset(
        {MigrationPhase.SNAPSHOT, MigrationPhase.HANDOVER, MigrationPhase.ABORTED}
    ),
    MigrationPhase.HANDOVER: frozenset(
        {MigrationPhase.COMPLETE, MigrationPhase.ABORTED}
    ),
    MigrationPhase.COMPLETE: frozenset(),
    MigrationPhase.ABORTED: frozenset(),
}

#: Phases from which an abort is refused.
_NO_ABORT_PHASES = frozenset(
    {MigrationPhase.HANDOVER, MigrationPhase.COMPLETE, MigrationPhase.ABORTED}
)


class ChunkState(enum.Enum):
    """Per-chunk lifecycle within one migration."""

    PENDING = "pending"
    COPYING = "copying"
    FROZEN = "frozen"
    MIGRATED = "migrated"
    ROLLED_BACK = "rolled-back"


#: Legal per-chunk transitions.  ``ROLLED_BACK`` is the abort-path
#: terminal (the chunk is source-owned again); ``MIGRATED`` chunks can
#: still be rolled back until the last chunk freezes.
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
    """Dual-resident request router, the tenant's engine while chunks move.

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
                engine.binlog.append(self.costs.log_bytes_per_write)
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
    """One migration of a tenant engine, chunk by chunk (live: one chunk)."""

    def __init__(
        self,
        env: Environment,
        source: DatabaseEngine,
        target_server: Server,
        throttle: Throttle,
        num_chunks: int = 1,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        on_handover: Optional[Callable[[DatabaseEngine], None]] = None,
        on_chunk_flip=None,
        fence: Optional[Callable[[], bool]] = None,
        token: int = 0,
        obs=None,
    ):
        if num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
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
        #: Optional fencing gate, consulted before every chunk's freeze.
        #: Returning ``False`` aborts with a full rollback: a node whose
        #: ownership lease has lapsed must never hand a chunk over.
        self.fence = fence
        #: Fencing token every ownership flip commits under.
        self.token = token
        #: Optional :class:`~repro.obs.Observability`; ``None`` keeps
        #: phase transitions free of span/metric work.
        self.obs = obs
        self.chunk_map = ChunkMap(
            source.layout.num_pages, min(num_chunks, source.layout.num_pages)
        )
        self.num_chunks = self.chunk_map.num_chunks
        #: More than one chunk: the router serves the tenant while the
        #: migration runs, and each chunk freezes on its own.
        self.chunked = self.num_chunks > 1
        self.router = FluidRouter(env, source, self.chunk_map)
        self.phase = MigrationPhase.PENDING
        #: (time, phase) log of every transition, for post-mortems.
        self.phase_history: list[tuple[float, MigrationPhase]] = []
        self.chunk_states = [ChunkState.PENDING] * self.num_chunks
        self.target: Optional[DatabaseEngine] = None
        #: True once an abort has rolled state back (every chunk
        #: source-owned and thawed, target discarded).
        self.rolled_back = False
        #: Writes the abort path shipped back from the target (none are
        #: lost: they land in the source's data version again).
        self.reclaimed_writes = 0
        #: Per chunk, the log mark (see :meth:`_log_mark`) the target
        #: has applied up to.
        self._applied = [0] * self.num_chunks
        self._abort_reason: Optional[str] = None
        self._process: Optional[Process] = None
        self._children: list[Process] = []

    @property
    def abort_reason(self) -> Optional[str]:
        return self._abort_reason

    def _transition(self, phase: MigrationPhase) -> None:
        if phase not in _TRANSITIONS[self.phase]:
            raise RuntimeError(
                f"illegal migration transition {self.phase.value} -> {phase.value}"
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

    # -- abort machinery ---------------------------------------------------

    def try_abort(self, reason: str = "cancelled") -> bool:
        """Request an abort; returns whether it was accepted.

        Accepted any time before the last chunk freezes: the run process
        is interrupted at its current instant (even while blocked on a
        fully-closed throttle), rolls the tenant back to a consistent
        source-resident state, and raises :class:`MigrationAborted`.
        Refused (returns ``False``) during ``HANDOVER`` and after
        ``COMPLETE``/``ABORTED``.
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
        """Cancel before the last chunk freezes; raises from then on.

        Aborting an already-aborted migration is a no-op.
        """
        if self.phase is MigrationPhase.ABORTED:
            return
        if not self.try_abort(reason):
            raise RuntimeError(
                f"cannot abort a migration in phase {self.phase.value}"
            )

    def _check_abort(self) -> None:
        if self._abort_reason is not None and self.phase is not MigrationPhase.ABORTED:
            self._rollback()
            raise MigrationAborted(self._abort_reason)

    def _fail(self, reason: str) -> None:
        """Roll back and raise: a fencing check refused the handover."""
        self._abort_reason = self._abort_reason or reason
        self._rollback()
        raise MigrationAborted(self._abort_reason)

    def _rollback(self) -> None:
        """Restore an all-source-owned, unfrozen state (synchronous)."""
        active = self.env.active_process
        for child in self._children:
            if child.is_alive and child is not active:
                child.interrupt("migration aborted")
        self._children.clear()
        for chunk in range(self.num_chunks):
            self._thaw(chunk)
            if self.chunk_map.owner(chunk) != "source":
                # Flip-backs carry the same token the flips committed
                # under; the floor admits equal tokens, so the abort of
                # the lease holder itself always succeeds.
                self.chunk_map.flip_chunk(chunk, "source", token=self.token)
            if self.chunk_states[chunk] is not ChunkState.PENDING:
                self._chunk_transition(chunk, ChunkState.ROLLED_BACK)
        # Ship the target-resident writes home (instantaneous in the
        # rollback, like the discard of the target): nothing is lost.
        reclaim = self.router.writes_to_target - self.reclaimed_writes
        if reclaim > 0:
            self.reclaimed_writes += reclaim
            self.source.data_version += reclaim
        if self.target is not None and self.target.state is not EngineState.STOPPED:
            self.target.stop()  # discard the half-built replica
        self._transition(MigrationPhase.ABORTED)
        self.rolled_back = True

    # -- the chunk's log, freeze and thaw ----------------------------------

    def _log_mark(self, chunk: int) -> int:
        """How far the chunk's write log reaches, in bytes.

        The source binlog's LSN with one chunk; with more, the bytes
        logged by the writes the router has committed to the chunk.
        """
        if self.chunked:
            return self.router.chunk_writes[chunk] * self.source.costs.log_bytes_per_write
        return self.source.binlog.head_lsn

    def _pending(self, chunk: int) -> int:
        """Log bytes the target is behind by on one chunk."""
        return self._log_mark(chunk) - self._applied[chunk]

    def _freeze(self, chunk: int) -> Event:
        """Block new writers to the chunk; the event fires once the
        writers already in flight have drained."""
        if self.chunked:
            self.router.freeze_chunk(chunk)
            return self.router.chunk_write_quiesced(chunk)
        self.source.freeze(FreezeMode.WRITES)
        return self.source.write_quiesced()

    def _thaw(self, chunk: int) -> None:
        """Unblock the chunk's writers if it is frozen."""
        if self.chunked:
            if self.router.chunk_frozen(chunk):
                self.router.thaw_chunk(chunk)
        elif self.source.is_frozen:
            self.source.thaw()

    # -- pipeline pieces ---------------------------------------------------

    def _spawn(self, gen: Generator) -> Process:
        """Start a pipeline child that an abort can interrupt cleanly."""
        proc = self.env.process(self._interruptible(gen))
        self._children.append(proc)
        return proc

    def _interruptible(self, gen: Generator):
        """Run ``gen``; exit quietly when the migration is aborted."""
        try:
            return (yield from gen)
        except Interrupt:
            return None

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

    def _copy_chunk(self, chunk: int) -> Generator:
        """Stream one chunk's pages to the target; returns the snapshot.

        Pipelined source read → wire → target write through a bounded
        buffer of :data:`PIPELINE_DEPTH` pieces.  The snapshot records
        the chunk's log marks at the start and end of the scan: the
        writes between them are what the prepare step applies.
        """
        lo, hi = self.chunk_map.page_range(chunk)
        snapshot = Snapshot(
            start_lsn=self._log_mark(chunk),
            total_bytes=(hi - lo) * self.source.layout.page_size,
            started_at=self.env.now,
        )
        pieces = Store(self.env)
        slots = Container(self.env, capacity=PIPELINE_DEPTH, init=PIPELINE_DEPTH)
        stream = f"{self.source.name}:restore"
        producer = self._spawn(self._snapshot_producer(chunk, snapshot, pieces, slots))
        consumer = self._spawn(self._snapshot_consumer(pieces, slots, stream))
        yield self.env.all_of([producer, consumer])
        return snapshot

    def _snapshot_producer(self, chunk: int, snapshot, pieces: Store, slots: Container):
        """Pace piece shipments at the throttle rate.

        Each piece's disk read is spawned asynchronously (bounded by
        the pipeline depth), modelling xtrabackup/OS readahead keeping
        the pipe full: a busy disk makes reads *queue*, it does not
        make the throttle back off.  Sustained pressure beyond the
        disk's capacity is exactly what overloads the server in the
        paper's Figure 6.
        """
        in_flight: list = []
        while not snapshot.complete and snapshot.streamed_bytes < snapshot.total_bytes:
            if self._abort_reason is not None:
                break
            remaining = snapshot.total_bytes - snapshot.streamed_bytes
            size = min(self.chunk_bytes, remaining)
            yield from self.throttle.acquire(size)
            yield slots.get(1)
            snapshot.streamed_bytes += size
            is_last = snapshot.streamed_bytes >= snapshot.total_bytes
            in_flight.append(
                self._spawn(self._ship_piece(chunk, snapshot, size, is_last, pieces))
            )
        for proc in in_flight:
            if proc.is_alive:
                yield proc
        pieces.put(None)  # end-of-stream marker

    def _ship_piece(self, chunk: int, snapshot, size: int, is_last: bool, pieces: Store):
        """Read one piece on the source and wire it to the target."""
        yield from self.source.server.disk.read(
            size, sequential=True, stream=f"{self.source.name}:backup"
        )
        snapshot.chunks += 1
        if is_last:
            # The consistent-scan endpoint: the log past this mark is
            # the delta the prepare/delta steps must replay.
            snapshot.end_lsn = self._log_mark(chunk)
            snapshot.finished_at = self.env.now
        yield from self.source.server.nic_out.transfer(size)
        pieces.put(size)

    def _snapshot_consumer(self, pieces: Store, slots: Container, stream: str):
        """Write received pieces to the target disk."""
        while True:
            size = yield pieces.get()
            if size is None:
                return
            yield from self.target_server.disk.write(
                size, sequential=True, stream=stream
            )
            slots.put(1)

    def _apply(self, chunk: int, nbytes: int, mark: int) -> Generator:
        """Replay ``nbytes`` of the chunk's log on the target, up to ``mark``.

        The target's replicated LSN is the sum of the chunks' applied
        marks: the source LSN with one chunk.
        """
        self._applied[chunk] = mark
        yield from self.target.apply_delta_bytes(nbytes, sum(self._applied))

    def _ship_delta(self, nbytes: int, throttled: bool) -> Generator:
        """Read a binlog range on the source and wire it to the target."""
        stream = f"{self.source.name}:binlog-ship"
        shipped = 0
        while shipped < nbytes:
            size = min(self.chunk_bytes, nbytes - shipped)
            if throttled:
                yield from self.throttle.acquire(size)
            yield from self.source.server.disk.read(
                size, sequential=True, stream=stream
            )
            yield from self.source.server.nic_out.transfer(size)
            shipped += size

    def _delta_round(self, chunk: int, throttled: bool = True) -> Generator:
        """Ship and apply everything the target is behind by on a chunk.

        Returns the bytes shipped.
        """
        mark = self._log_mark(chunk)
        pending = mark - self._applied[chunk]
        if pending > 0:
            yield from self._ship_delta(pending, throttled=throttled)
            yield from self._apply(chunk, pending, mark)
        return pending

    # -- the migration -----------------------------------------------------

    def run(self) -> Generator:
        """Process: run the full migration; returns the result record.

        Terminates in exactly one of two ways: returns a
        :class:`MigrationResult` with phase ``COMPLETE`` (every chunk
        target-owned), or raises :class:`MigrationAborted` with phase
        ``ABORTED`` after rolling the tenant back to the source.
        """
        self._process = self.env.active_process
        started_at = self.env.now
        copied = 0
        rounds: list[int] = []  # bytes shipped per delta round, final ones included
        freezes: list[float] = []
        try:
            for chunk in range(self.num_chunks):
                self._check_abort()

                # Snapshot: stream the chunk (pipelined, throttled).
                self._chunk_transition(chunk, ChunkState.COPYING)
                self._transition(MigrationPhase.SNAPSHOT)
                snapshot = yield from self._copy_chunk(chunk)
                copied += snapshot.total_bytes
                self._check_abort()

                # Prepare: apply the writes made during the copy.
                self._transition(MigrationPhase.PREPARE)
                if self.target is None:
                    self.target = self._make_target()
                    self.router.engines["target"] = self.target
                yield self._spawn(
                    self._apply(chunk, snapshot.redo_bytes, snapshot.end_lsn)
                )
                self._check_abort()

                # Delta rounds until the chunk's pending log is small.
                self._transition(MigrationPhase.DELTA)
                for _ in range(MAX_DELTA_ROUNDS):
                    self._check_abort()
                    if self._pending(chunk) <= DELTA_THRESHOLD:
                        break
                    rounds.append((yield self._spawn(self._delta_round(chunk))))

                # Fence: the last instant ownership can be checked
                # before the chunk freezes.  A lapsed lease means
                # another node may already own the tenant.
                if self.fence is not None and not self.fence():
                    self._fail("fencing check failed at handover")
                # An abort accepted up to here, the fence included,
                # rolls back; from the last chunk's freeze on none is.
                self._check_abort()

                # Freeze, final delta (unthrottled), flip.
                if chunk == self.num_chunks - 1:
                    self._transition(MigrationPhase.HANDOVER)
                freeze_started = self.env.now
                quiesced = self._freeze(chunk)
                self._chunk_transition(chunk, ChunkState.FROZEN)
                try:
                    yield quiesced
                    rounds.append(
                        (yield self._spawn(self._delta_round(chunk, throttled=False)))
                    )
                    if not self.chunk_map.flip_chunk(chunk, "target", token=self.token):
                        self._fail("stale fencing token at chunk flip")
                except BaseException:
                    # Never leave a chunk frozen, whatever went wrong.
                    self._thaw(chunk)
                    raise
                if self.chunked:
                    # One chunk: the source retires frozen and its
                    # successor takes the blocked writers.
                    self._thaw(chunk)
                self._chunk_transition(chunk, ChunkState.MIGRATED)
                freezes.append(self.env.now - freeze_started)
                if self.obs is not None:
                    self.obs.on_migration_freeze(self, freezes[-1])
                if self.on_chunk_flip is not None:
                    yield from self.on_chunk_flip(chunk, rounds[-1])
        except Interrupt as interrupt:
            reason = self._abort_reason or str(interrupt.cause or "interrupted")
            self._abort_reason = reason
            self._rollback()
            raise MigrationAborted(reason) from None

        # Every chunk is target-owned: retire the source.  The target
        # takes over its data version along with its writers.
        if self.on_handover is not None:
            self.on_handover(self.target)
        self.target.data_version += self.source.data_version
        self.source.stop(successor=self.target)
        self._transition(MigrationPhase.COMPLETE)
        return MigrationResult(
            kind="fluid" if self.chunked else "live",
            duration=self.env.now - started_at,
            downtime=max(freezes),
            total_bytes=copied + sum(rounds),
            snapshot_bytes=copied,
            delta_rounds=len(rounds),
            num_chunks=self.num_chunks if self.chunked else 0,
            total_freeze_time=sum(freezes) if self.chunked else 0.0,
            target=self.target,
        )


def check_fluid_invariants(migration: FluidMigration) -> list[str]:
    """Audit one terminal migration; returns violation strings.

    The battery the chaos fuzzer asserts after every schedule, live
    (one chunk) and fluid alike: exactly-once chunk ownership
    consistent with the terminal phase, no page ever served by a
    non-owner, no chunk and no source left frozen, and write
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
    if migration.source.is_frozen:
        violations.append(f"source {migration.source.name} left frozen")
    if migration.phase is MigrationPhase.COMPLETE:
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
    elif migration.phase is MigrationPhase.ABORTED:
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
