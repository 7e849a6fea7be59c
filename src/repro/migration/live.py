"""Live migration: snapshot → delta rounds → freeze-and-handover.

The paper's three-step pipeline (Section 2.3.2):

1. **Snapshot transferring** — stream the XtraBackup snapshot to the
   target on-the-fly, then *prepare* it there (crash recovery) while
   the source keeps serving queries.  This step "is by a large margin
   the most time-consuming" and is the one the throttle meters.
2. **Delta updating** — apply rounds of deltas read from the source's
   binary log; each round catches the target up to the point where the
   round started, and the next round covers what executed meanwhile.
3. **Handover** — once deltas are "sufficiently small", a very brief
   (sub-second) freeze: the source blocks writes, the final delta is
   shipped, and the target becomes authoritative.

The snapshot path is pipelined source-side read → throttle → network →
target-side write through a bounded buffer, as a streamed ``xtrabackup
| pv | nc`` pipeline would be.

Failure semantics (Zephyr-style): until the handover freeze begins,
the migration can be aborted at any instant — the run process and all
its pipeline children are interrupted, the half-built target replica
is discarded, the source is thawed if frozen, and the tenant keeps
serving at the source as if the migration never happened.  Once the
handover has started the abort is refused: the target is (becoming)
authoritative and cancelling would lose writes.  The phase attribute
is a real state machine (:data:`_TRANSITIONS`); every run terminates
in ``COMPLETE`` or ``ABORTED``.
"""

from __future__ import annotations

import enum
from typing import Callable, Generator, Optional

from ..db.backup import DEFAULT_CHUNK_BYTES, HotBackup
from ..db.engine import DatabaseEngine, EngineState, FreezeMode
from ..resources.server import Server
from ..resources.units import KB
from ..simulation import Container, Environment, Interrupt, Process, Store

from .result import MigrationResult
from .throttle import Throttle

__all__ = ["MigrationAborted", "MigrationPhase", "LiveMigration"]


class MigrationAborted(Exception):
    """Raised from :meth:`LiveMigration.run` when the migration is
    cancelled before handover.  The source remains authoritative and
    unfrozen; the partially-copied target is discarded."""

    def __init__(self, reason: str = ""):
        super().__init__(reason)
        self.reason = reason


class MigrationPhase(enum.Enum):
    """Where a live migration currently is in its pipeline."""

    PENDING = "pending"
    SNAPSHOT = "snapshot"
    PREPARE = "prepare"
    DELTA = "delta"
    HANDOVER = "handover"
    COMPLETE = "complete"
    ABORTED = "aborted"


#: Legal phase transitions.  ``HANDOVER`` deliberately has no edge to
#: ``ABORTED``: once the freeze begins the target is becoming
#: authoritative and the migration must run to completion.
_TRANSITIONS: dict[MigrationPhase, frozenset[MigrationPhase]] = {
    MigrationPhase.PENDING: frozenset(
        {MigrationPhase.SNAPSHOT, MigrationPhase.ABORTED}
    ),
    MigrationPhase.SNAPSHOT: frozenset(
        {MigrationPhase.PREPARE, MigrationPhase.ABORTED}
    ),
    MigrationPhase.PREPARE: frozenset({MigrationPhase.DELTA, MigrationPhase.ABORTED}),
    MigrationPhase.DELTA: frozenset(
        {MigrationPhase.HANDOVER, MigrationPhase.ABORTED}
    ),
    MigrationPhase.HANDOVER: frozenset({MigrationPhase.COMPLETE}),
    MigrationPhase.COMPLETE: frozenset(),
    MigrationPhase.ABORTED: frozenset(),
}

#: Phases from which an abort is refused.
_NO_ABORT_PHASES = frozenset(
    {MigrationPhase.HANDOVER, MigrationPhase.COMPLETE, MigrationPhase.ABORTED}
)


class LiveMigration:
    """One live migration of a tenant engine to a target server."""

    #: Stop delta rounds once the pending binlog is this small.
    DEFAULT_DELTA_THRESHOLD = 64 * KB

    def __init__(
        self,
        env: Environment,
        source: DatabaseEngine,
        target_server: Server,
        throttle: Throttle,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        delta_threshold: int = DEFAULT_DELTA_THRESHOLD,
        max_delta_rounds: int = 8,
        pipeline_depth: int = 32,
        on_handover: Optional[Callable[[DatabaseEngine], None]] = None,
        fence: Optional[Callable[[], bool]] = None,
        obs=None,
    ):
        if delta_threshold < 0:
            raise ValueError(f"delta_threshold must be >= 0, got {delta_threshold}")
        if max_delta_rounds < 1:
            raise ValueError(f"max_delta_rounds must be >= 1, got {max_delta_rounds}")
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
        self.env = env
        self.source = source
        self.target_server = target_server
        self.throttle = throttle
        self.chunk_bytes = chunk_bytes
        self.delta_threshold = delta_threshold
        self.max_delta_rounds = max_delta_rounds
        self.pipeline_depth = pipeline_depth
        self.on_handover = on_handover
        #: Optional fencing gate, consulted once immediately before the
        #: HANDOVER transition (the point of no return).  Returning
        #: ``False`` aborts with a full rollback instead of freezing —
        #: a node whose ownership lease has lapsed must never commit.
        #: ``None`` (the default) keeps the run path byte-identical.
        self.fence = fence
        #: Optional :class:`~repro.obs.Observability`; ``None`` keeps
        #: phase transitions free of span/metric work.
        self.obs = obs
        self.phase = MigrationPhase.PENDING
        #: (time, phase) log of every transition, for post-mortems.
        self.phase_history: list[tuple[float, MigrationPhase]] = []
        self.backup = HotBackup(env, source, chunk_bytes=chunk_bytes)
        self.target: Optional[DatabaseEngine] = None
        #: True once an abort has rolled state back (source thawed and
        #: authoritative, target discarded).
        self.rolled_back = False
        self._abort_reason: Optional[str] = None
        self._process: Optional[Process] = None
        self._children: list[Process] = []
        self._handover_done = False

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

    def try_abort(self, reason: str = "cancelled") -> bool:
        """Request an abort; returns whether it was accepted.

        Accepted any time before the handover freeze: the run process
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
        if (
            proc is not None
            and proc.is_alive
            and proc is not self.env.active_process
        ):
            proc.interrupt(reason)
        return True

    def abort(self, reason: str = "operator cancelled") -> None:
        """Cancel the migration before handover.

        Safe at any time before the handover freeze; once the handover
        has begun (or completed) the abort is refused with
        :class:`RuntimeError` — the target is (becoming) authoritative
        and cancelling would lose writes.  Aborting an already-aborted
        migration is a no-op.
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

    def _rollback(self) -> None:
        """Restore a consistent source-resident state (synchronous)."""
        active = self.env.active_process
        for child in self._children:
            if child.is_alive and child is not active:
                child.interrupt("migration aborted")
        self._children.clear()
        if self.source.is_frozen:
            self.source.thaw()
        if self.target is not None and self.target.state is not EngineState.STOPPED:
            self.target.stop()  # discard the half-built replica
        self._transition(MigrationPhase.ABORTED)
        self.rolled_back = True

    # -- pipeline pieces -----------------------------------------------------

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

    def _snapshot_producer(self, snapshot, chunks: Store, slots: Container):
        """Pace chunk shipments at the throttle rate.

        Each chunk's disk read is spawned asynchronously (bounded by
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
                self._spawn(self._ship_snapshot_chunk(snapshot, size, is_last, chunks))
            )
        for proc in in_flight:
            if proc.is_alive:
                yield proc
        chunks.put(None)  # end-of-stream marker

    def _ship_snapshot_chunk(
        self, snapshot, size: int, is_last: bool, chunks: Store
    ):
        """Read one chunk on the source and wire it to the target."""
        yield from self.source.server.disk.read(
            size, sequential=True, stream=f"{self.source.name}:backup"
        )
        snapshot.chunks += 1
        if is_last:
            # The consistent-scan endpoint: redo past this LSN is the
            # delta the prepare/delta phases must replay.
            snapshot.end_lsn = self.source.binlog.head_lsn
            snapshot.finished_at = self.env.now
        yield from self.source.server.nic_out.transfer(size)
        chunks.put(size)

    def _snapshot_consumer(self, chunks: Store, slots: Container, stream: str):
        """Write received chunks to the target disk."""
        while True:
            size = yield chunks.get()
            if size is None:
                return
            yield from self.target_server.disk.write(
                size, sequential=True, stream=stream
            )
            slots.put(1)

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

    def _delta_round(self, throttled: bool = True) -> Generator:
        """Ship and apply everything the target is currently behind by.

        Returns the bytes shipped.
        """
        assert self.target is not None
        from_lsn = self.target.replicated_lsn
        to_lsn = self.source.binlog.head_lsn
        pending = to_lsn - from_lsn
        if pending > 0:
            yield from self._ship_delta(pending, throttled=throttled)
            yield from self.target.apply_delta_bytes(pending, to_lsn)
        return pending

    # -- the migration ---------------------------------------------------------

    def run(self) -> Generator:
        """Process: run the full migration; returns the result record.

        Terminates in exactly one of two ways: returns a
        :class:`MigrationResult` with phase ``COMPLETE``, or raises
        :class:`MigrationAborted` with phase ``ABORTED`` after rolling
        the tenant back to the source.
        """
        self._process = self.env.active_process
        started_at = self.env.now
        try:
            self._check_abort()

            # Step 1a: stream the snapshot (pipelined through a bounded buffer).
            self._transition(MigrationPhase.SNAPSHOT)
            snapshot = self.backup.begin()
            chunks = Store(self.env)
            slots = Container(
                self.env, capacity=self.pipeline_depth, init=self.pipeline_depth
            )
            stream = f"{self.source.name}:restore"
            producer = self._spawn(self._snapshot_producer(snapshot, chunks, slots))
            consumer = self._spawn(self._snapshot_consumer(chunks, slots, stream))
            yield self.env.all_of([producer, consumer])
            self._check_abort()

            # Step 1b: prepare (crash recovery) on the target.
            self._transition(MigrationPhase.PREPARE)
            self.target = self._make_target()
            yield self._spawn(self.backup.prepare(snapshot, self.target))
            self._check_abort()

            # Step 2: delta rounds until the pending log is small enough.
            self._transition(MigrationPhase.DELTA)
            rounds: list[int] = []  # bytes shipped per round
            while len(rounds) < self.max_delta_rounds:
                self._check_abort()
                pending = self.source.binlog.head_lsn - self.target.replicated_lsn
                if pending <= self.delta_threshold:
                    break
                rounds.append((yield self._spawn(self._delta_round())))
            self._check_abort()
        except Interrupt as interrupt:
            reason = self._abort_reason or str(interrupt.cause or "interrupted")
            self._abort_reason = reason
            self._rollback()
            raise MigrationAborted(reason) from None

        # Fencing gate: the last instant ownership can be checked before
        # the point of no return.  A lapsed lease means another node may
        # already own the tenant — roll back instead of freezing.
        if self.fence is not None and not self.fence():
            self._abort_reason = self._abort_reason or "fencing check failed at handover"
            self._rollback()
            raise MigrationAborted(self._abort_reason)

        # Step 3: freeze-and-handover (sub-second; final delta unthrottled).
        # Point of no return: aborts are refused from here on, so the
        # source is never left frozen and the handover runs exactly once.
        self._transition(MigrationPhase.HANDOVER)
        freeze_started = self.env.now
        self.source.freeze(FreezeMode.WRITES)
        try:
            yield self.source.write_quiesced()
            rounds.append((yield self._spawn(self._delta_round(throttled=False))))
        except BaseException:
            # Never leave the tenant frozen, whatever went wrong.
            if self.source.is_frozen:
                self.source.thaw()
            raise
        downtime = self.env.now - freeze_started
        if self.obs is not None:
            self.obs.on_migration_freeze(self, downtime)
        if self.on_handover is not None and not self._handover_done:
            self._handover_done = True
            self.on_handover(self.target)
        self.source.stop(successor=self.target)

        self._transition(MigrationPhase.COMPLETE)
        return MigrationResult(
            kind="live",
            duration=self.env.now - started_at,
            downtime=downtime,
            total_bytes=snapshot.total_bytes + sum(rounds),
            snapshot_bytes=snapshot.total_bytes,
            delta_rounds=len(rounds),
            target=self.target,
        )
