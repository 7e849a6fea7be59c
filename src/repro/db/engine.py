"""The mysqld-like tenant database engine.

Each tenant in Slacker is "a directory containing all data and a
corresponding MySQL process" (Section 2.2).  :class:`DatabaseEngine`
models that process: it executes transactions against an InnoDB-style
buffer pool backed by the host server's disk, appends committed writes
to a binary log, and supports the freeze/replica operations the
migration pipeline needs (global read lock, snapshot cursor, delta
apply).

Execution cost of a transaction emerges from the substrate rather than
from fixed latency constants: every buffer-pool miss is a random disk
read queued behind whatever else (including a migration stream) is
using the spindle.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Generator, Iterable, Optional

from ..resources.server import Server
from ..resources.units import MB, PAGE_SIZE
from ..simulation import Environment, Event
from .buffer_pool import AccessResult, BufferPool
from .log import BinaryLog
from .pages import TableLayout
from .transactions import Operation, OperationCosts, Transaction

__all__ = ["EngineState", "FreezeMode", "EngineStats", "DatabaseEngine"]


class EngineState(enum.Enum):
    """Lifecycle state of the engine process."""

    RUNNING = "running"
    FROZEN = "frozen"
    STOPPED = "stopped"


class FreezeMode(enum.Enum):
    """What a freeze blocks.

    ``WRITES`` models a global read lock (stop-and-copy, handover):
    reads proceed, writes stall.  ``ALL`` models a full stop.
    """

    WRITES = "writes"
    ALL = "all"


@dataclass
class EngineStats:
    """Running counters for one engine."""

    committed: int = 0
    operations: int = 0
    log_flushes: int = 0
    replica_applied_bytes: int = 0
    freeze_count: int = 0
    total_frozen_time: float = 0.0


class DatabaseEngine:
    """One tenant's database daemon, bound to a host :class:`Server`."""

    def __init__(
        self,
        env: Environment,
        server: Server,
        layout: TableLayout,
        name: str = "tenant",
        buffer_bytes: int = 128 * MB,
        costs: Optional[OperationCosts] = None,
    ):
        self.env = env
        self.server = server
        self.layout = layout
        self.name = name
        self.costs = costs or OperationCosts()
        self.buffer_pool = BufferPool(capacity_bytes=buffer_bytes)
        self.binlog = BinaryLog()
        self.stats = EngineStats()
        self.state = EngineState.RUNNING
        #: Monotonic count of committed write operations (data version).
        self.data_version = 0
        #: For replicas: source LSN up to which deltas have been applied.
        self.replicated_lsn = 0
        #: Set at handover: the engine that took over this tenant.
        #: Transactions arriving after stop() are forwarded to it.
        self.successor: Optional["DatabaseEngine"] = None
        self._freeze_mode: Optional[FreezeMode] = None
        self._thaw_event: Optional[Event] = None
        self._frozen_at: Optional[float] = None
        self._txn_ids = itertools.count(1)
        self._inflight_writes = 0
        self._quiesce_waiters: list[Event] = []

    # -- identity ------------------------------------------------------------

    @property
    def data_bytes(self) -> int:
        """On-disk size of the tenant's data directory."""
        return self.layout.data_bytes

    def _stream(self, purpose: str) -> str:
        """Disk stream id for this engine's sequential I/O."""
        return f"{self.name}:{purpose}"

    # -- freeze / stop ---------------------------------------------------------

    @property
    def is_frozen(self) -> bool:
        return self.state is EngineState.FROZEN

    def freeze(self, mode: FreezeMode = FreezeMode.WRITES) -> None:
        """Acquire the global lock: block new transactions per ``mode``."""
        if self.state is EngineState.STOPPED:
            raise RuntimeError(f"engine {self.name} is stopped")
        if self.state is EngineState.FROZEN:
            raise RuntimeError(f"engine {self.name} is already frozen")
        self.state = EngineState.FROZEN
        self._freeze_mode = mode
        self._thaw_event = Event(self.env)
        self._frozen_at = self.env.now
        self.stats.freeze_count += 1

    def thaw(self) -> None:
        """Release the global lock and wake blocked transactions."""
        if self.state is not EngineState.FROZEN:
            raise RuntimeError(f"engine {self.name} is not frozen")
        self.state = EngineState.RUNNING
        self._freeze_mode = None
        self.stats.total_frozen_time += self.env.now - self._frozen_at
        self._frozen_at = None
        thaw_event, self._thaw_event = self._thaw_event, None
        thaw_event.succeed()

    def stop(self, successor: Optional["DatabaseEngine"] = None) -> None:
        """Shut the daemon down (tenant deletion / post-migration source).

        With ``successor`` set (migration handover), transactions that
        were blocked by the freeze — and any that still arrive here —
        are forwarded to the successor engine instead of failing,
        modelling the client connection hand-off.
        """
        self.successor = successor
        if self.state is EngineState.FROZEN:
            self.thaw()
        self.state = EngineState.STOPPED

    def _blocked_by_freeze(self, txn: Transaction) -> bool:
        if self.state is not EngineState.FROZEN:
            return False
        if self._freeze_mode is FreezeMode.ALL:
            return True
        return txn.write_count > 0

    # -- transaction execution -------------------------------------------------

    def new_txn_id(self) -> int:
        """Allocate a unique transaction id."""
        return next(self._txn_ids)

    def execute(self, txn: Transaction) -> Generator:
        """Process: run ``txn`` to commit; sets ``txn.finished_at``.

        Latency accumulates from CPU bursts, buffer-pool miss reads,
        dirty-page write-backs, and the group-commit log flush — all
        queued on the shared host server resources.
        """
        if self.state is EngineState.STOPPED:
            if self.successor is not None:
                yield from self.successor.execute(txn)
                return
            raise RuntimeError(f"engine {self.name} is stopped")
        while self._blocked_by_freeze(txn):
            yield self._thaw_event
        if self.state is EngineState.STOPPED:
            # Stopped while we were blocked on the freeze (handover):
            # forward to the new authoritative engine.
            if self.successor is not None:
                yield from self.successor.execute(txn)
                return
            raise RuntimeError(f"engine {self.name} is stopped")
        if txn.started_at is None:
            txn.started_at = self.env.now

        write_count = txn.write_count
        is_writer = write_count > 0
        if is_writer:
            self._inflight_writes += 1
        try:
            for op in txn.operations:
                yield from self._execute_operation(txn, op)
            if is_writer:
                yield from self._commit(write_count)
        finally:
            if is_writer:
                self._inflight_writes -= 1
                if self._inflight_writes == 0:
                    waiters, self._quiesce_waiters = self._quiesce_waiters, []
                    for waiter in waiters:
                        waiter.succeed()
        self.stats.committed += 1
        txn.finished_at = self.env.now

    def write_quiesced(self) -> Event:
        """Event that fires once no write transaction is in flight.

        Used by the handover step: after :meth:`freeze`, waiting on this
        event guarantees the final delta captures every committed write.
        Fires immediately if no writer is active.
        """
        event = Event(self.env)
        if self._inflight_writes == 0:
            event.succeed()
        else:
            self._quiesce_waiters.append(event)
        return event

    def _execute_operation(self, txn: Transaction, op: Operation) -> Generator:
        is_write = op.op_type.is_write
        cpu_cost = self.costs.cpu_per_op
        if is_write:
            cpu_cost += self.costs.cpu_per_write
        yield from self.server.cpu.execute(cpu_cost)

        if op.op_type.is_scan:
            pages = self.layout.pages_of_scan(op.key, op.scan_length)
        else:
            pages = (self.layout.page_of(op.key),)

        for page_id in pages:
            yield from self._access_page(txn, page_id, is_write)

        if is_write:
            self.binlog.append(self.costs.log_bytes_per_write)
        self.stats.operations += 1

    def _access_page(self, txn: Transaction, page_id: int, write: bool) -> Iterable:
        """Touch one page: pool access plus whatever disk work it implies.

        A pool hit implies none and returns ``()``; a miss returns a
        process generator for the write-back and the read.  Consume the
        result at once with ``yield from``.  Subclasses override this to
        change where missing pages come from (e.g. the on-demand-pull
        baseline fetches them from a remote source instead of the local
        disk).
        """
        result = self.buffer_pool.access(page_id, write=write)
        if result.hit:
            return ()
        return self._page_in(txn, result)

    def _page_in(self, txn: Transaction, result: AccessResult) -> Generator:
        """Process: the disk work of a pool miss."""
        if result.writeback_page is not None:
            yield from self.server.disk.write(PAGE_SIZE)
        if result.read_page is not None:
            yield from self.server.disk.read(PAGE_SIZE)
            txn.pages_read += 1

    def _commit(self, write_count: int) -> Generator:
        """Group-commit log flush: a cached sequential write to the log file."""
        yield from self.server.disk.write(
            self.costs.commit_flush_bytes,
            sequential=True,
            stream=self._stream("binlog"),
            cached=True,
        )
        self.stats.log_flushes += 1
        self.data_version += write_count

    # -- background page cleaner -------------------------------------------------

    def start_flusher(
        self,
        interval: float = 1.0,
        batch: int = 8,
        dirty_watermark: float = 0.1,
    ) -> None:
        """Start an InnoDB-style background page cleaner (opt-in).

        Every ``interval`` seconds, while more than ``dirty_watermark``
        of the pool is dirty, write back up to ``batch`` of the oldest
        dirty pages.  Foreground transactions then mostly evict *clean*
        pages (no write-back on the miss path) at the cost of steady
        background write traffic.  Disabled by default: the calibrated
        presets rely on eviction-driven write-back.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if not 0 <= dirty_watermark < 1:
            raise ValueError(
                f"dirty_watermark must be in [0, 1), got {dirty_watermark}"
            )
        self.env.process(self._flusher_loop(interval, batch, dirty_watermark))

    def _flusher_loop(self, interval: float, batch: int, watermark: float):
        threshold = watermark * self.buffer_pool.capacity_pages
        while self.state is not EngineState.STOPPED:
            yield self.env.timeout(interval)
            flushed = 0
            while (
                flushed < batch
                and self.state is not EngineState.STOPPED
                and self.buffer_pool.dirty_count > threshold
            ):
                page_id = self.buffer_pool.oldest_dirty_page()
                if page_id is None:
                    break
                yield from self.server.disk.write(PAGE_SIZE)
                self.buffer_pool.flush_page(page_id)
                flushed += 1

    # -- replica-side operations (used by the migration pipeline) ---------------

    def apply_delta_bytes(self, nbytes: int, up_to_lsn: int) -> Generator:
        """Process: replay ``nbytes`` of source binlog onto this replica.

        Applying a delta costs CPU (statement re-execution) plus random
        page writes on the replica's disk, scaled to the byte volume.
        Advances :attr:`replicated_lsn` to ``up_to_lsn`` on completion.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if up_to_lsn < self.replicated_lsn:
            raise ValueError(
                f"delta target LSN {up_to_lsn} behind replicated "
                f"LSN {self.replicated_lsn}"
            )
        records = max(0, nbytes // self.costs.log_bytes_per_write)
        for _ in range(records):
            yield from self.server.cpu.execute(
                self.costs.cpu_per_op + self.costs.cpu_per_write
            )
            # Replayed writes land in the replica's pool; flushing is
            # charged as one cached page write per record (batched
            # recovery-style apply, cheaper than foreground writes).
            yield from self.server.disk.write(
                PAGE_SIZE, sequential=True, stream=self._stream("apply"), cached=True
            )
        self.stats.replica_applied_bytes += nbytes
        self.replicated_lsn = up_to_lsn
