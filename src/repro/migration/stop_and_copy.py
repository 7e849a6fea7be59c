"""Stop-and-copy migration (the paper's Section 2.3.1 baseline).

Two variants, both of which incur downtime proportional to database
size (which is why the paper abandons them for live migration):

* **file-level copy** — Slacker's optimized variant: acquire a global
  read lock, copy the tenant's data directory byte-for-byte, start a
  new daemon on the target pointing at the copied directory.  No
  export/import cost because "the data stays in the internal format
  used by MySQL".
* **dump-and-reimport** — the naive ``mysqldump`` pipeline: export all
  data as SQL, ship it, re-execute it on the target.  "This approach is
  very slow ... largely due to the overhead of reimporting the data".
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..db.backup import DEFAULT_CHUNK_BYTES
from ..db.engine import DatabaseEngine, FreezeMode
from ..resources.server import Server
from ..resources.units import PAGE_SIZE
from ..simulation import Environment, Interrupt, Process
from .result import MigrationAborted, MigrationResult
from .throttle import Throttle

__all__ = ["StopAndCopyMigration", "DumpReimportMigration"]


class StopAndCopyMigration:
    """File-level stop-and-copy of one tenant to a target server.

    Abortable any time before the handover: the rollback thaws the
    source and drops the partial copy (the target engine only exists
    once the copy is complete).  From the handover on aborts are
    refused.
    """

    kind = "stop-and-copy"

    def __init__(
        self,
        env: Environment,
        source: DatabaseEngine,
        target_server: Server,
        throttle: Optional[Throttle] = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        on_handover: Optional[Callable[[DatabaseEngine], None]] = None,
        fence: Optional[Callable[[], bool]] = None,
        obs=None,
    ):
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.env = env
        self.source = source
        self.target_server = target_server
        self.throttle = throttle
        self.chunk_bytes = chunk_bytes
        self.on_handover = on_handover
        #: Fencing gate, consulted immediately before the handover.
        self.fence = fence
        self.obs = obs
        #: True from the handover (the point of no return) on.
        self.handed_over = False
        self.rolled_back = False
        self._abort_reason: Optional[str] = None
        self._process: Optional[Process] = None

    def try_abort(self, reason: str = "cancelled") -> bool:
        """Request an abort; accepted any time before the handover."""
        if self.handed_over or self.rolled_back:
            return False
        if self._abort_reason is None:
            self._abort_reason = reason
        proc = self._process
        if proc is not None and proc.is_alive and proc is not self.env.active_process:
            proc.interrupt(reason)
        return True

    def _abort(self, reason: str) -> MigrationAborted:
        """Roll back to a serving source; returns the exception to raise."""
        if self.source.is_frozen:
            self.source.thaw()
        self.rolled_back = True
        return MigrationAborted(reason)

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

    def _ship_chunk(self, size: int, stream: str) -> Generator:
        """Read one chunk on the source, wire it over, write it down."""
        if self.throttle is not None:
            yield from self.throttle.acquire(size)
        yield from self.source.server.disk.read(size, sequential=True, stream=stream)
        yield from self.source.server.nic_out.transfer(size)
        yield from self.target_server.disk.write(size, sequential=True, stream=stream)

    def run(self) -> Generator:
        """Process: perform the migration; returns a :class:`MigrationResult`."""
        self._process = self.env.active_process
        started_at = self.env.now
        total = self.source.data_bytes
        copied = 0
        stream = f"{self.source.name}:stop-and-copy"
        try:
            if self._abort_reason is None:
                self.source.freeze(FreezeMode.ALL)
                yield self.source.write_quiesced()
                while copied < total:
                    size = min(self.chunk_bytes, total - copied)
                    yield from self._ship_chunk(size, stream)
                    copied += size
        except Interrupt as interrupt:
            self._abort_reason = self._abort_reason or str(
                interrupt.cause or "interrupted"
            )
        if self._abort_reason is not None:
            raise self._abort(self._abort_reason)
        if self.fence is not None and not self.fence():
            raise self._abort("fencing check failed at handover")

        target = self._make_target()
        # The copied files are already current: no writes ran since the
        # freeze, so the target starts at the source's exact LSN.
        target.replicated_lsn = self.source.binlog.head_lsn
        target.data_version = self.source.data_version
        self.handed_over = True
        duration = self.env.now - started_at
        if self.obs is not None:
            self.obs.on_migration_freeze(self, duration)
        if self.on_handover is not None:
            self.on_handover(target)
        self.source.stop(successor=target)
        # The tenant is down for the entire copy: downtime == duration.
        return MigrationResult(
            kind=self.kind,
            duration=duration,
            downtime=duration,
            total_bytes=copied,
            target=target,
        )


class DumpReimportMigration(StopAndCopyMigration):
    """Naive mysqldump stop-and-copy: export, ship, re-import.

    The re-import re-executes every row insert on the target: a CPU
    burst plus page write per row batch, which dominates the cost
    exactly as reported in the paper and in Elmore et al.'s
    measurements.
    """

    kind = "dump-reimport"

    #: Rows re-inserted per batched import statement.
    import_batch_rows = 64

    def _ship_chunk(self, size: int, stream: str) -> Generator:
        yield from super()._ship_chunk(size, stream)
        # Re-import: re-execute the inserts carried by this chunk.
        rows = max(1, size // self.source.layout.row_size)
        batches = -(-rows // self.import_batch_rows)  # ceil division
        for _ in range(batches):
            yield from self.target_server.cpu.execute(
                self.source.costs.cpu_per_op + self.source.costs.cpu_per_write
            )
            yield from self.target_server.disk.write(PAGE_SIZE)
