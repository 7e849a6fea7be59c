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

from typing import Generator

from ..db.engine import FreezeMode
from ..resources.units import PAGE_SIZE
from ..simulation import Interrupt
from .result import MigrationEngine, MigrationResult

__all__ = ["StopAndCopyMigration", "DumpReimportMigration"]


class StopAndCopyMigration(MigrationEngine):
    """File-level stop-and-copy of one tenant to a target server.

    Abortable any time before the handover: the rollback thaws the
    source and drops the partial copy (the target engine only exists
    once the copy is complete).  From the handover on aborts are
    refused.
    """

    kind = "stop-and-copy"
    methods = (kind,)
    full_speed = True

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
            raise self._interrupted(interrupt) from None
        self._check_abort()
        self._fence_gate("handover")

        self.target = target = self._make_target()
        # The copied files are already current: no writes ran since the
        # freeze, so the target starts at the source's exact LSN.
        target.replicated_lsn = self.source.binlog.head_lsn
        target.data_version = self.source.data_version
        duration = self.env.now - started_at
        if self.obs is not None:
            self.obs.on_migration_freeze(self, duration)
        self._hand_over(target)
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
    methods = (kind,)

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
