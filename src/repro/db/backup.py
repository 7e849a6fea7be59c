"""Hot-backup bookkeeping: the XtraBackup-equivalent snapshot record.

Slacker "leverages [the] hot backup function to obtain a consistent
snapshot for use in starting a new MySQL instance" (Section 2.3.2).
The tool's contract, as the paper notes, is minimal: produce a
consistent-in-time snapshot *without interrupting transaction
processing*, streamable on the fly.

The scan itself is the copy step of
:class:`~repro.migration.fluid.FluidMigration` (for a tenant of a
shared daemon, a table-level hot backup of its tablespace alone): it
reads the data sequentially in fixed-size pieces, each queueing on the
source server's disk — the I/O the throttle meters and tenants feel.
While the scan runs, committed writes keep landing in the log; a
:class:`Snapshot` records the log range the prepare step must replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..resources.units import KB

__all__ = ["Snapshot", "DEFAULT_CHUNK_BYTES"]

#: Default streaming chunk size (XtraBackup reads in extents of this order).
DEFAULT_CHUNK_BYTES = 256 * KB


@dataclass
class Snapshot:
    """Bookkeeping for one in-progress or completed hot backup."""

    #: Log mark when the scan started: the source binlog LSN (for one
    #: chunk of a chunked migration, the bytes logged to the chunk).
    start_lsn: int
    #: Total bytes the snapshot will contain (the range scanned).
    total_bytes: int
    #: Bytes streamed so far.
    streamed_bytes: int = 0
    #: Log mark when the scan finished (set at completion).
    end_lsn: Optional[int] = None
    #: Simulated times of scan start/end.
    started_at: float = 0.0
    finished_at: Optional[float] = None
    chunks: int = field(default=0)

    @property
    def complete(self) -> bool:
        return self.end_lsn is not None

    @property
    def progress(self) -> float:
        """Fraction of the snapshot streamed, in [0, 1]."""
        if self.total_bytes == 0:
            return 1.0
        return self.streamed_bytes / self.total_bytes

    @property
    def redo_bytes(self) -> int:
        """Binlog bytes accumulated during the scan (to replay in prepare)."""
        if self.end_lsn is None:
            raise ValueError("snapshot scan has not finished")
        return self.end_lsn - self.start_lsn
