"""The one result type every migration engine returns, and its abort."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..db.engine import DatabaseEngine

__all__ = ["MigrationAborted", "MigrationResult"]


class MigrationAborted(Exception):
    """A migration was cancelled before its point of no return.

    Raised from the engine's ``run``.  The source remains authoritative
    and unfrozen; the partially-copied target is discarded.
    """

    def __init__(self, reason: str = ""):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of one migration, whichever engine ran it.

    Fields an engine has no use for keep their zero default.  The
    picklable copy a sweep worker ships home is the same type with
    ``target=None``.
    """

    #: "live", "fluid", "on-demand", "stop-and-copy" or "dump-reimport".
    #: A tenant pulled out of a shared-process daemon is "live".
    kind: str
    #: End-to-end migration time, seconds.
    duration: float
    #: The longest stall a transaction could see: the freeze window
    #: (live), the longest chunk freeze (fluid), the time to
    #: the ownership switch (on-demand), or the whole copy
    #: (stop-and-copy, dump-reimport).
    downtime: float
    #: Bytes moved end to end.
    total_bytes: int
    #: Snapshot volume (live), or the summed chunk copies (fluid).
    snapshot_bytes: int = 0
    #: Delta rounds shipped, the final handover round included (live,
    #: fluid).
    delta_rounds: int = 0
    #: Chunk count and summed per-chunk freeze time (fluid).
    num_chunks: int = 0
    total_freeze_time: float = 0.0
    #: Pages pulled remotely inside transactions (on-demand).
    remote_fetches: int = 0
    #: The engine now serving the tenant; ``None`` once detached.
    target: Optional[DatabaseEngine] = None

    @property
    def average_rate(self) -> float:
        """Mean transfer rate over the whole migration, bytes/second."""
        if self.duration <= 0:
            return 0.0
        return self.total_bytes / self.duration
