"""Binary / redo log of a tenant database.

Slacker's delta-updating step "appl[ies] several 'rounds' of deltas
from the source to the target by reading from the MySQL binary query
log of the source tenant" (Section 2.3.2).  This module models that
log: an append-only byte stream addressed by LSN (log sequence number,
a byte offset), from which byte ranges can be measured and shipped.

The same structure doubles as the redo stream XtraBackup captures
while snapshotting — the "prepare" phase replays the bytes that
accumulated between snapshot start and snapshot end.

Every delta is sized by LSN arithmetic alone, so the log keeps its
head LSN and nothing per record: its memory does not grow with the
writes it has taken.
"""

from __future__ import annotations

__all__ = ["BinaryLog"]


class BinaryLog:
    """Append-only log with LSN addressing and range queries.

    >>> log = BinaryLog()
    >>> log.append(100)
    100
    >>> log.append(50)
    150
    >>> log.bytes_between(100, log.head_lsn)
    50
    """

    __slots__ = ("_head",)

    def __init__(self):
        self._head = 0

    @property
    def head_lsn(self) -> int:
        """LSN one past the last byte written (the append position)."""
        return self._head

    def append(self, size: int) -> int:
        """Append one record of ``size`` bytes; returns the new head LSN."""
        if size <= 0:
            raise ValueError(f"record size must be positive, got {size}")
        self._head = head = self._head + size
        return head

    def bytes_between(self, from_lsn: int, to_lsn: int) -> int:
        """Bytes of log in the half-open LSN range [from_lsn, to_lsn)."""
        if from_lsn > to_lsn:
            raise ValueError(f"from_lsn {from_lsn} > to_lsn {to_lsn}")
        return min(to_lsn, self._head) - min(from_lsn, self._head)
