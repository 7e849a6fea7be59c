"""Binary / redo log of a tenant database.

Slacker's delta-updating step "appl[ies] several 'rounds' of deltas
from the source to the target by reading from the MySQL binary query
log of the source tenant" (Section 2.3.2).  This module models that
log: an append-only sequence of records addressed by LSN (log sequence
number, a byte offset), from which byte ranges can be measured and
shipped.

The same structure doubles as the redo stream XtraBackup captures
while snapshotting — the "prepare" phase replays the records that
accumulated between snapshot start and snapshot end.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

__all__ = ["LogRecord", "BinaryLog"]

_new_tuple = tuple.__new__


class LogRecord(NamedTuple):
    """One committed write in the binary log.

    An immutable named tuple ``(lsn, size, time, txn_id, tag)``: every
    write appends one, so :meth:`BinaryLog.append` builds it with one
    ``tuple.__new__``.
    """

    #: LSN of the *start* of this record (byte offset in the log).
    lsn: int
    #: Encoded size of the record in bytes.
    size: int
    #: Simulated time at which the record was appended.
    time: float
    #: Id of the committing transaction.
    txn_id: int
    #: Owner tag (tenant id in shared-process engines; 0 = untagged).
    tag: int = 0


class BinaryLog:
    """Append-only log with LSN addressing and range queries.

    >>> log = BinaryLog()
    >>> log.append(size=100, time=0.0, txn_id=1)
    100
    >>> log.append(size=50, time=1.0, txn_id=2)
    150
    >>> log.bytes_between(0, log.head_lsn)
    150
    >>> [r.txn_id for r in log.records_between(100, 150)]
    [2]
    """

    def __init__(self):
        self._records: list[LogRecord] = []
        self._starts: list[int] = []  # start LSN per record, for bisect
        self._head = 0

    @property
    def head_lsn(self) -> int:
        """LSN one past the last byte written (the append position)."""
        return self._head

    @property
    def record_count(self) -> int:
        return len(self._records)

    def append(self, size: int, time: float, txn_id: int, tag: int = 0) -> int:
        """Append one record; returns the new head LSN."""
        if size <= 0:
            raise ValueError(f"record size must be positive, got {size}")
        lsn = self._head
        self._records.append(_new_tuple(LogRecord, (lsn, size, time, txn_id, tag)))
        self._starts.append(lsn)
        self._head = head = lsn + size
        return head

    def bytes_between(self, from_lsn: int, to_lsn: int) -> int:
        """Bytes of log in the half-open LSN range [from_lsn, to_lsn)."""
        if from_lsn > to_lsn:
            raise ValueError(f"from_lsn {from_lsn} > to_lsn {to_lsn}")
        return min(to_lsn, self._head) - min(from_lsn, self._head)

    def records_between(self, from_lsn: int, to_lsn: int) -> list[LogRecord]:
        """Records whose start LSN lies in [from_lsn, to_lsn)."""
        if from_lsn > to_lsn:
            raise ValueError(f"from_lsn {from_lsn} > to_lsn {to_lsn}")
        lo = bisect.bisect_left(self._starts, from_lsn)
        hi = bisect.bisect_left(self._starts, to_lsn)
        return self._records[lo:hi]

    def tagged_bytes_between(self, from_lsn: int, to_lsn: int, tag: int) -> int:
        """Bytes of records with ``tag`` starting in [from_lsn, to_lsn).

        Shared-process engines interleave all tenants' writes in one
        log; a table-level migration ships only one tenant's records.
        """
        return sum(
            record.size
            for record in self.records_between(from_lsn, to_lsn)
            if record.tag == tag
        )

    def truncate_before(self, lsn: int) -> int:
        """Drop records entirely below ``lsn``; returns bytes reclaimed.

        Models binlog purging after deltas have been applied.  LSNs are
        never reused: the head keeps advancing.
        """
        # A record is droppable only if it ends at or before ``lsn``.
        ends = [record.lsn + record.size for record in self._records]
        lo = bisect.bisect_right(ends, lsn)
        reclaimed = sum(record.size for record in self._records[:lo])
        del self._records[:lo]
        del self._starts[:lo]
        return reclaimed
