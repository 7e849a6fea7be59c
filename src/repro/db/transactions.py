"""Transaction and operation model.

The paper's benchmark issues transactions that are "a serial set of
basic database operations (SELECT, UPDATE, INSERT, etc.) selected from
a preset operation distribution" — 10 operations per transaction, 85 %
reads / 15 % writes against random rows of a 1 GB table
(Section 5.1.2).  This module defines those operations and the cost
constants the engine charges for them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from ..resources.units import KB

__all__ = ["OpType", "Operation", "Transaction", "OperationCosts"]

_new_tuple = tuple.__new__


class OpType(enum.Enum):
    """Basic database operation kinds (a YCSB-style subset of SQL)."""

    #: True for operations that modify data (and hit the binlog).  A
    #: plain per-member attribute: the engine reads it for every
    #: operation.
    is_write: bool
    #: True for range scans, the only kind that touches several rows.
    #: A per-member attribute for the same reason as ``is_write``.
    is_scan: bool

    def __new__(cls, value: str, is_write: bool, is_scan: bool = False) -> "OpType":
        member = object.__new__(cls)
        member._value_ = value
        member.is_write = is_write
        member.is_scan = is_scan
        return member

    SELECT = "select", False
    UPDATE = "update", True
    INSERT = "insert", True
    DELETE = "delete", True
    SCAN = "scan", False, True


class _OperationFields(NamedTuple):
    op_type: OpType
    #: Target row key (for SCAN: the starting key).
    key: int
    #: Number of rows touched (only > 1 for SCAN).
    scan_length: int = 1


class Operation(_OperationFields):
    """One basic operation within a transaction.

    An immutable named tuple ``(op_type, key, scan_length)``, validated
    on construction.  Every transaction is built from ten of them, so
    construction is one checked ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, op_type: OpType, key: int, scan_length: int = 1) -> "Operation":
        if key < 0:
            raise ValueError(f"key must be >= 0, got {key}")
        if scan_length < 1:
            raise ValueError(f"scan_length must be >= 1, got {scan_length}")
        if scan_length > 1 and not op_type.is_scan:
            raise ValueError("scan_length > 1 is only valid for SCAN operations")
        return _new_tuple(cls, (op_type, key, scan_length))


@dataclass
class Transaction:
    """A serial list of operations executed as one unit.

    ``arrived_at`` is stamped by the workload generator; ``started_at``
    and ``finished_at`` by the client when execution begins/ends.  The
    paper defines transaction latency as queue time plus execution
    time, i.e. ``finished_at - arrived_at``.
    """

    txn_id: int
    operations: Sequence[Operation]
    arrived_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Filled by the engine: pages read from disk while executing.
    pages_read: int = field(default=0)

    @cached_property
    def write_count(self) -> int:
        """Number of write operations in the transaction (counted once)."""
        return sum(1 for op in self.operations if op.op_type.is_write)

    @property
    def read_count(self) -> int:
        """Number of read operations in the transaction."""
        return len(self.operations) - self.write_count

    @property
    def latency(self) -> float:
        """Queue time + execution time, seconds."""
        if self.arrived_at is None or self.finished_at is None:
            raise ValueError(f"transaction {self.txn_id} has not completed")
        return self.finished_at - self.arrived_at

    @property
    def queue_time(self) -> float:
        """Time spent waiting for a client thread before execution."""
        if self.arrived_at is None or self.started_at is None:
            raise ValueError(f"transaction {self.txn_id} has not started")
        return self.started_at - self.arrived_at


@dataclass(frozen=True)
class OperationCosts:
    """CPU and logging costs the engine charges per operation.

    Disk costs are not listed here: they emerge from buffer-pool misses
    and the disk model, not from fixed constants.
    """

    #: Mean CPU burst to parse/plan/execute one operation, seconds.
    cpu_per_op: float = 150e-6
    #: Extra CPU for applying a write (index maintenance etc.), seconds.
    cpu_per_write: float = 100e-6
    #: Encoded binlog record size per write operation, bytes.
    log_bytes_per_write: int = 256
    #: Size of a group-commit log flush (sequential disk write), bytes.
    commit_flush_bytes: int = 4 * KB

    def __post_init__(self) -> None:
        if self.cpu_per_op < 0 or self.cpu_per_write < 0:
            raise ValueError("CPU costs must be >= 0")
        if self.log_bytes_per_write <= 0 or self.commit_flush_bytes <= 0:
            raise ValueError("log sizes must be positive")
