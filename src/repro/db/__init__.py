"""The MySQL/InnoDB-like tenant database substrate.

Pages and tables, an LRU buffer pool, a binary log, a transaction
executor bound to simulated server hardware, and the hot-backup
snapshot record (the XtraBackup equivalent) — everything Slacker's
migration pipeline operates on.
"""

from .backup import DEFAULT_CHUNK_BYTES, Snapshot
from .buffer_pool import AccessResult, BufferPool, BufferPoolStats
from .engine import DatabaseEngine, EngineState, EngineStats, FreezeMode
from .log import BinaryLog
from .pages import DEFAULT_ROW_SIZE, TableLayout
from .shared import SharedProcessEngine, SharedTenant
from .transactions import Operation, OperationCosts, OpType, Transaction

__all__ = [
    "AccessResult",
    "BinaryLog",
    "BufferPool",
    "BufferPoolStats",
    "DEFAULT_CHUNK_BYTES",
    "DEFAULT_ROW_SIZE",
    "DatabaseEngine",
    "EngineState",
    "EngineStats",
    "FreezeMode",
    "Operation",
    "OperationCosts",
    "OpType",
    "SharedProcessEngine",
    "SharedTenant",
    "Snapshot",
    "TableLayout",
    "Transaction",
]
