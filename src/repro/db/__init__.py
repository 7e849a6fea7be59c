"""The MySQL/InnoDB-like tenant database substrate.

Pages and tables, an LRU buffer pool, a binary log, a transaction
executor bound to simulated server hardware, and the hot-backup
snapshot record (the XtraBackup equivalent) — everything Slacker's
migration pipeline operates on.
"""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "AccessResult": ".buffer_pool",
        "BinaryLog": ".log",
        "BufferPool": ".buffer_pool",
        "BufferPoolStats": ".buffer_pool",
        "DEFAULT_CHUNK_BYTES": ".backup",
        "DEFAULT_ROW_SIZE": ".pages",
        "DatabaseEngine": ".engine",
        "EngineState": ".engine",
        "EngineStats": ".engine",
        "FreezeMode": ".engine",
        "Operation": ".transactions",
        "OperationCosts": ".transactions",
        "OpType": ".transactions",
        "SharedProcessEngine": ".shared",
        "SharedTenant": ".shared",
        "Snapshot": ".backup",
        "TableLayout": ".pages",
        "Transaction": ".transactions",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
