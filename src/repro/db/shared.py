"""Shared-process multitenancy (the Section 6 / Section 8 extension).

"Slacker currently operates with a multi-process model of multitenancy,
but we are working on extending this to other models, such as
single-process (e.g., one MySQL daemon handling all tenants rather than
just one)" (Section 8).  "Slacker can be easily extended to handle such
sharing levels as long as appropriate hot backup tools are available —
e.g., the Percona variant of MySQL offers table-level hot backup"
(Section 6).

:class:`SharedProcessEngine` is that single daemon: several logical
tenants share one buffer pool (so neighbours *can* evict each other's
pages — the isolation cost the paper's process-level model avoids) and
one binary log whose records are tagged by tenant.
:class:`TableLevelBackup` streams a consistent snapshot of just one
tenant's tablespace, the building block for migrating a single tenant
out of a consolidated server.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator, Optional

from ..resources.server import Server
from ..resources.units import MB, PAGE_SIZE
from ..simulation import Environment, Event
from .backup import DEFAULT_CHUNK_BYTES, Snapshot
from .buffer_pool import BufferPool
from .engine import EngineState
from .log import BinaryLog
from .pages import TableLayout
from .transactions import Operation, OperationCosts, Transaction

__all__ = [
    "SharedTenant",
    "SharedProcessEngine",
    "SharedTenantSession",
    "TableLevelBackup",
]


@dataclass
class SharedTenant:
    """One logical tenant inside a shared-process engine."""

    tenant_id: int
    layout: TableLayout
    #: Committed write-operation count (the tenant's data version).
    data_version: int = 0
    #: Writes this tenant currently has in flight.
    inflight_writes: int = 0
    #: True while the tenant's tables hold a write lock (handover).
    frozen: bool = False

    @property
    def data_bytes(self) -> int:
        return self.layout.data_bytes


class SharedProcessEngine:
    """One daemon hosting many tenants: shared pool, shared binlog.

    The API mirrors :class:`~repro.db.engine.DatabaseEngine` with an
    explicit ``tenant_id`` on every call.  Pages are namespaced by
    tenant, so two tenants' page 0 are distinct pool entries but
    compete for the same frames ("buffer page evictions due to
    competing workloads", Section 2.1 — the tradeoff the paper's
    process-level model pays memory to avoid).
    """

    def __init__(
        self,
        env: Environment,
        server: Server,
        name: str = "shared-mysqld",
        buffer_bytes: int = 512 * MB,
        costs: Optional[OperationCosts] = None,
    ):
        self.env = env
        self.server = server
        self.name = name
        self.costs = costs or OperationCosts()
        self.buffer_pool = BufferPool(capacity_bytes=buffer_bytes)
        self.binlog = BinaryLog()
        self.state = EngineState.RUNNING
        self.tenants: dict[int, SharedTenant] = {}
        self._txn_ids = itertools.count(1)
        self._thaw_events: dict[int, Event] = {}
        self._quiesce_waiters: dict[int, list[Event]] = {}
        self.committed = 0

    # -- tenant management -------------------------------------------------------

    def add_tenant(self, tenant_id: int, layout: TableLayout) -> SharedTenant:
        """Create a tenant's tables inside this daemon."""
        if tenant_id in self.tenants:
            raise ValueError(f"tenant {tenant_id} already exists in {self.name}")
        tenant = SharedTenant(tenant_id=tenant_id, layout=layout)
        self.tenants[tenant_id] = tenant
        return tenant

    def drop_tenant(self, tenant_id: int) -> None:
        """Drop a tenant's tables (post-migration cleanup)."""
        self._tenant(tenant_id)
        del self.tenants[tenant_id]

    def _tenant(self, tenant_id: int) -> SharedTenant:
        try:
            return self.tenants[tenant_id]
        except KeyError:
            raise KeyError(f"no tenant {tenant_id} in {self.name}") from None

    def new_txn_id(self) -> int:
        """Allocate a unique transaction id."""
        return next(self._txn_ids)

    # -- per-tenant freeze (table write locks) --------------------------------------

    def freeze_tenant(self, tenant_id: int) -> None:
        """Write-lock one tenant's tables; other tenants are unaffected."""
        tenant = self._tenant(tenant_id)
        if tenant.frozen:
            raise RuntimeError(f"tenant {tenant_id} is already frozen")
        tenant.frozen = True
        self._thaw_events[tenant_id] = Event(self.env)

    def thaw_tenant(self, tenant_id: int) -> None:
        """Release a tenant's table locks."""
        tenant = self._tenant(tenant_id)
        if not tenant.frozen:
            raise RuntimeError(f"tenant {tenant_id} is not frozen")
        tenant.frozen = False
        self._thaw_events.pop(tenant_id).succeed()

    def write_quiesced(self, tenant_id: int) -> Event:
        """Event firing once the tenant has no write in flight."""
        tenant = self._tenant(tenant_id)
        event = Event(self.env)
        if tenant.inflight_writes == 0:
            event.succeed()
        else:
            self._quiesce_waiters.setdefault(tenant_id, []).append(event)
        return event

    # -- execution ------------------------------------------------------------------

    def execute(self, tenant_id: int, txn: Transaction) -> Generator:
        """Process: run ``txn`` against one tenant's tables."""
        tenant = self._tenant(tenant_id)
        while tenant.frozen and txn.write_count > 0:
            yield self._thaw_events[tenant_id]
        if txn.started_at is None:
            txn.started_at = self.env.now

        is_writer = txn.write_count > 0
        if is_writer:
            tenant.inflight_writes += 1
        try:
            for op in txn.operations:
                yield from self._execute_operation(tenant, txn, op)
            if is_writer:
                yield from self._commit(tenant, txn)
        finally:
            if is_writer:
                tenant.inflight_writes -= 1
                if tenant.inflight_writes == 0:
                    waiters = self._quiesce_waiters.pop(tenant_id, [])
                    for waiter in waiters:
                        waiter.succeed()
        self.committed += 1
        txn.finished_at = self.env.now

    def _execute_operation(
        self, tenant: SharedTenant, txn: Transaction, op: Operation
    ) -> Generator:
        cpu_cost = self.costs.cpu_per_op
        if op.op_type.is_write:
            cpu_cost += self.costs.cpu_per_write
        yield from self.server.cpu.execute(cpu_cost)

        if op.op_type.is_scan:
            pages = tenant.layout.pages_of_scan(op.key, op.scan_length)
        else:
            pages = [tenant.layout.page_of(op.key)]

        for page_id in pages:
            # Namespaced page key: tenants share frames, not pages.
            key = (tenant.tenant_id, page_id)
            result = self.buffer_pool.access(key, write=op.op_type.is_write)
            if result.writeback_page is not None:
                yield from self.server.disk.write(PAGE_SIZE)
            if result.read_page is not None:
                yield from self.server.disk.read(PAGE_SIZE)
                txn.pages_read += 1

        if op.op_type.is_write:
            self.binlog.append(
                size=self.costs.log_bytes_per_write,
                time=self.env.now,
                txn_id=txn.txn_id,
                tag=tenant.tenant_id,
            )

    def _commit(self, tenant: SharedTenant, txn: Transaction) -> Generator:
        yield from self.server.disk.write(
            self.costs.commit_flush_bytes,
            sequential=True,
            stream=f"{self.name}:binlog",
            cached=True,
        )
        tenant.data_version += txn.write_count


class TableLevelBackup:
    """Table-level hot backup: stream one tenant's tablespace.

    The shared-process analogue of the live copy step
    (:class:`~repro.migration.fluid.FluidMigration`):
    the scan covers only the chosen tenant's pages, and the redo to
    replay is only that tenant's (tagged) binlog records.
    """

    def __init__(
        self,
        env: Environment,
        source: SharedProcessEngine,
        tenant_id: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ):
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.env = env
        self.source = source
        self.tenant_id = tenant_id
        self.chunk_bytes = chunk_bytes

    def begin(self) -> Snapshot:
        """Start a snapshot of the tenant's tablespace."""
        tenant = self.source._tenant(self.tenant_id)
        return Snapshot(
            start_lsn=self.source.binlog.head_lsn,
            total_bytes=tenant.data_bytes,
            started_at=self.env.now,
        )

    def read_chunk(self, snapshot: Snapshot):
        """Process: read the next tablespace chunk from the shared disk."""
        if snapshot.complete:
            return None
        remaining = snapshot.total_bytes - snapshot.streamed_bytes
        size = min(self.chunk_bytes, remaining)
        yield from self.source.server.disk.read(
            size,
            sequential=True,
            stream=f"{self.source.name}:backup-t{self.tenant_id}",
        )
        snapshot.streamed_bytes += size
        snapshot.chunks += 1
        if snapshot.streamed_bytes >= snapshot.total_bytes:
            snapshot.end_lsn = self.source.binlog.head_lsn
            snapshot.finished_at = self.env.now
        return size

    def redo_bytes(self, snapshot: Snapshot) -> int:
        """This tenant's share of the redo captured during the scan."""
        if not snapshot.complete:
            raise ValueError("snapshot scan has not finished")
        return self.source.binlog.tagged_bytes_between(
            snapshot.start_lsn, snapshot.end_lsn, tag=self.tenant_id
        )

    def pending_delta(self, from_lsn: int) -> int:
        """This tenant's binlog bytes accumulated since ``from_lsn``."""
        return self.source.binlog.tagged_bytes_between(
            from_lsn, self.source.binlog.head_lsn, tag=self.tenant_id
        )


class SharedTenantSession:
    """A client connection bound to one tenant of a shared daemon.

    Presents the single-tenant ``execute(txn)`` interface the benchmark
    clients expect.  At migration handover, :meth:`rebind` points the
    session at the tenant's new dedicated daemon — the shared-process
    version of the client connection hand-off.
    """

    def __init__(self, engine: SharedProcessEngine, tenant_id: int):
        engine._tenant(tenant_id)  # validate
        self.shared = engine
        self.tenant_id = tenant_id
        self.dedicated = None

    def rebind(self, dedicated) -> None:
        """Route future transactions to the tenant's dedicated engine."""
        self.dedicated = dedicated

    def execute(self, txn: Transaction) -> Generator:
        """Process: run ``txn`` wherever the tenant currently lives."""
        if self.dedicated is not None:
            yield from self.dedicated.execute(txn)
            return
        try:
            yield from self.shared.execute(self.tenant_id, txn)
        except KeyError:
            # The tenant moved while we were queued: retry dedicated.
            if self.dedicated is None:
                raise
            yield from self.dedicated.execute(txn)
