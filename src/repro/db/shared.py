"""Shared-process multitenancy (the Section 6 / Section 8 extension).

"Slacker currently operates with a multi-process model of multitenancy,
but we are working on extending this to other models, such as
single-process (e.g., one MySQL daemon handling all tenants rather than
just one)" (Section 8).  "Slacker can be easily extended to handle such
sharing levels as long as appropriate hot backup tools are available —
e.g., the Percona variant of MySQL offers table-level hot backup"
(Section 6).

:class:`SharedProcessEngine` is that single daemon: several logical
tenants on one server share one buffer pool, so neighbours *can* evict
each other's pages — the isolation cost the paper's process-level
model avoids.  Each tenant is a :class:`SharedTenant`, a
:class:`~repro.db.engine.DatabaseEngine` whose pages live in the
daemon's pool.  Everything else is the engine's own: execution, the
write freeze (the tenant's table write-lock), its binlog, its data
version, and the client connection hand-off at ``stop``.  So a
table-level migration is the live migration of that one engine
(:class:`~repro.migration.fluid.FluidMigration`, one chunk): the
snapshot scans only the tenant's tablespace, the deltas read only its
log, and the freeze leaves the neighbours writing.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..resources.server import Server
from ..resources.units import MB
from ..simulation import Environment
from .buffer_pool import BufferPool
from .engine import DatabaseEngine, EngineState
from .pages import TableLayout
from .transactions import OperationCosts, Transaction

__all__ = ["SharedTenant", "SharedProcessEngine"]


class SharedTenant(DatabaseEngine):
    """One tenant of a shared daemon: an engine on the daemon's pool.

    Pages are keyed ``(tenant_id, page_id)``, so two tenants' page 0
    are distinct pool entries but compete for the same frames ("buffer
    page evictions due to competing workloads", Section 2.1).
    """

    def __init__(
        self, daemon: "SharedProcessEngine", tenant_id: int, layout: TableLayout
    ):
        super().__init__(
            daemon.env,
            daemon.server,
            layout,
            name=f"tenant-{tenant_id}",
            costs=daemon.costs,
        )
        self.tenant_id = tenant_id
        #: The daemon's pool, in place of a pool of the tenant's own.
        self.buffer_pool = daemon.buffer_pool

    def _access_page(self, txn: Transaction, page_id: int, write: bool) -> Iterable:
        result = self.buffer_pool.access((self.tenant_id, page_id), write=write)
        if result.hit:
            return ()
        return self._page_in(txn, result)


class SharedProcessEngine:
    """One daemon hosting many tenants: one server, one buffer pool."""

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
        self._tenants: dict[int, SharedTenant] = {}

    @property
    def tenants(self) -> dict[int, SharedTenant]:
        """The tenants this daemon serves: those whose engine still runs.

        A tenant that migrated away (or was dropped with ``stop()``)
        is no longer listed.
        """
        return {
            tenant_id: tenant
            for tenant_id, tenant in self._tenants.items()
            if tenant.state is not EngineState.STOPPED
        }

    def add_tenant(self, tenant_id: int, layout: TableLayout) -> SharedTenant:
        """Create a tenant's tables inside this daemon."""
        if tenant_id in self.tenants:
            raise ValueError(f"tenant {tenant_id} already exists in {self.name}")
        tenant = SharedTenant(self, tenant_id, layout)
        self._tenants[tenant_id] = tenant
        return tenant
