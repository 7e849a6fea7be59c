"""Load monitoring for placement decisions.

Slacker answers *how* to migrate; the paper's Section 8 lists the
complementary questions — "when migrations are necessary, which tenants
should be migrated, and where such tenants should be migrated to" — as
synergistic future work.  This subpackage implements that layer.

:class:`LoadMonitor` periodically snapshots every node: disk
utilization over the sampling interval (the critical resource,
Section 5.1.2) and each tenant's mean latency over the same interval.
Policies consume these :class:`NodeLoad` snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..middleware.cluster import SlackerCluster
from ..simulation import PeriodicTicker, Series, Trace, float_sum

__all__ = ["TenantLoad", "NodeLoad", "LoadMonitor"]


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's observed load over a sampling interval."""

    tenant_id: int
    #: Mean transaction latency over the interval, seconds (NaN if no
    #: transaction completed).
    mean_latency: float
    #: Transactions completed in the interval.
    throughput: int
    #: Tenant data directory size, bytes (migration cost proxy).
    data_bytes: int

    @property
    def is_idle(self) -> bool:
        """True when no transaction completed in the interval.

        Idle tenants have no latency signal (``mean_latency`` is NaN);
        policies must filter on this predicate rather than comparing
        against NaN, which silently fails every ordering test.
        """
        return self.throughput == 0


@dataclass(frozen=True)
class NodeLoad:
    """One node's observed load over a sampling interval."""

    node: str
    time: float
    #: Disk busy fraction over the interval, in [0, 1].
    disk_utilization: float
    tenants: tuple[TenantLoad, ...] = field(default_factory=tuple)
    #: Whether the node's middleware daemon was up at snapshot time.
    #: Placement policies must not pick a dead node as a target.
    alive: bool = True

    @property
    def tenant_count(self) -> int:
        return len(self.tenants)

    def active_tenants(self) -> tuple[TenantLoad, ...]:
        """Tenants that completed at least one transaction (non-idle).

        The latency signal only exists for these; idle tenants carry a
        NaN ``mean_latency`` that would poison any max/sort over it.
        """
        return tuple(t for t in self.tenants if not t.is_idle)

    def hottest_tenant(self) -> Optional[TenantLoad]:
        """The tenant with the highest interval latency, if any."""
        candidates = self.active_tenants()
        if not candidates:
            return None
        return max(candidates, key=lambda t: t.mean_latency)


class LoadMonitor:
    """Snapshots cluster load at a fixed interval.

    Latency series are the ones workload clients attach to nodes (the
    same series the migration PID consumes), so the monitor sees
    exactly what the controller sees.
    """

    def __init__(
        self,
        cluster: SlackerCluster,
        trace: Trace,
        interval: float = 10.0,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.cluster = cluster
        self.trace = trace
        self.interval = interval
        self._last_busy: dict[str, float] = {}
        self._last_time: dict[str, float] = {}
        self.history: list[dict[str, NodeLoad]] = []

    def _tenant_series(self, tenant_id: int) -> Optional[Series]:
        name = f"tenant-{tenant_id}"
        return self.trace[name] if name in self.trace else None

    def snapshot(self) -> dict[str, NodeLoad]:
        """Take one load snapshot of every node (interval-differenced)."""
        env = self.cluster.env
        now = env.now
        loads: dict[str, NodeLoad] = {}
        for name, node in self.cluster.nodes.items():
            busy = node.server.disk.stats.busy_time
            last_busy = self._last_busy.get(name, 0.0)
            last_time = self._last_time.get(name, 0.0)
            span = now - last_time
            utilization = (busy - last_busy) / span if span > 0 else 0.0
            self._last_busy[name] = busy
            self._last_time[name] = now

            tenants = []
            for tenant in node.registry:
                series = self._tenant_series(tenant.tenant_id)
                values = (
                    series.window_values(now - self.interval, now)
                    if series is not None
                    else []
                )
                mean = float_sum(values) / len(values) if values else float("nan")
                tenants.append(
                    TenantLoad(
                        tenant_id=tenant.tenant_id,
                        mean_latency=mean,
                        throughput=len(values),
                        data_bytes=tenant.data_bytes,
                    )
                )
            loads[name] = NodeLoad(
                node=name,
                time=now,
                disk_utilization=min(1.0, max(0.0, utilization)),
                tenants=tuple(sorted(tenants, key=lambda t: t.tenant_id)),
                alive=getattr(node, "alive", True),
            )
        self.history.append(loads)
        return loads

    def dead_nodes(self, loads: Optional[dict[str, NodeLoad]] = None) -> list[str]:
        """Nodes whose daemon was down in the given (or latest) snapshot."""
        if loads is None:
            loads = self.history[-1] if self.history else {}
        return sorted(name for name, load in loads.items() if not load.alive)

    def run(self):
        """Process: snapshot forever at the configured interval.

        Every tick does real work (the snapshot), so there is nothing
        to elide; the ticker keeps the sample grid on the kernel's
        coalesced-timer API with exact chained-addition timestamps.
        """
        ticker = PeriodicTicker(self.cluster.env, self.interval)
        while True:
            yield ticker.tick()
            self.snapshot()
