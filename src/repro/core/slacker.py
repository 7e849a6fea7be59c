"""The Slacker facade: the library's high-level entry point.

Wraps cluster construction, tenant creation, workload attachment, and
migration into a small API so that downstream users (and the examples)
can write the paper's scenarios in a few lines:

>>> from repro import Slacker, EVALUATION          # doctest: +SKIP
>>> slacker = Slacker(EVALUATION, nodes=["a", "b"])
>>> tenant = slacker.add_tenant(1, node="a", workload=True)
>>> slacker.advance(20.0)                           # warm up
>>> result = slacker.migrate(1, "b", setpoint=1.0)  # PID-throttled
>>> result.downtime < 1.0
True
"""

from __future__ import annotations

from typing import Optional

from ..experiments.harness import _build_cluster, attach_workload
from ..analysis.report import Table, format_ms
from ..middleware.tenant import Tenant
from ..migration.result import MigrationResult
from ..simulation import RandomStreams, Series, Trace
from ..workload.client import BenchmarkClient
from .config import EVALUATION, ExperimentConfig

__all__ = ["Slacker"]


class Slacker:
    """A running Slacker deployment inside one simulation environment."""

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        nodes: Optional[list[str]] = None,
        seed: Optional[int] = None,
    ):
        self.config = config or EVALUATION
        if seed is not None:
            self.config = self.config.with_seed(seed)
        node_names = nodes or ["server-1", "server-2"]
        self.streams = RandomStreams(self.config.seed)
        self.cluster = _build_cluster(self.config, self.streams, nodes=node_names)
        self.env = self.cluster.env
        self.trace = Trace()
        self._clients: dict[int, BenchmarkClient] = {}
        self._arrivals: dict[int, object] = {}

    # -- time ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, seconds."""
        return self.env.now

    def advance(self, seconds: float) -> None:
        """Run the simulation forward by ``seconds``."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self.env.run(until=self.env.now + seconds)

    # -- tenants and workloads ---------------------------------------------------

    def node_names(self) -> list[str]:
        """Names of the cluster's nodes."""
        return sorted(self.cluster.nodes)

    def add_tenant(
        self,
        tenant_id: int,
        node: str,
        data_bytes: Optional[int] = None,
        workload: bool = False,
        arrival_rate: Optional[float] = None,
    ) -> Tenant:
        """Create a tenant on ``node``; optionally attach a benchmark workload."""
        slacker_node = self.cluster.node(node)
        tenant = slacker_node.create_tenant(
            tenant_id,
            data_bytes or self.config.tenant.data_bytes,
            buffer_bytes=self.config.tenant.buffer_bytes,
        )
        if workload:
            client, arrivals = attach_workload(
                self.cluster,
                self.config,
                tenant,
                self.streams,
                self.trace,
                series=f"tenant-{tenant_id}",
                arrival_rate=arrival_rate,
            )
            client.start()
            slacker_node.attach_latency_series(
                tenant_id, self.trace.series(f"tenant-{tenant_id}")
            )
            self._clients[tenant_id] = client
            self._arrivals[tenant_id] = arrivals
        return tenant

    def delete_tenant(self, tenant_id: int) -> None:
        """Stop a tenant's workload (if any) and delete the tenant."""
        client = self._clients.pop(tenant_id, None)
        if client is not None:
            client.stop()
        self._arrivals.pop(tenant_id, None)
        node = self.cluster.locate(tenant_id)
        if node is not None:
            self.cluster.node(node).delete_tenant(tenant_id)

    def locate(self, tenant_id: int) -> Optional[str]:
        """Node currently hosting a tenant (via the frontend)."""
        return self.cluster.locate(tenant_id)

    def latency_series(self, tenant_id: int) -> Series:
        """The latency series recorded for a tenant's workload."""
        return self.trace.series(f"tenant-{tenant_id}")

    def client(self, tenant_id: int) -> BenchmarkClient:
        """The benchmark client attached to a tenant."""
        return self._clients[tenant_id]

    def scale_workload(self, tenant_id: int, factor: float) -> None:
        """Multiply a tenant's arrival rate by ``factor`` (live)."""
        arrivals = self._arrivals.get(tenant_id)
        if arrivals is None:
            raise KeyError(f"tenant {tenant_id} has no attached workload")
        arrivals.scale_rate(factor)

    def report(
        self,
        window: float = 60.0,
        sla: Optional["LatencySla"] = None,
    ) -> str:
        """A cluster status report over the trailing ``window`` seconds.

        One row per tenant: location, throughput, mean/p95 latency, and
        (when an SLA is given) whether the window satisfied it.
        """
        from .sla import LatencySla  # local import avoids a cycle at load

        columns = ["tenant", "node", "txns", "mean", "p95"]
        if sla is not None:
            columns.append(sla.describe())
        table = Table(
            f"cluster report (last {window:g} s, t={self.now:.0f} s)", columns
        )
        start = max(0.0, self.now - window)
        for location in self.cluster.frontend.tenants():
            series_name = f"tenant-{location.tenant_id}"
            values = (
                self.trace[series_name].window_values(start, self.now)
                if series_name in self.trace
                else []
            )
            mean = sum(values) / len(values) if values else None
            p95 = sorted(values)[max(0, int(len(values) * 0.95) - 1)] if values else None
            row = [
                location.tenant_id,
                location.node,
                len(values),
                format_ms(mean),
                format_ms(p95),
            ]
            if sla is not None:
                row.append("ok" if sla.satisfied_by(values) else "VIOLATED")
            table.add_row(*row)
        return table.render()

    # -- migration ----------------------------------------------------------------

    def migrate(
        self,
        tenant_id: int,
        target: str,
        setpoint: Optional[float] = None,
        fixed_rate: Optional[float] = None,
    ) -> MigrationResult:
        """Migrate a tenant (blocking: runs the simulation to completion).

        Give ``setpoint`` (seconds) for a PID-managed dynamic throttle,
        or ``fixed_rate`` (bytes/second) for a fixed throttle.
        """
        source_name = self.cluster.locate(tenant_id)
        if source_name is None:
            raise KeyError(f"unknown tenant {tenant_id}")
        source = self.cluster.node(source_name)
        proc = self.env.process(
            source.migrate_tenant(
                tenant_id, target, setpoint=setpoint, fixed_rate=fixed_rate
            )
        )
        return self.env.run(until=proc)
