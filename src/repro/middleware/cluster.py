"""Cluster orchestration: servers + nodes + bus + frontend in one place.

A convenience assembly mirroring the paper's Figure 4 testbed: several
servers each running a Slacker migration controller, connected
peer-to-peer, plus the lightweight frontend.  Experiments and examples
build a :class:`SlackerCluster` and talk to its nodes.

The nodes share one :class:`~repro.middleware.transport.MessageBus`
under the default :class:`~repro.middleware.transport.RetryPolicy`:
per-message timeouts, bounded retries and backoff jitter drawn from
the cluster's ``transport:jitter`` stream.  Pass ``lease_ttl`` to
fence migrations with ownership leases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..resources.server import Server, ServerParams
from ..resources.units import MB
from ..simulation import Environment, RandomStreams, Trace
from .frontend import Frontend
from .node import NodeConfig, SlackerNode
from .transport import MessageBus

__all__ = ["FleetSpec", "SlackerCluster"]


@dataclass(frozen=True)
class FleetSpec:
    """A seeded recipe for a whole fleet: N nodes, M heterogeneous tenants.

    The pre-fleet constructor builds clusters node-by-node, which is
    fine for the paper's two-to-four-server testbed but not for the
    ROADMAP's "hundreds of nodes, thousands of tenants" scenario.  A
    spec describes the fleet once; :meth:`SlackerCluster.build_fleet`
    instantiates it deterministically — tenant sizes are drawn
    log-uniform (database directory sizes are heavy-tailed) from the
    cluster's named ``fleet:tenants`` stream, so the same seed always
    yields the same fleet.
    """

    nodes: int
    tenants: int
    node_prefix: str = "node"
    #: Smallest/largest tenant data directory, bytes (log-uniform draw).
    min_tenant_bytes: int = 16 * MB
    max_tenant_bytes: int = 256 * MB
    #: "round-robin" spreads tenants evenly; "random" assigns each
    #: tenant a uniformly-drawn node (seeded), yielding natural skew.
    placement: str = "round-robin"

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.tenants < 0:
            raise ValueError(f"tenants must be >= 0, got {self.tenants}")
        if not 0 < self.min_tenant_bytes <= self.max_tenant_bytes:
            raise ValueError(
                f"need 0 < min_tenant_bytes <= max_tenant_bytes, got "
                f"{self.min_tenant_bytes}..{self.max_tenant_bytes}"
            )
        if self.placement not in ("round-robin", "random"):
            raise ValueError(
                f"placement must be 'round-robin' or 'random', "
                f"got {self.placement!r}"
            )

    def node_names(self) -> list[str]:
        """Generated node names, zero-padded for stable sort order."""
        width = len(str(self.nodes - 1)) if self.nodes > 1 else 1
        return [
            f"{self.node_prefix}-{index:0{width}d}"
            for index in range(self.nodes)
        ]


class SlackerCluster:
    """A set of interconnected Slacker nodes sharing one simulation."""

    def __init__(
        self,
        env: Environment,
        node_names: Sequence[str],
        server_params: Optional[ServerParams] = None,
        node_config: Optional[NodeConfig] = None,
        streams: Optional[RandomStreams] = None,
        trace: Optional[Trace] = None,
        lease_ttl: Optional[float] = None,
    ):
        if not node_names:
            raise ValueError("need at least one node name")
        if len(set(node_names)) != len(node_names):
            raise ValueError(f"duplicate node names in {list(node_names)}")
        if lease_ttl is not None and "controller" in node_names:
            raise ValueError(
                "node name 'controller' collides with the lease service endpoint"
            )
        self.env = env
        self.streams = streams or RandomStreams(0)
        self.trace = trace if trace is not None else Trace()
        self.servers: dict[str, Server] = {
            name: Server(env, name, params=server_params, streams=self.streams)
            for name in node_names
        }
        self.bus = MessageBus(
            env,
            nics=self.servers,
            jitter_rng=self.streams.stream("transport:jitter"),
        )
        self.frontend = Frontend(env, self.bus)
        self.nodes: dict[str, SlackerNode] = {
            name: SlackerNode(
                env,
                server,
                self.bus,
                self.frontend,
                config=node_config,
                trace=self.trace,
            )
            for name, server in self.servers.items()
        }
        for node in self.nodes.values():
            node.peers = {n: p for n, p in self.nodes.items() if p is not node}
        #: Migration ownership leases (see repro.migration.lease), only
        #: when ``lease_ttl`` is set; ``None`` keeps every node on the
        #: unfenced token-0 path, event-for-event identical to a
        #: cluster built without leases.
        self.lease_manager = None
        self.lease_service = None
        if lease_ttl is not None:
            # Imported here: middleware is a lower layer than migration
            # for these classes, and lease-free clusters never pay it.
            from ..migration.lease import LeaseManager, LeaseService

            self.lease_manager = LeaseManager(env, ttl=lease_ttl)
            self.lease_service = LeaseService(env, self.bus, self.lease_manager)
            for node in self.nodes.values():
                node.lease_manager = self.lease_manager
        #: The spec this cluster was built from, when built via
        #: :meth:`build_fleet`; None for hand-assembled clusters.
        self.fleet_spec: Optional[FleetSpec] = None

    @classmethod
    def build_fleet(
        cls,
        env: Environment,
        spec: FleetSpec,
        server_params: Optional[ServerParams] = None,
        node_config: Optional[NodeConfig] = None,
        streams: Optional[RandomStreams] = None,
        trace: Optional[Trace] = None,
        lease_ttl: Optional[float] = None,
    ) -> "SlackerCluster":
        """Instantiate a whole fleet from a seeded :class:`FleetSpec`.

        Tenant ids are dense from 0; sizes are log-uniform in
        ``[min_tenant_bytes, max_tenant_bytes]``; placement follows
        ``spec.placement``.  All randomness comes from the cluster's
        ``fleet:tenants`` named stream, so a fleet is a pure function
        of (spec, seed).
        """
        cluster = cls(
            env,
            spec.node_names(),
            server_params=server_params,
            node_config=node_config,
            streams=streams,
            trace=trace,
            lease_ttl=lease_ttl,
        )
        names = spec.node_names()
        rng = cluster.streams.stream("fleet:tenants")
        log_min = math.log(spec.min_tenant_bytes)
        log_max = math.log(spec.max_tenant_bytes)
        for tenant_id in range(spec.tenants):
            data_bytes = int(round(math.exp(rng.uniform(log_min, log_max))))
            if spec.placement == "random":
                home = names[rng.randrange(len(names))]
            else:
                home = names[tenant_id % len(names)]
            cluster.nodes[home].create_tenant(tenant_id, data_bytes)
        cluster.fleet_spec = spec
        return cluster

    def node(self, name: str) -> SlackerNode:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r}") from None

    def locate(self, tenant_id: int) -> Optional[str]:
        """Which node currently hosts a tenant (via the frontend)."""
        location = self.frontend.lookup(tenant_id)
        return location.node if location else None

    def total_tenants(self) -> int:
        """Tenants across all nodes."""
        return sum(len(node.registry) for node in self.nodes.values())

    # -- failure-handling helpers ------------------------------------------

    def start_heartbeats(self, interval: float = 10.0) -> None:
        """Start the heartbeat broadcaster on every node."""
        for node in self.nodes.values():
            node.start_heartbeats(interval)

    def start_failure_detectors(
        self,
        interval: float = 1.0,
        miss_threshold: float = 3.0,
        suspect_grace: float = 0.0,
    ) -> None:
        """Start the missed-heartbeat failure detector on every node."""
        for node in self.nodes.values():
            node.start_failure_detector(interval, miss_threshold, suspect_grace)

    def alive_nodes(self) -> list[str]:
        """Names of nodes whose middleware daemon is currently up."""
        return [name for name, node in self.nodes.items() if node.alive]

    def tenant_census(self) -> dict[int, list[str]]:
        """tenant_id -> names of nodes whose registry holds it.

        The exactly-once invariant the chaos fuzzer asserts: every
        tenant appears on exactly one node, crash or no crash.
        """
        census: dict[int, list[str]] = {}
        for name in sorted(self.nodes):
            for tenant_id in self.nodes[name].registry.ids():
                census.setdefault(tenant_id, []).append(name)
        return census
