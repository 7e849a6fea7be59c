"""Every migration method runs through ``SlackerNode.migrate_tenant``.

One dispatch path means one control plane for all five engines: the
lease, the accept round trip, the frontend update, aborts and the
completion report.  Each test runs every method on a leased cluster.
"""

import random

import pytest

from repro.db.engine import EngineState
from repro.middleware.cluster import SlackerCluster
from repro.middleware.node import MIGRATION_METHODS
from repro.middleware.tenant import TenantStatus
from repro.migration import MigrationAborted, MigrationPhase
from repro.resources.units import MB, mb_per_sec
from repro.simulation import Environment, RandomStreams, Trace
from repro.workload import (
    BenchmarkClient,
    PoissonArrivals,
    TransactionFactory,
    UniformChooser,
)

#: Reached while each engine can still roll back (its abort window).
ABORTABLE = {
    "live": lambda m: m.phase is MigrationPhase.SNAPSHOT,
    "fluid": lambda m: m.phase is MigrationPhase.SNAPSHOT,
    "on-demand": lambda m: m.switched_at is None,
    "stop-and-copy": lambda m: m.source.is_frozen,
    "dump-reimport": lambda m: m.source.is_frozen,
}


def _cluster():
    env = Environment()
    cluster = SlackerCluster(
        env,
        ["a", "b"],
        streams=RandomStreams(11),
        lease_ttl=2.0,
    )
    tenant = cluster.node("a").create_tenant(1, 8 * MB, buffer_bytes=2 * MB)
    layout = tenant.engine.layout
    factory = TransactionFactory(
        layout, UniformChooser(layout.num_rows, random.Random(3)), random.Random(4)
    )
    client = BenchmarkClient(
        env, tenant, factory, PoissonArrivals(6.0, random.Random(5)), trace=Trace()
    )
    client.start()
    return env, cluster, tenant


def _migrate(cluster, method):
    """Process generator migrating tenant 1 from a to b by ``method``."""
    return cluster.node("a").migrate_tenant(
        1,
        "b",
        fixed_rate=mb_per_sec(4),
        chunks=4 if method == "fluid" else None,
        method=method,
    )


def _assert_single_homed(cluster, node):
    assert cluster.tenant_census() == {1: [node]}
    assert cluster.locate(1) == node
    assert cluster.lease_manager.outstanding() == []


@pytest.mark.parametrize("method", MIGRATION_METHODS)
def test_migration_lands_on_the_target(method):
    env, cluster, tenant = _cluster()
    source_engine = tenant.engine
    result = env.run(until=env.process(_migrate(cluster, method)))
    _assert_single_homed(cluster, "b")
    assert result.kind == method
    assert tenant.engine is result.target
    assert tenant.status is TenantStatus.ACTIVE
    assert source_engine.state is EngineState.STOPPED
    assert cluster.lease_manager.stats.granted == 1
    assert cluster.node("a").stats.completed == [result]


@pytest.mark.parametrize("method", MIGRATION_METHODS)
def test_abort_before_point_of_no_return_rolls_back(method):
    env, cluster, tenant = _cluster()
    source_engine = tenant.engine
    node = cluster.node("a")
    proc = env.process(_migrate(cluster, method))
    while 1 not in node.active_migrations:
        env.step()
    migration = node.active_migrations[1]
    started = env.now
    while env.now == started or not ABORTABLE[method](migration):
        env.step()
    assert migration.try_abort("operator cancelled")
    with pytest.raises(MigrationAborted, match="operator cancelled"):
        env.run(until=proc)
    _assert_single_homed(cluster, "a")
    assert tenant.status is TenantStatus.ACTIVE
    assert tenant.engine is source_engine
    assert source_engine.state is EngineState.RUNNING
    assert not source_engine.is_frozen
    assert node.stats.migrations_aborted == 1
    assert not migration.try_abort("again")


@pytest.mark.parametrize("method", MIGRATION_METHODS)
def test_abort_after_point_of_no_return_is_refused(method, monkeypatch):
    env, cluster, tenant = _cluster()
    node = cluster.node("a")
    refused = []
    handover = node._handover

    def abort_then_hand_over(tenant, peer, engine):
        # The engine calls its handover hook past its point of no return.
        refused.append(node.active_migrations[1].try_abort("too late"))
        handover(tenant, peer, engine)

    monkeypatch.setattr(node, "_handover", abort_then_hand_over)
    env.run(until=env.process(_migrate(cluster, method)))
    assert refused == [False]
    _assert_single_homed(cluster, "b")


@pytest.mark.parametrize("method", MIGRATION_METHODS)
def test_lapsed_lease_never_commits(method):
    # Self-fencing works on the node's local view of its lease: once
    # that view has lapsed, the engine must roll back (via its fence or
    # the renewal loop's abort) instead of handing over.
    env, cluster, tenant = _cluster()
    node = cluster.node("a")
    proc = env.process(_migrate(cluster, method))
    while 1 not in node.active_migrations:
        env.step()
    node._lease_expiry[1] = env.now
    with pytest.raises(MigrationAborted):
        env.run(until=proc)
    _assert_single_homed(cluster, "a")
    assert cluster.lease_manager.commit_log == []
    assert not tenant.engine.is_frozen


def test_lease_lapsing_after_the_on_demand_switch_keeps_renewing():
    # On-demand keeps pushing pages long after its ownership switch.  A
    # lease view lapsing then is no abort, and renewals carry on.
    env, cluster, tenant = _cluster()
    node = cluster.node("a")
    proc = env.process(_migrate(cluster, "on-demand"))
    while 1 not in node.active_migrations:
        env.step()
    migration = node.active_migrations[1]
    while migration.switched_at is None:
        env.step()
    node._lease_expiry[1] = env.now
    renewals = node.stats.lease_renewals
    result = env.run(until=proc)
    assert result.kind == "on-demand"
    assert node.stats.lease_expired_aborts == 0
    assert node.stats.lease_renewals > renewals
    _assert_single_homed(cluster, "b")


def test_full_speed_methods_ignore_a_rate():
    # One rule for every entry point: the stop-and-copy engines copy at
    # full speed whatever rate the caller passes.
    env, cluster, tenant = _cluster()
    node = cluster.node("a")
    proc = env.process(_migrate(cluster, "stop-and-copy"))
    while 1 not in node.active_migrations:
        env.step()
    assert node.active_migrations[1].throttle is None
    env.run(until=proc)
