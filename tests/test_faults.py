"""Fault injection: plans, bus faults, retries, crashes, rollback."""

import pytest

from repro.db.engine import EngineState
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MessageFate,
    MessageFaults,
    ScheduledFault,
)
from repro.middleware.cluster import SlackerCluster
from repro.middleware.protocol import Heartbeat
from repro.middleware.tenant import TenantStatus
from repro.middleware.transport import DeliveryError, MessageBus, RetryPolicy
from repro.migration.result import MigrationAborted
from repro.resources.units import MB, mb_per_sec
from repro.simulation import Environment, RandomStreams

BEAT = Heartbeat(node="a", tenant_count=0, disk_utilization=0.0)


class TestFaultPlanValidation:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.empty
        assert not plan.messages.active

    def test_probabilities_bounded(self):
        with pytest.raises(ValueError, match="drop_prob"):
            MessageFaults(drop_prob=1.5)
        with pytest.raises(ValueError, match="dup_prob"):
            MessageFaults(dup_prob=-0.1)

    def test_delay_window_ordering(self):
        with pytest.raises(ValueError, match="delay_min"):
            MessageFaults(delay_prob=0.5, delay_min=0.2, delay_max=0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ScheduledFault(at=1.0, kind="meteor_strike", node="a")

    def test_stall_needs_duration(self):
        with pytest.raises(ValueError, match="duration"):
            ScheduledFault(at=1.0, kind="nic_stall", node="a")

    def test_rate_needs_factor(self):
        with pytest.raises(ValueError, match="factor"):
            ScheduledFault(at=1.0, kind="nic_rate", node="a", duration=1.0, factor=0.0)

    def test_scheduled_list_coerced_to_tuple(self):
        fault = ScheduledFault(at=1.0, kind="crash_node", node="a")
        plan = FaultPlan(scheduled=[fault])
        assert plan.scheduled == (fault,)
        assert not plan.empty

    def test_active_message_faults_make_plan_nonempty(self):
        assert not FaultPlan(messages=MessageFaults(drop_prob=0.1)).empty


class TestFateDeterminism:
    @staticmethod
    def _fates(seed: int, n: int = 80):
        env = Environment()
        plan = FaultPlan(
            messages=MessageFaults(
                drop_prob=0.2, dup_prob=0.2, delay_prob=0.2, reorder_prob=0.1
            )
        )
        injector = FaultInjector(env, plan, RandomStreams(seed))
        return [injector.message_fate("a", "b") for _ in range(n)]

    def test_same_seed_same_fates(self):
        assert self._fates(3) == self._fates(3)

    def test_different_seed_different_fates(self):
        assert self._fates(3) != self._fates(4)

    def test_inactive_plan_draws_nothing(self):
        env = Environment()
        injector = FaultInjector(env, FaultPlan(), RandomStreams(0))
        assert injector.message_fate("a", "b") is None
        assert injector.stats.fates_drawn == 0

    def test_after_gates_faults(self):
        env = Environment()
        plan = FaultPlan(messages=MessageFaults(drop_prob=1.0, after=10.0))
        injector = FaultInjector(env, plan, RandomStreams(0))
        assert injector.message_fate("a", "b") is None  # env.now == 0 < after


class _FateScript:
    """Duck-typed injector stub: deliver a scripted fate sequence."""

    def __init__(self, fates):
        self.fates = list(fates)
        self.down = set()

    def is_down(self, name):
        return name in self.down

    def message_fate(self, sender, recipient):
        if self.fates:
            return self.fates.pop(0)
        return None


def _bare_bus(policy=None):
    env = Environment()
    bus = MessageBus(
        env,
        retry_policy=policy,
        jitter_rng=RandomStreams(0).stream("jitter") if policy else None,
    )
    return env, bus, bus.endpoint("a"), bus.endpoint("b")


def _send_catching(env, endpoint, recipient, message, errors):
    try:
        yield env.process(endpoint.send(recipient, message))
    except DeliveryError as exc:
        errors.append(exc)


class TestBusFaults:
    def test_legacy_drop_fails_fast(self):
        env, bus, a, b = _bare_bus()
        bus.faults = _FateScript([MessageFate(drop=True)])
        errors = []
        env.process(_send_catching(env, a, "b", BEAT, errors))
        env.run()
        assert len(errors) == 1
        assert a.sent == 1 and a.failed == 1 and a.delivered == 0
        assert bus.messages_dropped == 1 and bus.send_failures == 1

    def test_retry_recovers_from_transient_drop(self):
        env, bus, a, b = _bare_bus(RetryPolicy(timeout=0.5, max_attempts=3))
        bus.faults = _FateScript([MessageFate(drop=True)])
        errors = []
        env.process(_send_catching(env, a, "b", BEAT, errors))
        env.run()
        assert not errors
        assert a.sent == 1 and a.delivered == 1 and a.retries == 1
        assert b.received == 1
        assert bus.messages_dropped == 1 and bus.send_retries == 1

    def test_retries_exhaust_then_fail(self):
        policy = RetryPolicy(timeout=0.5, max_attempts=3)
        env, bus, a, b = _bare_bus(policy)
        bus.faults = _FateScript([MessageFate(drop=True)] * 10)
        errors = []
        env.process(_send_catching(env, a, "b", BEAT, errors))
        env.run()
        assert len(errors) == 1
        assert "3 attempts" in str(errors[0])
        assert a.failed == 1 and a.retries == 2
        assert bus.messages_dropped == 3  # every attempt was consumed

    def test_duplicate_fault_enqueues_twice(self):
        env, bus, a, b = _bare_bus()
        bus.faults = _FateScript([MessageFate(duplicate=True)])
        env.process(a.send("b", BEAT))
        env.run()
        assert b.received == 2
        assert bus.messages_duplicated == 1 and bus.messages_delivered == 1

    def test_timeout_leaves_late_delivery_as_duplicate(self):
        policy = RetryPolicy(timeout=0.1, max_attempts=2, backoff_base=0.01)
        env, bus, a, b = _bare_bus(policy)
        # Both attempts delayed past the per-attempt timeout: the send
        # gives up, but the in-flight deliveries land later anyway.
        bus.faults = _FateScript([MessageFate(delay=0.3), MessageFate(delay=0.3)])
        errors = []
        env.process(_send_catching(env, a, "b", BEAT, errors))
        env.run()
        assert len(errors) == 1
        assert a.timeouts == 2 and bus.send_timeouts == 2
        assert b.received == 2  # the receiver must tolerate both copies

    def test_dead_sender_messages_vanish(self):
        env, bus, a, b = _bare_bus()
        script = _FateScript([])
        script.down.add("a")
        bus.faults = script
        errors = []
        env.process(_send_catching(env, a, "b", BEAT, errors))
        env.run()
        assert len(errors) == 1
        assert bus.messages_dropped_dead == 1 and b.received == 0

    def test_send_counts_started_not_just_delivered(self):
        env, bus, a, b = _bare_bus()
        bus.faults = _FateScript([MessageFate(drop=True)])
        errors = []
        env.process(_send_catching(env, a, "b", BEAT, errors))
        env.process(_send_catching(env, a, "b", BEAT, errors))
        env.run()
        assert a.sent == 2  # one dropped, one delivered: both count
        assert a.delivered == 1 and a.failed == 1

    def test_backoff_is_deterministic_per_stream(self):
        policy = RetryPolicy()

        def delays(seed):
            rng = RandomStreams(seed).stream("jitter")
            return [policy.backoff(k, rng) for k in (1, 2, 3)]

        assert delays(5) == delays(5)
        assert delays(5) != delays(6)
        base = [policy.backoff(k, None) for k in (1, 2, 3)]
        assert base == sorted(base)  # exponential growth


def _cluster(seed=11, policy=True):
    env = Environment()
    cluster = SlackerCluster(
        env,
        ["a", "b"],
        streams=RandomStreams(seed),
        retry_policy=RetryPolicy() if policy else None,
    )
    return env, cluster


def _drive_migration(env, node, tenant_id, target, rate, outcomes):
    try:
        yield env.process(node.migrate_tenant(tenant_id, target, fixed_rate=rate))
    except MigrationAborted as exc:
        outcomes.append(("aborted", str(exc)))
    else:
        outcomes.append(("completed", ""))


class TestCrashRestart:
    def test_crash_stops_heartbeats_and_peer_declares_dead(self):
        env, cluster = _cluster()
        cluster.start_heartbeats(0.5)
        cluster.start_failure_detectors(0.5, miss_threshold=3.0)
        plan = FaultPlan(
            scheduled=(ScheduledFault(at=2.0, kind="crash_node", node="b"),)
        )
        FaultInjector(env, plan, cluster.streams).attach(cluster)
        env.run(until=10.0)
        a, b = cluster.node("a"), cluster.node("b")
        assert not b.alive and b.stats.crashes == 1
        assert a.dead_peers == {"b"}
        assert a.stats.peers_declared_dead == 1
        assert cluster.alive_nodes() == ["a"]
        assert cluster.bus.messages_dropped_dead > 0

    def test_restart_recovers_and_clears_dead_mark(self):
        env, cluster = _cluster()
        cluster.start_heartbeats(0.5)
        cluster.start_failure_detectors(0.5, miss_threshold=3.0)
        plan = FaultPlan(
            scheduled=(
                ScheduledFault(at=2.0, kind="crash_node", node="b", duration=3.0),
            )
        )
        injector = FaultInjector(env, plan, cluster.streams).attach(cluster)
        env.run(until=15.0)
        b = cluster.node("b")
        assert b.alive and b.stats.restarts == 1
        assert cluster.node("a").dead_peers == set()
        assert injector.stats.node_crashes == 1
        assert injector.stats.node_restarts == 1

    def test_crash_and_restart_are_idempotent(self):
        env, cluster = _cluster()
        b = cluster.node("b")
        b.crash()
        b.crash(reason="again")
        assert b.stats.crashes == 1
        b.restart()
        b.restart()
        assert b.stats.restarts == 1

    def test_migrate_to_declared_dead_peer_fails_fast(self):
        env, cluster = _cluster()
        a = cluster.node("a")
        a.create_tenant(1, 2 * MB)
        a.dead_peers.add("b")
        outcomes = []
        env.process(_drive_migration(env, a, 1, "b", mb_per_sec(4), outcomes))
        env.run()
        assert outcomes == [("aborted", "target node b is marked dead")]
        assert a.registry.get(1).status is TenantStatus.ACTIVE

    def test_source_crash_aborts_outgoing_migration(self):
        env, cluster = _cluster()
        a = cluster.node("a")
        tenant = a.create_tenant(1, 8 * MB)
        engine = tenant.engine
        plan = FaultPlan(
            scheduled=(ScheduledFault(at=2.0, kind="crash_node", node="a"),)
        )
        FaultInjector(env, plan, cluster.streams).attach(cluster)
        outcomes = []
        env.process(_drive_migration(env, a, 1, "b", mb_per_sec(1), outcomes))
        env.run(until=30.0)
        assert outcomes and outcomes[0][0] == "aborted"
        assert cluster.tenant_census() == {1: ["a"]}
        assert tenant.status is TenantStatus.ACTIVE
        assert engine.state is EngineState.RUNNING
        assert a.stats.migrations_aborted == 1
        assert a.active_migrations == {}

    def test_target_crash_detected_and_migration_cancelled(self):
        env, cluster = _cluster()
        cluster.start_heartbeats(0.5)
        cluster.start_failure_detectors(0.5, miss_threshold=3.0)
        a = cluster.node("a")
        tenant = a.create_tenant(1, 8 * MB)
        plan = FaultPlan(
            scheduled=(ScheduledFault(at=2.0, kind="crash_node", node="b"),)
        )
        FaultInjector(env, plan, cluster.streams).attach(cluster)
        outcomes = []
        env.process(_drive_migration(env, a, 1, "b", mb_per_sec(1), outcomes))
        env.run(until=30.0)
        assert outcomes == [("aborted", "target node b declared dead")]
        assert cluster.locate(1) == "a"
        assert tenant.engine.state is EngineState.RUNNING


class TestScheduledResourceFaults:
    def test_nic_rate_collapse_restores_bandwidth(self):
        env, cluster = _cluster()
        server = cluster.node("b").server
        nominal = server.nic_out.params.bandwidth
        plan = FaultPlan(
            scheduled=(
                ScheduledFault(
                    at=0.5, kind="nic_rate", node="b", factor=0.25, duration=1.0
                ),
            )
        )
        injector = FaultInjector(env, plan, cluster.streams).attach(cluster)

        probes = []

        def probe():
            yield env.timeout(1.0)  # mid-collapse
            probes.append(server.nic_out.params.bandwidth)

        env.process(probe())
        env.run(until=3.0)
        assert probes[0] == pytest.approx(nominal * 0.25)
        assert server.nic_out.params.bandwidth == pytest.approx(nominal)
        assert server.nic_in.params.bandwidth == pytest.approx(
            cluster.node("a").server.nic_in.params.bandwidth
        )
        assert injector.stats.nic_rate_collapses == 1

    def test_disk_rate_collapse_restores_bandwidth(self):
        env, cluster = _cluster()
        disk = cluster.node("a").server.disk
        seq = disk.params.sequential_bandwidth
        rnd = disk.params.random_bandwidth
        plan = FaultPlan(
            scheduled=(
                ScheduledFault(
                    at=0.5, kind="disk_rate", node="a", factor=0.5, duration=1.0
                ),
            )
        )
        FaultInjector(env, plan, cluster.streams).attach(cluster)
        env.run(until=3.0)
        assert disk.params.sequential_bandwidth == pytest.approx(seq)
        assert disk.params.random_bandwidth == pytest.approx(rnd)

    def test_stalls_hold_then_release(self):
        env, cluster = _cluster()
        plan = FaultPlan(
            scheduled=(
                ScheduledFault(at=0.5, kind="nic_stall", node="a", duration=1.0),
                ScheduledFault(at=0.5, kind="disk_stall", node="b", duration=1.0),
            )
        )
        injector = FaultInjector(env, plan, cluster.streams).attach(cluster)
        env.run(until=5.0)
        assert injector.stats.nic_stalls == 1
        assert injector.stats.disk_stalls == 1

    def test_abort_backup_cancels_inflight_migration(self):
        env, cluster = _cluster()
        a = cluster.node("a")
        tenant = a.create_tenant(1, 8 * MB)
        plan = FaultPlan(
            scheduled=(ScheduledFault(at=2.0, kind="abort_backup", node="a"),)
        )
        injector = FaultInjector(env, plan, cluster.streams).attach(cluster)
        outcomes = []
        env.process(_drive_migration(env, a, 1, "b", mb_per_sec(1), outcomes))
        env.run(until=30.0)
        assert outcomes == [("aborted", "backup stream aborted by fault injection")]
        assert injector.stats.backup_aborts == 1
        assert tenant.status is TenantStatus.ACTIVE
        assert cluster.tenant_census() == {1: ["a"]}

    def test_abort_backup_without_migration_is_noop(self):
        env, cluster = _cluster()
        plan = FaultPlan(
            scheduled=(ScheduledFault(at=1.0, kind="abort_backup", node="a"),)
        )
        injector = FaultInjector(env, plan, cluster.streams).attach(cluster)
        env.run(until=2.0)
        assert injector.stats.backup_aborts == 0
        assert injector.stats.noops == 1

    def test_abort_terminates_promptly_even_when_throttled_to_a_crawl(self):
        env, cluster = _cluster()
        a = cluster.node("a")
        a.create_tenant(1, 64 * MB)
        plan = FaultPlan(
            scheduled=(ScheduledFault(at=1.0, kind="abort_backup", node="a"),)
        )
        FaultInjector(env, plan, cluster.streams).attach(cluster)
        outcomes = []
        # 1 byte/s: the data plane would take years; the abort must not
        # wait for the in-flight chunk.
        env.process(_drive_migration(env, a, 1, "b", 1.0, outcomes))
        env.run(until=10.0)
        assert outcomes and outcomes[0][0] == "aborted"
        assert env.now <= 10.0


class TestIdempotentHandover:
    def test_duplicate_handover_signal_is_ignored(self):
        env, cluster = _cluster()
        a, b = cluster.node("a"), cluster.node("b")
        tenant = a.create_tenant(1, 2 * MB)
        outcomes = []
        env.process(_drive_migration(env, a, 1, "b", mb_per_sec(8), outcomes))
        env.run()
        assert outcomes == [("completed", "")]
        assert cluster.tenant_census() == {1: ["b"]}
        before = dict(cluster.tenant_census())
        a._handover(tenant, b, tenant.engine)  # late duplicate signal
        assert a.stats.duplicates_ignored == 1
        assert cluster.tenant_census() == before

    def test_migration_state_machine_records_phases(self):
        env, cluster = _cluster()
        a = cluster.node("a")
        a.create_tenant(1, 2 * MB)
        outcomes = []
        env.process(_drive_migration(env, a, 1, "b", mb_per_sec(8), outcomes))
        env.run()
        [result] = a.stats.completed
        assert result.downtime >= 0
        assert result.total_bytes >= 2 * MB
        assert a.stats.migrations_out == 1
