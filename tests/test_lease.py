"""Migration ownership leases, fencing tokens, and self-fencing edges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CASE_STUDY
from repro.experiments.chaos_fuzz import fuzz_point
from repro.experiments.common import scaled_config
from repro.faults import FaultInjector, FaultPlan, PartitionFault
from repro.middleware.cluster import SlackerCluster
from repro.middleware.protocol import (
    MigrateTenantComplete,
    decode_message,
    encode_message,
)
from repro.migration.lease import LeaseManager
from repro.migration.result import MigrationAborted
from repro.resources.units import MB, mb_per_sec
from repro.simulation import Environment, RandomStreams

#: Small shared config for the fuzz-harness-level edge tests.
CFG = scaled_config(CASE_STUDY, 0.0625, 42)

#: A source->controller cut that outlives the lease: renew *requests*
#: never reach the controller, so both the ground-truth lease and the
#: source's local view expire mid-migration — the only correct move is
#: to self-fence before the handover point of no return.
RENEWAL_STARVING_CUT = (
    {"at": 6.0, "duration": 40.0, "kind": "oneway", "src": "source",
     "dst": "controller"},
)


class TestLeaseManager:
    def test_tokens_are_strictly_monotonic(self):
        manager = LeaseManager(Environment(), ttl=2.0)
        first = manager.grant(1, "source", "target")
        second = manager.grant(2, "a", "b")
        regrant = manager.grant(1, "source", "target")
        assert first.token < second.token < regrant.token
        assert manager.stats.granted == 3

    def test_renew_extends_the_live_lease(self):
        env = Environment()
        manager = LeaseManager(env, ttl=2.0)
        lease = manager.grant(1, "source", "target")
        env.run(until=1.5)
        renewed = manager.renew(1, lease.token)
        assert renewed is not None and renewed.expires_at == pytest.approx(3.5)
        assert manager.is_valid(1, lease.token)

    def test_renew_with_wrong_token_is_stale(self):
        manager = LeaseManager(Environment(), ttl=2.0)
        lease = manager.grant(1, "source", "target")
        assert manager.renew(1, lease.token + 7) is None
        assert manager.stats.stale_rejected == 1

    def test_expired_lease_cannot_be_renewed(self):
        env = Environment()
        manager = LeaseManager(env, ttl=2.0)
        lease = manager.grant(1, "source", "target")
        env.run(until=2.5)
        assert manager.renew(1, lease.token) is None
        assert manager.stats.expired_renewals == 1
        assert not manager.is_valid(1, lease.token)

    def test_release_and_outstanding(self):
        manager = LeaseManager(Environment(), ttl=2.0)
        lease = manager.grant(1, "source", "target")
        manager.grant(2, "a", "b")
        assert manager.outstanding() == [1, 2]
        assert manager.release(1, lease.token)
        assert manager.outstanding() == [2]
        assert not manager.release(1, lease.token)  # idempotent

    def test_superseded_token_is_invalid(self):
        manager = LeaseManager(Environment(), ttl=2.0)
        old = manager.grant(1, "source", "target")
        new = manager.grant(1, "source", "target")
        assert not manager.is_valid(1, old.token)
        assert manager.is_valid(1, new.token)

    def test_commit_audit_distinguishes_valid_from_invalid(self):
        env = Environment()
        manager = LeaseManager(env, ttl=2.0)
        lease = manager.grant(1, "source", "target")
        assert manager.record_commit(1, lease.token)
        env.run(until=3.0)  # lease runs out
        assert not manager.record_commit(1, lease.token)
        assert manager.stats.invalid_commits == 1
        assert [r.valid for r in manager.commit_log] == [True, False]

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError, match="ttl"):
            LeaseManager(Environment(), ttl=0.0)


class TestFencingWireCompat:
    def test_token_zero_is_off_the_wire(self):
        # Bit-identity: legacy (unfenced) frames must encode exactly as
        # they did before tokens existed — token 0 is omitted entirely.
        legacy = MigrateTenantComplete(
            tenant_id=1, duration=2.0, downtime=0.1, bytes_moved=4096, token=0
        )
        fenced = MigrateTenantComplete(
            tenant_id=1, duration=2.0, downtime=0.1, bytes_moved=4096, token=9
        )
        assert len(encode_message(legacy)) < len(encode_message(fenced))
        for frame in (legacy, fenced):
            decoded, _ = decode_message(encode_message(frame))
            assert decoded == frame


def _leased_cluster(seed=11, lease_ttl=2.0):
    env = Environment()
    cluster = SlackerCluster(
        env,
        ["a", "b"],
        streams=RandomStreams(seed),
        lease_ttl=lease_ttl,
    )
    return env, cluster


class TestCheckFence:
    def test_floor_advances_and_rejects_stale(self):
        _, cluster = _leased_cluster()
        node = cluster.node("b")
        assert node.check_fence(1, 3)
        assert not node.check_fence(1, 2)  # superseded owner's write
        assert node.stats.stale_tokens_rejected == 1
        assert node.check_fence(1, 3)  # same token again: idempotent
        assert node.check_fence(1, 4)

    def test_token_zero_always_passes(self):
        _, cluster = _leased_cluster()
        node = cluster.node("b")
        assert node.check_fence(1, 5)
        assert node.check_fence(1, 0)  # unfenced legacy frame

    def test_floors_are_per_tenant(self):
        _, cluster = _leased_cluster()
        node = cluster.node("b")
        assert node.check_fence(1, 5)
        assert node.check_fence(2, 1)  # a different tenant's first token

    def test_duplicate_handover_frame_with_stale_token_is_rejected(self):
        # A superseded owner replays its MigrateTenantComplete: the
        # receiver's fencing floor (advanced by a newer migration)
        # bounces it instead of applying it.
        env, cluster = _leased_cluster()
        a, b = cluster.node("a"), cluster.node("b")
        b.check_fence(1, 2)  # a newer owner already committed token 2
        stale = MigrateTenantComplete(
            tenant_id=1, duration=1.0, downtime=0.1, bytes_moved=512, token=1
        )

        def replay():
            yield env.process(a.endpoint.send("b", stale))

        env.process(replay())
        env.run()
        assert b.stats.stale_tokens_rejected == 1


def _drive_migration(env, node, tenant_id, target, rate, outcomes):
    try:
        yield env.process(node.migrate_tenant(tenant_id, target, fixed_rate=rate))
    except MigrationAborted as exc:
        outcomes.append(("aborted", str(exc)))
    else:
        outcomes.append(("completed", ""))


def _grace_scenario(suspect_grace):
    """One-way b->a silence window shorter than horizon + grace."""
    env, cluster = _leased_cluster()
    plan = FaultPlan(
        partitions=(
            PartitionFault(at=1.0, duration=1.2, kind="oneway", src="b", dst="a"),
        )
    )
    FaultInjector(env, plan, RandomStreams(2)).attach(cluster)
    cluster.start_heartbeats(0.25)
    cluster.start_failure_detectors(
        0.25, miss_threshold=3.0, suspect_grace=suspect_grace
    )
    a = cluster.node("a")
    a.create_tenant(1, 4 * MB)
    outcomes = []
    env.process(_drive_migration(env, a, 1, "b", mb_per_sec(1), outcomes))
    env.run(until=20.0)
    return cluster, outcomes


class TestSuspectGrace:
    def test_flag_off_cancels_on_first_horizon_crossing(self):
        # No grace: the scan's suspect branch never runs.  The 1.2 s
        # silence window exceeds the 0.75 s horizon, b is declared
        # dead at once, the migration dies.
        cluster, outcomes = _grace_scenario(suspect_grace=0.0)
        assert outcomes and outcomes[0][0] == "aborted"
        assert "declared dead" in outcomes[0][1]
        assert cluster.node("a").stats.peers_suspected == 0

    def test_grace_rides_out_a_transient_one_way_window(self):
        # With a 2 s grace the same window only *suspects* b; the
        # partition lifts before suspicion hardens, so the migration
        # survives and completes.
        cluster, outcomes = _grace_scenario(suspect_grace=2.0)
        assert outcomes and outcomes[0][0] == "completed"
        a = cluster.node("a")
        assert a.stats.peers_suspected >= 1
        assert a.stats.peers_declared_dead == 0
        assert not a.suspected_peers  # suspicion cleared on recovery

    def test_grace_must_be_non_negative(self):
        _, cluster = _leased_cluster()
        with pytest.raises(ValueError, match="suspect_grace"):
            cluster.start_failure_detectors(0.25, suspect_grace=-1.0)


class TestLeaseFencingEdges:
    def test_lease_expiry_racing_handover_aborts_cleanly(self):
        # Renewals starve behind the partition, the source's local
        # lease view expires mid-copy, and the renew loop self-fences:
        # rollback, no commit, every budget reservation released.
        record = fuzz_point(
            CFG, label="lease-race", partitions=RENEWAL_STARVING_CUT
        )
        assert record.ok, record.violations
        assert record.outcome == "aborted"
        assert record.counter("lease_expired_aborts") >= 1
        assert record.counter("lease_invalid_commits") == 0

    def test_controller_crash_holding_lease_starves_renewals(self):
        # A fail-stop controller answers nothing: same self-fence path,
        # no partition required.
        record = fuzz_point(
            CFG, label="controller-crash", controller_down=(6.0, 40.0)
        )
        assert record.ok, record.violations
        assert record.outcome == "aborted"
        assert record.counter("lease_expired_aborts") >= 1

    def test_broken_fencing_commits_under_invalid_lease(self):
        # The deliberately broken configuration: with self-fencing
        # disabled the same starved lease reaches handover, and the
        # omniscient audit flags the commit.  This is the bug class the
        # chaos fuzzer exists to catch.
        record = fuzz_point(
            CFG,
            label="lease-race-broken",
            partitions=RENEWAL_STARVING_CUT,
            break_fencing=True,
        )
        assert not record.ok
        assert any("invalid lease token" in v for v in record.violations)
        assert record.counter("lease_invalid_commits") >= 1

    def test_empty_plan_ignores_grace_and_fencing_flags(self):
        # Feature-idle bit-identity: with no faults injected, the
        # suspect-grace and fencing knobs must not perturb a single
        # event — fingerprints are identical across all settings.
        baseline = fuzz_point(CFG, label="idle")
        for variant in (
            fuzz_point(CFG, label="idle", suspect_grace=0.0),
            fuzz_point(CFG, label="idle", break_fencing=True),
        ):
            assert variant.fingerprint == baseline.fingerprint
        assert baseline.ok and baseline.outcome == "completed"


_ENDPOINT = st.sampled_from(("source", "target", "controller"))


@st.composite
def _partition(draw):
    at = float(draw(st.integers(min_value=2, max_value=12)))
    duration = float(draw(st.integers(min_value=1, max_value=10)))
    kind = draw(st.sampled_from(("oneway", "split", "flap")))
    if kind == "split":
        lone = draw(_ENDPOINT)
        rest = tuple(n for n in ("source", "target", "controller") if n != lone)
        return {"at": at, "duration": duration, "kind": "split",
                "groups": ((lone,), rest)}
    src = draw(_ENDPOINT)
    dst = draw(st.sampled_from(
        tuple(n for n in ("source", "target", "controller") if n != src)
    ))
    fault = {"at": at, "duration": duration, "kind": kind, "src": src, "dst": dst}
    if kind == "flap":
        fault["period"] = 1.0
        fault["duty"] = 0.5
    return fault


class TestNoDualResidency:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(_partition(), min_size=1, max_size=3))
    def test_no_partition_interleaving_yields_dual_residency(self, partitions):
        # The structural claim of the lease construction: whatever the
        # partition schedule, the tenant ends on exactly one node and
        # no handover ever commits under a stale/expired token.
        record = fuzz_point(
            CFG, label="property", partitions=tuple(partitions)
        )
        assert record.ok, record.violations
        assert record.outcome in ("completed", "aborted")
