"""Link-level partitions: plans, injector windows, transport accounting."""

import pytest

from repro.faults import FaultInjector, FaultPlan, MessageFaults, PartitionFault
from repro.middleware.cluster import SlackerCluster
from repro.middleware.protocol import Heartbeat
from repro.middleware.transport import DeliveryError, MessageBus, RetryPolicy
from repro.simulation import Environment, RandomStreams

BEAT = Heartbeat(node="a", tenant_count=0, disk_utilization=0.0)


class TestPartitionFaultValidation:
    def test_oneway_needs_src_and_dst(self):
        with pytest.raises(ValueError, match="src and dst"):
            PartitionFault(at=1.0, duration=1.0, kind="oneway", src="a")
        with pytest.raises(ValueError, match="differ"):
            PartitionFault(at=1.0, duration=1.0, kind="oneway", src="a", dst="a")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            PartitionFault(at=1.0, duration=1.0, kind="wormhole", src="a", dst="b")

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError, match="duration"):
            PartitionFault(at=1.0, duration=0.0, kind="oneway", src="a", dst="b")

    def test_split_groups_validated(self):
        with pytest.raises(ValueError, match="two non-empty groups"):
            PartitionFault(at=1.0, duration=1.0, kind="split", groups=(("a",), ()))
        with pytest.raises(ValueError, match="disjoint"):
            PartitionFault(
                at=1.0, duration=1.0, kind="split", groups=(("a",), ("a", "b"))
            )

    def test_split_group_lists_coerced_hashable(self):
        fault = PartitionFault(
            at=1.0, duration=1.0, kind="split", groups=(["a"], ["b", "c"])
        )
        assert fault.groups == (("a",), ("b", "c"))
        hash(fault)  # plans must stay hashable for caching

    def test_flap_parameters_validated(self):
        with pytest.raises(ValueError, match="period"):
            PartitionFault(
                at=0.0, duration=1.0, kind="flap", src="a", dst="b", period=0.0
            )
        with pytest.raises(ValueError, match="duty"):
            PartitionFault(
                at=0.0, duration=1.0, kind="flap", src="a", dst="b", duty=1.0
            )

    def test_gray_parameters_validated(self):
        with pytest.raises(ValueError, match="name a node"):
            PartitionFault(at=0.0, duration=1.0, kind="gray")
        with pytest.raises(ValueError, match="drop_prob"):
            PartitionFault(at=0.0, duration=1.0, kind="gray", node="a", drop_prob=1.5)

    def test_links_enumeration(self):
        oneway = PartitionFault(at=0.0, duration=1.0, kind="oneway", src="a", dst="b")
        assert oneway.links() == (("a", "b"),)
        split = PartitionFault(
            at=0.0, duration=1.0, kind="split", groups=(("a",), ("b", "c"))
        )
        assert set(split.links()) == {
            ("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"),
        }
        gray = PartitionFault(at=0.0, duration=1.0, kind="gray", node="a")
        assert gray.links() == ()

    def test_plan_coerces_partition_list(self):
        fault = PartitionFault(at=0.0, duration=1.0, kind="oneway", src="a", dst="b")
        plan = FaultPlan(partitions=[fault])
        assert plan.partitions == (fault,)
        assert not plan.empty


class _StubCluster:
    """Just enough cluster for FaultInjector.attach with a pure-link plan."""

    def __init__(self, env):
        self.bus = MessageBus(env)


def _injector(env, *partitions, seed=0):
    plan = FaultPlan(partitions=tuple(partitions))
    return FaultInjector(env, plan, RandomStreams(seed)).attach(_StubCluster(env))


class TestPartitionWindows:
    def test_oneway_blocks_only_forward_link_inside_window(self):
        env = Environment()
        injector = _injector(
            env, PartitionFault(at=2.0, duration=3.0, kind="oneway", src="a", dst="b")
        )
        assert not injector.link_blocked("a", "b")  # before the window
        env.run(until=3.0)
        assert injector.link_blocked("a", "b")
        assert not injector.link_blocked("b", "a")  # reverse keeps flowing
        env.run(until=6.0)
        assert not injector.link_blocked("a", "b")  # torn down
        assert injector.stats.partitions_started == 1
        assert injector.stats.partitions_ended == 1

    def test_split_blocks_every_cross_group_link_both_ways(self):
        env = Environment()
        injector = _injector(
            env,
            PartitionFault(
                at=1.0, duration=2.0, kind="split", groups=(("a",), ("b", "c"))
            ),
        )
        env.run(until=2.0)
        for x, y in (("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")):
            assert injector.link_blocked(x, y)
        # Intra-group traffic is untouched.
        assert not injector.link_blocked("b", "c")
        assert not injector.link_blocked("c", "b")
        env.run(until=4.0)
        assert not injector.link_blocked("a", "b")

    def test_flap_phase_arithmetic(self):
        env = Environment()
        injector = _injector(
            env,
            PartitionFault(
                at=0.0, duration=10.0, kind="flap",
                src="a", dst="b", period=1.0, duty=0.5,
            ),
        )
        env.run(until=0.25)
        assert injector.link_blocked("a", "b")  # first (blocked) half-period
        env.run(until=0.75)
        assert not injector.link_blocked("a", "b")  # second half flows
        env.run(until=1.25)
        assert injector.link_blocked("a", "b")  # phase wraps
        env.run(until=11.0)
        assert not injector.link_blocked("a", "b")  # fault expired entirely

    def test_overlapping_oneways_refcount_the_link(self):
        env = Environment()
        injector = _injector(
            env,
            PartitionFault(at=1.0, duration=3.0, kind="oneway", src="a", dst="b"),
            PartitionFault(at=2.0, duration=4.0, kind="oneway", src="a", dst="b"),
        )
        env.run(until=3.0)
        assert injector.link_blocked("a", "b")  # both windows active
        env.run(until=5.0)
        assert injector.link_blocked("a", "b")  # first ended, second holds
        env.run(until=7.0)
        assert not injector.link_blocked("a", "b")

    def test_gray_failure_drops_and_delays_but_never_blocks(self):
        env = Environment()
        injector = _injector(
            env,
            PartitionFault(
                at=0.0, duration=10.0, kind="gray",
                node="a", drop_prob=1.0, delay=0.01,
            ),
            seed=3,
        )
        env.run(until=1.0)
        assert not injector.link_blocked("a", "b")  # gray is not a hard cut
        fate = injector.message_fate("a", "b")
        assert fate is not None and fate.drop
        assert injector.stats.gray_drops == 1
        # Both directions touching the gray node are affected.
        assert injector.message_fate("b", "a").drop
        env.run(until=11.0)
        assert injector.message_fate("a", "b") is None  # window over

    def test_gray_delay_without_drop(self):
        env = Environment()
        injector = _injector(
            env,
            PartitionFault(
                at=0.0, duration=10.0, kind="gray",
                node="a", drop_prob=0.0, delay=0.02,
            ),
        )
        env.run(until=1.0)
        fate = injector.message_fate("a", "b")
        assert fate is not None and not fate.drop
        assert fate.delay == pytest.approx(0.02)
        # Gray draws come from their own stream: the probabilistic
        # message-fault stream stays untouched (no fates drawn).
        assert injector.stats.fates_drawn == 0

    def test_gray_replays_bit_identically(self):
        def drops(seed):
            env = Environment()
            injector = _injector(
                env,
                PartitionFault(
                    at=0.0, duration=10.0, kind="gray", node="a", drop_prob=0.5
                ),
                seed=seed,
            )
            env.run(until=1.0)
            return [
                injector.message_fate("a", "b") is not None for _ in range(40)
            ]

        assert drops(7) == drops(7)
        assert drops(7) != drops(8)


class _LinkScript:
    """Duck-typed injector stub: a fixed set of hard-blocked links."""

    def __init__(self, blocked=()):
        self.blocked = set(blocked)

    def is_down(self, name):
        return False

    def message_fate(self, sender, recipient):
        return None

    def link_blocked(self, sender, recipient):
        return (sender, recipient) in self.blocked


def _bare_bus(policy):
    env = Environment()
    bus = MessageBus(
        env, retry_policy=policy, jitter_rng=RandomStreams(0).stream("jitter")
    )
    return env, bus, bus.endpoint("a"), bus.endpoint("b")


def _send_catching(env, endpoint, recipient, message, errors):
    try:
        yield env.process(endpoint.send(recipient, message))
    except DeliveryError as exc:
        errors.append(exc)


class TestPartitionedTransport:
    def test_forward_block_exhausts_retries_as_failed(self):
        env, bus, a, b = _bare_bus(RetryPolicy(timeout=0.2, max_attempts=3))
        bus.faults = _LinkScript({("a", "b")})
        errors = []
        env.process(_send_catching(env, a, "b", BEAT, errors))
        env.run()
        # Every attempt hit the cut forward link: a *failed* send, not
        # an interrupted one — no attempt is known to have landed.
        assert len(errors) == 1 and not errors[0].delivered_unknown
        assert a.failed == 1 and a.interrupted == 0 and a.delivered == 0
        assert bus.messages_dropped_partition == 3
        assert bus.send_failures == 1 and bus.send_interrupted == 0

    def test_reply_path_block_counts_interrupted_not_failed(self):
        # The satellite regression: a one-way partition on the *reply*
        # path must surface as interrupted/acks_lost, never as failed —
        # the payload landed, only the sender's knowledge is lost.
        env, bus, a, b = _bare_bus(
            RetryPolicy(timeout=0.2, max_attempts=2, backoff_base=0.01)
        )
        bus.faults = _LinkScript({("b", "a")})
        errors = []
        env.process(_send_catching(env, a, "b", BEAT, errors))
        env.run()
        assert len(errors) == 1
        assert errors[0].delivered_unknown  # possibly-applied, not negative
        assert a.interrupted == 1 and a.failed == 0 and a.delivered == 0
        assert a.timeouts == 2  # each landed attempt still waits out its timer
        assert bus.send_interrupted == 1 and bus.send_failures == 0
        assert bus.acks_lost == 2
        assert bus.messages_dropped_partition == 0
        # Both attempts actually reached the recipient: receivers must
        # treat the operation as applied (idempotent handlers).
        assert b.received == 2


class TestOneWaySuspicion:
    def test_asymmetric_partition_yields_asymmetric_verdicts(self):
        # a->b cut: b stops hearing a and declares it dead, while a
        # (still fed by b's heartbeats) keeps trusting b.  When the
        # window lifts, b un-declares a.
        env = Environment()
        cluster = SlackerCluster(env, ["a", "b"], streams=RandomStreams(11))
        plan = FaultPlan(
            partitions=(
                PartitionFault(at=1.0, duration=2.0, kind="oneway", src="a", dst="b"),
            )
        )
        FaultInjector(env, plan, RandomStreams(2)).attach(cluster)
        cluster.start_heartbeats(0.25)
        cluster.start_failure_detectors(0.25, miss_threshold=3.0)
        a, b = cluster.node("a"), cluster.node("b")

        env.run(until=2.5)
        assert "a" in b.dead_peers
        assert not a.dead_peers  # the reverse direction kept flowing
        assert b.stats.peers_declared_dead == 1

        env.run(until=4.5)
        assert not b.dead_peers  # recovery un-declares
