"""Tests for the node migration queue and stream framing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EVALUATION, Slacker
from repro.experiments import scaled_config
from repro.middleware.framing import MessageStreamDecoder, frame_messages
from repro.middleware.protocol import (
    DeleteTenantRequest,
    Heartbeat,
    MigrateTenantComplete,
    ProtocolError,
    TenantLocationUpdate,
)
from repro.resources.units import MB, mb_per_sec

TINY = scaled_config(EVALUATION, 32 * MB / EVALUATION.tenant.data_bytes)


class TestMigrationQueue:
    def make(self, tenants=3):
        slacker = Slacker(TINY, nodes=["a", "b"])
        for tid in range(1, tenants + 1):
            slacker.add_tenant(tid, node="a", workload=(tid == 1))
        return slacker

    def test_validation(self):
        slacker = self.make()
        node = slacker.cluster.node("a")
        with pytest.raises(ValueError):
            node.enqueue_migration(1, "b")  # neither setpoint nor rate
        with pytest.raises(KeyError):
            node.enqueue_migration(99, "b", fixed_rate=1.0)

    def test_migrations_serialize_fifo(self):
        slacker = self.make(tenants=3)
        node = slacker.cluster.node("a")
        events = [
            node.enqueue_migration(tid, "b", fixed_rate=mb_per_sec(8))
            for tid in (1, 2, 3)
        ]
        assert node.queued_migrations == 3
        spans = []
        for event in events:
            result = slacker.env.run(until=event)
            spans.append((slacker.env.now - result.duration, slacker.env.now))
        # strictly one at a time: windows must not overlap
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2 + 1e-9
        # all three landed
        for tid in (1, 2, 3):
            assert slacker.locate(tid) == "b"
        assert node.stats.migrations_queued == 3
        assert node.queued_migrations == 0

    def test_queue_failure_propagates(self):
        slacker = self.make(tenants=2)
        node = slacker.cluster.node("a")
        first = node.enqueue_migration(1, "b", fixed_rate=mb_per_sec(8))
        # delete tenant 2 while queued: its migration must fail, not hang
        second = node.enqueue_migration(2, "b", fixed_rate=mb_per_sec(8))
        node.delete_tenant(2)
        slacker.env.run(until=first)
        with pytest.raises(KeyError):
            slacker.env.run(until=second)
        # the worker survives for later work
        slacker.add_tenant(4, node="a")
        third = node.enqueue_migration(4, "b", fixed_rate=mb_per_sec(8))
        result = slacker.env.run(until=third)
        assert result.downtime < 1.0


SAMPLE_MESSAGES = [
    DeleteTenantRequest(tenant_id=7),
    Heartbeat(node="alpha", tenant_count=3, disk_utilization=0.42),
    TenantLocationUpdate(tenant_id=7, node="beta", port=3313),
    MigrateTenantComplete(tenant_id=7, duration=93.5, downtime=0.02,
                          bytes_moved=1 << 30),
]


class TestMessageStreamDecoder:
    def test_whole_stream_at_once(self):
        decoder = MessageStreamDecoder()
        out = decoder.feed(frame_messages(SAMPLE_MESSAGES))
        assert out == SAMPLE_MESSAGES
        assert decoder.buffered_bytes == 0
        assert decoder.messages_decoded == len(SAMPLE_MESSAGES)

    def test_byte_by_byte(self):
        decoder = MessageStreamDecoder()
        out = []
        for byte in frame_messages(SAMPLE_MESSAGES):
            out.extend(decoder.feed(bytes([byte])))
        assert out == SAMPLE_MESSAGES
        assert decoder.buffered_bytes == 0

    def test_split_mid_header(self):
        decoder = MessageStreamDecoder()
        wire = frame_messages([SAMPLE_MESSAGES[3]])
        assert decoder.feed(wire[:1]) == []
        assert decoder.feed(wire[1:]) == [SAMPLE_MESSAGES[3]]

    def test_iter_feed(self):
        decoder = MessageStreamDecoder()
        wire = frame_messages(SAMPLE_MESSAGES)
        chunks = [wire[i : i + 5] for i in range(0, len(wire), 5)]
        assert list(decoder.iter_feed(iter(chunks))) == SAMPLE_MESSAGES

    def test_buffer_bound(self):
        decoder = MessageStreamDecoder()
        decoder.MAX_BUFFER = 16
        with pytest.raises(ProtocolError):
            decoder.feed(b"\x01" + b"\xff" * 64)

    def test_partial_message_stays_buffered(self):
        decoder = MessageStreamDecoder()
        wire = frame_messages([SAMPLE_MESSAGES[1]])
        decoder.feed(wire[: len(wire) // 2])
        assert decoder.buffered_bytes == len(wire) // 2
        assert decoder.messages_decoded == 0


@settings(max_examples=40)
@given(
    cut_points=st.lists(st.integers(min_value=1, max_value=200), max_size=8),
)
def test_any_chunking_decodes_identically(cut_points):
    wire = frame_messages(SAMPLE_MESSAGES)
    decoder = MessageStreamDecoder()
    out = []
    position = 0
    for cut in sorted(set(min(c, len(wire)) for c in cut_points)):
        out.extend(decoder.feed(wire[position:cut]))
        position = cut
    out.extend(decoder.feed(wire[position:]))
    assert out == SAMPLE_MESSAGES
