"""Unit and property tests for the binary log."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.log import BinaryLog, LogRecord


class TestBinaryLog:
    def test_starts_empty(self):
        log = BinaryLog()
        assert log.head_lsn == 0
        assert log.record_count == 0

    def test_append_advances_head(self):
        log = BinaryLog()
        assert log.append(size=100, time=0.0, txn_id=1) == 100
        assert log.append(size=50, time=1.0, txn_id=2) == 150
        assert log.head_lsn == 150

    def test_append_rejects_nonpositive_size(self):
        log = BinaryLog()
        with pytest.raises(ValueError):
            log.append(size=0, time=0.0, txn_id=1)

    def test_bytes_between(self):
        log = BinaryLog()
        log.append(size=100, time=0.0, txn_id=1)
        log.append(size=50, time=1.0, txn_id=2)
        assert log.bytes_between(0, 150) == 150
        assert log.bytes_between(100, 150) == 50
        assert log.bytes_between(150, 150) == 0

    def test_bytes_between_clamps_to_head(self):
        log = BinaryLog()
        log.append(size=100, time=0.0, txn_id=1)
        assert log.bytes_between(0, 10_000) == 100

    def test_bytes_between_rejects_reversed_range(self):
        log = BinaryLog()
        with pytest.raises(ValueError):
            log.bytes_between(10, 5)

    def test_records_between(self):
        log = BinaryLog()
        log.append(size=100, time=0.0, txn_id=1)
        log.append(size=50, time=1.0, txn_id=2)
        log.append(size=25, time=2.0, txn_id=3)
        records = log.records_between(100, 175)
        assert [r.txn_id for r in records] == [2, 3]

    def test_records_between_rejects_reversed_range(self):
        log = BinaryLog()
        with pytest.raises(ValueError):
            log.records_between(10, 5)

    def test_record_metadata(self):
        log = BinaryLog()
        log.append(size=64, time=3.5, txn_id=9)
        (record,) = log.records_between(0, 64)
        assert record.lsn == 0
        assert record.size == 64
        assert record.time == 3.5
        assert record.txn_id == 9

    def test_truncate_reclaims_and_preserves_head(self):
        log = BinaryLog()
        log.append(size=100, time=0.0, txn_id=1)
        log.append(size=50, time=1.0, txn_id=2)
        reclaimed = log.truncate_before(100)
        assert reclaimed == 100
        assert log.record_count == 1
        assert log.head_lsn == 150  # LSNs never reused
        assert [r.txn_id for r in log.records_between(0, 150)] == [2]

    def test_truncate_mid_record_keeps_it(self):
        log = BinaryLog()
        log.append(size=100, time=0.0, txn_id=1)
        assert log.truncate_before(50) == 0
        assert log.record_count == 1


def mixed_tag_log() -> BinaryLog:
    """Two tenants' writes interleaved in one log, as a shared process has them."""
    log = BinaryLog()
    for txn_id, (size, tag) in enumerate(
        [(100, 1), (40, 2), (60, 1), (30, 0), (80, 2), (20, 1)], start=1
    ):
        log.append(size=size, time=txn_id * 0.5, txn_id=txn_id, tag=tag)
    return log  # starts: 0, 100, 140, 200, 230, 310; head 330


class TestLogRecord:
    """``LogRecord`` is a named tuple built once per binlog write."""

    def test_field_names_order_and_default_tag(self):
        assert LogRecord._fields == ("lsn", "size", "time", "txn_id", "tag")
        assert LogRecord(lsn=0, size=8, time=1.0, txn_id=3).tag == 0

    def test_append_builds_the_record(self):
        log = BinaryLog()
        log.append(size=64, time=3.5, txn_id=9, tag=4)
        log.append(size=16, time=4.0, txn_id=10)
        records = log.records_between(0, log.head_lsn)
        assert records == [(0, 64, 3.5, 9, 4), (64, 16, 4.0, 10, 0)]
        assert all(type(record) is LogRecord for record in records)

    def test_fields_cannot_be_set(self):
        log = BinaryLog()
        log.append(size=64, time=3.5, txn_id=9)
        (record,) = log.records_between(0, 64)
        with pytest.raises(AttributeError):
            record.size = 1

    def test_tagged_bytes_between_on_a_mixed_tag_log(self):
        log = mixed_tag_log()
        assert log.tagged_bytes_between(0, log.head_lsn, 1) == 180
        assert log.tagged_bytes_between(0, log.head_lsn, 2) == 120
        assert log.tagged_bytes_between(0, log.head_lsn, 0) == 30
        assert log.tagged_bytes_between(0, log.head_lsn, 3) == 0
        # By start LSN: [100, 231) holds the records starting at 100, 140,
        # 200 and 230, whatever their ends.
        assert log.tagged_bytes_between(100, 231, 2) == 120
        assert log.tagged_bytes_between(100, 231, 1) == 60

    def test_truncate_before_on_a_mixed_tag_log(self):
        log = mixed_tag_log()
        assert log.truncate_before(150) == 140  # the record at 140 ends at 200
        assert log.record_count == 4
        assert [r.txn_id for r in log.records_between(0, log.head_lsn)] == [3, 4, 5, 6]
        assert log.tagged_bytes_between(0, log.head_lsn, 1) == 80
        assert log.truncate_before(log.head_lsn) == 190
        assert log.record_count == 0
        assert log.head_lsn == 330


@given(sizes=st.lists(st.integers(min_value=1, max_value=1000), max_size=100))
def test_head_equals_sum_of_sizes(sizes):
    log = BinaryLog()
    for i, size in enumerate(sizes):
        log.append(size=size, time=float(i), txn_id=i)
    assert log.head_lsn == sum(sizes)
    assert log.bytes_between(0, log.head_lsn) == sum(sizes)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=50),
    split=st.floats(min_value=0, max_value=1),
)
def test_ranges_partition_the_log(sizes, split):
    log = BinaryLog()
    for i, size in enumerate(sizes):
        log.append(size=size, time=float(i), txn_id=i)
    mid = int(log.head_lsn * split)
    left = log.bytes_between(0, mid)
    right = log.bytes_between(mid, log.head_lsn)
    assert left + right == log.head_lsn
