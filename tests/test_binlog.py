"""Unit and property tests for the binary log."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.log import BinaryLog


class TestBinaryLog:
    def test_starts_empty(self):
        log = BinaryLog()
        assert log.head_lsn == 0
        assert log.bytes_between(0, 100) == 0

    def test_append_advances_head(self):
        log = BinaryLog()
        assert log.append(100) == 100
        assert log.append(50) == 150
        assert log.head_lsn == 150

    def test_append_rejects_nonpositive_size(self):
        log = BinaryLog()
        with pytest.raises(ValueError):
            log.append(0)

    def test_bytes_between(self):
        log = BinaryLog()
        log.append(100)
        log.append(50)
        assert log.bytes_between(0, 150) == 150
        assert log.bytes_between(100, 150) == 50
        assert log.bytes_between(150, 150) == 0

    def test_bytes_between_clamps_to_head(self):
        log = BinaryLog()
        log.append(100)
        assert log.bytes_between(0, 10_000) == 100

    def test_bytes_between_rejects_reversed_range(self):
        log = BinaryLog()
        with pytest.raises(ValueError):
            log.bytes_between(10, 5)

    def test_keeps_no_records(self):
        """Deltas are sized by LSN alone: the log's state is its head,
        however many writes it has taken."""
        log = BinaryLog()
        for _ in range(1_000):
            log.append(8)
        assert log.head_lsn == 8_000
        assert not hasattr(log, "__dict__")
        assert BinaryLog.__slots__ == ("_head",)


@given(sizes=st.lists(st.integers(min_value=1, max_value=1000), max_size=100))
def test_head_equals_sum_of_sizes(sizes):
    log = BinaryLog()
    for size in sizes:
        log.append(size)
    assert log.head_lsn == sum(sizes)
    assert log.bytes_between(0, log.head_lsn) == sum(sizes)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=50),
    split=st.floats(min_value=0, max_value=1),
)
def test_ranges_partition_the_log(sizes, split):
    log = BinaryLog()
    for size in sizes:
        log.append(size)
    mid = int(log.head_lsn * split)
    left = log.bytes_between(0, mid)
    right = log.bytes_between(mid, log.head_lsn)
    assert left + right == log.head_lsn
