"""Unit and model-based property tests for the LRU buffer pool."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.buffer_pool import _HIT, AccessResult, BufferPool
from repro.resources.units import PAGE_SIZE


def pool_of(pages: int) -> BufferPool:
    return BufferPool(capacity_bytes=pages * PAGE_SIZE)


class TestBufferPoolBasics:
    def test_capacity_in_pages(self):
        assert pool_of(8).capacity_pages == 8

    def test_too_small_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(capacity_bytes=PAGE_SIZE - 1)

    def test_first_access_is_miss(self):
        pool = pool_of(4)
        result = pool.access(1)
        assert not result.hit
        assert result.read_page == 1
        assert result.writeback_page is None

    def test_second_access_is_hit(self):
        pool = pool_of(4)
        pool.access(1)
        result = pool.access(1)
        assert result.hit
        assert result.read_page is None

    def test_eviction_when_full(self):
        pool = pool_of(2)
        pool.access(1)
        pool.access(2)
        result = pool.access(3)
        assert not result.hit
        assert 1 not in pool
        assert 2 in pool and 3 in pool

    def test_lru_order_updated_on_hit(self):
        pool = pool_of(2)
        pool.access(1)
        pool.access(2)
        pool.access(1)  # 1 becomes MRU; victim should be 2
        pool.access(3)
        assert 1 in pool
        assert 2 not in pool

    def test_clean_eviction_needs_no_writeback(self):
        pool = pool_of(1)
        pool.access(1)
        result = pool.access(2)
        assert result.writeback_page is None

    def test_dirty_eviction_requires_writeback(self):
        pool = pool_of(1)
        pool.access(1, write=True)
        result = pool.access(2)
        assert result.writeback_page == 1

    def test_write_hit_dirties_page(self):
        pool = pool_of(2)
        pool.access(1)
        pool.access(1, write=True)
        assert pool.is_dirty(1)

    def test_flush_page_cleans(self):
        pool = pool_of(2)
        pool.access(1, write=True)
        assert pool.flush_page(1)
        assert not pool.is_dirty(1)
        assert pool.stats.flushes == 1

    def test_flush_clean_page_is_noop(self):
        pool = pool_of(2)
        pool.access(1)
        assert not pool.flush_page(1)
        assert not pool.flush_page(99)

    def test_dirty_count_and_listing(self):
        pool = pool_of(4)
        pool.access(1, write=True)
        pool.access(2)
        pool.access(3, write=True)
        assert pool.dirty_count == 2
        assert pool.dirty_pages() == [1, 3]
        assert pool.oldest_dirty_page() == 1

    def test_oldest_dirty_none_when_clean(self):
        pool = pool_of(4)
        pool.access(1)
        assert pool.oldest_dirty_page() is None

    def test_stats_hit_ratio(self):
        pool = pool_of(4)
        pool.access(1)
        pool.access(1)
        pool.access(1)
        assert pool.stats.hits == 2
        assert pool.stats.misses == 1
        assert pool.stats.hit_ratio == pytest.approx(2 / 3)

    def test_hit_ratio_empty_pool(self):
        assert pool_of(4).stats.hit_ratio == 0.0

    def test_never_exceeds_capacity(self):
        pool = pool_of(3)
        for page in range(10):
            pool.access(page)
        assert len(pool) == 3


class TestAccessResultRecord:
    """``AccessResult`` is a named tuple built once per miss."""

    def test_field_names_and_order(self):
        assert AccessResult._fields == ("hit", "read_page", "writeback_page")
        assert tuple(_HIT) == (True, None, None)

    def test_every_hit_returns_the_shared_result(self):
        pool = pool_of(2)
        pool.access(1)
        pool.access(2, write=True)
        hits = [pool.access(1), pool.access(2), pool.access(1, write=True)]
        assert all(hit is _HIT for hit in hits)

    def test_dirty_miss_names_the_victim(self):
        pool = pool_of(1)
        pool.access(7, write=True)
        result = pool.access(8)
        assert result == (False, 8, 7)
        assert type(result) is AccessResult
        assert (result.hit, result.read_page, result.writeback_page) == (False, 8, 7)

    def test_fields_cannot_be_set(self):
        result = pool_of(1).access(3)
        with pytest.raises(AttributeError):
            result.read_page = 4
        with pytest.raises(AttributeError):
            _HIT.hit = False


class ReferenceLru:
    """A trivially-correct reference model using OrderedDict."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.pages = OrderedDict()

    def access(self, page, write):
        if page in self.pages:
            dirty = self.pages.pop(page) or write
            self.pages[page] = dirty
            return ("hit", None, None)
        writeback = None
        if len(self.pages) >= self.capacity:
            victim, victim_dirty = self.pages.popitem(last=False)
            if victim_dirty:
                writeback = victim
        self.pages[page] = write
        return ("miss", page, writeback)


@settings(max_examples=60)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.booleans()),
        max_size=200,
    ),
)
def test_pool_matches_reference_model(capacity, ops):
    pool = BufferPool(capacity_bytes=capacity * PAGE_SIZE)
    model = ReferenceLru(capacity)
    for page, write in ops:
        result = pool.access(page, write=write)
        kind, read, writeback = model.access(page, write)
        assert result.hit == (kind == "hit")
        assert result.read_page == read
        assert result.writeback_page == writeback
        assert pool.resident_pages() == list(model.pages)
        assert len(pool) <= capacity


@settings(max_examples=40)
@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=50), st.booleans()),
        max_size=300,
    )
)
def test_accesses_equal_hits_plus_misses(ops):
    pool = pool_of(4)
    for page, write in ops:
        pool.access(page, write=write)
    assert pool.stats.accesses == len(ops)
    assert pool.stats.hits + pool.stats.misses == len(ops)
    assert pool.stats.dirty_evictions <= pool.stats.evictions
