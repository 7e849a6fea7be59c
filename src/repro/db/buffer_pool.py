"""InnoDB-style LRU buffer pool.

Each tenant's MySQL daemon gets a dedicated buffer pool ("each MySQL
instance is provided a dedicated block of memory to prevent competition
between tenants", Section 5.1.1).  The paper deliberately configures a
small 128 MB pool against a 1 GB database "to ensure a high degree of
disk activity" — the resulting miss traffic is what contends with the
migration stream.

The pool tracks clean/dirty state per page.  Evicting a dirty page
requires a write-back; the engine turns that into a random disk write.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..resources.units import MB, PAGE_SIZE

__all__ = ["AccessResult", "BufferPoolStats", "BufferPool"]

_new_tuple = tuple.__new__


class AccessResult(NamedTuple):
    """Outcome of one page access against the pool.

    An immutable named tuple ``(hit, read_page, writeback_page)``: every
    miss builds one, so construction is one ``tuple.__new__``.
    """

    #: True if the page was already resident.
    hit: bool
    #: Page id that must be read from disk (the accessed page), or None on hit.
    read_page: Optional[int]
    #: Dirty page id evicted by this access that must be written back first.
    writeback_page: Optional[int]


#: Every hit implies the same (no) disk work, so all hits share one result.
_HIT = AccessResult(hit=True, read_page=None, writeback_page=None)


@dataclass
class BufferPoolStats:
    """Running counters for one buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class BufferPool:
    """A fixed-capacity LRU page cache with dirty tracking.

    The pool is purely logical: it decides *which* disk operations are
    needed; the engine performs them against the simulated disk.
    """

    def __init__(self, capacity_bytes: int = 128 * MB, page_size: int = PAGE_SIZE):
        if capacity_bytes < page_size:
            raise ValueError(
                f"capacity {capacity_bytes} smaller than one page ({page_size})"
            )
        self.capacity_pages = capacity_bytes // page_size
        self.page_size = page_size
        self.stats = BufferPoolStats()
        #: page id -> dirty flag; insertion order is LRU order (oldest first).
        self._pages: OrderedDict[int, bool] = OrderedDict()

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    @property
    def dirty_count(self) -> int:
        """Number of resident dirty pages."""
        return sum(1 for dirty in self._pages.values() if dirty)

    def is_dirty(self, page_id: int) -> bool:
        """True if ``page_id`` is resident and dirty."""
        return self._pages.get(page_id, False)

    def access(self, page_id: int, write: bool = False) -> AccessResult:
        """Touch ``page_id``; returns the disk work this access implies.

        On a hit the page moves to MRU position (and is dirtied on
        write).  On a miss, the LRU page is evicted if the pool is full;
        if that victim is dirty, the caller must write it back before
        reading the missed page.
        """
        if page_id in self._pages:
            self.stats.hits += 1
            dirty = self._pages.pop(page_id) or write
            self._pages[page_id] = dirty
            return _HIT

        self.stats.misses += 1
        writeback: Optional[int] = None
        if len(self._pages) >= self.capacity_pages:
            victim, victim_dirty = self._pages.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
                writeback = victim
        self._pages[page_id] = write
        return _new_tuple(AccessResult, (False, page_id, writeback))

    def flush_page(self, page_id: int) -> bool:
        """Mark a resident dirty page clean; True if it was dirty.

        Used by the background flusher and by hot backup's checkpoint.
        """
        if self._pages.get(page_id):
            self._pages.pop(page_id)
            self._pages[page_id] = False
            self.stats.flushes += 1
            return True
        return False

    def oldest_dirty_page(self) -> Optional[int]:
        """The least-recently-used dirty page, or None."""
        for page_id, dirty in self._pages.items():
            if dirty:
                return page_id
        return None

    def dirty_pages(self) -> list[int]:
        """All resident dirty pages, LRU order first."""
        return [page_id for page_id, dirty in self._pages.items() if dirty]

    def resident_pages(self) -> list[int]:
        """All resident pages, LRU order first (for tests/inspection)."""
        return list(self._pages)
