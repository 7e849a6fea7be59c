"""Logical page layout of a tenant database.

A tenant database is modelled as a keyed row store: ``num_rows`` rows
of ``row_size`` bytes packed into 16 KB InnoDB-style pages.  The layout
maps row keys to page ids so the buffer pool and disk see the same
access pattern a real InnoDB table would (multiple hot rows sharing a
page, scans touching consecutive pages).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..resources.units import GB, KB, PAGE_SIZE

__all__ = ["TableLayout", "DEFAULT_ROW_SIZE"]

#: YCSB's default record size: 10 fields x 100 bytes, plus key overhead.
DEFAULT_ROW_SIZE = 1 * KB


@dataclass(frozen=True)
class TableLayout:
    """Maps row keys of one table onto fixed-size pages.

    ``rows_per_page`` is derived from the row and page sizes once, at
    construction.

    >>> layout = TableLayout(num_rows=1024, row_size=1024)
    >>> layout.rows_per_page
    16
    >>> layout.num_pages
    64
    >>> layout.page_of(0), layout.page_of(15), layout.page_of(16)
    (0, 0, 1)
    """

    num_rows: int
    row_size: int = DEFAULT_ROW_SIZE
    page_size: int = PAGE_SIZE

    def __post_init__(self) -> None:
        if self.num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {self.num_rows}")
        if not 0 < self.row_size <= self.page_size:
            raise ValueError(
                f"row_size {self.row_size} must be in (0, page_size={self.page_size}]"
            )
        # Rows packed into one page.  Read on every key lookup, so it is
        # a plain attribute computed once, not a property (and not a
        # field: equality, repr and config hashes see the same three).
        object.__setattr__(
            self, "rows_per_page", max(1, self.page_size // self.row_size)
        )

    @classmethod
    def for_data_size(
        cls, data_bytes: int = 1 * GB, row_size: int = DEFAULT_ROW_SIZE
    ) -> "TableLayout":
        """Layout for a database of roughly ``data_bytes`` total size.

        The paper's primary benchmark uses a 1 GB pre-populated database.
        """
        if data_bytes <= 0:
            raise ValueError(f"data_bytes must be positive, got {data_bytes}")
        num_rows = max(1, data_bytes // row_size)
        return cls(num_rows=num_rows, row_size=row_size)

    @property
    def num_pages(self) -> int:
        """Total data pages in the table."""
        return -(-self.num_rows // self.rows_per_page)  # ceil division

    @property
    def data_bytes(self) -> int:
        """On-disk size of the table's data file."""
        return self.num_pages * self.page_size

    def page_of(self, key: int) -> int:
        """The page holding row ``key``."""
        if not 0 <= key < self.num_rows:
            raise KeyError(f"key {key} outside [0, {self.num_rows})")
        return key // self.rows_per_page

    def pages_of_scan(self, start_key: int, length: int) -> range:
        """Pages touched by a range scan of ``length`` rows from ``start_key``."""
        if length <= 0:
            raise ValueError(f"scan length must be positive, got {length}")
        end_key = min(self.num_rows - 1, start_key + length - 1)
        return range(self.page_of(start_key), self.page_of(end_key) + 1)
