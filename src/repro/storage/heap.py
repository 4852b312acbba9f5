"""Heap file: unordered pages, appended in allocation order.

Used for sequential scans (query modification's fallback plan) and as
the simplest storage structure in tests.  All page traffic goes through
the buffer pool so reads and writes are costed exactly once.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .columnar import ColumnBatch
from .pager import BufferPool, Page, PageId
from .tuples import Record

__all__ = ["HeapFile"]


class HeapFile:
    """An unordered collection of records across fixed-capacity pages.

    ``records_per_page`` is the paper's blocking factor ``T``; inserts
    fill the last page and allocate a new one when it overflows.
    """

    def __init__(self, name: str, pool: BufferPool, records_per_page: int) -> None:
        if records_per_page < 1:
            raise ValueError(f"records_per_page must be >= 1, got {records_per_page}")
        self.name = name
        self.pool = pool
        self.records_per_page = records_per_page
        self._page_ids: list[PageId] = []

    def __len__(self) -> int:
        return self.record_count()

    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    def record_count(self) -> int:
        """Total records (walks the file; counts I/O like any scan)."""
        return sum(1 for _ in self.scan())

    def insert(self, record: Record) -> PageId:
        """Append a record, returning the page it landed on.

        Costs one read + one write of the tail page (plus nothing for
        allocation, matching the paper's accounting).
        """
        if self._page_ids:
            tail_id = self._page_ids[-1]
            page = self.pool.get(tail_id)
            if not page.is_full:
                page.add(record)
                self.pool.put(page, dirty=True)
                return tail_id
        page = self.pool.disk.allocate(self.name, self.records_per_page)
        page.add(record)
        self._page_ids.append(page.page_id)
        self.pool.put(page, dirty=True)
        return page.page_id

    def bulk_load(self, records: list[Record]) -> None:
        """Load many records with one write per filled page.

        Used to build the initial database state without charging the
        workload for setup I/O — callers typically reset the meter
        afterwards anyway.
        """
        for start in range(0, len(records), self.records_per_page):
            chunk = records[start : start + self.records_per_page]
            page = self.pool.disk.allocate(self.name, self.records_per_page)
            for record in chunk:
                page.add(record)
            self._page_ids.append(page.page_id)
            self.pool.put(page, dirty=True)

    def scan(self) -> Iterator[Record]:
        """Sequential scan in page order (one read per page)."""
        for batch in self.scan_batches():
            yield from batch.to_records()

    def scan_batches(self) -> Iterator[ColumnBatch]:
        """Sequential scan yielding one :class:`ColumnBatch` per page.

        Same page-read sequence as :meth:`scan`; each batch aliases the
        page's record list (zero-copy), one metered read per batch.
        """
        for page_id in list(self._page_ids):
            page = self.pool.get(page_id)
            if page.records:
                yield ColumnBatch.from_records(list(page.records))

    def scan_pages(self) -> Iterator[Page]:
        """Yield whole pages (used by utilities that repack files)."""
        for page_id in list(self._page_ids):
            yield self.pool.get(page_id)

    def delete_where(self, predicate: Callable[[Record], bool]) -> int:
        """Delete matching records; returns how many were removed.

        Reads every page; rewrites only pages that changed.
        """
        removed = 0
        for page_id in list(self._page_ids):
            page = self.pool.get(page_id)
            dropped = page.remove_where(predicate)
            if dropped:
                removed += dropped
                self.pool.put(page, dirty=True)
        return removed

    def truncate(self) -> None:
        """Drop all pages (no I/O charged; a catalog operation)."""
        for page_id in self._page_ids:
            self.pool.discard(page_id)
            self.pool.disk.free(page_id)
        self._page_ids.clear()
