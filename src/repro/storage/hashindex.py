"""Clustered hash file: fixed bucket directory with chained pages.

Section 3.1 gives ``R2`` clustered hashing on the join field and the
``AD`` differential file clustered hashing on the tuple key.  The
implementation uses a fixed number of buckets, each a chain of pages;
a lookup reads the chain of one bucket (one page in the common case,
which is the paper's assumption for hash probes).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from .pager import BufferPool, Page, PageId
from .tuples import Record

__all__ = ["HashFile"]


class HashFile:
    """Bucket-chained hash file keyed on ``hash_key(record)``.

    ``buckets`` should be sized so a bucket's records fit one page for
    the expected load; overflow chains keep correctness when they do
    not.  All page traffic is charged through the buffer pool.
    """

    def __init__(
        self,
        name: str,
        pool: BufferPool,
        hash_key: Callable[[Record], Any],
        records_per_page: int,
        buckets: int = 64,
    ) -> None:
        if records_per_page < 1:
            raise ValueError(f"records_per_page must be >= 1, got {records_per_page}")
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        self.name = name
        self.pool = pool
        self.hash_key = hash_key
        self.records_per_page = records_per_page
        self.buckets = buckets
        self._heads: list[PageId | None] = [None] * buckets
        self._entries = 0

    def __len__(self) -> int:
        return self._entries

    def position(self, record: Record) -> int:
        """Where ``record`` sits in this file's order: its bucket number
        (:meth:`_bucket_of` its hash key), the order :meth:`scan_all`
        reads the chains in.  A batch applied in this order meets each
        chain in one run."""
        return hash(self.hash_key(record)) % self.buckets

    def _bucket_of(self, key: Any) -> int:
        # Stable across runs for ints/strings; Python ints hash to
        # themselves so integer keys spread by modulo, like a real
        # mod-hash file.
        return hash(key) % self.buckets

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def lookup(self, key: Any) -> list[Record]:
        """All records whose hash key equals ``key`` (reads one chain)."""
        matches = []
        for page in self._chain_pages(self._bucket_of(key)):
            matches.extend(r for r in page.records if self.hash_key(r) == key)
        return matches

    def lookup_pinned(self, key: Any) -> list[Record]:
        """Like :meth:`lookup`, but pins the chain pages it touches.

        Used by the nested-loop join so inner pages stay buffered for
        the whole join; the caller unpins via ``pool.unpin_all()``.
        """
        matches = []
        for page in self._chain_pages(self._bucket_of(key)):
            self.pool.pin(page.page_id)
            matches.extend(r for r in page.records if self.hash_key(r) == key)
        return matches

    def insert(self, record: Record) -> PageId:
        """Insert into the first chain page with room (read+write).

        Returns the page written.  Appends a new chain page when the
        bucket is full.
        """
        bucket = self.position(record)
        last_page: Page | None = None
        for page in self._chain_pages(bucket):
            last_page = page
            if not page.is_full:
                page.add(record)
                self.pool.put(page, dirty=True)
                self._entries += 1
                return page.page_id
        fresh = self.pool.disk.allocate(self._file(), self.records_per_page)
        fresh.add(record)
        self.pool.put(fresh, dirty=True)
        if last_page is None:
            self._heads[bucket] = fresh.page_id
        else:
            last_page.next_page = fresh.page_id
            self.pool.put(last_page, dirty=True)
        self._entries += 1
        return fresh.page_id

    def insert_pair(self, first: Record, second: Record) -> PageId:
        """Insert two same-bucket records with one read + one write.

        This is the paper's 3-I/O update protocol: when a tuple is
        modified without changing its key, the deleted old value and
        the appended new value hash to the same AD page, so both are
        placed with a single page read and a single page write.
        """
        bucket = self.position(first)
        if bucket != self.position(second):
            raise ValueError("insert_pair requires records hashing to one bucket")
        last_page: Page | None = None
        for page in self._chain_pages(bucket):
            last_page = page
            if page.capacity - len(page.records) >= 2:
                page.add(first)
                page.add(second)
                self.pool.put(page, dirty=True)
                self._entries += 2
                return page.page_id
        fresh = self.pool.disk.allocate(self._file(), max(2, self.records_per_page))
        fresh.add(first)
        fresh.add(second)
        self.pool.put(fresh, dirty=True)
        if last_page is None:
            self._heads[bucket] = fresh.page_id
        else:
            last_page.next_page = fresh.page_id
            self.pool.put(last_page, dirty=True)
        self._entries += 2
        return fresh.page_id

    def delete(self, record: Record) -> bool:
        """Remove one exactly-matching record; True if found."""
        bucket = self.position(record)
        for page in self._chain_pages(bucket):
            for i, stored in enumerate(page.records):
                if stored == record:
                    page.remove(i)
                    self.pool.put(page, dirty=True)
                    self._entries -= 1
                    return True
        return False

    def delete_key(self, key: Any) -> int:
        """Remove every record with the given hash key; returns count."""
        bucket = self._bucket_of(key)
        removed = 0
        for page in self._chain_pages(bucket):
            dropped = page.remove_where(lambda r: self.hash_key(r) == key)
            if dropped:
                removed += dropped
                self.pool.put(page, dirty=True)
        self._entries -= removed
        return removed

    def scan_all(self) -> Iterator[Record]:
        """Read every chain page once, yielding all records."""
        for bucket in range(self.buckets):
            for page in self._chain_pages(bucket):
                yield from page.records

    def page_count(self) -> int:
        """Allocated pages (catalog inspection, no I/O charged)."""
        return self.pool.disk.page_count(self._file())

    def truncate(self) -> None:
        """Drop every page and reset the directory (catalog operation)."""
        for pid in self.pool.disk.file_pages(self._file()):
            self.pool.discard(pid)
            self.pool.disk.free(pid)
        self._heads = [None] * self.buckets
        self._entries = 0

    def bulk_load(self, records: list[Record]) -> None:
        """Load records bucket-by-bucket with one write per filled page.

        The file must be empty (use :meth:`insert` for incremental adds).
        """
        if self._entries:
            raise RuntimeError("bulk_load requires an empty hash file")
        grouped: dict[int, list[Record]] = {}
        for record in records:
            grouped.setdefault(self.position(record), []).append(record)
        for bucket, group in grouped.items():
            prev: Page | None = None
            for start in range(0, len(group), self.records_per_page):
                chunk = group[start : start + self.records_per_page]
                page = self.pool.disk.allocate(self._file(), self.records_per_page)
                for record in chunk:
                    page.add(record)
                self.pool.put(page, dirty=True)
                if prev is None:
                    self._heads[bucket] = page.page_id
                else:
                    prev.next_page = page.page_id
                    self.pool.put(prev, dirty=True)
                prev = page
        self._entries += len(records)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _file(self) -> str:
        return f"{self.name}.hash"

    def _chain_pages(self, bucket: int) -> Iterator[Page]:
        current = self._heads[bucket]
        while current is not None:
            page = self.pool.get(current)
            yield page
            current = page.next_page
