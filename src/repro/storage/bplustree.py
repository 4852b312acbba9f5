"""Clustered B+-tree over the simulated pager.

Base relations ``R``/``R1`` and materialized views are clustered
B+-trees on the field the view predicate (or the view's key) uses —
the access-method table in Section 3.1.  Leaves hold full records in
sort order and are chained for range scans; internal nodes hold
separator keys and child page ids with fanout ``B/n``.

Duplicate sort keys are supported (a base relation clustered on the
predicate attribute usually has many tuples per value): entries are
ordered by ``(sort_key, tiebreak)`` where the tiebreak is the record's
unique key.

Deletion removes the entry and nothing else: a leaf it empties stays
in the chain (a scan still reads it) and underfull nodes are neither
merged nor rebalanced — the paper's cost model likewise ignores
structural maintenance beyond leaf writes ("splits of internal index
pages are infrequent, so their cost will be ignored").
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterator

from .columnar import ColumnBatch
from .pager import BufferPool, Page, PageId
from .tuples import Record

__all__ = ["BPlusTree", "TreeStats"]

#: A leaf entry is ``((sort_key, tiebreak), record)``; leaves bisect on
#: the first element.
_ENTRY_KEY = itemgetter(0)


@dataclass(frozen=True)
class _InternalNode:
    """Payload of an internal page: separators and children.

    ``children[i]`` covers keys < ``keys[i]``; the last child covers
    the remainder.  ``len(children) == len(keys) + 1``.

    Immutable (frozen, over tuples): the disk's persisted image and its
    write-time record, every clone it hands out and the pool frame
    share one node, so a new separator makes a new node that
    :meth:`Page.replace` puts in its place.  It renders its sequences
    as lists: that text is the page image every internal-page checksum
    is pinned to.
    """

    keys: tuple[Any, ...] = ()
    children: tuple[PageId, ...] = ()

    def __repr__(self) -> str:
        return (
            f"_InternalNode(keys=[{', '.join(map(repr, self.keys))}], "
            f"children=[{', '.join(map(repr, self.children))}])"
        )


@dataclass
class TreeStats:
    """Structural statistics (no I/O is charged to compute them)."""

    height: int
    leaf_pages: int
    internal_pages: int
    entries: int


class BPlusTree:
    """A clustered B+-tree keyed on ``sort_key(record)``.

    All page access is charged through the buffer pool.  ``fanout``
    bounds internal-node children (the paper's ``B/n``);
    ``records_per_leaf`` bounds leaf entries (the blocking factor).
    """

    def __init__(
        self,
        name: str,
        pool: BufferPool,
        sort_key: Callable[[Record], Any],
        records_per_leaf: int,
        fanout: int = 200,
    ) -> None:
        if records_per_leaf < 1:
            raise ValueError(f"records_per_leaf must be >= 1, got {records_per_leaf}")
        if fanout < 3:
            raise ValueError(f"fanout must be >= 3, got {fanout}")
        self.name = name
        self.pool = pool
        self.sort_key = sort_key
        self.records_per_leaf = records_per_leaf
        self.fanout = fanout
        self._entries = 0
        root = pool.disk.allocate(self._file("leaf"), records_per_leaf)
        pool.put(root, dirty=True)
        pool.flush(root.page_id)
        self.root_id: PageId = root.page_id
        self._height = 1  # levels including the leaf level

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._entries

    @property
    def height(self) -> int:
        """Number of levels, leaves included (>= 1)."""
        return self._height

    def insert(self, record: Record) -> None:
        """Insert a record, splitting nodes on the way up as needed.

        Charges the descent reads plus one write per modified page.
        """
        split = self._insert_into(self.root_id, self._height, record)
        if split is not None:
            sep_key, right_id = split
            new_root = self.pool.disk.allocate(self._file("int"), 1)
            node = _InternalNode(keys=(sep_key,), children=(self.root_id, right_id))
            new_root.add(node)
            self.pool.put(new_root, dirty=True)
            self.root_id = new_root.page_id
            self._height += 1
        self._entries += 1

    def position(self, record: Record) -> tuple[Any, Any]:
        """Where ``record`` sits in this file's order: its entry key
        ``(sort_key, tiebreak)``, the order the chained leaves hold.  A
        batch applied in this order meets each leaf in one run."""
        return self.sort_key(record), self._tiebreak(record)

    def delete(self, record: Record) -> bool:
        """Delete one entry matching the record exactly; True if found."""
        entry = (self.sort_key(record), self._tiebreak(record))
        page = self.pool.get(self._descend(entry[0], entry[1]))
        entries = page.records
        index = bisect.bisect_left(entries, entry, key=_ENTRY_KEY)
        while index < len(entries) and entries[index][0] == entry:
            if entries[index][1] == record:
                page.remove(index)
                self.pool.put(page, dirty=True)
                self._entries -= 1
                return True
            index += 1
        return False

    def search(self, sort_key_value: Any) -> list[Record]:
        """All records whose sort key equals the value."""
        return list(self.range_scan(sort_key_value, sort_key_value))

    def range_scan(self, lo: Any, hi: Any) -> Iterator[Record]:
        """Records with ``lo <= sort_key <= hi`` in key order.

        One descent plus one read per leaf visited (leaves are chained).
        Thin per-record adapter over :meth:`range_batches`.
        """
        for records in self.range_batches(lo, hi):
            yield from records

    def range_batches(self, lo: Any, hi: Any) -> Iterator[list[Record]]:
        """Range scan yielding one record list per leaf page visited.

        The page-get sequence (and therefore every metered read) is
        identical to :meth:`range_scan`: one descent, then each chained
        leaf up to and including the first one holding a key past
        ``hi``.  A leaf's in-range entries are the slice between
        ``(lo, -inf)`` and ``(hi, +inf)``, found by bisection; leaves
        with no in-range entries yield nothing.
        """
        first, last = (lo, _NEG_INF), (hi, _POS_INF)
        current: PageId | None = self._descend(lo, _NEG_INF)
        while current is not None:
            page = self.pool.get(current)
            entries = page.records
            start = bisect.bisect_left(entries, first, key=_ENTRY_KEY)
            stop = bisect.bisect_right(entries, last, start, key=_ENTRY_KEY)
            if start < stop:
                yield [record for _, record in entries[start:stop]]
            if entries and entries[-1][0][0] > hi:
                return
            current = page.next_page

    def scan_all(self) -> Iterator[Record]:
        """Full scan in sort order via the leaf chain."""
        for batch in self.scan_batches():
            yield from batch.to_records()

    def scan_batches(self) -> Iterator[ColumnBatch]:
        """Full scan yielding one :class:`ColumnBatch` per leaf page.

        Page-sized batches are the natural vectorization unit: each
        batch corresponds to exactly one metered leaf read, so batch
        kernels inherit the tuple scan's page cost unchanged.
        """
        current: PageId | None = self._leftmost_leaf()
        while current is not None:
            page = self.pool.get(current)
            if page.records:
                yield ColumnBatch.from_records([r for _, r in page.records])
            current = page.next_page

    def locate(self, sort_key_value: Any, tiebreak: Any) -> tuple[Page, int, Record] | None:
        """Find the entry with exactly this ``(sort_key, tiebreak)``.

        Returns ``(leaf_page, index, record)`` for in-place patching
        via :meth:`replace_at` / :meth:`delete_at`, or ``None``.  The
        page-get sequence is the same as an equality ``range_scan``
        consumed up to the match, so locate-and-patch and
        delete-then-insert touch the same page set.
        """
        target = (sort_key_value, tiebreak)
        current: PageId | None = self._descend(sort_key_value, _NEG_INF)
        while current is not None:
            page = self.pool.get(current)
            for i, (entry, record) in enumerate(page.records):
                key = entry[0]
                if key < sort_key_value:
                    continue
                if key > sort_key_value:
                    return None
                if entry == target:
                    return page, i, record
            current = page.next_page
        return None

    def replace_at(self, page: Page, index: int, new_record: Record) -> None:
        """Overwrite one located entry's record in place (same key).

        The entry key is preserved, so this is only valid when the new
        record has the same sort key and tiebreak as the old — the
        duplicate-count patch in :class:`repro.views.matview`.  One
        leaf write; layout-identical to delete-then-reinsert (a unique
        ``(sort_key, tiebreak)`` reinserts at the same index and the
        leaf never overflows).
        """
        page.replace(index, (page.records[index][0], new_record))
        self.pool.put(page, dirty=True)

    def delete_at(self, page: Page, index: int) -> None:
        """Remove one located entry in place (one leaf write)."""
        page.remove(index)
        self.pool.put(page, dirty=True)
        self._entries -= 1

    def update(self, old: Record, new: Record) -> bool:
        """Replace one entry; returns False if ``old`` is absent.

        Implemented as delete+insert so key-moving updates relocate to
        the correct leaf (the common same-leaf case costs one extra
        leaf write versus an in-place patch — negligible and simpler).
        """
        if not self.delete(old):
            return False
        self.insert(new)
        return True

    def reset(self) -> None:
        """Drop every page and return to an empty single-leaf tree.

        A catalog operation (no I/O charged for the deallocation);
        used by snapshot rebuilds before reloading fresh contents.
        """
        disk = self.pool.disk
        for kind in ("leaf", "int"):
            for page_id in disk.file_pages(self._file(kind)):
                self.pool.discard(page_id)
                disk.free(page_id)
        root = disk.allocate(self._file("leaf"), self.records_per_leaf)
        self.pool.put(root, dirty=True)
        self.root_id = root.page_id
        self._height = 1
        self._entries = 0

    def stats(self) -> TreeStats:
        """Walk the structure without charging I/O (catalog inspection)."""
        disk = self.pool.disk
        leaf_pages = disk.page_count(self._file("leaf"))
        internal_pages = disk.page_count(self._file("int"))
        return TreeStats(
            height=self._height,
            leaf_pages=leaf_pages,
            internal_pages=internal_pages,
            entries=self._entries,
        )

    def bulk_load(self, records: list[Record]) -> None:
        """Build the tree bottom-up from scratch (tree must be empty).

        Fills leaves to capacity in sort order, then builds internal
        levels. Much cheaper than repeated inserts for setup; callers
        normally reset the cost meter afterwards.
        """
        if self._entries:
            raise RuntimeError("bulk_load requires an empty tree")
        ordered = sorted(
            (((self.sort_key(r), self._tiebreak(r)), r) for r in records),
            key=_ENTRY_KEY,
        )
        if not ordered:
            return
        # Reuse the pre-allocated empty root leaf as the first leaf.
        leaf_ids: list[PageId] = []
        leaf_first_keys: list[Any] = []
        prev_leaf: Page | None = None
        for start in range(0, len(ordered), self.records_per_leaf):
            if start == 0:
                page = self.pool.get(self.root_id)
            else:
                page = self.pool.disk.allocate(self._file("leaf"), self.records_per_leaf)
            page.fill(ordered[start : start + self.records_per_leaf])
            if prev_leaf is not None:
                prev_leaf.next_page = page.page_id
                self.pool.put(prev_leaf, dirty=True)
            leaf_ids.append(page.page_id)
            # Separators are full (sort_key, tiebreak) entries so that
            # descent comparisons are always tuple-vs-tuple.
            leaf_first_keys.append(page.records[0][0])
            prev_leaf = page
        if prev_leaf is not None:
            self.pool.put(prev_leaf, dirty=True)
        # Build internal levels bottom-up.
        level_ids, level_keys = leaf_ids, leaf_first_keys
        height = 1
        while len(level_ids) > 1:
            parent_ids: list[PageId] = []
            parent_keys: list[Any] = []
            group = self.fanout
            for start in range(0, len(level_ids), group):
                child_ids = level_ids[start : start + group]
                child_keys = level_keys[start : start + group]
                page = self.pool.disk.allocate(self._file("int"), 1)
                node = _InternalNode(keys=tuple(child_keys[1:]), children=tuple(child_ids))
                page.add(node)
                self.pool.put(page, dirty=True)
                parent_ids.append(page.page_id)
                parent_keys.append(child_keys[0])
            level_ids, level_keys = parent_ids, parent_keys
            height += 1
        self.root_id = level_ids[0]
        self._height = height
        self._entries = len(ordered)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _file(self, kind: str) -> str:
        return f"{self.name}.{kind}"

    @staticmethod
    def _tiebreak(record: Record) -> Any:
        return record.key

    def _leftmost_leaf(self) -> PageId:
        page_id, level = self.root_id, self._height
        while level > 1:
            page = self.pool.get(page_id)
            node: _InternalNode = page.records[0]
            page_id = node.children[0]
            level -= 1
        return page_id

    def _descend(self, sort_key_value: Any, tiebreak: Any) -> PageId:
        """Walk root->leaf for a key, charging one read per level."""
        page_id, level = self.root_id, self._height
        while level > 1:
            page = self.pool.get(page_id)
            node: _InternalNode = page.records[0]
            index = bisect.bisect_right(node.keys, (sort_key_value, tiebreak))
            page_id = node.children[index]
            level -= 1
        return page_id

    def _insert_into(
        self, page_id: PageId, level: int, record: Record
    ) -> tuple[Any, PageId] | None:
        """Recursive insert; returns ``(separator, new_right_id)`` on split."""
        entry = (self.sort_key(record), self._tiebreak(record))
        page = self.pool.get(page_id)
        if level == 1:
            index = bisect.bisect_right(page.records, entry, key=_ENTRY_KEY)
            page.insert(index, (entry, record))
            if len(page.records) <= self.records_per_leaf:
                self.pool.put(page, dirty=True)
                return None
            return self._split_leaf(page)
        node: _InternalNode = page.records[0]
        index = bisect.bisect_right(node.keys, entry)
        split = self._insert_into(node.children[index], level - 1, record)
        if split is None:
            return None
        sep_key, right_id = split
        at = index + 1
        node = _InternalNode(
            (*node.keys[:index], sep_key, *node.keys[index:]),
            (*node.children[:at], right_id, *node.children[at:]),
        )
        if len(node.children) <= self.fanout:
            page.replace(0, node)
            self.pool.put(page, dirty=True)
            return None
        return self._split_internal(page, node)

    def _split_leaf(self, page: Page) -> tuple[Any, PageId]:
        mid = len(page.records) // 2
        right = self.pool.disk.allocate(self._file("leaf"), self.records_per_leaf)
        page.move_tail(mid, right)
        right.next_page = page.next_page
        page.next_page = right.page_id
        self.pool.put(page, dirty=True)
        self.pool.put(right, dirty=True)
        separator = right.records[0][0]
        return separator, right.page_id

    def _split_internal(self, page: Page, node: _InternalNode) -> tuple[Any, PageId]:
        """Split the over-full ``node`` between ``page`` and a new right page."""
        mid = len(node.keys) // 2
        promoted = node.keys[mid]
        right_page = self.pool.disk.allocate(self._file("int"), 1)
        right_node = _InternalNode(
            keys=node.keys[mid + 1 :],
            children=node.children[mid + 1 :],
        )
        right_page.add(right_node)
        page.replace(0, _InternalNode(node.keys[:mid], node.children[: mid + 1]))
        self.pool.put(page, dirty=True)
        self.pool.put(right_page, dirty=True)
        return promoted, right_page.page_id


class _NegInf:
    """Sorts before every other value (used as a scan tiebreak)."""

    def __lt__(self, other: Any) -> bool:
        return True

    def __gt__(self, other: Any) -> bool:
        return False

    def __repr__(self) -> str:
        return "-inf"


_NEG_INF = _NegInf()


class _PosInf:
    """Sorts after every other value (the upper end of a range's slice)."""

    def __lt__(self, other: Any) -> bool:
        return False

    def __gt__(self, other: Any) -> bool:
        return True

    def __repr__(self) -> str:
        return "+inf"


_POS_INF = _PosInf()
