"""Simulated disk, buffer pool and cost accounting.

The paper prices every strategy in disk I/Os (``c2`` each) plus CPU
screening (``c1``) and A/D-set bookkeeping (``c3``).  The substrate in
this package executes the strategies for real against a page-granular
simulated disk; :class:`CostMeter` counts the same four event classes
the formulas count, and converts them to milliseconds with the same
constants, so measured and analytic costs are directly comparable.

A page holds records (``T = B/S`` per page, as in the paper); the
buffer pool is an LRU cache over pages with pinning support (the
nested-loop join pins inner-relation pages, Section 3.4.3).
"""

from __future__ import annotations

import itertools
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from repro.core.parameters import Parameters

__all__ = [
    "PageId",
    "Page",
    "SimulatedDisk",
    "BufferPool",
    "CostMeter",
    "PageOverflowError",
    "PageChecksumError",
    "TransientIOError",
    "page_checksum",
]


class PageOverflowError(RuntimeError):
    """A record was added to a page that is already at capacity."""


class TransientIOError(RuntimeError):
    """A storage operation failed transiently; a retry may succeed."""

    def __init__(self, page_id: "PageId", op: str) -> None:
        super().__init__(f"transient {op} error on page {page_id}")
        self.page_id = page_id
        self.op = op


class PageChecksumError(RuntimeError):
    """A page image read from disk does not match its stored checksum.

    Raised by :meth:`SimulatedDisk.read` when ``verify_reads`` is on and
    the at-rest image has diverged from the checksum recorded at write
    time — the simulated equivalent of detecting bit-rot or a torn
    write via a page-header CRC.
    """

    def __init__(self, page_id: "PageId", detail: str = "checksum mismatch") -> None:
        super().__init__(f"{detail} on page {page_id}")
        self.page_id = page_id
        self.detail = detail


def _entry_image(entry: Any) -> bytes:
    """The serialized form of one page entry: the bytes a checksum covers.

    A B+-tree leaf entry ``((sort_key, tiebreak), value)`` is its key
    part, the separator and the value's ``repr`` (a base ``Record``, or
    a stored view tuple, which renders itself as one); anything else (a
    heap or hash record, an internal node, an aggregate state) is its
    ``repr``.
    """
    if type(entry) is tuple and len(entry) == 2 and type(entry[0]) is tuple:
        text = f"{entry[:-1]!r}\x1e{entry[-1]!r}"
    else:
        text = repr(entry)
    return text.encode("utf-8", "replace")


def _checksum_of(entries: Iterable[Any], next_page: "PageId | None") -> int:
    """CRC32 of the entries' images, in order, then the successor link."""
    link = str(next_page).encode("utf-8", "replace")
    return zlib.crc32(b"\x1e".join([*map(_entry_image, entries), link]))


def page_checksum(page: "Page") -> int:
    """CRC32 over a page's logical content.

    Covers every entry of ``page.records``, their order, and the
    successor link — not ``capacity`` or the page id.  Any in-place
    mutation of the stored image (simulated bit-rot), truncation (torn
    write) or scrambled link changes it.

    Every check for damage computes it from the stored image and
    compares it with the disk's checksum of what was written there
    (:attr:`SimulatedDisk._checksums`), the same function over the
    write-time record.
    """
    return _checksum_of(page.records, page.next_page)


class PageId(NamedTuple):
    """Identifies one disk page: a file name plus a page number.

    A named tuple so that the pool's and the disk's dict and set
    lookups hash and compare it at C level.
    """

    file: str
    number: int

    def __str__(self) -> str:
        return f"{self.file}:{self.number}"


class Page:
    """A disk page holding up to ``capacity`` records.

    Records are arbitrary Python objects; files impose their own layout
    (sorted for B+-tree leaves, unordered for heaps and hash buckets).

    ``records`` is read freely but edited only through the methods
    below (the ``page-edit`` lint rule holds the rest of the code to
    that), which hold the capacity rules in one place.  An entry is
    immutable once stored — clones and the disk's write-time record
    share it; :meth:`replace` it with a new one.
    """

    __slots__ = ("page_id", "capacity", "records", "next_page")

    def __init__(self, page_id: PageId, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"page capacity must be >= 1, got {capacity}")
        self.page_id = page_id
        self.capacity = capacity
        self.records: list[Any] = []
        #: Optional link to a successor page (leaf chains, bucket chains).
        self.next_page: PageId | None = None

    @property
    def is_full(self) -> bool:
        return len(self.records) >= self.capacity

    def add(self, record: Any) -> None:
        """Append a record; raises :class:`PageOverflowError` when full."""
        if self.is_full:
            raise PageOverflowError(f"page {self.page_id} is full ({self.capacity})")
        self.records.append(record)

    def insert(self, index: int, record: Any) -> None:
        """Insert a record at ``index``, keeping the page's order.

        A full page takes one record more — a B+-tree leaf holds
        ``capacity + 1`` entries between an insert and the split it
        causes (:meth:`move_tail`); a second raises
        :class:`PageOverflowError`.
        """
        if len(self.records) > self.capacity:
            raise PageOverflowError(f"page {self.page_id} is over capacity ({self.capacity})")
        self.records.insert(index, record)

    def replace(self, index: int, record: Any) -> None:
        """Put ``record`` in place of the entry at ``index``."""
        self.records[index] = record

    def remove(self, index: int) -> None:
        """Remove the entry at ``index``."""
        del self.records[index]

    def remove_where(self, match: Callable[[Any], bool]) -> int:
        """Remove every entry ``match`` accepts; returns how many there were."""
        kept = [record for record in self.records if not match(record)]
        removed, self.records = len(self.records) - len(kept), kept
        return removed

    def keep_range(self, start: int, stop: int | None = None) -> None:
        """Keep only ``records[start:stop]`` (a truncation, a dropped head)."""
        self.records = self.records[start:stop]

    def fill(self, records: Iterable[Any]) -> None:
        """Assign the page's whole content (a bulk load fills pages this way)."""
        self.records = list(records)

    def move_tail(self, start: int, fresh: "Page") -> None:
        """Move ``records[start:]`` to the empty page ``fresh`` (a leaf split)."""
        if fresh.records:
            raise ValueError(f"page {fresh.page_id} is not empty")
        fresh.records = self.records[start:]
        self.keep_range(0, start)

    def clone(self) -> "Page":
        """Shallow copy used by the disk to model a persisted image."""
        copy = Page(self.page_id, self.capacity)
        copy.records = self.records.copy()
        copy.next_page = self.next_page
        return copy


@dataclass
class CostMeter:
    """Counts the cost events the paper's formulas price.

    * ``page_reads`` / ``page_writes`` — ``c2`` each.
    * ``screens`` — predicate/satisfiability CPU tests, ``c1`` each.
    * ``ad_ops`` — per-tuple A/D in-memory set manipulations, ``c3``
      each (only immediate maintenance generates these).

    Checkpoints (:meth:`snapshot` / :meth:`delta_since`) let callers
    price individual phases (one query, one refresh) in isolation.

    Setup work (initial bulk loads, view materialization) is charged
    to a separate **setup bucket** while a :meth:`setup_phase` context
    is active, so it never leaks into the first query's metered cost.
    The paper excludes initial materialization from per-query costs;
    the bucket makes that exclusion structural instead of relying on
    every caller remembering to :meth:`reset`.
    """

    page_reads: int = 0
    page_writes: int = 0
    screens: int = 0
    ad_ops: int = 0
    #: Setup-bucket counters: same event classes, charged during an
    #: active :meth:`setup_phase` (bulk loads, initial materialization).
    setup_page_reads: int = 0
    setup_page_writes: int = 0
    setup_screens: int = 0
    setup_ad_ops: int = 0
    #: Depth of nested :meth:`setup_phase` contexts (>0 = diverting).
    _setup_depth: int = 0

    def record_read(self, count: int = 1) -> None:
        """Count disk page reads (c2 each)."""
        if self._setup_depth:
            self.setup_page_reads += count
        else:
            self.page_reads += count

    def record_write(self, count: int = 1) -> None:
        """Count disk page writes (c2 each)."""
        if self._setup_depth:
            self.setup_page_writes += count
        else:
            self.page_writes += count

    def record_screen(self, count: int = 1) -> None:
        """Count predicate/satisfiability CPU tests (c1 each)."""
        if self._setup_depth:
            self.setup_screens += count
        else:
            self.screens += count

    def record_ad_op(self, count: int = 1) -> None:
        """Count in-memory A/D set manipulations (c3 each)."""
        if self._setup_depth:
            self.setup_ad_ops += count
        else:
            self.ad_ops += count

    @contextmanager
    def setup_phase(self) -> Iterator["CostMeter"]:
        """Divert recorded events to the setup bucket while active.

        Nests safely (the outermost context controls the bucket), so a
        bulk load inside a view definition charges setup exactly once.
        """
        self._setup_depth += 1
        try:
            yield self
        finally:
            self._setup_depth -= 1

    @property
    def setup_page_ios(self) -> int:
        return self.setup_page_reads + self.setup_page_writes

    def setup_milliseconds(self, params: Parameters) -> float:
        """Setup-bucket cost in ms under the parameter set's constants."""
        return (
            params.c2 * self.setup_page_ios
            + params.c1 * self.setup_screens
            + params.c3 * self.setup_ad_ops
        )

    def clear_setup(self) -> None:
        """Zero the setup bucket only."""
        self.setup_page_reads = 0
        self.setup_page_writes = 0
        self.setup_screens = 0
        self.setup_ad_ops = 0

    @property
    def page_ios(self) -> int:
        return self.page_reads + self.page_writes

    def milliseconds(self, params: Parameters) -> float:
        """Total cost in ms under the parameter set's constants."""
        return (
            params.c2 * self.page_ios
            + params.c1 * self.screens
            + params.c3 * self.ad_ops
        )

    def snapshot(self) -> "CostMeter":
        """Immutable-ish copy of the current counters."""
        return CostMeter(
            page_reads=self.page_reads,
            page_writes=self.page_writes,
            screens=self.screens,
            ad_ops=self.ad_ops,
            setup_page_reads=self.setup_page_reads,
            setup_page_writes=self.setup_page_writes,
            setup_screens=self.setup_screens,
            setup_ad_ops=self.setup_ad_ops,
        )

    def delta_since(self, earlier: "CostMeter") -> "CostMeter":
        """Counters accumulated since an earlier snapshot."""
        return CostMeter(
            page_reads=self.page_reads - earlier.page_reads,
            page_writes=self.page_writes - earlier.page_writes,
            screens=self.screens - earlier.screens,
            ad_ops=self.ad_ops - earlier.ad_ops,
            setup_page_reads=self.setup_page_reads - earlier.setup_page_reads,
            setup_page_writes=self.setup_page_writes - earlier.setup_page_writes,
            setup_screens=self.setup_screens - earlier.setup_screens,
            setup_ad_ops=self.setup_ad_ops - earlier.setup_ad_ops,
        )

    def diff(self, earlier: "CostMeter") -> "CostMeter":
        """Counters accumulated since an earlier snapshot.

        Alias of :meth:`delta_since` with the argument order spelled
        the way request-attribution code reads:
        ``meter.diff(before)``.
        """
        return self.delta_since(earlier)

    def merge(self, other: "CostMeter") -> "CostMeter":
        """Accumulate another meter's counts into this one.

        Lets per-phase accounting fold request deltas into a bucket
        meter (``query_meter.merge(meter.diff(before))``) without
        re-recording each event class by hand.  Returns ``self`` so
        merges chain.
        """
        self.page_reads += other.page_reads
        self.page_writes += other.page_writes
        self.screens += other.screens
        self.ad_ops += other.ad_ops
        self.setup_page_reads += other.setup_page_reads
        self.setup_page_writes += other.setup_page_writes
        self.setup_screens += other.setup_screens
        self.setup_ad_ops += other.setup_ad_ops
        return self

    def reset(self) -> None:
        """Zero every counter (both the workload and setup buckets)."""
        self.page_reads = 0
        self.page_writes = 0
        self.screens = 0
        self.ad_ops = 0
        self.clear_setup()


class _Checksums(Mapping[PageId, int]):
    """Each page's checksum: the CRC32 of the image last written to it.

    A write records the image's entries and successor link; the first
    time something asks for the checksum (a verified read, a scrub,
    :meth:`SimulatedDisk.corrupt`) it is computed from that record and
    kept in its place until the page is written again.  Stored entries
    are immutable, so it is the value the write would have computed.
    """

    def __init__(self) -> None:
        #: Page id -> its write-time record, or the CRC32 computed from it.
        self._written: dict[PageId, int | tuple[tuple[Any, ...], PageId | None]] = {}

    def record(self, page: Page) -> None:
        """Record ``page`` as the image written to its page id."""
        self._written[page.page_id] = (tuple(page.records), page.next_page)

    def forget(self, page_id: PageId) -> None:
        self._written.pop(page_id, None)

    def __getitem__(self, page_id: PageId) -> int:
        value = self._written[page_id]
        if isinstance(value, tuple):
            value = self._written[page_id] = _checksum_of(*value)
        return value

    def __iter__(self) -> Iterator[PageId]:
        return iter(self._written)

    def __len__(self) -> int:
        return len(self._written)


class SimulatedDisk:
    """Page store with read/write counting.

    Pages live in a dict keyed by :class:`PageId`.  Reads return a
    *clone* so in-memory mutation without a write-back is visible as a
    bug (lost update) rather than silently persisted — the same
    discipline a real page cache enforces.
    """

    def __init__(self, meter: CostMeter | None = None) -> None:
        self.meter = meter if meter is not None else CostMeter()
        self._pages: dict[PageId, Page] = {}
        self._checksums = _Checksums()
        self._next_number: dict[str, Iterator[int]] = {}
        #: Per file, its allocated page ids in allocation order (a dict
        #: used as an ordered set): what :meth:`file_pages` returns.
        self._files: dict[str, dict[PageId, None]] = {}
        #: When true, every :meth:`read` recomputes the page checksum
        #: and raises :class:`PageChecksumError` on a mismatch.  Off by
        #: default: the clean substrate cannot rot, so the paper's cost
        #: experiments skip the (pure-CPU) verification.
        self.verify_reads = False

    def __contains__(self, page_id: PageId) -> bool:
        return page_id in self._pages

    def page_count(self, file: str) -> int:
        """Number of allocated pages in one file."""
        return len(self._files.get(file, ()))

    def files(self) -> list[str]:
        """Every file name with at least one allocated page, sorted."""
        # list() snapshots the items atomically (single bytecode under
        # the GIL); bare iteration races concurrent allocate() calls
        # with "dictionary changed size during iteration".
        return sorted(file for file, pids in list(self._files.items()) if pids)

    def allocate(self, file: str, capacity: int) -> Page:
        """Allocate a fresh page in ``file`` (no I/O is charged)."""
        counter = self._next_number.setdefault(file, itertools.count())
        page_id = PageId(file, next(counter))
        page = Page(page_id, capacity)
        self._pages[page_id] = page
        self._checksums.record(page)
        self._files.setdefault(file, {})[page_id] = None
        return page.clone()

    def read(self, page_id: PageId) -> Page:
        """Fetch a page image from disk, charging one read.

        With ``verify_reads`` enabled the stored image is checked
        against its write-time checksum first; damaged pages raise
        :class:`PageChecksumError` instead of silently serving rot.
        """
        try:
            stored = self._pages[page_id]
        except KeyError:
            raise KeyError(f"no such page: {page_id}") from None
        self.meter.record_read()
        if self.verify_reads and page_checksum(stored) != self._checksums[page_id]:
            raise PageChecksumError(page_id)
        return stored.clone()

    def write(self, page: Page) -> None:
        """Persist a page image, charging one write.

        The disk stores a clone and records the written entries and
        link; no checksum is computed until something checks the page.
        """
        if page.page_id not in self._pages:
            raise KeyError(f"cannot write unallocated page: {page.page_id}")
        self.meter.record_write()
        self._pages[page.page_id] = page.clone()
        self._checksums.record(page)

    def free(self, page_id: PageId) -> None:
        """Deallocate a page (no I/O charged, mirroring the paper)."""
        if self._pages.pop(page_id, None) is not None:
            del self._files[page_id.file][page_id]
        self._checksums.forget(page_id)

    def file_pages(self, file: str) -> list[PageId]:
        """All page ids of a file, in allocation order (a snapshot)."""
        return list(self._files.get(file, ()))

    def verify(self, page_id: PageId) -> str | None:
        """Check one page's at-rest integrity without raising.

        Charges one read (the scrubber pays for its walk) and returns
        ``None`` when the stored image matches its checksum, otherwise
        a short description of the damage.  Unlike :meth:`read` this
        never raises, so an integrity scrub can keep walking past
        damaged pages and report them all.
        """
        stored = self._pages.get(page_id)
        if stored is None:
            return "missing"
        self.meter.record_read()
        if page_checksum(stored) != self._checksums[page_id]:
            return "checksum mismatch"
        return None

    def corrupt(self, page_id: PageId, *, drop_records: int = 1) -> str | None:
        """Damage the stored image *in place* without updating its checksum.

        Models at-rest bit-rot: the next verified read (or scrub) of the
        page detects the divergence.  Returns a description of the
        damage applied, or ``None`` when the page is already damaged or
        unallocated (re-rotting an already-rotten page is a no-op so
        injection counters stay honest).
        """
        stored = self._pages.get(page_id)
        if stored is None:
            return None
        if page_checksum(stored) != self._checksums[page_id]:
            return None
        if stored.records:
            dropped = min(max(drop_records, 1), len(stored.records))
            stored.keep_range(dropped)
            return f"dropped {dropped} record(s)"
        stored.next_page = PageId(page_id.file, page_id.number + 1_000_003)
        return "scrambled successor link"


class BufferPool:
    """LRU page cache in front of a :class:`SimulatedDisk`.

    Only *misses* cost disk reads; dirty pages cost one write when
    flushed (write-back).  ``pin``/``unpin`` keep hot pages resident —
    the paper's nested-loop join assumes the inner relation stays
    buffered after first touch.
    """

    def __init__(self, disk: SimulatedDisk, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"buffer pool capacity must be >= 1, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self._frames: OrderedDict[PageId, Page] = OrderedDict()
        self._dirty: set[PageId] = set()
        self._pinned: set[PageId] = set()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._frames)

    def get(self, page_id: PageId) -> Page:
        """Return the buffered page, reading from disk on a miss."""
        if page_id in self._frames:
            self.hits += 1
            self._frames.move_to_end(page_id)
            return self._frames[page_id]
        self.misses += 1
        page = self.disk.read(page_id)
        self._admit(page)
        return page

    def put(self, page: Page, dirty: bool = True) -> None:
        """Install (or refresh) a page image in the pool."""
        if page.page_id in self._frames:
            self._frames[page.page_id] = page
            self._frames.move_to_end(page.page_id)
        else:
            self._admit(page)
        if dirty:
            self._dirty.add(page.page_id)

    def mark_dirty(self, page_id: PageId) -> None:
        """Flag a buffered page as modified (flushed on eviction)."""
        if page_id not in self._frames:
            raise KeyError(f"cannot dirty a page not in the pool: {page_id}")
        self._dirty.add(page_id)

    def pin(self, page_id: PageId) -> None:
        """Keep a page resident until unpinned (it must be buffered)."""
        if page_id not in self._frames:
            self.get(page_id)
        self._pinned.add(page_id)

    def unpin(self, page_id: PageId) -> None:
        """Release one pinned page."""
        self._pinned.discard(page_id)

    def unpin_all(self) -> None:
        """Release every pin (end of a join)."""
        self._pinned.clear()

    def flush(self, page_id: PageId) -> None:
        """Write one dirty page back to disk."""
        if page_id in self._dirty:
            self.disk.write(self._frames[page_id])
            self._dirty.discard(page_id)

    def flush_all(self) -> None:
        """Write every dirty page back to disk, in page order."""
        for page_id in sorted(self._dirty):
            self.flush(page_id)

    def discard(self, page_id: PageId) -> None:
        """Drop a frame without flushing (for pages being deallocated)."""
        self._frames.pop(page_id, None)
        self._dirty.discard(page_id)
        self._pinned.discard(page_id)

    def invalidate_all(self) -> None:
        """Drop every (clean) frame; dirty pages are flushed first."""
        self.flush_all()
        self._frames.clear()
        self._pinned.clear()

    def _admit(self, page: Page) -> None:
        """Install ``page``, then evict: a victim whose write-back fails
        transiently stays dirty and resident (the pool runs over capacity
        until a later admit evicts it), and ``page`` is never lost."""
        frames = self._frames
        frames[page.page_id] = page
        while len(frames) > self.capacity:
            victim_id = self._next_victim()
            if victim_id in (None, page.page_id):
                # Everything else is pinned; allow the pool to grow rather
                # than deadlock — mirrors the paper's large-memory
                # assumption for the nested-loop inner relation.
                break
            try:
                self.flush(victim_id)
            except TransientIOError:
                break
            del frames[victim_id]

    def _next_victim(self) -> PageId | None:
        for page_id in self._frames:
            if page_id not in self._pinned:
                return page_id
        return None
