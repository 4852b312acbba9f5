"""Hypothetical relations: base file + differential ``AD`` file.

Section 2.2's deferred maintenance substrate.  A relation is stored as

* a **base file** ``R`` — a clustered B+-tree on the view-predicate
  field (Section 3.1's access-method table), plus
* a combined **differential file** ``AD`` — clustered hashing on the
  tuple key, holding appended and deleted tuples distinguished by a
  ``role`` attribute, fronted by a Bloom filter so reads of unmodified
  tuples skip it (Severance & Lohman).

The update protocol is the paper's 3-I/O sequence: read the current
tuple, read the AD page where the new value lands, write that page
(both the deleted old value and the appended new value hash to the same
page when the key is unchanged).  :class:`SeparateFilesHR` implements
the rejected 5-I/O design (separate ``A`` and ``D`` files) for the
ablation benchmark.

``net_changes`` computes the paper's ``A-net``/``D-net`` by reading the
whole ``AD`` file (the ``C_ADread`` cost); ``reset`` folds the changes
into the base file and clears ``AD`` — Section 2.2.1's
``R := (R ∪ A) - D;  A := ∅;  D := ∅``.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from repro.storage.bloom import BloomFilter
from repro.storage.bplustree import BPlusTree
from repro.storage.hashindex import HashFile
from repro.storage.pager import BufferPool
from repro.storage.tuples import Record, Schema
from repro.views.delta import DeltaSet

__all__ = [
    "ADEntry",
    "ClusteredRelation",
    "DifferentialRelation",
    "HashedRelation",
    "HypotheticalRelation",
    "SeparateFilesHR",
]

ROLE_APPENDED = "A"
ROLE_DELETED = "D"
#: What the AD file hashes an entry on (its tuple's key) and what sorts
#: entries into arrival order (its sequence number).
_ENTRY_KEY, _ENTRY_SEQ = itemgetter(2), itemgetter(0)
#: ``pop``'s answer when a record is not pending on that side.
_ABSENT = object()


class ADEntry(NamedTuple):
    """One ``AD`` entry: arrival number, role, the tuple's key and the
    record as it was given.  Sequence numbers are unique, so rows sort
    by arrival and never compare their records.  The ``repr`` (the page
    image, rendered only when a checksum is asked for) is the one AD
    entries always had: a record of ``_k``, ``_values`` (the record's
    ``identity()``), ``_role``, ``_seq`` keyed ``(key, seq, role)``."""

    seq: int
    role: str
    key: Any
    record: Record

    def __repr__(self) -> str:
        key, seq, role = repr(self.key), repr(self.seq), repr(self.role)
        return (
            f"Record(key=({key}, {seq}, {role}), _k={key}, "
            f"_values={self.record.identity()!r}, _role={role}, _seq={seq})"
        )


def _net_from_entries(relation: str, entries: Iterable[ADEntry]) -> DeltaSet:
    """Build ``relation``'s ``A-net``/``D-net`` from raw AD entries.

    A sort of the rows restores arrival order, and the toggling runs
    straight on a fresh delta set's two dicts, keyed by the entries'
    records (which compare and hash by key and ``identity()``).  One
    ``pop`` both finds and cancels a pending opposite entry, so a
    cancelled entry hashes its record once.  The survivors are the
    records as they were given.  Result order and content match feeding
    each entry to :meth:`DeltaSet.add_insert` /
    :meth:`DeltaSet.add_delete` in sequence order (the reference spec in
    ``repro.maintenance.reference``).
    """
    delta = DeltaSet(relation)
    inserted, deleted = delta._inserted, delta._deleted
    for _seq, role, _key, record in sorted(entries, key=_ENTRY_SEQ):
        if role == ROLE_APPENDED:
            if deleted.pop(record, _ABSENT) is _ABSENT:
                inserted[record] = None
        elif inserted.pop(record, _ABSENT) is _ABSENT:
            deleted[record] = None
    return delta


class _KeyedFile:
    """One clustered file plus a key directory: a plain stored relation.

    The directory maps tuple keys to records so key lookups cost the
    paper's single I/O (a secondary access path the cost model assumes
    but does not itemize); scans and maintenance go through the file
    and are charged page-accurately.

    Every relation states the same facts, and the catalog reads
    nothing else: ``organisation`` (``"btree"`` or ``"hash"``),
    ``organised_on`` (that field), ``base`` (the plain file),
    ``differential`` and ``pending`` (changes not yet folded: 0 here).
    """

    differential = False
    pending = 0

    def __init__(
        self, schema: Schema, pool: BufferPool, organised_on: str, block_bytes: int
    ) -> None:
        if organised_on not in schema.fields:
            raise ValueError(
                f"cannot {self._verb} {schema.name!r} on unknown field {organised_on!r}"
            )
        self.schema = schema
        self.pool = pool
        self.organised_on = organised_on
        self.records_per_page = schema.records_per_page(block_bytes)
        self._by_key: dict[Any, Record] = {}
        #: Keys edited since a checkpoint's full image of this file, in edit
        #: order; ``None`` until a checkpoint that published one installs a dict.
        self.touched: dict[Any, None] | None = None

    def __len__(self) -> int:
        return len(self._by_key)

    @property
    def meter(self):
        return self.pool.disk.meter

    @property
    def base(self) -> "_KeyedFile":
        return self

    def _edit(self, dropped: Iterable[Any], filed: Sequence[Record]) -> None:
        """The one place the key directory changes: forget the ``dropped``
        keys, then file each record under its key (a new key goes last).
        On a file a checkpoint has captured, each key also moves to the
        end of :attr:`touched`, as it just did in the directory's order."""
        by_key = self._by_key
        for key in dropped:
            del by_key[key]
        for record in filed:
            by_key[record.key] = record
        touched = self.touched
        if touched is not None:
            for key in itertools.chain(dropped, (record.key for record in filed)):
                touched.pop(key, None)
                touched[key] = None

    def bulk_load(self, records: list[Record]) -> None:
        """Initial load (one write per page; meter usually reset after)."""
        self._file.bulk_load(records)
        self.touched = None  # the file was rebuilt: no image describes it
        self._edit((), records)

    def insert(self, record: Record) -> None:
        """Insert a new tuple (file read + write)."""
        if record.key in self._by_key:
            raise KeyError(f"duplicate key {record.key!r} in {self.schema.name!r}")
        self._file.insert(record)
        self._edit((), (record,))

    def delete_by_key(self, key: Any) -> Record:
        """Delete and return the tuple with the given key."""
        record = self._by_key.get(key)
        if record is None:
            raise KeyError(f"no tuple with key {key!r} in {self.schema.name!r}")
        self._unfile(record)
        self._edit((key,), ())
        return record

    def update_by_key(self, key: Any, **changes: Any) -> tuple[Record, Record]:
        """Modify a tuple in place; returns (old, new)."""
        old = self._by_key.get(key)
        if old is None:
            raise KeyError(f"no tuple with key {key!r} in {self.schema.name!r}")
        new = self.schema.updated(old, **changes)
        self._unfile(old)
        self._file.insert(new)
        self._edit((key,), (new,))
        return old, new

    def fold(self, deleted: Iterable[Record], inserted: Iterable[Record]) -> None:
        """Apply a net change (one record per key and side at most):
        drop each ``deleted`` record's key, then file each ``inserted``
        record in place of its key's tuple.  Idempotent, so a fold a
        storage fault stopped is retried whole.

        The file is edited in one pass in its own order (the file's
        ``position``): the filed version of every net key is
        removed and every inserted record added, a removal first at an
        equal position, so a batch meets each leaf or chain in one run.
        An addition first drops its key's older version wherever that
        sits, so no key is ever filed twice.  The key directory gets one
        edit in net-change order, made also when a fault stops the pass,
        so it always names what the file holds."""
        by_key, position = self._by_key, self._file.position
        inserted = list(inserted)
        net_keys = dict.fromkeys(itertools.chain(
            (record.key for record in deleted), (record.key for record in inserted)
        ))
        steps = sorted(
            [(position(by_key[key]), 0, by_key[key]) for key in net_keys if key in by_key]
            + [(position(record), 1, record) for record in inserted],
            key=itemgetter(0, 1),
        )
        dropped: set[Any] = set()
        filed: set[Any] = set()
        try:
            for _, adding, record in steps:
                key = record.key
                if key in by_key and key not in dropped:
                    self._unfile(by_key[key])
                    dropped.add(key)
                if adding:
                    self._file.insert(record)
                    filed.add(key)
        finally:
            self._edit(
                [key for key in net_keys if key in dropped],
                [record for record in inserted if record.key in filed],
            )

    def _unfile(self, record: Record) -> None:
        """Delete a record the key directory names from the file."""
        if not self._file.delete(record):
            raise RuntimeError(
                f"{self.schema.name!r} files no tuple {record!r} under its key"
            )

    def peek_by_key(self, key: Any) -> Record | None:
        """Key lookup without I/O (bookkeeping paths only)."""
        return self._by_key.get(key)

    def contains_key(self, key: Any) -> bool:
        """Key-existence check without I/O (catalog/bookkeeping)."""
        return key in self._by_key

    def scan_all(self) -> Iterator[Record]:
        """Full scan (one read per page of the file)."""
        return self._file.scan_all()

    def records_snapshot(self) -> list[Record]:
        """All records without charging I/O (used to seed recomputation
        baselines in tests; never on a costed path)."""
        return list(self._by_key.values())

    # Nothing is ever pending, so logical content is the file's.
    logical_snapshot = records_snapshot
    logical_by_key = peek_by_key


class ClusteredRelation(_KeyedFile):
    """A relation stored as a clustered B+-tree on one field."""

    organisation = "btree"
    _verb = "cluster"

    def __init__(
        self,
        schema: Schema,
        pool: BufferPool,
        clustered_on: str,
        block_bytes: int = 4000,
        fanout: int = 200,
    ) -> None:
        super().__init__(schema, pool, clustered_on, block_bytes)
        self.clustered_on = clustered_on
        self.tree = self._file = BPlusTree(
            schema.name,
            pool,
            sort_key=lambda record: record[clustered_on],
            records_per_leaf=self.records_per_page,
            fanout=fanout,
        )

    def read_by_key(self, key: Any) -> Record | None:
        """Fetch one tuple by key, charging the paper's one I/O."""
        self.meter.record_read()
        return self._by_key.get(key)

    def range_scan(self, lo: Any, hi: Any) -> Iterator[Record]:
        """Clustered range scan on the clustering field."""
        return self.tree.range_scan(lo, hi)


class HashedRelation(_KeyedFile):
    """A relation stored as a clustered hash file on one field.

    Section 3.1 stores the join view's inner relation ``R2`` with
    clustered hashing on the join field; it is probed during joins and
    view refreshes and — in the paper's Model 2 — never updated.
    """

    organisation = "hash"
    _verb = "hash"

    def __init__(
        self,
        schema: Schema,
        pool: BufferPool,
        hashed_on: str,
        block_bytes: int = 4000,
        buckets: int | None = None,
    ) -> None:
        super().__init__(schema, pool, hashed_on, block_bytes)
        self.hashed_on = hashed_on
        self.file = self._file = HashFile(
            schema.name,
            pool,
            hash_key=lambda record: record[hashed_on],
            records_per_page=self.records_per_page,
            buckets=buckets if buckets is not None else 64,
        )

    def probe(self, value: Any) -> list[Record]:
        """Hash lookup by the clustering field (reads one chain)."""
        return self.file.lookup(value)

    def read_by_key(self, key: Any) -> Record | None:
        """Fetch one tuple of a relation hashed on its key (one probe)."""
        matches = self.file.lookup(key)
        return matches[0] if matches else None

    def probe_pinned(self, value: Any) -> list[Record]:
        """Hash lookup that leaves touched pages pinned (join inner)."""
        return self.file.lookup_pinned(value)


class DifferentialRelation:
    """Any keyed base file + ``AD`` differential file + Bloom filter.

    Section 2.2's protocol, written once for both base organizations
    (the B+-tree-clustered :class:`HypotheticalRelation` and the
    hash-clustered ``HashedHypotheticalRelation``).  Logical content
    ("the true value of the relation") is ``(R ∪ A) - D``; all
    modifications land in ``AD`` until :meth:`reset` folds them down.
    The base file answers ``read_by_key`` (one charged read),
    ``peek_by_key`` (no I/O), ``insert`` and ``delete_by_key``, and
    its organisation is the relation's.
    """

    differential = True

    def __init__(self, base: Any, bloom_bits: int = 4096, ad_buckets: int = 64) -> None:
        self.base = base
        self.schema = base.schema
        self.pool = base.pool
        self.organisation = base.organisation
        self.organised_on = base.organised_on
        self.ad = self._differential_file("ad", ad_buckets)
        #: The differential file(s): appended entries land in the
        #: first, deleted ones in the last (here, one combined file).
        self._files: tuple[HashFile, ...] = (self.ad,)
        self.bloom = BloomFilter(bloom_bits)
        self._seq = itertools.count()
        #: Per key edited since the last fold, its tuple now (``None``:
        #: deleted), in the order the keys were last edited: the logical
        #: content's in-memory mirror, read without I/O.
        self._latest: dict[Any, Record | None] = {}
        #: Times the whole AD file has been read to compute A-net/D-net.
        #: The shared-delta planner's proof obligation: one refresh
        #: epoch must bump this once per relation, not once per view.
        self.net_reads = 0

    @property
    def meter(self):
        return self.base.meter

    def _differential_file(self, suffix: str, buckets: int) -> HashFile:
        """A differential file: clustered hashing on the tuple key."""
        return HashFile(
            f"{self.schema.name}.{suffix}",
            self.pool,
            hash_key=_ENTRY_KEY,
            records_per_page=self.base.records_per_page,
            buckets=buckets,
        )

    # ------------------------------------------------------------------
    # modifications (all go to AD)
    # ------------------------------------------------------------------
    def insert(self, record: Record) -> None:
        """Append a tuple: one AD entry with role ``A``."""
        if self._lookup_current(record.key, charge_base_read=False) is not None:
            raise KeyError(
                f"duplicate key {record.key!r} in hypothetical {self.schema.name!r}"
            )
        self._files[0].insert(self._ad_entry(record, ROLE_APPENDED))
        self.bloom.add(record.key)
        self._edited(record.key, record)

    def delete_by_key(self, key: Any) -> Record:
        """Delete a tuple: read it (1 I/O), add an AD entry with role ``D``."""
        current = self.read_by_key(key)
        if current is None:
            raise KeyError(f"no tuple with key {key!r} in {self.schema.name!r}")
        self._files[-1].insert(self._ad_entry(current, ROLE_DELETED))
        self.bloom.add(key)
        self._edited(key, None)
        return current

    def update_by_key(self, key: Any, **changes: Any) -> tuple[Record, Record]:
        """The 3-I/O update: read tuple, read AD page, write AD page.

        The old value (role ``D``) and new value (role ``A``) land on
        the same AD page because they hash on the same key.  (Five
        I/Os with separate files: R read, D and A each read and written.)
        """
        old = self.read_by_key(key)  # I/O #1
        if old is None:
            raise KeyError(f"no tuple with key {key!r} in {self.schema.name!r}")
        new = self.schema.updated(old, **changes)
        deleted = self._ad_entry(old, ROLE_DELETED)
        appended = self._ad_entry(new, ROLE_APPENDED)
        if len(self._files) == 1:
            # I/O #2 and #3: one chain read + one write for both entries.
            self.ad.insert_pair(deleted, appended)
        else:
            self._files[-1].insert(deleted)  # I/O #2-3
            self._files[0].insert(appended)  # I/O #4-5
        self.bloom.add(old.key)
        self.bloom.add(new.key)
        self._edited(old.key, None)
        self._edited(new.key, new)
        return old, new

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_by_key(self, key: Any) -> Record | None:
        """Bloom-screened read: skip AD entirely for unmodified tuples."""
        return self._lookup_current(key, charge_base_read=True)

    def logical_snapshot(self) -> list[Record]:
        """Current logical contents without charging any I/O.

        Uses the in-memory mirror of the pending changes; for
        baseline/assertion paths only (a real client pays a scan).  A key
        whose changes cancel out keeps its place in the base file.
        """
        base = self.base
        changed = {k: r for k, r in self._latest.items() if r != base.peek_by_key(k)}
        merged = [r for r in base.records_snapshot() if r.key not in changed]
        merged.extend(r for r in changed.values() if r is not None)
        return merged

    def logical_by_key(self, key: Any) -> Record | None:
        """One tuple of :meth:`logical_snapshot` by key, or ``None``."""
        record = self.base.peek_by_key(key)
        latest = self._latest.get(key, record)
        return record if latest == record else latest

    # ------------------------------------------------------------------
    # deferred-refresh support
    # ------------------------------------------------------------------
    def net_changes(self) -> DeltaSet:
        """Compute ``A-net``/``D-net`` by reading the whole AD file."""
        self.net_reads += 1
        return _net_from_entries(self.schema.name, self._ad_entries())

    def ad_entry_count(self) -> int:
        """Entries currently in AD (no I/O; catalog statistic)."""
        return sum(map(len, self._files))

    pending = property(ad_entry_count, doc="Changes awaiting the next fold.")

    def ad_page_count(self) -> int:
        """Pages currently allocated to AD (no I/O)."""
        return sum(map(HashFile.page_count, self._files))

    def reset(self, net: DeltaSet | None = None) -> None:
        """Fold AD into the base file: ``R := (R ∪ A) - D``; clear AD.

        The base-file writes here are the "normal" update cost every
        scheme eventually pays; only the AD traffic before this point
        is deferred-specific overhead.  ``net`` may be passed when the
        caller just computed it (avoids a second AD scan).

        The fold is idempotent by construction (the base file's
        :meth:`_KeyedFile.fold`): a fold interrupted mid-way — e.g. by an
        injected storage fault — leaves the AD file intact, and the
        retry re-applies the already-folded prefix harmlessly instead
        of failing on a missing delete or a duplicate insert.
        """
        delta = net if net is not None else self.net_changes()
        self.base.fold(delta.deleted, delta.inserted)
        for file in self._files:
            file.truncate()
        self.bloom.clear()
        self._latest.clear()

    # ------------------------------------------------------------------
    # durability: the AD file's durable form (repro.durability)
    # ------------------------------------------------------------------
    def state_doc(self) -> dict[str, Any]:
        """What a checkpoint carries beyond the base file: the AD
        entries as ``(tuple, role, sequence number)`` in arrival order
        (one read of the whole AD file) and the Bloom filter."""
        return {
            "entries": [
                (entry.record, entry.role, entry.seq)
                for entry in sorted(self._ad_entries(), key=_ENTRY_SEQ)
            ],
            "bloom": self.bloom.to_dict(),
        }

    def restore_state(self, doc: dict[str, Any]) -> None:
        """Adopt a :meth:`state_doc` into an empty AD file."""
        entries = doc["entries"]
        for record, role, seq in entries:
            appended = role == ROLE_APPENDED
            self._files[0 if appended else -1].insert(self._ad_entry(record, role, seq))
            self._edited(record.key, record if appended else None)
        last = max((seq for _record, _role, seq in entries), default=-1)
        self._seq = itertools.count(last + 1)
        bloom = doc["bloom"]
        if (self.bloom.bits, self.bloom.hashes) == (bloom["bits"], bloom["hashes"]):
            self.bloom = BloomFilter.from_dict(bloom)
        else:  # sizing drifted across versions: re-derive from the entries
            for record, _role, _seq in entries:
                self.bloom.add(record.key)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ad_entry(self, record: Record, role: str, seq: int | None = None) -> ADEntry:
        return ADEntry(next(self._seq) if seq is None else seq, role, record.key, record)

    def _edited(self, key: Any, record: Record | None) -> None:
        self._latest.pop(key, None)
        self._latest[key] = record

    def _ad_entries(self) -> Iterable[ADEntry]:
        """Every differential entry (reads the whole AD file)."""
        return itertools.chain.from_iterable(map(HashFile.scan_all, self._files))

    def _lookup_current(self, key: Any, charge_base_read: bool) -> Record | None:
        if self.bloom.maybe_contains(key):
            entries = [e for file in self._files for e in file.lookup(key)]
            if entries:
                latest = max(entries)
                if latest.role == ROLE_APPENDED:
                    return latest.record
                return None  # most recent action was a delete
            # False drop: fall through to the base file.
        if charge_base_read:
            return self.base.read_by_key(key)
        return self.base.peek_by_key(key)


class HypotheticalRelation(DifferentialRelation):
    """Clustered B+-tree base relation + ``AD`` file (Section 2.2)."""

    # Bound in this class's own namespace as well: the end-to-end
    # benchmark's tracer wraps them as HypotheticalRelation's.
    net_changes = DifferentialRelation.net_changes
    reset = DifferentialRelation.reset

    def scan_logical(self) -> Iterator[Record]:
        """Scan ``(R ∪ A) - D``: base scan merged with AD contents.

        Reads every base leaf page and every AD page once.
        """
        overlay = self._overlay_by_key()
        for record in self.base.scan_all():
            if record.key in overlay:
                continue
            yield record
        for key, record in overlay.items():
            if record is not None:
                yield record

    def _overlay_by_key(self) -> dict[Any, Record | None]:
        """Latest AD action per key (None = deleted); reads all of AD."""
        latest: dict[Any, ADEntry] = {}
        for entry in self._ad_entries():
            if entry.key not in latest or entry > latest[entry.key]:
                latest[entry.key] = entry
        return {
            key: (e.record if e.role == ROLE_APPENDED else None)
            for key, e in latest.items()
        }


class SeparateFilesHR(HypotheticalRelation):
    """The rejected design: separate ``A`` and ``D`` hash files.

    Section 2.2.2: "If separate files for A and D were used, at least
    five I/Os would be required rather than three since R must be read,
    and A and D must both be read and written."  Used only by the
    ablation benchmark.
    """

    def __init__(
        self,
        base: ClusteredRelation,
        bloom_bits: int = 4096,
        ad_buckets: int = 64,
    ) -> None:
        super().__init__(base, bloom_bits=bloom_bits, ad_buckets=ad_buckets)
        self.a_file = self._differential_file("a", ad_buckets)
        self.d_file = self._differential_file("d", ad_buckets)
        self._files = (self.a_file, self.d_file)
