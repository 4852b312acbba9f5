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
from typing import Any, Iterable, Iterator, Sequence

from repro.storage.bloom import BloomFilter
from repro.storage.bplustree import BPlusTree
from repro.storage.hashindex import HashFile
from repro.storage.pager import BufferPool
from repro.storage.tuples import Record, Schema
from repro.views.delta import DeltaSet

__all__ = [
    "ClusteredRelation",
    "DifferentialRelation",
    "HashedRelation",
    "HypotheticalRelation",
    "SeparateFilesHR",
]

_ROLE_FIELD = "_role"
_SEQ_FIELD = "_seq"
ROLE_APPENDED = "A"
ROLE_DELETED = "D"


def _net_from_entries(relation: str, entries: Iterable[Record]) -> DeltaSet:
    """Build ``A-net``/``D-net`` from raw AD entries, columnar-style.

    One pass extracts ``(seq, role, key, values)`` rows, a sort by
    sequence restores arrival order, and the net toggling runs on
    cheap ``(key, values)`` tokens — ``values`` is the AD format's
    sorted item tuple, so token equality coincides with
    :class:`Record` equality.  Records are constructed only for the
    surviving net entries (an update's cancelled D/A pair never
    builds one), via :meth:`Record.from_sorted_items` which skips
    re-sorting.  Result order and content match feeding each entry to
    :meth:`DeltaSet.add_insert` / :meth:`DeltaSet.add_delete` in
    sequence order (the reference spec in
    ``repro.maintenance.reference``).
    """
    # One C-level extraction per entry; sequence numbers are unique,
    # so a plain tuple sort orders by them without a key function.
    getter = itemgetter(_SEQ_FIELD, _ROLE_FIELD, "_k", "_values")
    rows = [getter(e.values) for e in entries]
    rows.sort()
    inserted: dict[tuple, None] = {}
    deleted: dict[tuple, None] = {}
    for _seq, role, key, values in rows:
        token = (key, values)
        if role == ROLE_APPENDED:
            if token in deleted:
                del deleted[token]
            else:
                inserted[token] = None
        else:
            if token in inserted:
                del inserted[token]
            else:
                deleted[token] = None
    # The token (key, values) is exactly what Record.__hash__ hashes,
    # so survivors are built with their value hash precomputed.
    return DeltaSet.from_disjoint(
        relation,
        [Record.from_sorted_items(k, v, value_hash=hash((k, v))) for k, v in inserted],
        [Record.from_sorted_items(k, v, value_hash=hash((k, v))) for k, v in deleted],
    )


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

    def _edit(self, dropped: Sequence[Any], filed: Sequence[Record]) -> None:
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
        self._edit((key,), ())
        self._file.delete(record)
        return record

    def update_by_key(self, key: Any, **changes: Any) -> tuple[Record, Record]:
        """Modify a tuple in place; returns (old, new)."""
        old = self._by_key.get(key)
        if old is None:
            raise KeyError(f"no tuple with key {key!r} in {self.schema.name!r}")
        new = self.schema.updated(old, **changes)
        self._rewrite(old, new)
        self._edit((key,), (new,))
        return old, new

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

    def _rewrite(self, old: Record, new: Record) -> None:
        self.tree.update(old, new)

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

    def _rewrite(self, old: Record, new: Record) -> None:
        self.file.delete(old)
        self.file.insert(new)

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
        self._pending = DeltaSet(self.schema.name)
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
            hash_key=lambda record: record["_k"],
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
        self._pending.add_insert(record)

    def delete_by_key(self, key: Any) -> Record:
        """Delete a tuple: read it (1 I/O), add an AD entry with role ``D``."""
        current = self.read_by_key(key)
        if current is None:
            raise KeyError(f"no tuple with key {key!r} in {self.schema.name!r}")
        self._files[-1].insert(self._ad_entry(current, ROLE_DELETED))
        self.bloom.add(key)
        self._pending.add_delete(current)
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
        self._pending.add_update(old, new)
        return old, new

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_by_key(self, key: Any) -> Record | None:
        """Bloom-screened read: skip AD entirely for unmodified tuples."""
        return self._lookup_current(key, charge_base_read=True)

    def logical_snapshot(self) -> list[Record]:
        """Current logical contents without charging any I/O.

        Uses the in-memory pending-delta mirror; for baseline/assertion
        paths only (a real client pays a scan).
        """
        deleted = set(self._pending.deleted)
        merged = [r for r in self.base.records_snapshot() if r not in deleted]
        merged.extend(self._pending.inserted)
        return merged

    def logical_by_key(self, key: Any) -> Record | None:
        """One tuple of :meth:`logical_snapshot` by key, or ``None``."""
        for record in self._pending.inserted:
            if record.key == key:
                return record
        record = self.base.peek_by_key(key)
        return None if record in self._pending.deleted else record

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

        The fold is idempotent by construction (delete-if-present,
        replace-on-insert): a fold interrupted mid-way — e.g. by an
        injected storage fault — leaves the AD file intact, and the
        retry re-applies the already-folded prefix harmlessly instead
        of failing on a missing delete or a duplicate insert.
        """
        delta = net if net is not None else self.net_changes()
        base = self.base
        for record in delta.deleted:
            if base.peek_by_key(record.key) is not None:
                base.delete_by_key(record.key)
        for record in delta.inserted:
            if base.peek_by_key(record.key) is not None:
                base.delete_by_key(record.key)
            base.insert(record)
        for file in self._files:
            file.truncate()
        self.bloom.clear()
        self._pending.clear()

    # ------------------------------------------------------------------
    # durability: the AD file's durable form (repro.durability)
    # ------------------------------------------------------------------
    def state_doc(self) -> dict[str, Any]:
        """What a checkpoint carries beyond the base file: the AD
        entries as ``(tuple, role, sequence number)`` in arrival order
        (one read of the whole AD file) and the Bloom filter."""
        entries = sorted(self._ad_entries(), key=itemgetter(_SEQ_FIELD))
        return {
            "entries": [
                (self._unwrap(entry), entry[_ROLE_FIELD], entry[_SEQ_FIELD])
                for entry in entries
            ],
            "bloom": self.bloom.to_dict(),
        }

    def restore_state(self, doc: dict[str, Any]) -> None:
        """Adopt a :meth:`state_doc` into an empty AD file."""
        entries = doc["entries"]
        for record, role, seq in entries:
            if role == ROLE_APPENDED:
                self._files[0].insert(self._ad_entry(record, role, seq))
                self._pending.add_insert(record)
            else:
                self._files[-1].insert(self._ad_entry(record, role, seq))
                self._pending.add_delete(record)
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
    def _ad_entry(self, record: Record, role: str, seq: int | None = None) -> Record:
        values = {
            "_k": record.key,
            # Stored as a sorted item tuple so AD entries stay hashable.
            "_values": tuple(sorted(record.values.items())),
            _ROLE_FIELD: role,
            _SEQ_FIELD: next(self._seq) if seq is None else seq,
        }
        return Record((record.key, values[_SEQ_FIELD], role), values)

    @staticmethod
    def _unwrap(entry: Record) -> Record:
        return Record(entry["_k"], dict(entry["_values"]))

    def _ad_entries(self) -> Iterable[Record]:
        """Every differential entry (reads the whole AD file)."""
        return itertools.chain.from_iterable(map(HashFile.scan_all, self._files))

    def _lookup_current(self, key: Any, charge_base_read: bool) -> Record | None:
        if self.bloom.maybe_contains(key):
            entries = [e for file in self._files for e in file.lookup(key)]
            if entries:
                latest = max(entries, key=lambda e: e[_SEQ_FIELD])
                if latest[_ROLE_FIELD] == ROLE_APPENDED:
                    return self._unwrap(latest)
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
        latest: dict[Any, Record] = {}
        for entry in self._ad_entries():
            key = entry["_k"]
            if key not in latest or entry[_SEQ_FIELD] > latest[key][_SEQ_FIELD]:
                latest[key] = entry
        return {
            key: (self._unwrap(e) if e[_ROLE_FIELD] == ROLE_APPENDED else None)
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
