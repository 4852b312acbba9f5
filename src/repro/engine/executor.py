"""Query execution plans for query modification (Section 3.2.3/3.4.3).

Query modification rewrites a view query against the base relations;
the paper costs three single-relation plans — clustered index scan,
unclustered (secondary) index scan, sequential scan — and one join
plan, nested loops with a hash-indexed inner relation whose pages stay
in the buffer pool.

The unclustered plan uses an in-memory :class:`SecondaryIndex`: the
paper's formula ``y(N, b, N*f*f_v)`` charges only the *data page*
fetches, ignoring index I/O, and the simulation mirrors that.  The
Yao-function behaviour emerges physically: repeated fetches hitting the
same data page cost one read because the page is buffered.
"""

from __future__ import annotations

import bisect
from typing import Any

from repro.hr.differential import ClusteredRelation
from repro.storage.columnar import ColumnBatch
from repro.storage.hashindex import HashFile
from repro.storage.pager import CostMeter
from repro.storage.tuples import Record
from repro.views.definition import JoinView, ViewTuple
from repro.views.predicate import Predicate

__all__ = [
    "SecondaryIndex",
    "clustered_scan",
    "unclustered_scan",
    "sequential_scan",
    "selection_scan",
    "nested_loop_join",
]


class SecondaryIndex:
    """Memory-resident secondary index: field value -> tuple keys.

    Maintained alongside the relation by the database; lookups charge
    no I/O (see module docstring).
    """

    def __init__(self, relation: ClusteredRelation, field: str) -> None:
        if field not in relation.schema.fields:
            raise ValueError(
                f"cannot index {relation.schema.name!r} on unknown field {field!r}"
            )
        self.relation = relation
        self.field = field
        self._entries: list[tuple[Any, Any]] = []  # (field value, key), sorted
        for record in relation.records_snapshot():
            self._entries.append((record[field], record.key))
        self._entries.sort()

    def __len__(self) -> int:
        return len(self._entries)

    def on_insert(self, record: Record) -> None:
        """Track a newly inserted tuple."""
        bisect.insort(self._entries, (record[self.field], record.key))

    def on_delete(self, record: Record) -> None:
        """Drop a deleted tuple's entry."""
        entry = (record[self.field], record.key)
        index = bisect.bisect_left(self._entries, entry)
        if index < len(self._entries) and self._entries[index] == entry:
            del self._entries[index]

    def on_update(self, old: Record, new: Record) -> None:
        """Move an updated tuple's entry to its new field value."""
        self.on_delete(old)
        self.on_insert(new)

    def keys_in_range(self, lo: Any, hi: Any) -> list[Any]:
        """Keys of tuples with ``lo <= field <= hi``."""
        start = bisect.bisect_left(self._entries, (lo,))
        keys = []
        for value, key in self._entries[start:]:
            if value > hi:
                break
            keys.append(key)
        return keys


def clustered_scan(
    relation: ClusteredRelation,
    lo: Any,
    hi: Any,
    predicate: Predicate,
    meter: CostMeter,
) -> list[Record]:
    """Clustered (primary) index scan: no extra tuples are read.

    One B+-tree descent, then leaf pages of the range; every tuple in
    the range is screened at ``c1``.
    """
    result: list[Record] = []
    for records in relation.tree.range_batches(lo, hi):
        meter.record_screen(len(records))
        batch = ColumnBatch.from_records(records)
        result.extend(batch.take(predicate.matches_batch(batch)))
    return result


def unclustered_scan(
    relation: ClusteredRelation,
    index: SecondaryIndex,
    lo: Any,
    hi: Any,
    predicate: Predicate,
    meter: CostMeter,
) -> list[Record]:
    """Secondary index scan: fetch each matching tuple's data page.

    Each fetched tuple is screened.  Distinct-page behaviour (the Yao
    function) emerges from buffer-pool hits on shared pages.
    """
    result = []
    for key in index.keys_in_range(lo, hi):
        fetched = _fetch_by_key(relation, key)
        if fetched is None:
            continue
        meter.record_screen()
        if predicate.matches(fetched):
            result.append(fetched)
    return result


def _fetch_by_key(relation: ClusteredRelation, key: Any) -> Record | None:
    """Read one tuple's data page via the clustered tree.

    The tuple's position in the clustered order is its clustering-field
    value; internal index pages are buffer-resident after first touch
    so repeated fetches cost ~one leaf read each (or zero when the leaf
    is already buffered).
    """
    probe = relation.peek_by_key(key)
    if probe is None:
        return None
    cluster_value = probe[relation.clustered_on]
    for record in relation.range_scan(cluster_value, cluster_value):
        if record.key == key:
            return record
    return None


def sequential_scan(
    relation: ClusteredRelation, predicate: Predicate, meter: CostMeter
) -> list[Record]:
    """Full scan: every page read, every tuple screened."""
    result: list[Record] = []
    for batch in relation.tree.scan_batches():
        meter.record_screen(len(batch))
        result.extend(batch.take(predicate.matches_batch(batch)))
    return result


def selection_scan(
    relation: ClusteredRelation, predicate: Predicate, meter: CostMeter
) -> list[Record]:
    """``sigma_predicate(R)`` by the cheaper of the two base plans.

    Scans the predicate's interval on the clustering field when it has
    one (the paper's clustered-scan recomputation), else the whole
    relation.  What an aggregate is recomputed from and what a
    snapshot is rebuilt from.
    """
    usable = [iv for iv in predicate.intervals() if iv.field == relation.clustered_on]
    if usable:
        return clustered_scan(
            relation,
            min(iv.lo for iv in usable),
            max(iv.hi for iv in usable),
            predicate,
            meter,
        )
    return sequential_scan(relation, predicate, meter)


def nested_loop_join(
    view: JoinView,
    outer: ClusteredRelation,
    inner_index: HashFile,
    lo: Any,
    hi: Any,
    meter: CostMeter,
) -> list[ViewTuple]:
    """Nested loops with a hash-indexed inner relation (Section 3.4.3).

    The outer relation is scanned clustered over ``[lo, hi]`` (the view
    query's range on the view key); qualifying tuples probe the inner
    hash index.  Probed inner pages are pinned so each is read at most
    once per join ("pages of R2 stay in the buffer pool throughout the
    computation").  CPU: one screen per outer tuple scanned, one match
    per probe.
    """
    pool = outer.pool
    result = []
    try:
        for outer_record in outer.range_scan(lo, hi):
            meter.record_screen()
            if not view.predicate.matches(outer_record):
                continue
            join_value = outer_record[view.join_field]
            for inner_record in inner_index.lookup_pinned(join_value):
                meter.record_screen()  # match cost, c1 per joining pair
                result.append(view.combine(outer_record, inner_record))
    finally:
        pool.unpin_all()
    return result
