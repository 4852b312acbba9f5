"""Materialized views with duplicate counts + aggregate state store."""

import random
import zlib

import pytest

from repro.maintenance.reference import apply_changes_serial
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.storage.tuples import Schema
from repro.views.aggregates import make_aggregate
from repro.views.definition import JoinView, SelectProjectView, ViewTuple
from repro.views.delta import ChangeSet
from repro.views.matview import (
    AggregateStateStore,
    DuplicateCountError,
    MaterializedView,
)
from repro.views.predicate import TruePredicate


@pytest.fixture
def pool():
    return BufferPool(SimulatedDisk(CostMeter()), capacity=64)


@pytest.fixture
def mv(pool):
    return MaterializedView("v", pool, view_key="a", records_per_page=4)


def vt(a, extra=0):
    return ViewTuple({"a": a, "x": extra})


class TestDuplicateCounts:
    def test_insert_creates_with_count_one(self, mv):
        mv.insert_tuple(vt(1))
        assert mv.duplicate_count(vt(1)) == 1

    def test_insert_increments(self, mv):
        mv.insert_tuple(vt(1))
        mv.insert_tuple(vt(1), count=2)
        assert mv.duplicate_count(vt(1)) == 3

    def test_delete_decrements(self, mv):
        mv.insert_tuple(vt(1), count=3)
        mv.delete_tuple(vt(1))
        assert mv.duplicate_count(vt(1)) == 2

    def test_delete_to_zero_removes_physically(self, mv):
        mv.insert_tuple(vt(1))
        mv.delete_tuple(vt(1))
        assert mv.duplicate_count(vt(1)) == 0
        assert mv.distinct_count() == 0

    def test_delete_absent_raises(self, mv):
        with pytest.raises(DuplicateCountError):
            mv.delete_tuple(vt(1))

    def test_underflow_raises(self, mv):
        mv.insert_tuple(vt(1))
        with pytest.raises(DuplicateCountError):
            mv.delete_tuple(vt(1), count=2)

    def test_bad_counts_rejected(self, mv):
        with pytest.raises(ValueError):
            mv.insert_tuple(vt(1), count=0)
        mv.insert_tuple(vt(1))
        with pytest.raises(ValueError):
            mv.delete_tuple(vt(1), count=0)

    def test_same_key_different_tuples_tracked_separately(self, mv):
        mv.insert_tuple(vt(1, extra=0))
        mv.insert_tuple(vt(1, extra=9))
        assert mv.duplicate_count(vt(1, extra=0)) == 1
        assert mv.duplicate_count(vt(1, extra=9)) == 1
        assert mv.distinct_count() == 2


class TestBulkLoadScan:
    def test_bulk_load_folds_duplicates(self, mv):
        mv.bulk_load([vt(1), vt(1), vt(2)])
        assert mv.duplicate_count(vt(1)) == 2
        assert mv.total_count() == 3
        assert mv.distinct_count() == 2

    def test_scan_expands_duplicates(self, mv):
        mv.bulk_load([vt(1), vt(1), vt(2)])
        assert sorted(t["a"] for t in mv.scan_all()) == [1, 1, 2]

    def test_scan_range_inclusive(self, mv):
        mv.bulk_load([vt(a) for a in range(10)])
        assert sorted(t["a"] for t in mv.scan_range(3, 5)) == [3, 4, 5]

    def test_every_read_path_hands_out_the_stored_tuples(self, mv):
        mv.bulk_load([vt(1), vt(1), vt(2, extra=(3, 4))])
        mv.insert_tuple(vt(5))
        reads = {
            "read_range": mv.read_range(0, 9),
            "scan_range": list(mv.scan_range(0, 9)),
            "scan_all": list(mv.scan_all()),
        }
        for name, tuples in reads.items():
            assert len(tuples) == 4, name
            for t in tuples:
                # The stored identity, handed out with the tuple.
                assert t.identity() == tuple(sorted(t.values.items())), name
                assert t == ViewTuple(t.values) and hash(t) == hash(ViewTuple(t.values))
                assert "_dup" not in t.values
            # Every path hands out the stored objects: duplicates are one
            # object, and two reads share them.
            assert tuples[0] is tuples[1], name
            assert [id(t) for t in tuples] == [id(t) for t in reads["read_range"]], name
        again = mv.read_range(0, 9)
        assert again is not reads["read_range"] and again[2] is reads["read_range"][2]
        # Shared, so immutable: nothing a reader does reaches the copy.
        with pytest.raises(TypeError):
            again[0].values["a"] = 99
        with pytest.raises(AttributeError):
            again[0].x = 99
        again.append(vt(7))
        assert [t["a"] for t in mv.read_range(0, 9)] == [1, 1, 2, 5]

    @pytest.mark.parametrize("batch", [True, False])
    def test_an_answer_outlives_the_changes_after_it(self, mv, batch):
        mv.bulk_load([vt(1), vt(1), vt(2), vt(3)])
        answer = mv.read_range(0, 9)
        before = [(t, dict(t.values)) for t in answer]
        changes = ChangeSet()
        changes.insert(vt(1), 2)  # a count patched up
        changes.delete(vt(2))  # removed
        changes.insert(vt(3, extra=1))  # a neighbour inserted
        if batch:
            mv.apply_changes(changes)
        else:
            apply_changes_serial(mv, changes)
        assert [(t, dict(t.values)) for t in answer] == before
        assert [t["a"] for t in answer] == [1, 1, 2, 3]
        assert sorted((t["a"], t["x"]) for t in mv.read_range(0, 9)) == [
            (1, 0), (1, 0), (1, 0), (1, 0), (3, 0), (3, 1)
        ]
        # The stored tuple of a patched count is the one the change
        # carried; the answer's object is untouched either way.
        assert mv.duplicate_count(vt(1)) == 4 and mv.duplicate_count(vt(2)) == 0


class TestApplyChanges:
    def test_mixed_change_set(self, mv):
        mv.bulk_load([vt(1), vt(2)])
        changes = ChangeSet()
        changes.insert(vt(3))
        changes.insert(vt(1))
        changes.delete(vt(2))
        inserted, deleted = mv.apply_changes(changes)
        assert (inserted, deleted) == (2, 1)
        assert mv.duplicate_count(vt(1)) == 2
        assert mv.duplicate_count(vt(2)) == 0
        assert mv.duplicate_count(vt(3)) == 1

    def test_empty_change_set_is_noop(self, mv):
        assert mv.apply_changes(ChangeSet()) == (0, 0)


class TestAggregateStateStore:
    def test_initial_state_persisted(self, pool):
        store = AggregateStateStore("s", pool, make_aggregate("sum"))
        assert store.value() == 0

    def test_apply_and_value(self, pool):
        store = AggregateStateStore("s", pool, make_aggregate("sum"))
        assert store.apply([5, 7], []) is True
        assert store.value() == 12
        assert store.apply([], [5]) is True
        assert store.value() == 7

    def test_empty_apply_skips_write(self, pool):
        store = AggregateStateStore("s", pool, make_aggregate("sum"))
        meter = pool.disk.meter
        pool.invalidate_all()
        before = meter.page_writes
        assert store.apply([], []) is False
        pool.flush_all()
        assert meter.page_writes == before

    def test_cold_read_costs_one_io(self, pool):
        store = AggregateStateStore("s", pool, make_aggregate("count"))
        pool.invalidate_all()
        meter = pool.disk.meter
        before = meter.page_reads
        store.value()
        assert meter.page_reads == before + 1

    def test_write_state_round_trip(self, pool):
        store = AggregateStateStore("s", pool, make_aggregate("avg"))
        store.write_state({"sum": 10, "count": 2})
        assert store.value() == 5.0


def seeded_view(seed=1987):
    """A stored view after a fixed seeded history; returns its disk.

    Bulk load with duplicates, batch applies (counts patched up and
    down, entries added and dropped), tuple-path inserts and deletes,
    leaf and internal splits, evictions from a small pool, field orders
    that differ between equal tuples, and non-atom field values.
    """
    rng = random.Random(seed)
    disk = SimulatedDisk(CostMeter())
    mv = MaterializedView("v", BufferPool(disk, capacity=8), view_key="a",
                          records_per_page=4, fanout=4)

    def tup(a, x, flip=False):
        items = [("a", a), ("x", x), ("tag", ("t", x % 3))]
        return ViewTuple(dict(reversed(items) if flip else items))

    mv.bulk_load([tup(rng.randrange(12), rng.randrange(5)) for _ in range(60)])
    for step in range(30):
        changes = ChangeSet()
        for _ in range(6):
            t = tup(rng.randrange(14), rng.randrange(6), flip=rng.random() < 0.3)
            stored = mv.duplicate_count(t) + changes.count(t)
            if stored and rng.random() < 0.5:
                changes.delete(t, rng.randrange(1, stored + 1))
            else:
                changes.insert(t, rng.randrange(1, 3))
        mv.apply_changes(changes)
        t = tup(rng.randrange(14), rng.randrange(6), flip=step % 2 == 0)
        mv.insert_tuple(t, 1 + step % 2)
        if step % 3 == 0:
            mv.delete_tuple(t)
    mv.tree.pool.flush_all()
    return disk


class TestViewLeafChecksumsPinned:
    """Recorded at the commit before the stored copy filed its view
    tuples itself, when a leaf entry held a ``Record`` of the fields plus
    ``_dup``: the same history must record the same CRC32 on every page
    of the view's files, so page content and order are what they were."""

    @pytest.mark.parametrize("file, pages, first_three, crc_of_all", [
        ("view.v.int", 13, [2475308859, 310889202, 3745677716], 2512541921),
        ("view.v.leaf", 26, [3748220882, 3141062118, 3319521577], 42395022),
    ])
    def test_recorded_checksums(self, file, pages, first_three, crc_of_all):
        disk = seeded_view()
        page_ids = disk.file_pages(file)
        sums = [disk._checksums[page_id] for page_id in page_ids]
        assert len(sums) == pages
        assert sums[:3] == first_three
        assert zlib.crc32(repr(sums).encode()) == crc_of_all
        assert all(disk.verify(page_id) is None for page_id in page_ids)


R = Schema("r", ("id", "a", "v"), "id")
R1 = Schema("r1", ("id", "a", "j"), "id")
R2 = Schema("r2", ("j", "c"), "j")
#: Real definitions whose field orders are not their tuples' name order:
#: a projection ``id, a, v`` keyed on ``a``, and a join that puts the
#: outer side's ``id, a`` before the inner side's ``j, c``.
DEFINITIONS = {
    "select-project": SelectProjectView(
        "v", "r", TruePredicate(), ("id", "a", "v"), "a"),
    "join": JoinView("v", "r1", "r2", "j", TruePredicate(),
                     ("id", "a"), ("j", "c"), "a"),
}


def definition_history(name, seed=25):
    """:func:`seeded_view`'s history over tuples the definition builds."""
    definition = DEFINITIONS[name]
    rng = random.Random(seed)
    disk = SimulatedDisk(CostMeter())
    mv = MaterializedView("v", BufferPool(disk, capacity=8), view_key="a",
                          records_per_page=4, fanout=4)

    def tup(a, x):
        if name == "join":
            return definition.combine(R1.new_record(id=x, a=a, j=x % 3),
                                      R2.new_record(j=x % 3, c=("c", x % 2)))
        return definition.project(R.new_record(id=x, a=a, v=("t", x % 3)))

    mv.bulk_load([tup(rng.randrange(12), rng.randrange(5)) for _ in range(60)])
    for step in range(30):
        changes = ChangeSet()
        for _ in range(6):
            t = tup(rng.randrange(14), rng.randrange(6))
            stored = mv.duplicate_count(t) + changes.count(t)
            if stored and rng.random() < 0.5:
                changes.delete(t, rng.randrange(1, stored + 1))
            else:
                changes.insert(t, rng.randrange(1, 3))
        mv.apply_changes(changes)
        t = tup(rng.randrange(14), rng.randrange(6))
        mv.insert_tuple(t, 1 + step % 2)
        if step % 3 == 0:
            mv.delete_tuple(t)
    mv.tree.pool.flush_all()
    return disk


class TestDefinitionLeafChecksumsPinned:
    """Recorded at the commit before a view tuple became a positional
    row: the history of :func:`definition_history`, over tuples a real
    projection and a real join build, records the same CRC32 on every
    page — the page image keeps the definition's field order."""

    @pytest.mark.parametrize("name, file, pages, first_three, crc_of_all", [
        ("select-project", "view.v.int", 13,
         [918768729, 2866059336, 1383381714], 978333070),
        ("select-project", "view.v.leaf", 25,
         [1333281950, 2854538966, 1925090958], 2037821550),
        ("join", "view.v.int", 12,
         [1051636871, 2095383515, 1352197122], 1030825059),
        ("join", "view.v.leaf", 25,
         [4019536094, 1257512894, 3544740065], 1914271753),
    ])
    def test_recorded_checksums(self, name, file, pages, first_three, crc_of_all):
        disk = definition_history(name)
        page_ids = disk.file_pages(file)
        sums = [disk._checksums[page_id] for page_id in page_ids]
        assert len(sums) == pages
        assert sums[:3] == first_three
        assert zlib.crc32(repr(sums).encode()) == crc_of_all
        assert all(disk.verify(page_id) is None for page_id in page_ids)
