"""Materialized views with duplicate counts + aggregate state store."""

import pytest

from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.views.aggregates import make_aggregate
from repro.views.definition import ViewTuple
from repro.views.delta import ChangeSet
from repro.views.matview import (
    AggregateStateStore,
    DuplicateCountError,
    MaterializedView,
)


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

    def test_every_read_path_hands_out_true_identities_and_own_dicts(self, mv):
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
                # The stored record's key, handed over as the identity.
                assert t.identity() == tuple(sorted(t.values.items())), name
                assert t == ViewTuple(t.values) and hash(t) == hash(ViewTuple(t.values))
                assert "_dup" not in t.values
        # A tuple's dict is its own: editing it reaches neither the
        # stored record nor a second read.
        reads["read_range"][0].values["a"] = 99
        assert [t["a"] for t in mv.read_range(0, 9)] == [1, 1, 2, 5]
        record = next(iter(mv.tree.scan_all()))
        with pytest.raises(TypeError):
            record.values["a"] = 99


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
