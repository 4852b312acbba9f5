"""Batch kernels are exactly their tuple-at-a-time specifications.

Every vectorized hot path keeps its record-at-a-time formulation as an
executable spec — the per-record ``matches`` / ``screen`` methods and
the serial functions in ``repro.maintenance.reference``.  Hypothesis
drives random predicates, batches, AD entry streams and change sets
through both formulations and asserts they are indistinguishable in
*every* observable: results, :class:`CostMeter` page/CPU totals,
screening statistics, and (for the stored view) the byte-for-byte
on-disk page images.
"""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hr.differential import ROLE_APPENDED, ROLE_DELETED, ADEntry, _net_from_entries
from repro.maintenance.reference import (
    aggregate_changes_serial,
    apply_changes_serial,
    net_from_entries_serial,
    screen_serial,
    select_project_changes_serial,
)
from repro.maintenance.screening import TwoStageScreen
from repro.storage.columnar import ColumnBatch, SelectionVector
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.storage.tuples import Record
from repro.views.definition import AggregateView, SelectProjectView, ViewTuple
from repro.views.delta import (
    ChangeSet,
    DeltaSet,
    aggregate_changes,
    select_project_changes,
)
from repro.views.matview import MaterializedView
from repro.views.predicate import (
    AndPredicate,
    ComparisonPredicate,
    IntervalPredicate,
    NotPredicate,
    OrPredicate,
    TruePredicate,
)

FIELDS = ("a", "b")
values = st.integers(min_value=-5, max_value=15)


@st.composite
def record_lists(draw):
    """Records over a small domain; ``b`` is sometimes absent (the
    columnar kernels must treat a missing field exactly like
    ``Record.get`` does)."""
    n = draw(st.integers(min_value=0, max_value=25))
    records = []
    for i in range(n):
        fields = {"a": draw(values)}
        if draw(st.booleans()):
            fields["b"] = draw(values)
        records.append(Record(i, fields))
    return records


@st.composite
def interval_predicates(draw):
    field = draw(st.sampled_from(FIELDS))
    lo, hi = sorted((draw(values), draw(values)))
    return IntervalPredicate(field, lo, hi)


comparison_predicates = st.builds(
    ComparisonPredicate,
    st.sampled_from(FIELDS),
    st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    values,
)

leaf_predicates = st.one_of(
    st.just(TruePredicate()), interval_predicates(), comparison_predicates
)

predicates = st.recursive(
    leaf_predicates,
    lambda children: st.one_of(
        st.builds(lambda cs: AndPredicate(tuple(cs)),
                  st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda cs: OrPredicate(tuple(cs)),
                  st.lists(children, min_size=1, max_size=3)),
        st.builds(NotPredicate, children),
    ),
    max_leaves=6,
)


class TestMatchesBatch:
    @given(records=record_lists(), predicate=predicates)
    @settings(max_examples=120, deadline=None)
    def test_full_batch_equals_per_record(self, records, predicate):
        batch = ColumnBatch.from_records(records)
        selection = predicate.matches_batch(batch)
        expected = [i for i, r in enumerate(records) if predicate.matches(r)]
        assert selection.indices == expected

    @given(records=record_lists(), predicate=predicates, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_narrowing_a_selection_equals_per_record(self, records, predicate, data):
        batch = ColumnBatch.from_records(records)
        subset = sorted(
            data.draw(st.sets(st.integers(0, len(records) - 1)))
        ) if records else []
        selection = SelectionVector(list(subset))
        narrowed = predicate.matches_batch(batch, selection)
        assert narrowed.indices == [i for i in subset if predicate.matches(records[i])]
        # The caller's selection is never mutated or returned aliased.
        assert narrowed is not selection
        assert selection.indices == list(subset)


class TestScreenBatch:
    @given(records=record_lists(), predicate=predicates)
    @settings(max_examples=100, deadline=None)
    def test_results_meter_and_stats_identical(self, records, predicate):
        serial_meter, batch_meter = CostMeter(), CostMeter()
        serial_screen = TwoStageScreen(predicate, serial_meter)
        batch_screen = TwoStageScreen(predicate, batch_meter)
        assert screen_serial(serial_screen, records) == batch_screen.screen_batch(
            records
        )
        assert serial_meter == batch_meter
        assert serial_screen.stats == batch_screen.stats


@st.composite
def ad_entry_streams(draw):
    """AD entries in arrival order, presented in shuffled file order
    (a hash file scan returns them grouped by bucket, not by
    sequence).  Each entry holds its own record, its fields in either
    order, so cancelling pairs meet as equal values, not as one object."""
    n = draw(st.integers(min_value=0, max_value=25))
    entries = []
    for seq in range(n):
        key = draw(st.integers(min_value=0, max_value=5))
        role = draw(st.sampled_from([ROLE_APPENDED, ROLE_DELETED]))
        values = {"k": key, "a": draw(st.integers(0, 3))}
        if draw(st.booleans()):
            values = dict(reversed(values.items()))
        record = Record(key, values)
        entries.append(ADEntry(seq, role, key, record))
    return draw(st.permutations(entries))


class TestNetChanges:
    @given(entries=ad_entry_streams())
    @settings(max_examples=120, deadline=None)
    def test_columnar_net_equals_serial_toggling(self, entries):
        columnar = _net_from_entries("r", entries)
        serial = net_from_entries_serial("r", entries)
        assert list(columnar.inserted) == list(serial.inserted)
        assert list(columnar.deleted) == list(serial.deleted)
        # The survivors are the very records the entries hold.
        assert all(map(operator.is_, columnar.inserted, serial.inserted))
        assert all(map(operator.is_, columnar.deleted, serial.deleted))
        assert columnar.invariant_ok()


def _view_tuple(a, p):
    return ViewTuple({"a": a, "p": p})


@st.composite
def initial_and_changes(draw):
    """A stored view state plus a change set that is valid against it
    (no deletion ever exceeds the stored duplicate count)."""
    domain = [(a, p) for a in range(7) for p in range(2)]
    initial = {
        _view_tuple(a, p): draw(st.integers(min_value=1, max_value=3))
        for a, p in draw(st.sets(st.sampled_from(domain), max_size=8))
    }
    changes = ChangeSet()
    for a, p in draw(st.sets(st.sampled_from(domain), max_size=8)):
        vt = _view_tuple(a, p)
        signed = draw(st.integers(min_value=-3, max_value=3).filter(bool))
        stored = initial.get(vt, 0)
        if signed < 0 and stored < -signed:
            if stored == 0:
                signed = -signed
            else:
                signed = -stored
        if signed > 0:
            changes.insert(vt, signed)
        else:
            changes.delete(vt, -signed)
    return initial, changes


def _build_view(pool_pages):
    meter = CostMeter()
    disk = SimulatedDisk(meter)
    pool = BufferPool(disk, capacity=pool_pages)
    view = MaterializedView("v", pool, "a", records_per_page=4, fanout=4)
    return view, meter, disk, pool


def _page_images(disk):
    return {
        pid: (disk._pages[pid].records, disk._pages[pid].next_page)
        for pid in disk.file_pages("view.v")
    }


class TestApplyChanges:
    @given(state=initial_and_changes(), pool_pages=st.sampled_from([4, 64]))
    @settings(max_examples=60, deadline=None)
    def test_batch_apply_is_byte_and_meter_identical(self, state, pool_pages):
        initial, changes = state
        loaded = [vt for vt, dup in initial.items() for _ in range(dup)]

        serial_view, serial_meter, serial_disk, serial_pool = _build_view(pool_pages)
        batch_view, batch_meter, batch_disk, batch_pool = _build_view(pool_pages)
        serial_view.bulk_load(loaded)
        batch_view.bulk_load(loaded)

        serial_counts = apply_changes_serial(serial_view, changes)
        batch_counts = batch_view.apply_changes(changes)
        assert serial_counts == batch_counts
        # Meters first: the page-image comparison below reads the raw
        # disk dicts precisely so it cannot disturb the counters.
        assert serial_meter == batch_meter

        serial_pool.flush_all()
        batch_pool.flush_all()
        assert _page_images(serial_disk) == _page_images(batch_disk)
        assert list(serial_view.scan_all()) == list(batch_view.scan_all())


@st.composite
def disjoint_deltas(draw):
    """A delta whose inserted and deleted sides share no records, as
    ``DeltaSet``'s toggling invariant guarantees on real paths."""
    records = draw(record_lists())
    cut = draw(st.integers(min_value=0, max_value=len(records)))
    delta = DeltaSet("r")
    for record in records[:cut]:
        delta.add_insert(record)
    for record in records[cut:]:
        delta.add_delete(record)
    return delta


class TestDeltaProjection:
    @given(delta=disjoint_deltas(), predicate=predicates)
    @settings(max_examples=100, deadline=None)
    def test_select_project_changes_equals_serial(self, delta, predicate):
        view = SelectProjectView("v", "r", predicate, ("a",), "a")
        assert select_project_changes(view, delta) == select_project_changes_serial(
            view, delta
        )

    @given(delta=disjoint_deltas(), predicate=predicates)
    @settings(max_examples=100, deadline=None)
    def test_aggregate_changes_equals_serial(self, delta, predicate):
        view = AggregateView("v", "r", predicate, "sum", "a")
        assert aggregate_changes(view, delta) == aggregate_changes_serial(view, delta)
