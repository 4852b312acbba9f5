"""Delta sets and the differential update algebra, incl. Appendix A.

A select-project or aggregate view's changes are checked on the path
the engine runs: the two-stage screen marks the delta's tuples
(``TwoStageScreen.screen_batch``) and the view's model applies them to
the stored copy (``Model.apply``).
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maintenance.models import AggregateModel, SelectProjectModel
from repro.maintenance.screening import TwoStageScreen
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView, ViewTuple
from repro.views.delta import (
    ChangeSet,
    DeltaSet,
    join_changes,
    join_changes_blakeley_original,
)
from repro.views.matview import AggregateStateStore, MaterializedView
from repro.views.predicate import IntervalPredicate, TruePredicate

R = Schema("r", ("id", "a", "v"), "id")
R1 = Schema("r1", ("id", "a", "j"), "id")
R2 = Schema("r2", ("j", "c"), "j")

SP_VIEW = SelectProjectView("v", "r", IntervalPredicate("a", 0, 9), ("id", "a"), "a")
JOIN_VIEW = JoinView(
    "jv", "r1", "r2", "j", TruePredicate(), ("id", "a"), ("j", "c"), "a"
)


def r_rec(i, a=0, v=0):
    return R.new_record(id=i, a=a, v=v)


def r1_rec(i, a=0, j=0):
    return R1.new_record(id=i, a=a, j=j)


def r2_rec(j, c=0):
    return R2.new_record(j=j, c=c)


class TestDeltaSet:
    def test_insert_then_delete_cancels(self):
        delta = DeltaSet("r")
        record = r_rec(1)
        delta.add_insert(record)
        delta.add_delete(record)
        assert not delta
        assert delta.invariant_ok()

    def test_delete_then_reinsert_cancels(self):
        delta = DeltaSet("r")
        record = r_rec(1)
        delta.add_delete(record)
        delta.add_insert(record)
        assert not delta

    def test_update_records_both_sides(self):
        delta = DeltaSet("r")
        delta.add_update(r_rec(1, a=1), r_rec(1, a=2))
        assert delta.deleted == (r_rec(1, a=1),)
        assert delta.inserted == (r_rec(1, a=2),)

    def test_self_update_is_noop(self):
        delta = DeltaSet("r")
        delta.add_update(r_rec(1, a=1), r_rec(1, a=1))
        assert not delta

    def test_merge_preserves_net_semantics(self):
        first = DeltaSet("r")
        first.add_insert(r_rec(1))
        second = DeltaSet("r")
        second.add_delete(r_rec(1))
        first.merge(second)
        assert not first

    def test_merge_rejects_other_relation(self):
        with pytest.raises(ValueError):
            DeltaSet("r").merge(DeltaSet("s"))

    def test_len_and_clear(self):
        delta = DeltaSet("r")
        delta.add_insert(r_rec(1))
        delta.add_delete(r_rec(2))
        assert len(delta) == 2
        delta.clear()
        assert len(delta) == 0

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 10)), max_size=60))
    @settings(max_examples=80)
    def test_invariant_always_holds(self, ops):
        """Net semantics property: A and D never intersect, and match a
        reference computed from the final membership state."""
        delta = DeltaSet("r")
        initial_members = set(range(0, 11, 2))  # evens pre-exist
        members = set(initial_members)
        for is_delete, key in ops:
            record = r_rec(key)
            if is_delete:
                if key in members:
                    delta.add_delete(record)
                    members.discard(key)
            else:
                if key not in members:
                    delta.add_insert(record)
                    members.add(key)
        assert delta.invariant_ok()
        expected_inserted = {r_rec(k) for k in members - initial_members}
        expected_deleted = {r_rec(k) for k in initial_members - members}
        assert set(delta.inserted) == expected_inserted
        assert set(delta.deleted) == expected_deleted


class TestChangeSet:
    def test_signed_counts(self):
        cs = ChangeSet()
        vt = ViewTuple({"a": 1})
        cs.insert(vt, 2)
        cs.delete(vt, 1)
        assert cs.count(vt) == 1

    def test_zero_counts_removed(self):
        cs = ChangeSet()
        vt = ViewTuple({"a": 1})
        cs.insert(vt)
        cs.delete(vt)
        assert not cs
        assert cs.count(vt) == 0

    def test_insertions_deletions_totals(self):
        cs = ChangeSet()
        cs.insert(ViewTuple({"a": 1}), 3)
        cs.delete(ViewTuple({"a": 2}), 2)
        assert cs.insertions == 3
        assert cs.deletions == 2

    def test_merged(self):
        a, b = ChangeSet(), ChangeSet()
        vt = ViewTuple({"a": 1})
        a.insert(vt)
        b.delete(vt)
        merged = a.merged(b)
        assert not merged
        assert a.count(vt) == 1  # originals untouched

    def test_equality(self):
        a, b = ChangeSet(), ChangeSet()
        a.insert(ViewTuple({"a": 1}))
        b.insert(ViewTuple({"a": 1}))
        assert a == b


def _model(model_class, view):
    pool = BufferPool(SimulatedDisk(CostMeter()), capacity=8)
    return model_class(view, None, pool=pool, block_bytes=400, fanout=4)


def _refresh(model, delta):
    """One delta through the engine's differential update: screen, apply."""
    screen = TwoStageScreen(model.definition.predicate, CostMeter())
    model.apply(screen.screen_batch(delta.inserted), screen.screen_batch(delta.deleted))


def _select_project_model(stored):
    model = _model(SelectProjectModel, SP_VIEW)
    model.matview = MaterializedView("v", model.pool, "a", records_per_page=4, fanout=4)
    model.matview.bulk_load([SP_VIEW.project(r) for r in stored])
    return model


class TestSelectProjectChanges:
    def test_screens_by_predicate(self):
        model = _select_project_model([r_rec(3, a=2), r_rec(4, a=3)])
        delta = DeltaSet("r")
        delta.add_insert(r_rec(1, a=5))   # in view
        delta.add_insert(r_rec(2, a=50))  # out of view
        delta.add_delete(r_rec(3, a=2))   # in view
        _refresh(model, delta)
        assert sorted(vt["id"] for vt in model.matview.scan_all()) == [1, 4]

    def test_projection_applied(self):
        model = _select_project_model([])
        delta = DeltaSet("r")
        delta.add_insert(r_rec(1, a=5, v=123))
        _refresh(model, delta)
        assert list(model.matview.scan_all()) == [ViewTuple({"id": 1, "a": 5})]


def _brute_force_join_diff(view, r1_before, r2_before, delta1, delta2) -> ChangeSet:
    """Ground truth: multiset difference of full recomputations."""
    r1_after = [t for t in r1_before if t not in set(delta1.deleted)]
    r1_after += list(delta1.inserted)
    r2_after = [t for t in r2_before if t not in set(delta2.deleted)]
    r2_after += list(delta2.inserted)
    before = Counter(view.evaluate(r1_before, r2_before))
    after = Counter(view.evaluate(r1_after, r2_after))
    changes = ChangeSet()
    for vt in set(before) | set(after):
        signed = after[vt] - before[vt]
        if signed > 0:
            changes.insert(vt, signed)
        elif signed < 0:
            changes.delete(vt, -signed)
    return changes


class TestJoinChanges:
    def test_insert_joins(self):
        r1, r2 = [], [r2_rec(10, c=1)]
        delta1 = DeltaSet("r1")
        delta1.add_insert(r1_rec(1, j=10))
        changes = join_changes(JOIN_VIEW, r1, r2, delta1, DeltaSet("r2"))
        assert changes.insertions == 1 and changes.deletions == 0

    def test_appendix_a_double_delete_bug(self):
        """Appendix A: deleting both halves of a joining pair must remove
        the view tuple once; Blakeley's original removes it three times."""
        t1, t2 = r1_rec(1, j=10), r2_rec(10, c=7)
        delta1 = DeltaSet("r1")
        delta1.add_delete(t1)
        delta2 = DeltaSet("r2")
        delta2.add_delete(t2)
        vt = JOIN_VIEW.combine(t1, t2)

        corrected = join_changes(JOIN_VIEW, [t1], [t2], delta1, delta2)
        original = join_changes_blakeley_original(JOIN_VIEW, [t1], [t2], delta1, delta2)
        assert corrected.count(vt) == -1
        assert original.count(vt) == -3

    def test_blakeley_correct_when_one_side_changes(self):
        """The original expression is only wrong for two-sided deletes."""
        r1 = [r1_rec(1, j=10)]
        r2 = [r2_rec(10)]
        delta1 = DeltaSet("r1")
        delta1.add_delete(r1[0])
        corrected = join_changes(JOIN_VIEW, r1, r2, delta1, DeltaSet("r2"))
        original = join_changes_blakeley_original(JOIN_VIEW, r1, r2, delta1, DeltaSet("r2"))
        assert corrected == original

    @given(
        r1_keys=st.lists(st.integers(0, 6), max_size=6, unique=True),
        r2_keys=st.lists(st.integers(0, 4), max_size=5, unique=True),
        ins1=st.lists(st.tuples(st.integers(100, 105), st.integers(0, 4)),
                      max_size=4, unique_by=lambda t: t[0]),
        del1=st.sets(st.integers(0, 6), max_size=6),
        ins2=st.lists(st.integers(5, 8), max_size=3, unique=True),
        del2=st.sets(st.integers(0, 4), max_size=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_recompute(
        self, r1_keys, r2_keys, ins1, del1, ins2, del2
    ):
        """The corrected expression equals recompute-and-diff, always."""
        r1 = [r1_rec(k, a=k, j=k % 5) for k in r1_keys]
        r2 = [r2_rec(j, c=j) for j in r2_keys]
        delta1 = DeltaSet("r1")
        for t in r1:
            if t.key in del1:
                delta1.add_delete(t)
        for key, j in ins1:
            delta1.add_insert(r1_rec(key, a=key, j=j))
        delta2 = DeltaSet("r2")
        for t in r2:
            if t["j"] in del2:
                delta2.add_delete(t)
        for j in ins2:
            delta2.add_insert(r2_rec(j, c=j))

        expected = _brute_force_join_diff(JOIN_VIEW, r1, r2, delta1, delta2)
        assert join_changes(JOIN_VIEW, r1, r2, delta1, delta2) == expected

    def test_three_way_via_composition(self):
        """N-way deltas compose: apply the 2-way rule view-by-view.

        V = (R1 ⋈ R2) ⋈ R3 — changes to the inner join feed a second
        2-way delta computation.
        """
        r3_schema = Schema("r3", ("c", "d"), "c")
        inner_view = JOIN_VIEW  # R1 ⋈ R2 keyed by c after projection
        outer_view = JoinView(
            "jv2", "jv", "r3", "c", TruePredicate(),
            ("id", "a", "j", "c"), ("d",), "a",
        )
        r1 = [r1_rec(1, a=1, j=0)]
        r2 = [r2_rec(0, c=5)]
        r3 = [r3_schema.new_record(c=5, d=42)]
        delta1 = DeltaSet("r1")
        new_tuple = r1_rec(2, a=2, j=0)
        delta1.add_insert(new_tuple)

        level1 = join_changes(inner_view, r1, r2, delta1, DeltaSet("r2"))
        # Changes to the intermediate become a DeltaSet over "jv" rows.
        delta_jv = DeltaSet("jv")
        for vt, signed in level1.items():
            record = Schema("jv", ("id", "a", "j", "c"), "id").new_record(**vt.values)
            assert signed == 1
            delta_jv.add_insert(record)
        level2 = join_changes(outer_view, [], r3, delta_jv, DeltaSet("r3"))
        assert level2.insertions == 1
        (vt, signed), = level2.items()
        assert vt["d"] == 42 and vt["id"] == 2


class TestAggregateChanges:
    def test_entering_and_leaving_values(self):
        view = AggregateView("s", "r", IntervalPredicate("a", 0, 9), "sum", "v")
        delta = DeltaSet("r")
        delta.add_insert(r_rec(1, a=1, v=10))
        delta.add_insert(r_rec(2, a=99, v=20))  # screened out
        delta.add_delete(r_rec(3, a=2, v=30))
        model = _model(AggregateModel, view)
        model.store = AggregateStateStore("s", model.pool, view.function())
        _refresh(model, delta)
        assert model.store.value() == 10 - 30
