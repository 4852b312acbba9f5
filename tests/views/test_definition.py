"""View definitions and from-scratch evaluation."""

import pytest

from repro.storage.tuples import Schema
from repro.views.definition import (
    AggregateView,
    JoinView,
    SelectProjectView,
    ViewDefinitionError,
    ViewTuple,
    fields_of,
)
from repro.views.predicate import IntervalPredicate, TruePredicate

R = Schema("r", ("id", "a", "v"), "id")
R1 = Schema("r1", ("id", "a", "j"), "id")
R2 = Schema("r2", ("j", "c"), "j")


def sp_view(lo=0, hi=9):
    return SelectProjectView(
        name="v", relation="r",
        predicate=IntervalPredicate("a", lo, hi),
        projection=("id", "a"), view_key="a",
    )


def join_view():
    return JoinView(
        name="jv", outer="r1", inner="r2", join_field="j",
        predicate=IntervalPredicate("a", 0, 9),
        outer_projection=("id", "a"), inner_projection=("j", "c"),
        view_key="a",
    )


class TestViewTuple:
    def test_value_equality_and_hash(self):
        a = ViewTuple({"x": 1, "y": 2})
        b = ViewTuple({"y": 2, "x": 1})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_identity_sorted(self):
        assert ViewTuple({"b": 2, "a": 1}).identity() == (("a", 1), ("b", 2))

    def test_immutable(self):
        vt = ViewTuple({"x": 1})
        with pytest.raises(AttributeError):
            vt.values = {}

    def test_access(self):
        vt = ViewTuple({"x": 1})
        assert vt["x"] == 1
        assert vt.get("missing", 9) == 9

    def test_the_public_constructor_copies_what_it_is_given(self):
        source = {"x": 1}
        vt = ViewTuple(source)
        source["x"] = 2
        assert vt["x"] == 1

    def test_values_are_read_only(self):
        vt = ViewTuple({"x": 1})
        with pytest.raises(TypeError):
            vt.values["x"] = 2
        with pytest.raises(AttributeError):
            vt.extra = 2
        assert vt["x"] == 1 and dict(vt.values) == {"x": 1}

    @pytest.mark.parametrize("identity", [None, (("a", 1), ("b", (2, 3)))])
    def test_adopted_tuple_takes_its_dict(self, identity):
        values = {"b": (2, 3), "a": 1}
        adopted = ViewTuple.adopt(values, identity)
        public = ViewTuple({"a": 1, "b": (2, 3)})
        assert fields_of(adopted) is values  # taken, not copied
        assert fields_of(public) is not values
        assert adopted.values == values
        assert adopted == public and public == adopted
        assert hash(adopted) == hash(public)
        assert repr(adopted) == repr(public)
        assert adopted.identity() == public.identity() == (("a", 1), ("b", (2, 3)))
        assert len({adopted, public}) == 1
        with pytest.raises(AttributeError):
            adopted.values = {}
        with pytest.raises(AttributeError):
            adopted._identity = ()

    def test_a_handed_over_identity_is_kept_not_recomputed(self):
        identity = (("a", 1),)
        vt = ViewTuple.adopt({"a": 1}, identity)
        assert vt.identity() is identity
        assert hash(vt) == hash(identity) == hash(ViewTuple({"a": 1}))


class TestSelectProjectView:
    def test_rejects_empty_projection(self):
        with pytest.raises(ViewDefinitionError):
            SelectProjectView("v", "r", TruePredicate(), (), "a")

    def test_rejects_unprojected_view_key(self):
        with pytest.raises(ViewDefinitionError):
            SelectProjectView("v", "r", TruePredicate(), ("id",), "a")

    def test_fields_read_union(self):
        assert sp_view().fields_read() == {"id", "a"}

    def test_project(self):
        record = R.new_record(id=1, a=5, v=100)
        assert sp_view().project(record) == ViewTuple({"id": 1, "a": 5})

    def test_evaluate_filters_and_projects(self):
        records = [R.new_record(id=i, a=i, v=0) for i in range(20)]
        result = sp_view(0, 9).evaluate(records)
        assert len(result) == 10
        assert all(vt["a"] <= 9 for vt in result)

    def test_evaluate_preserves_duplicates(self):
        view = SelectProjectView("v", "r", TruePredicate(), ("a",), "a")
        records = [R.new_record(id=i, a=7, v=0) for i in range(3)]
        assert view.evaluate(records) == [ViewTuple({"a": 7})] * 3


class TestJoinView:
    def test_rejects_ambiguous_projection(self):
        with pytest.raises(ViewDefinitionError):
            JoinView("jv", "r1", "r2", "j", TruePredicate(),
                     ("id", "a"), ("c", "a"), "a")

    def test_rejects_unprojected_view_key(self):
        with pytest.raises(ViewDefinitionError):
            JoinView("jv", "r1", "r2", "j", TruePredicate(),
                     ("id",), ("c",), "a")

    def test_join_field_may_be_projected_from_both(self):
        view = JoinView("jv", "r1", "r2", "j", TruePredicate(),
                        ("id", "j"), ("j", "c"), "id")
        assert view.join_field == "j"

    def test_fields_read_includes_join_field(self):
        assert "j" in join_view().fields_read()

    def test_combine(self):
        t1 = R1.new_record(id=1, a=5, j=10)
        t2 = R2.new_record(j=10, c=99)
        assert join_view().combine(t1, t2) == ViewTuple(
            {"id": 1, "a": 5, "j": 10, "c": 99}
        )

    def test_projections_hand_their_dict_over(self, monkeypatch):
        # project() and combine() build one dict per tuple and adopt it;
        # the copying public constructor is not on their path.
        def copying_constructor(self, values):
            raise AssertionError("a projection copied its dict")

        monkeypatch.setattr(ViewTuple, "__init__", copying_constructor)
        t1 = R1.new_record(id=1, a=5, j=10)
        joined = join_view().combine(t1, R2.new_record(j=10, c=99))
        assert list(joined.values.items()) == [("id", 1), ("a", 5), ("j", 10), ("c", 99)]
        projected = sp_view().project(R.new_record(id=1, a=5, v=100))
        assert list(projected.values.items()) == [("id", 1), ("a", 5)]

    def test_evaluate_hash_join(self):
        outers = [R1.new_record(id=i, a=i, j=i % 3) for i in range(10)]
        inners = [R2.new_record(j=j, c=j * 10) for j in range(3)]
        result = join_view().evaluate(outers, inners)
        assert len(result) == 10  # every outer with a<=9 joins exactly once
        assert all(vt["c"] == vt["j"] * 10 for vt in result)

    def test_evaluate_respects_predicate(self):
        outers = [R1.new_record(id=i, a=i, j=0) for i in range(20)]
        inners = [R2.new_record(j=0, c=1)]
        result = join_view().evaluate(outers, inners)
        assert len(result) == 10  # predicate a in [0,9]

    def test_dangling_outer_drops(self):
        outers = [R1.new_record(id=1, a=1, j=42)]
        assert join_view().evaluate(outers, []) == []


class TestAggregateView:
    def test_evaluate_sum(self):
        view = AggregateView("s", "r", IntervalPredicate("a", 0, 4), "sum", "v")
        records = [R.new_record(id=i, a=i, v=10) for i in range(10)]
        assert view.evaluate(records) == 50  # five records match

    def test_evaluate_avg_empty_is_none(self):
        view = AggregateView("s", "r", IntervalPredicate("a", 100, 200), "avg", "v")
        assert view.evaluate([R.new_record(id=1, a=1, v=1)]) is None

    def test_fields_read(self):
        view = AggregateView("s", "r", IntervalPredicate("a", 0, 4), "sum", "v")
        assert view.fields_read() == {"a", "v"}

    def test_function_factory(self):
        view = AggregateView("s", "r", TruePredicate(), "count", "v")
        assert view.function().name == "count"

    def test_unknown_aggregate_surfaces_on_use(self):
        view = AggregateView("s", "r", TruePredicate(), "bogus", "v")
        with pytest.raises(KeyError):
            view.function()


def test_sources_lists_the_relations_read_screened_one_first():
    assert sp_view().sources == ("r",)
    assert join_view().sources == ("r1", "r2")
    assert AggregateView("s", "r", TruePredicate(), "sum", "v").sources == ("r",)
