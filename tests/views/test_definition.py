"""View definitions and from-scratch evaluation."""

import json
import sys
import tracemalloc

import pytest

from repro.cluster.worker import decode_answer, encode_answer
from repro.storage.tuples import Schema
from repro.views.definition import (
    AggregateView,
    JoinView,
    Layout,
    SelectProjectView,
    ViewDefinitionError,
    ViewTuple,
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

    def test_values_are_built_per_call_in_the_image_order(self):
        vt = sp_view().project(R.new_record(id=1, a=5, v=100))
        assert vt.values is not vt.values and vt.values == {"id": 1, "a": 5}
        assert list(vt.values) == ["id", "a"]  # the projection's order
        with pytest.raises(TypeError):
            vt.values["a"] = 6
        assert vt["a"] == 5

    def test_layouts_are_interned_per_field_order(self):
        one, two = ViewTuple({"a": 1, "b": 2}), ViewTuple({"a": 3, "b": (4,)})
        flipped = ViewTuple({"b": 2, "a": 1})
        assert one.layout is two.layout is Layout.of(["a", "b"])
        assert flipped.layout is not one.layout and flipped == one
        assert sp_view().layout is sp_view(lo=3).layout
        assert sp_view().layout is not Layout.of(("a", "id"))  # imaged id, a
        assert [vt.layout for vt in _decoded([one, two])] == [Layout.of(("a", "b"))] * 2

    def test_a_decoded_tuple_is_its_twin_in_another_layout(self):
        twin = join_view().combine(R1.new_record(id=1, a=5, j=10),
                                   R2.new_record(j=10, c=(9, 9)))
        (decoded,) = _decoded([twin], "a")
        assert decoded.layout is not twin.layout
        assert decoded.row == twin.row == (5, (9, 9), 1, 10)
        assert decoded == twin and twin == decoded and len({decoded, twin}) == 1
        assert hash(decoded) == hash(twin)
        assert decoded.identity() == twin.identity()
        assert repr(decoded) == repr(twin) == "ViewTuple(a=5, c=(9, 9), id=1, j=10)"
        assert decoded != join_view().combine(R1.new_record(id=2, a=5, j=10),
                                              R2.new_record(j=10, c=(9, 9)))

    def test_decode_answer_builds_no_dict_per_tuple(self):
        n = 2_000
        doc = json.loads(json.dumps(encode_answer(
            [ViewTuple({"a": i, "id": i, "v": i}) for i in range(n)], "a")))
        decode_answer(doc)  # the layout is interned before counting
        tracemalloc.start()
        try:
            payload, _ = decode_answer(doc)
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one = sys.getsizeof(payload[0]) + sys.getsizeof(payload[0].row)
        assert grown / n < one + sys.getsizeof({}) / 2, (grown / n, one)
        assert all(type(vt.row) is tuple for vt in payload)


def _decoded(answer, view_key=None):
    """``answer`` as a router reads it off a shard's reply."""
    doc = json.loads(json.dumps(encode_answer(answer, view_key)))
    return decode_answer(doc)[0]


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

    def test_projections_build_rows_in_the_definitions_layout(self, monkeypatch):
        # One picker per definition, built with it: the row is in wire
        # order (view key first, the rest by name), the image in the
        # projection's; the copying public constructor is not on the path.
        def copying_constructor(self, values):
            raise AssertionError("a projection went through the public constructor")

        monkeypatch.setattr(ViewTuple, "__init__", copying_constructor)
        view = join_view()
        joined = view.combine(R1.new_record(id=1, a=5, j=10), R2.new_record(j=10, c=99))
        assert joined.layout is view.layout and joined.row == (5, 99, 1, 10)
        assert view.layout.fields == ("a", "c", "id", "j")
        assert list(joined.values.items()) == [("id", 1), ("a", 5), ("j", 10), ("c", 99)]
        projected = sp_view().project(R.new_record(id=1, a=5, v=100))
        assert projected.layout is sp_view().layout and projected.row == (5, 1)
        assert list(projected.values.items()) == [("id", 1), ("a", 5)]

    def test_a_field_both_sides_project_takes_the_inner_value(self):
        view = JoinView("jv", "r1", "r2", "j", TruePredicate(),
                        ("j", "id"), ("c", "j"), "id")
        joined = view.combine(R1.new_record(id=1, a=5, j=10), R2.new_record(j=10.0, c=99))
        assert type(joined["j"]) is float
        assert list(joined.values) == ["j", "id", "c"]

    def test_a_field_only_the_outer_side_projects_keeps_the_outer_value(self):
        # The inner schema has both ``id`` and the join field, and projects
        # neither: the tuple takes them from the outer record, as it did
        # when the tuple was a dict built from each side's projection.
        inner_schema = Schema("r3", ("id", "j", "c"), "j")
        view = JoinView("jv", "r1", "r3", "j", TruePredicate(),
                        ("id", "a", "j"), ("c",), "a")
        joined = view.combine(R1.new_record(id=1, a=5, j=10),
                              inner_schema.new_record(id=99, j=10.0, c=7))
        assert joined == ViewTuple({"id": 1, "a": 5, "j": 10, "c": 7})
        assert type(joined["j"]) is int and joined.row == (5, 7, 1, 10)
        assert list(joined.values.items()) == [("id", 1), ("a", 5), ("j", 10), ("c", 7)]
        assert repr(joined) == "ViewTuple(a=5, c=7, id=1, j=10)"

    def test_a_side_may_project_nothing(self):
        view = JoinView("jv", "r1", "r2", "j", TruePredicate(), ("id", "a"), (), "a")
        joined = view.combine(R1.new_record(id=1, a=5, j=10), R2.new_record(j=10, c=99))
        assert joined == ViewTuple({"id": 1, "a": 5}) and joined.row == (5, 1)

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
