"""Semantic analysis + end-to-end language integration."""

import random
from collections import Counter

import pytest

from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import (
    AndPredicate,
    ComparisonPredicate,
    IntervalPredicate,
    TruePredicate,
)

from quel.builder import BuildError, build_definition, define_view_from_text
from quel.parser import parse

R = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
R1 = Schema("r1", ("id", "a", "j"), "id", tuple_bytes=100)
R2 = Schema("r2", ("j", "c"), "j", tuple_bytes=100)


def build(text):
    return build_definition(parse(text))


class TestSelectProjectBuilding:
    def test_basic(self):
        view = build("define view v (r.id, r.a) where r.a between 0 and 9")
        assert isinstance(view, SelectProjectView)
        assert view.relation == "r"
        assert view.projection == ("id", "a")
        assert isinstance(view.predicate, IntervalPredicate)
        assert view.view_key == "id"  # first projected field by default

    def test_clustered_on_overrides_key(self):
        view = build("define view v (r.id, r.a) clustered on r.a")
        assert view.view_key == "a"

    def test_no_restriction_is_true_predicate(self):
        view = build("define view v (r.a)")
        assert isinstance(view.predicate, TruePredicate)

    def test_conjunction(self):
        view = build("define view v (r.a) where r.a between 0 and 9 and r.v > 5")
        assert isinstance(view.predicate, AndPredicate)
        assert len(view.predicate.clauses) == 2

    def test_comparison_predicate(self):
        view = build("define view v (r.a) where r.v != 3")
        assert isinstance(view.predicate, ComparisonPredicate)

    def test_unprojected_cluster_key_rejected(self):
        with pytest.raises(BuildError, match="must be projected"):
            build("define view v (r.id) clustered on r.a")

    def test_two_relations_without_join_rejected(self):
        with pytest.raises(BuildError, match="exactly one"):
            build("define view v (r.a, s.b)")


class TestJoinBuilding:
    def test_paper_example(self):
        view = build(
            "define view v (r1.id, r1.a, r2.j, r2.c) "
            "where r1.j = r2.j and r1.a between 0 and 9 "
            "clustered on r1.a"
        )
        assert isinstance(view, JoinView)
        assert (view.outer, view.inner) == ("r1", "r2")
        assert view.join_field == "j"
        assert view.outer_projection == ("id", "a")
        assert view.inner_projection == ("j", "c")
        assert view.view_key == "a"

    def test_mismatched_join_fields_rejected(self):
        with pytest.raises(BuildError, match="same field name"):
            build("define view v (r1.a, r2.c) where r1.x = r2.y")

    def test_inner_restriction_rejected(self):
        with pytest.raises(BuildError, match="outer"):
            build(
                "define view v (r1.a, r2.c) "
                "where r1.j = r2.j and r2.c > 5"
            )

    def test_multiple_join_terms_rejected(self):
        with pytest.raises(BuildError, match="one"):
            build(
                "define view v (r1.a, r2.c) "
                "where r1.j = r2.j and r1.k = r2.k"
            )


class TestAggregateBuilding:
    def test_basic(self):
        view = build("define view s (sum(r.v)) where r.a between 0 and 9")
        assert isinstance(view, AggregateView)
        assert view.aggregate == "sum"
        assert view.field == "v"
        assert view.relation == "r"

    @pytest.mark.parametrize("fn", ["count", "avg", "min", "max"])
    def test_all_functions(self, fn):
        view = build(f"define view s ({fn}(r.v))")
        assert view.aggregate == fn

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(BuildError, match="unknown aggregate"):
            build("define view s (median(r.v))")

    def test_mixed_targets_rejected(self):
        with pytest.raises(BuildError, match="exactly one aggregate"):
            build("define view s (sum(r.v), r.a)")

    def test_aggregate_with_join_rejected(self):
        with pytest.raises(BuildError, match="joins are not allowed"):
            build("define view s (sum(r1.v)) where r1.j = r2.j")


class TestEndToEnd:
    def test_define_and_query_through_language(self):
        db = Database(buffer_pages=128)
        rng = random.Random(0)
        records = [R.new_record(id=i, a=rng.randrange(50), v=i) for i in range(200)]
        db.create_relation(R, "a", kind="hypothetical", records=records,
                           ad_buckets=2)
        define_view_from_text(
            db,
            "define view v (r.id, r.a) where r.a between 0 and 9 clustered on r.a",
            Strategy.DEFERRED,
        )
        answer = db.query_view("v", 0, 9)
        expected = [r for r in records if 0 <= r["a"] <= 9]
        assert len(answer) == len(expected)

    def test_join_view_through_language(self):
        db = Database(buffer_pages=128)
        rng = random.Random(1)
        outers = [R1.new_record(id=i, a=rng.randrange(50), j=i % 10)
                  for i in range(100)]
        inners = [R2.new_record(j=j, c=j * 3) for j in range(10)]
        db.create_relation(R1, "a", kind="plain", records=outers)
        db.create_relation(R2, "j", kind="hashed", records=inners)
        define_view_from_text(
            db,
            "define view jv (r1.id, r1.a, r2.j, r2.c) "
            "where r1.j = r2.j and r1.a between 0 and 9 clustered on r1.a",
            Strategy.IMMEDIATE,
        )
        answer = db.query_view("jv", 0, 9)
        definition = db.views["jv"].definition
        expected = definition.evaluate(outers, inners)
        assert Counter(answer) == Counter(expected)

    def test_aggregate_through_language(self):
        db = Database(buffer_pages=128)
        records = [R.new_record(id=i, a=i % 20, v=10) for i in range(100)]
        db.create_relation(R, "a", kind="plain", records=records)
        define_view_from_text(
            db, "define view s (count(r.id)) where r.a between 0 and 9",
            Strategy.IMMEDIATE,
        )
        assert db.query_view("s") == 50
