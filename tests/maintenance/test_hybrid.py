"""Hybrid dual-access-path routing (Section 3.3)."""

import random
from collections import Counter

import pytest

from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.engine.transaction import Transaction, Update
from repro.storage.tuples import Schema
from repro.views.definition import SelectProjectView
from repro.views.predicate import IntervalPredicate

R = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
# Base clustered on id; view clustered (keyed) on a; both projected.
VIEW = SelectProjectView("v", "r", IntervalPredicate("a", 0, 9),
                         ("id", "a"), "a")


def build(n=300, seed=0):
    db = Database(buffer_pages=256)
    rng = random.Random(seed)
    records = [R.new_record(id=i, a=rng.randrange(50), v=i) for i in range(n)]
    db.create_relation(R, "id", kind="plain", records=records)
    db.define_view(VIEW, Strategy.HYBRID)
    db.reset_meter()
    return db


def ground_truth(db, field, lo, hi):
    rows = VIEW.evaluate(db.relations["r"].records_snapshot())
    return Counter(vt for vt in rows if lo <= vt[field] <= hi)


class TestRouting:
    def test_view_key_query_routes_to_view(self):
        db = build()
        strategy = db.views["v"]
        strategy.query_on("a", 0, 9)
        assert strategy.decisions[-1].path == "view"

    def test_base_clustered_query_routes_to_base(self):
        db = build()
        strategy = db.views["v"]
        strategy.query_on("id", 10, 20, selectivity=11 / 300)
        assert strategy.decisions[-1].path == "base"

    def test_unknown_field_rejected(self):
        db = build()
        with pytest.raises(KeyError):
            db.views["v"].query_on("zz", 0, 1)

    def test_decision_records_estimates(self):
        db = build()
        strategy = db.views["v"]
        strategy.query_on("a", 0, 9)
        decision = strategy.decisions[-1]
        assert decision.estimated_base_ms > 0
        assert decision.estimated_view_ms > 0
        assert "view" in repr(decision)


class TestCorrectness:
    def test_view_path_answers_match_recompute(self):
        db = build()
        strategy = db.views["v"]
        answer = Counter(strategy.query_on("a", 3, 6))
        assert answer == ground_truth(db, "a", 3, 6)

    def test_base_path_answers_match_recompute(self):
        db = build()
        strategy = db.views["v"]
        answer = Counter(strategy.query_on("id", 50, 150, selectivity=0.33))
        assert answer == ground_truth(db, "id", 50, 150)

    def test_both_paths_agree_after_updates(self):
        db = build()
        strategy = db.views["v"]
        rng = random.Random(7)
        for _ in range(5):
            db.apply_transaction(Transaction.of("r", [
                Update(rng.randrange(300), {"a": rng.randrange(50)}),
            ]))
        via_view = Counter(strategy.query_on("a", 0, 9))
        # Force the base path for the same logical question.
        via_base = Counter(strategy.model.recompute(0, 9, "a"))
        assert via_view == via_base == ground_truth(db, "a", 0, 9)

    def test_default_query_is_view_key_range(self):
        db = build()
        assert Counter(db.query_view("v", 0, 9)) == ground_truth(db, "a", 0, 9)


class TestMaintenance:
    def test_inherits_immediate_maintenance(self):
        """The hybrid keeps the copy fresh like immediate does."""
        db = build()
        db.apply_transaction(Transaction.of("r", [Update(0, {"a": 5})]))
        assert Counter(db.query_view("v", 0, 9)) == ground_truth(db, "a", 0, 9)

    def test_rejects_same_clustering(self):
        db = Database()
        records = [R.new_record(id=i, a=i % 50, v=0) for i in range(20)]
        db.create_relation(R, "a", kind="plain", records=records)
        with pytest.raises(ValueError):
            db.define_view(VIEW, Strategy.HYBRID)
