"""Snapshot strategy: periodic rebuild, staleness semantics."""

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
VIEW = SelectProjectView("v", "r", IntervalPredicate("a", 0, 9), ("id", "a"), "a")


def build(refresh_every=3, n=200, seed=0):
    db = Database(buffer_pages=256)
    rng = random.Random(seed)
    records = [R.new_record(id=i, a=rng.randrange(50), v=i) for i in range(n)]
    db.create_relation(R, "a", kind="plain", records=records)
    db.define_view(VIEW, Strategy.SNAPSHOT, refresh_every=refresh_every)
    db.reset_meter()
    return db


def ground_truth(db):
    return Counter(VIEW.evaluate(db.relations["r"].records_snapshot()))


class TestFreshness:
    def test_first_query_is_fresh(self):
        db = build()
        assert Counter(db.query_view("v", 0, 9)) == ground_truth(db)

    def test_stale_between_rebuilds(self):
        db = build(refresh_every=5)
        before = Counter(db.query_view("v", 0, 9))  # rebuild + read
        # Move a tuple into the view; the snapshot must NOT see it yet.
        db.apply_transaction(Transaction.of("r", [Update(0, {"a": 0})]))
        second = Counter(db.query_view("v", 0, 9))
        assert second == before
        assert second != ground_truth(db) or before == ground_truth(db)

    def test_rebuild_catches_up_on_schedule(self):
        db = build(refresh_every=2)
        db.query_view("v", 0, 9)          # query 1: rebuild
        db.apply_transaction(Transaction.of("r", [Update(0, {"a": 5, "v": -1})]))
        db.query_view("v", 0, 9)          # query 2: stale
        fresh = Counter(db.query_view("v", 0, 9))  # query 3: rebuild
        assert fresh == ground_truth(db)

    def test_refresh_every_one_is_always_fresh(self):
        db = build(refresh_every=1)
        rng = random.Random(5)
        for _ in range(4):
            db.apply_transaction(Transaction.of("r", [
                Update(rng.randrange(200), {"a": rng.randrange(50)}),
            ]))
            assert Counter(db.query_view("v", 0, 9)) == ground_truth(db)


class TestAccounting:
    def test_updates_cost_no_view_work(self):
        db = build()
        strategy = db.views["v"]
        before = db.meter.snapshot()
        db.apply_transaction(Transaction.of("r", [Update(0, {"a": 3})]))
        delta = db.meter.delta_since(before)
        assert delta.screens == 0
        assert strategy.stale_updates > 0

    def test_rebuild_counts(self):
        db = build(refresh_every=2)
        strategy = db.views["v"]
        for _ in range(5):
            db.query_view("v", 0, 9)
        assert strategy.rebuild_count == 3  # queries 1, 3, 5

    def test_rebuild_resets_staleness(self):
        db = build(refresh_every=2)
        strategy = db.views["v"]
        db.query_view("v", 0, 9)
        db.apply_transaction(Transaction.of("r", [Update(0, {"a": 3})]))
        assert strategy.stale_updates > 0
        db.query_view("v", 0, 9)  # stale read
        db.query_view("v", 0, 9)  # rebuild
        assert strategy.stale_updates == 0

    def test_amortization_visible_in_io(self):
        """Longer periods spend fewer I/Os for the same query stream."""
        def total_io(refresh_every):
            db = build(refresh_every=refresh_every)
            for _ in range(12):
                db.query_view("v", 0, 9)
            return db.meter.page_ios

        assert total_io(6) < total_io(1)


class TestValidation:
    def test_rejects_bad_period(self):
        db = Database()
        records = [R.new_record(id=i, a=i, v=0) for i in range(10)]
        db.create_relation(R, "a", kind="plain", records=records)
        with pytest.raises(ValueError, match="refresh_every"):
            db.define_view(VIEW, Strategy.SNAPSHOT, refresh_every=0)
        assert "v" not in db.views

    def test_requires_matching_clustering(self):
        db = Database()
        records = [R.new_record(id=i, a=i, v=0) for i in range(10)]
        db.create_relation(R, "id", kind="plain", records=records)
        with pytest.raises(ValueError):
            db.define_view(VIEW, Strategy.SNAPSHOT)
