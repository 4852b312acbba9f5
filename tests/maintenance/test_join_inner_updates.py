"""Inner-relation (R2) updates for join views — extension past Model 2."""

import random
from collections import Counter

import pytest

from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.storage.tuples import Schema
from repro.views.definition import JoinView, SelectProjectView
from repro.views.predicate import IntervalPredicate

R1 = Schema("r1", ("id", "a", "j"), "id", tuple_bytes=100)
R2 = Schema("r2", ("j", "c"), "j", tuple_bytes=100)

VIEW = JoinView("v", "r1", "r2", "j", IntervalPredicate("a", 0, 9),
                ("id", "a"), ("j", "c"), "a")


def build(strategy, n=150, inner=15, seed=0):
    db = Database(buffer_pages=256)
    kind = "hypothetical" if strategy is Strategy.DEFERRED else "plain"
    rng = random.Random(seed)
    outer_records = [
        R1.new_record(id=i, a=rng.randrange(50), j=rng.randrange(inner))
        for i in range(n)
    ]
    inner_records = [R2.new_record(j=j, c=j * 10) for j in range(inner)]
    db.create_relation(R1, "a", kind=kind, records=outer_records, ad_buckets=4)
    db.create_relation(R2, "j", kind="hashed", records=inner_records)
    db.define_view(VIEW, strategy)
    db.reset_meter()
    return db


def ground_truth(db):
    return Counter(VIEW.evaluate(
        db.relations["r1"].records_snapshot(),
        db.relations["r2"].records_snapshot(),
    ))


class TestImmediateInnerUpdates:
    def test_inner_update_reflected(self):
        db = build(Strategy.IMMEDIATE)
        db.apply_transaction(Transaction.of("r2", [Update(3, {"c": 999})]))
        assert Counter(db.query_view("v", 0, 9)) == ground_truth(db)

    def test_inner_insert_joins_existing_outers(self):
        db = build(Strategy.IMMEDIATE, inner=15)
        # Add outer tuples pointing at a not-yet-existing inner key.
        db.apply_transaction(Transaction.of("r1", [
            Insert(R1.new_record(id=900, a=5, j=99)),
            Insert(R1.new_record(id=901, a=6, j=99)),
        ]))
        before = Counter(db.query_view("v", 0, 9))
        assert not any(vt["j"] == 99 for vt in before)
        db.apply_transaction(Transaction.of("r2", [
            Insert(R2.new_record(j=99, c=1)),
        ]))
        after = Counter(db.query_view("v", 0, 9))
        assert after == ground_truth(db)
        assert sum(1 for vt in after if vt["j"] == 99) == 2

    def test_inner_delete_removes_joined_rows(self):
        db = build(Strategy.IMMEDIATE)
        db.apply_transaction(Transaction.of("r2", [Delete(3)]))
        answer = Counter(db.query_view("v", 0, 9))
        assert answer == ground_truth(db)
        assert not any(vt["j"] == 3 for vt in answer)

    def test_mixed_two_sided_activity(self):
        db = build(Strategy.IMMEDIATE)
        rng = random.Random(9)
        for _ in range(5):
            db.apply_transaction(Transaction.of("r1", [
                Update(rng.randrange(150), {"a": rng.randrange(50)}),
            ]))
            db.apply_transaction(Transaction.of("r2", [
                Update(rng.randrange(15), {"c": rng.randrange(1000)}),
            ]))
            assert Counter(db.query_view("v", 0, 9)) == ground_truth(db)

    def test_outer_moves_track_join_index(self):
        """Changing an outer tuple's join value must reroute future
        inner updates to the new partner."""
        db = build(Strategy.IMMEDIATE)
        # Point outer tuple 0 at inner 7, ensure it's in the view.
        db.apply_transaction(Transaction.of("r1", [Update(0, {"a": 1, "j": 7})]))
        db.apply_transaction(Transaction.of("r2", [Update(7, {"c": 4242})]))
        answer = db.query_view("v", 0, 9)
        matching = [vt for vt in answer if vt["id"] == 0]
        assert matching and matching[0]["c"] == 4242

    def test_inner_update_charges_outer_fetches(self):
        db = build(Strategy.IMMEDIATE)
        before = db.meter.snapshot()
        db.apply_transaction(Transaction.of("r2", [Update(3, {"c": 1})]))
        delta = db.meter.delta_since(before)
        joining_outers = sum(
            1 for r in db.relations["r1"].records_snapshot() if r["j"] == 3
        )
        assert delta.page_reads >= joining_outers  # one fetch per partner


class TestOtherStrategies:
    def test_loopjoin_sees_inner_updates_for_free(self):
        db = build(Strategy.QM_LOOPJOIN)
        db.apply_transaction(Transaction.of("r2", [Update(3, {"c": 999})]))
        assert Counter(db.query_view("v", 0, 9)) == ground_truth(db)

    def test_deferred_rejects_inner_updates_clearly(self):
        db = build(Strategy.DEFERRED)
        with pytest.raises(NotImplementedError, match="IMMEDIATE"):
            db.apply_transaction(Transaction.of("r2", [Update(3, {"c": 1})]))


class TestImmediateJoinBesideADeferredSibling:
    """A deferred sibling keeps the outer relation hypothetical with AD
    pending, so the immediate join's base file lags the relation; an
    inner update must join the outer tuples as they stand."""

    def test_inner_updates_read_the_outer_as_it_stands(self):
        db = Database(buffer_pages=256)
        rng = random.Random(4)
        db.create_relation(R1, "a", kind="hypothetical", ad_buckets=4, records=[
            R1.new_record(id=i, a=rng.randrange(20), j=i % 5) for i in range(60)])
        db.create_relation(R2, "j", kind="hashed",
                           records=[R2.new_record(j=j, c=j) for j in range(5)])
        db.define_view(VIEW, Strategy.IMMEDIATE)
        db.define_view(SelectProjectView("d", "r1", IntervalPredicate("a", 0, 9),
                                         ("id", "a"), "a"), Strategy.DEFERRED)
        for step in range(40):
            if step % 3 == 2:
                txn = Transaction.of("r2", [Update(step % 5, {"c": step})])
            else:
                txn = Transaction.of("r1", [Update(rng.randrange(60), {
                    "a": rng.randrange(20)})])
            db.apply_transaction(txn)
            assert db.relations["r1"].pending
            truth = VIEW.evaluate(db.logical_records("r1"), db.logical_records("r2"))
            assert Counter(db.query_view("v")) == Counter(truth), step
