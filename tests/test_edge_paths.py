"""Cross-cutting edge paths and failure injection.

These tests exercise corners the standard scenarios never hit: heavy
duplicate collapse in projections, deliberately degraded Bloom filters,
a one-page buffer pool, and extreme parameter corners — the places a
reproduction that only runs the happy path would silently get wrong.
"""

import random
from collections import Counter

import pytest

from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.hr.differential import ClusteredRelation, HypotheticalRelation
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.storage.tuples import Schema
from repro.views.definition import SelectProjectView
from repro.views.predicate import IntervalPredicate

R = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)

#: Projection drops the unique id: many base tuples map to one view
#: tuple, so duplicate counts do real work.
DUP_VIEW = SelectProjectView("v", "r", IntervalPredicate("a", 0, 9), ("a",), "a")


def build_dup_db(strategy, n=120, seed=0):
    db = Database(buffer_pages=256)
    kind = "hypothetical" if strategy is Strategy.DEFERRED else "plain"
    rng = random.Random(seed)
    records = [R.new_record(id=i, a=rng.randrange(20), v=i) for i in range(n)]
    db.create_relation(R, "a", kind=kind, records=records, ad_buckets=4)
    db.define_view(DUP_VIEW, strategy)
    db.reset_meter()
    return db


class TestDuplicateCountsThroughEngine:
    @pytest.mark.parametrize(
        "strategy", [Strategy.DEFERRED, Strategy.IMMEDIATE], ids=lambda s: s.label
    )
    def test_collapsing_projection_stays_correct(self, strategy):
        db = build_dup_db(strategy)
        rng = random.Random(11)
        for round_ in range(6):
            ops = []
            for _ in range(4):
                key = rng.randrange(120)
                ops.append(Update(key, {"a": rng.randrange(20)}))
            db.apply_transaction(Transaction.of("r", ops))
            answer = Counter(db.query_view("v", 0, 9))
            relation = db.relations["r"]
            snapshot = (
                list(relation.scan_logical())
                if isinstance(relation, HypotheticalRelation)
                else relation.records_snapshot()
            )
            assert answer == Counter(DUP_VIEW.evaluate(snapshot)), f"round {round_}"

    def test_duplicate_counts_match_multiplicity(self):
        db = build_dup_db(Strategy.IMMEDIATE)
        strategy = db.views["v"]
        snapshot = db.relations["r"].records_snapshot()
        expected = Counter(DUP_VIEW.evaluate(snapshot))
        for vt, count in expected.items():
            assert strategy.model.matview.duplicate_count(vt) == count

    def test_delete_to_zero_removes_view_tuple(self):
        db = Database(buffer_pages=64)
        records = [R.new_record(id=i, a=5, v=i) for i in range(3)]
        db.create_relation(R, "a", kind="plain", records=records)
        db.define_view(DUP_VIEW, Strategy.IMMEDIATE)
        strategy = db.views["v"]
        vt = DUP_VIEW.evaluate(records)[0]
        assert strategy.model.matview.duplicate_count(vt) == 3
        for key in range(3):
            db.apply_transaction(Transaction.of("r", [Delete(key)]))
        assert strategy.model.matview.duplicate_count(vt) == 0
        assert db.query_view("v", 0, 9) == []


class TestStoredReadWithoutStoredCopy:
    @pytest.mark.parametrize(
        "strategy",
        [Strategy.QM_CLUSTERED, Strategy.QM_SEQUENTIAL],
        ids=lambda s: s.label,
    )
    def test_query_modification_has_no_stored_copy_to_read(self, strategy):
        """``refresh=False`` asks for the stored copy as it stands; a
        query-modification view has none, and must say so by name."""
        from repro.engine.database import CatalogError

        db = build_dup_db(strategy)
        answered = db.queries_answered
        with pytest.raises(CatalogError, match=f"'v'.*{strategy.label}"):
            db.query_view("v", 0, 9, refresh=False)
        assert db.queries_answered == answered
        # The refusal leaves the view fully usable.
        expected = Counter(DUP_VIEW.evaluate(db.relations["r"].records_snapshot()))
        assert Counter(db.query_view("v", 0, 9)) == expected


class TestDegradedBloomFilter:
    def test_false_drops_do_not_break_reads(self):
        """A saturated Bloom filter forces the false-drop path (check
        AD, miss, fall through to base) on every read — correctness
        must be unaffected, only cost."""
        meter = CostMeter()
        pool = BufferPool(SimulatedDisk(meter), capacity=64)
        base = ClusteredRelation(R, pool, "a")
        base.bulk_load([R.new_record(id=i, a=i % 20, v=i) for i in range(100)])
        hr = HypotheticalRelation(base, bloom_bits=1, ad_buckets=2)
        hr.update_by_key(3, v=999)
        # Every probe now "maybe" hits AD.
        assert hr.bloom.maybe_contains("definitely-not-present")
        assert hr.read_by_key(3)["v"] == 999
        assert hr.read_by_key(50)["v"] == 50  # false drop, then base
        assert hr.read_by_key(99_999) is None

    def test_false_drops_cost_extra_reads(self):
        def read_cost(bloom_bits):
            meter = CostMeter()
            pool = BufferPool(SimulatedDisk(meter), capacity=64)
            base = ClusteredRelation(R, pool, "a")
            base.bulk_load([R.new_record(id=i, a=i % 20, v=i) for i in range(100)])
            hr = HypotheticalRelation(base, bloom_bits=bloom_bits, ad_buckets=2)
            hr.update_by_key(3, v=999)
            meter.reset()
            for key in range(40, 80):  # unmodified tuples
                pool.invalidate_all()
                hr.read_by_key(key)
            return meter.page_reads

        assert read_cost(bloom_bits=1) > read_cost(bloom_bits=1 << 16)


class TestTinyBufferPool:
    def test_whole_scenario_survives_one_frame(self):
        """Capacity-1 pool: pathological thrashing, same answers."""
        db = Database(buffer_pages=1)
        records = [R.new_record(id=i, a=i % 20, v=i) for i in range(60)]
        db.create_relation(R, "a", kind="plain", records=records)
        db.define_view(DUP_VIEW, Strategy.IMMEDIATE)
        rng = random.Random(2)
        for _ in range(3):
            db.apply_transaction(Transaction.of("r", [
                Update(rng.randrange(60), {"a": rng.randrange(20)}),
            ]))
        answer = Counter(db.query_view("v", 0, 9))
        expected = Counter(DUP_VIEW.evaluate(db.relations["r"].records_snapshot()))
        assert answer == expected

    def test_tiny_pool_costs_more(self):
        def run(buffer_pages):
            db = Database(buffer_pages=buffer_pages)
            records = [R.new_record(id=i, a=i % 20, v=i) for i in range(200)]
            db.create_relation(R, "a", kind="plain", records=records)
            db.define_view(DUP_VIEW, Strategy.IMMEDIATE)
            db.reset_meter()
            rng = random.Random(2)
            for _ in range(5):
                db.apply_transaction(Transaction.of("r", [
                    Update(rng.randrange(200), {"a": rng.randrange(20)})
                    for _ in range(5)
                ]))
                db.query_view("v", 0, 9)
            return db.meter.page_ios

        assert run(buffer_pages=1) > run(buffer_pages=256)


class TestExtremeCorners:
    def test_view_selecting_everything(self):
        view = SelectProjectView("v", "r", IntervalPredicate("a", 0, 10**9),
                                 ("id", "a"), "a")
        db = Database(buffer_pages=64)
        records = [R.new_record(id=i, a=i, v=0) for i in range(30)]
        db.create_relation(R, "a", kind="plain", records=records)
        db.define_view(view, Strategy.IMMEDIATE)
        assert len(db.query_view("v")) == 30

    def test_view_selecting_nothing_after_updates(self):
        db = Database(buffer_pages=64)
        records = [R.new_record(id=i, a=i + 100, v=0) for i in range(20)]
        db.create_relation(R, "a", kind="hypothetical", records=records,
                           ad_buckets=2)
        db.define_view(DUP_VIEW, Strategy.DEFERRED)
        db.apply_transaction(Transaction.of("r", [Update(0, {"a": 150})]))
        assert db.query_view("v", 0, 9) == []

    def test_transaction_moving_tuple_in_and_out(self):
        """One transaction moving a tuple out and back nets to nothing."""
        db = build_dup_db(Strategy.DEFERRED)
        before = Counter(db.query_view("v", 0, 9))
        db.apply_transaction(Transaction.of("r", [
            Update(0, {"a": 50}),
            Update(0, {"a": 5}),
        ]))
        db.apply_transaction(Transaction.of("r", [Update(0, {"a": 5})]))
        # Tuple 0 ends with a=5 regardless of its start.
        snapshot = list(db.relations["r"].scan_logical())
        assert Counter(db.query_view("v", 0, 9)) == Counter(DUP_VIEW.evaluate(snapshot))

    def test_insert_then_delete_same_transaction(self):
        db = build_dup_db(Strategy.DEFERRED)
        db.apply_transaction(Transaction.of("r", [
            Insert(R.new_record(id=5000, a=5, v=1)),
            Delete(5000),
        ]))
        hr = db.relations["r"]
        assert not hr.net_changes()
        snapshot = list(hr.scan_logical())
        assert Counter(db.query_view("v", 0, 9)) == Counter(DUP_VIEW.evaluate(snapshot))
