"""Database catalog, transaction routing, cold-operation mode."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import PAPER_DEFAULTS
from repro.core.strategies import Strategy
from repro.engine.database import KINDS, CatalogError, Database
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.hr.differential import ClusteredRelation, HypotheticalRelation, SeparateFilesHR
from repro.engine.relations import HashedRelation
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, SelectProjectView
from repro.views.predicate import IntervalPredicate

R = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
SP_DEF = SelectProjectView("v", "r", IntervalPredicate("a", 0, 9), ("id", "a"), "a")


def records(n=50):
    return [R.new_record(id=i, a=i % 20, v=i) for i in range(n)]


class TestCatalog:
    @pytest.mark.parametrize("kind,expected", [
        ("plain", ClusteredRelation),
        ("hypothetical", HypotheticalRelation),
        ("separate", SeparateFilesHR),
    ])
    def test_relation_kinds(self, kind, expected):
        db = Database()
        relation = db.create_relation(R, "a", kind=kind, records=records())
        assert isinstance(relation, expected)
        assert db.relations["r"] is relation

    def test_hashed_kind(self):
        db = Database()
        schema = Schema("r2", ("j", "c"), "j")
        relation = db.create_relation(
            schema, "j", kind="hashed",
            records=[schema.new_record(j=i, c=0) for i in range(5)],
        )
        assert isinstance(relation, HashedRelation)

    def test_unknown_kind_rejected(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.create_relation(R, "a", kind="mystery")

    def test_duplicate_relation_rejected(self):
        db = Database()
        db.create_relation(R, "a")
        with pytest.raises(CatalogError):
            db.create_relation(R, "a")

    def test_duplicate_view_rejected(self):
        db = Database()
        db.create_relation(R, "a", records=records())
        db.define_view(SP_DEF, Strategy.QM_CLUSTERED)
        with pytest.raises(CatalogError):
            db.define_view(SP_DEF, Strategy.QM_CLUSTERED)

    def test_unknown_relation_in_transaction(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.apply_transaction(Transaction.of("ghost", [Delete(1)]))

    def test_unknown_view_in_query(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.query_view("ghost")

    def test_transactions_against_hashed_relations_work(self):
        """Inner relations accept updates (our extension beyond the
        paper's R2-never-updated simplification)."""
        db = Database()
        schema = Schema("r2", ("j", "c"), "j")
        db.create_relation(schema, "j", kind="hashed")
        db.apply_transaction(
            Transaction.of("r2", [Insert(schema.new_record(j=1, c=1))])
        )
        relation = db.relations["r2"]
        assert relation.probe(1) == [schema.new_record(j=1, c=1)]
        db.apply_transaction(Transaction.of("r2", [Update(1, {"c": 9})]))
        assert relation.probe(1)[0]["c"] == 9
        db.apply_transaction(Transaction.of("r2", [Delete(1)]))
        assert relation.probe(1) == []

    def test_from_parameters_sets_geometry(self):
        db = Database.from_parameters(PAPER_DEFAULTS)
        assert db.block_bytes == 4000
        assert db.fanout == 200


class TestTransactions:
    def test_delta_reflects_net_changes(self):
        db = Database()
        db.create_relation(R, "a", records=records())
        delta = db.apply_transaction(Transaction.of("r", [
            Update(1, {"a": 5}),
            Delete(2),
            Insert(R.new_record(id=100, a=1, v=1)),
        ]))
        assert len(delta.deleted) == 2  # old version of 1, and 2
        assert len(delta.inserted) == 2  # new version of 1, and 100

    def test_counters(self):
        db = Database()
        db.create_relation(R, "a", records=records())
        db.define_view(SP_DEF, Strategy.QM_CLUSTERED)
        db.apply_transaction(Transaction.of("r", [Update(1, {"a": 5})]))
        db.query_view("v", 0, 9)
        assert db.transactions_applied == 1
        assert db.queries_answered == 1

    def test_multiple_views_on_one_relation(self):
        db = Database()
        db.create_relation(R, "a", records=records())
        agg = AggregateView("sum_v", "r", IntervalPredicate("a", 0, 9), "sum", "v")
        db.define_view(SP_DEF, Strategy.IMMEDIATE)
        db.define_view(agg, Strategy.IMMEDIATE)
        db.apply_transaction(Transaction.of("r", [Update(1, {"a": 5, "v": 999})]))
        # Both views stay consistent.
        tuples = db.query_view("v", 0, 9)
        total = db.query_view("sum_v")
        snapshot = db.relations["r"].records_snapshot()
        assert len(tuples) == len(SP_DEF.evaluate(snapshot))
        assert total == agg.evaluate(snapshot)

    def test_secondary_index_maintained_through_transactions(self):
        db = Database()
        db.create_relation(R, "id", records=records())
        index = db.create_secondary_index("r", "a")
        db.apply_transaction(Transaction.of("r", [Update(1, {"a": 19})]))
        assert 1 in index.keys_in_range(19, 19)
        db.apply_transaction(Transaction.of("r", [Delete(1)]))
        assert 1 not in index.keys_in_range(19, 19)

    def test_secondary_index_requires_tree_relation(self):
        db = Database()
        schema = Schema("r2", ("j", "c"), "j")
        db.create_relation(schema, "j", kind="hashed")
        with pytest.raises(CatalogError):
            db.create_secondary_index("r2", "c")


class TestColdOperations:
    def test_cold_mode_invalidates_between_operations(self):
        db = Database(cold_operations=True)
        db.create_relation(R, "a", records=records())
        db.define_view(SP_DEF, Strategy.QM_CLUSTERED)
        db.reset_meter()
        db.query_view("v", 0, 9)
        first = db.meter.page_reads
        db.query_view("v", 0, 9)
        assert db.meter.page_reads == 2 * first  # no cross-query caching

    def test_warm_mode_caches_between_operations(self):
        db = Database(cold_operations=False)
        db.create_relation(R, "a", records=records())
        db.define_view(SP_DEF, Strategy.QM_CLUSTERED)
        db.reset_meter()
        db.query_view("v", 0, 9)
        first = db.meter.page_reads
        db.query_view("v", 0, 9)
        assert db.meter.page_reads == first  # fully buffered

    def test_reset_meter_flushes_first(self):
        db = Database()
        db.create_relation(R, "a", records=records())
        db.reset_meter()
        assert db.meter.page_ios == 0


class TestSetupBucket:
    """Regression: setup I/O (bulk loads, initial materialization) must
    land in the meter's setup bucket, never in the first query's cost."""

    def test_bulk_load_charges_setup_bucket_only(self):
        db = Database()
        db.create_relation(R, "a", records=records())
        assert db.meter.page_ios == 0
        assert db.meter.setup_page_ios > 0

    def test_empty_relation_creation_is_setup_too(self):
        # The fresh tree's root-page flush used to leak one workload
        # write even with no records loaded.
        db = Database()
        db.create_relation(R, "a")
        assert db.meter.page_ios == 0

    @pytest.mark.parametrize("kind", ["plain", "hypothetical", "separate", "hashed"])
    def test_every_relation_kind_loads_clean(self, kind):
        db = Database()
        schema = R if kind != "hashed" else Schema("r2", ("id", "a"), "id")
        recs = records() if kind != "hashed" else [
            schema.new_record(id=i, a=i % 20) for i in range(50)
        ]
        db.create_relation(schema, "a" if kind != "hashed" else "id",
                           kind=kind, records=recs)
        assert db.meter.page_ios == 0

    def test_materialized_view_definition_is_setup(self):
        db = Database()
        db.create_relation(R, "a", records=records())
        db.define_view(SP_DEF, Strategy.IMMEDIATE)
        assert db.meter.page_ios == 0
        assert db.meter.setup_page_ios > 0

    def test_first_query_cost_excludes_setup(self):
        db = Database(cold_operations=True)
        db.create_relation(R, "a", records=records())
        db.define_view(SP_DEF, Strategy.QM_CLUSTERED)
        before = db.meter.snapshot()
        db.query_view("v", 0, 9)
        delta = db.meter.delta_since(before)
        assert delta.page_reads > 0
        assert delta.setup_page_ios == 0 and delta.setup_screens == 0

    def test_migration_rebuild_stays_on_workload_meter(self):
        # Migrations pass setup_bucket=False: the rebuild is workload
        # cost the adaptive router must weigh, not setup.
        db = Database()
        db.create_relation(R, "a", records=records())
        db.define_view(SP_DEF, Strategy.QM_CLUSTERED)
        db.reset_meter()
        db.migrate_view("v", Strategy.IMMEDIATE)
        assert db.meter.page_ios > 0
        assert db.meter.setup_page_ios == 0

    def test_reset_meter_zeroes_both_buckets(self):
        db = Database()
        db.create_relation(R, "a", records=records())
        db.reset_meter()
        assert db.meter.page_ios == 0
        assert db.meter.setup_page_ios == 0


class TestKeyedLogicalRead:
    """``logical_record`` is ``logical_records`` asked for one key."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["insert", "delete", "update", "reinsert", "fold"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=19),
    ), max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_the_scan_and_charges_nothing(self, kind, ops):
        db = Database(buffer_pages=64)
        db.create_relation(R, "id" if kind.startswith("hashed") else "a",
                           kind=kind, records=records(10), ad_buckets=2)
        live = set(range(10))
        for action, key, a in ops:
            if action == "fold":
                db.settle_relation("r")
                continue
            batch = []
            if action == "insert" and key not in live:
                batch = [Insert(R.new_record(id=key, a=a, v=key))]
                live.add(key)
            elif action == "delete" and key in live:
                batch = [Delete(key)]
                live.discard(key)
            elif action == "update" and key in live:
                batch = [Update(key, {"a": a})]
            elif action == "reinsert" and key in live:
                # Same key, new value, inside one transaction.
                batch = [Delete(key), Insert(R.new_record(id=key, a=a, v=-key))]
            if batch:
                db.apply_transaction(Transaction.of("r", batch))
        before = db.meter.snapshot()
        by_key = {}
        for record in db.logical_records("r"):
            assert by_key.setdefault(record.key, record) is record  # one per key
        assert set(by_key) == live
        for key in range(-1, 17):
            assert db.logical_record("r", key) == by_key.get(key)
        assert db.meter.snapshot() == before

    def test_unknown_relation_is_a_catalog_error(self):
        with pytest.raises(CatalogError):
            Database().logical_record("nope", 1)
