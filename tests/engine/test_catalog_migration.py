"""Catalog operations behind live strategy migration."""

import random

import pytest

from repro.core.strategies import Strategy
from repro.engine.database import CatalogError, Database
from repro.engine.transaction import Transaction, Update
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, SelectProjectView
from repro.views.predicate import IntervalPredicate

R = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
SP = SelectProjectView("tuples_view", "r", IntervalPredicate("a", 0, 9),
                       ("id", "a"), "a")
AGG = AggregateView("sum_view", "r", IntervalPredicate("a", 0, 9), "sum", "v")


@pytest.fixture
def db():
    database = Database(buffer_pages=256)
    rng = random.Random(0)
    records = [R.new_record(id=i, a=rng.randrange(50), v=rng.randrange(100))
               for i in range(300)]
    database.create_relation(R, "a", kind="hypothetical", records=records,
                             ad_buckets=2)
    return database


def touch(db, key=0, a=5, v=1000):
    db.apply_transaction(Transaction.of("r", [Update(key, {"a": a, "v": v})]))


class TestViewsOn:
    def test_lists_views_per_relation(self, db):
        db.define_view(SP, Strategy.DEFERRED)
        db.define_view(AGG, Strategy.IMMEDIATE)
        assert set(db.views_on("r")) == {"tuples_view", "sum_view"}
        assert db.views_on("elsewhere") == ()

    def test_view_definition_round_trips(self, db):
        db.define_view(SP, Strategy.DEFERRED)
        assert db.view_definition("tuples_view") is SP
        with pytest.raises(CatalogError):
            db.view_definition("nope")


class TestSettleRelation:
    def test_folds_backlog_into_base(self, db):
        touch(db)
        relation = db.relations["r"]
        assert relation.ad_entry_count() > 0
        db.settle_relation("r")
        assert relation.ad_entry_count() == 0
        settled = {r.key: r for r in relation.base.records_snapshot()}
        assert settled[0].values["a"] == 5 and settled[0].values["v"] == 1000

    def test_refreshes_deferred_siblings_rather_than_dropping_them(self, db):
        db.define_view(AGG, Strategy.DEFERRED)
        touch(db)
        db.settle_relation("r")
        snapshot = list(db.relations["r"].scan_logical())
        assert db.query_view("sum_view") == AGG.evaluate(snapshot)

    def test_noop_without_backlog(self, db):
        before = db.meter.snapshot()
        db.settle_relation("r")
        delta = db.meter.diff(before)
        assert delta.page_reads == 0 and delta.page_writes == 0


class TestFoldAndStoredReads:
    def test_fold_runs_the_epoch_even_on_an_empty_backlog(self, db):
        """The paper's on-demand refresh reads AD before it knows it is
        empty — unlike settle_relation, which is free then."""
        db.define_view(AGG, Strategy.DEFERRED)
        coordinator = db.deferred_coordinator("r")
        db.settle_relation("r")
        assert coordinator.net_computes == 0
        db.fold_relation("r")
        assert coordinator.net_computes == 1

    def test_stored_read_skips_the_refresh(self, db):
        db.define_view(AGG, Strategy.DEFERRED)
        db.define_view(SP, Strategy.DEFERRED)
        stale_total = db.query_view("sum_view")
        stale_tuples = db.query_view("tuples_view", 0, 9)
        touch(db)
        answered = db.queries_answered
        assert db.query_view("sum_view", refresh=False) == stale_total
        assert db.query_view("tuples_view", 0, 9, refresh=False) == stale_tuples
        assert db.queries_answered == answered + 2
        assert db.relations["r"].ad_entry_count() > 0  # nothing was folded
        assert db.query_view("sum_view") != stale_total

    @pytest.mark.parametrize("strategies,folds", [
        ((Strategy.DEFERRED, Strategy.IMMEDIATE), False),  # the refresh batches it
        ((Strategy.QM_CLUSTERED,), False),                 # the reader settles first
        ((Strategy.IMMEDIATE,), True),                     # write-through
        ((), True),
    ])
    def test_write_through_settle_follows_the_strategies_present(
        self, db, strategies, folds
    ):
        for definition, strategy in zip((AGG, SP), strategies):
            db.define_view(definition, strategy)
        touch(db)
        db.settle_unless_batched("r")
        assert (db.relations["r"].ad_entry_count() == 0) is folds

    def test_restore_recreates_a_vanished_view_from_settled_data(self, db):
        db.define_view(AGG, Strategy.DEFERRED)
        db.drop_view("sum_view")
        touch(db)  # pending while the view is gone
        db.restore_view(AGG, Strategy.DEFERRED)
        assert db.query_view("sum_view") == AGG.evaluate(
            list(db.relations["r"].scan_logical())
        )
        with pytest.raises(CatalogError, match="already exists"):
            db.restore_view(AGG, Strategy.DEFERRED)


class TestDropView:
    def test_drop_removes_from_catalog(self, db):
        db.define_view(SP, Strategy.DEFERRED)
        db.drop_view("tuples_view")
        assert "tuples_view" not in db.views
        assert db.views_on("r") == ()
        with pytest.raises(CatalogError):
            db.drop_view("tuples_view")

    def test_drop_keeps_backlog_for_sibling(self, db):
        db.define_view(SP, Strategy.DEFERRED)
        db.define_view(AGG, Strategy.DEFERRED)
        touch(db)
        db.drop_view("tuples_view")
        assert db.relations["r"].ad_entry_count() > 0
        snapshot = list(db.relations["r"].scan_logical())
        assert db.query_view("sum_view") == AGG.evaluate(snapshot)


class TestMigrateView:
    @pytest.mark.parametrize("target", [
        Strategy.QM_CLUSTERED, Strategy.IMMEDIATE,
    ])
    def test_deferred_to_other_strategies(self, db, target):
        db.define_view(SP, Strategy.DEFERRED)
        touch(db)
        db.migrate_view("tuples_view", target)
        assert db.views["tuples_view"].strategy is target
        snapshot = list(db.relations["r"].scan_logical())
        assert (len(db.query_view("tuples_view", 0, 9))
                == len(SP.evaluate(snapshot)))

    def test_migration_settles_pending_backlog(self, db):
        db.define_view(SP, Strategy.DEFERRED)
        touch(db)
        db.migrate_view("tuples_view", Strategy.QM_CLUSTERED)
        assert db.relations["r"].ad_entry_count() == 0

    def test_round_trip_back_to_deferred(self, db):
        db.define_view(AGG, Strategy.DEFERRED)
        db.migrate_view("sum_view", Strategy.QM_CLUSTERED)
        touch(db)
        db.migrate_view("sum_view", Strategy.DEFERRED)
        assert db.views["sum_view"].strategy is Strategy.DEFERRED
        touch(db, key=1, a=3, v=50)
        snapshot = list(db.relations["r"].scan_logical())
        assert db.query_view("sum_view") == AGG.evaluate(snapshot)

    def test_same_strategy_is_noop(self, db):
        db.define_view(SP, Strategy.DEFERRED)
        impl = db.views["tuples_view"]
        assert db.migrate_view("tuples_view", Strategy.DEFERRED) is impl

    def test_migration_cost_stays_on_meter(self, db):
        db.define_view(SP, Strategy.DEFERRED)
        touch(db)
        before = db.meter.snapshot()
        db.migrate_view("tuples_view", Strategy.IMMEDIATE)
        delta = db.meter.diff(before)
        assert delta.page_writes > 0  # settle + bulk load are real work
