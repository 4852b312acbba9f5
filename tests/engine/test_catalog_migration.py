"""Catalog operations behind live strategy migration."""

import random
from collections import Counter

import pytest

from repro.core.strategies import Strategy
from repro.durability.manager import DurabilityManager
from repro.engine.database import CatalogError, Database
from repro.engine.transaction import Transaction, Update
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
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


# ----------------------------------------------------------------------
# validate -> journal -> act: a refused operation leaves no trace
# ----------------------------------------------------------------------
R1 = Schema("r1", ("id", "a", "j"), "id", tuple_bytes=100)
R2 = Schema("r2", ("j", "c"), "j", tuple_bytes=100)
JOIN = JoinView("v", "r1", "r2", "j", IntervalPredicate("a", 0, 9),
                ("id", "a"), ("j", "c"), "a")
JOIN2 = JoinView("w", "r1", "r2", "j", IntervalPredicate("a", 5, 19),
                 ("id", "a"), ("j", "c"), "a")
OFF_KEY = SelectProjectView("v", "r1", IntervalPredicate("a", 0, 9),
                            ("id", "a"), "a")


def join_db(inner_kind="hashed_hypothetical", clustered_on="a", manager=None):
    database = Database(buffer_pages=256)
    if manager is not None:
        manager.attach(database)
    rng = random.Random(3)
    database.create_relation(
        R1, clustered_on, kind="hypothetical", ad_buckets=4,
        records=[R1.new_record(id=i, a=rng.randrange(40), j=rng.randrange(12))
                 for i in range(120)],
    )
    database.create_relation(
        R2, "j", kind=inner_kind, ad_buckets=4,
        records=[R2.new_record(j=j, c=j * 10) for j in range(12)],
    )
    return database


def recomputed(db, definition=JOIN):
    return Counter(definition.evaluate(
        db.logical_records("r1"), db.logical_records("r2")
    ))


#: label -> (definition, inner kind, outer clustering, refused target, message)
REFUSED_MIGRATIONS = {
    "unsupported pair": (
        JOIN, "hashed", "a", Strategy.SNAPSHOT, "unsupported strategy"),
    "wrong clustering": (
        OFF_KEY, "hashed", "id", Strategy.QM_CLUSTERED, "clustered on the view key"),
    "differential inner": (
        JOIN, "hashed_hypothetical", "a", Strategy.QM_LOOPJOIN,
        "only usable by deferred join views"),
}


class TestRefusedMigrationLeavesNoTrace:
    @pytest.mark.parametrize("label", sorted(REFUSED_MIGRATIONS))
    def test_refused_migration_and_state_dir_reopens(self, label, tmp_path):
        definition, inner_kind, clustered_on, target, message = (
            REFUSED_MIGRATIONS[label]
        )
        manager = DurabilityManager(tmp_path / "state")
        db = join_db(inner_kind, clustered_on, manager)
        impl = db.define_view(definition, Strategy.DEFERRED)
        db.apply_transaction(Transaction.of("r1", [Update(0, {"a": 5})]))
        answer = Counter(db.query_view("v", 0, 9))
        files = db.disk.files()
        meter = db.meter.snapshot()
        wal_bytes = manager.wal.wal_bytes()

        with pytest.raises(ValueError, match=message) as refusal:
            db.migrate_view("v", target)

        assert db.views == {"v": impl} and impl.strategy is Strategy.DEFERRED
        assert isinstance(refusal.value, CatalogError)
        assert db.disk.files() == files
        assert db.meter.snapshot() == meter
        assert manager.wal.wal_bytes() == wal_bytes
        assert Counter(db.query_view("v", 0, 9)) == answer
        manager.close()

        reopened, _report, _state = DurabilityManager(tmp_path / "state").open()
        assert reopened.views["v"].strategy is Strategy.DEFERRED
        assert Counter(reopened.query_view("v", 0, 9)) == answer

    def test_refused_definition_and_restore_build_nothing(self):
        db = join_db()
        files = db.disk.files()
        for operation in (db.define_view, db.restore_view):
            with pytest.raises(CatalogError, match="only usable by deferred"):
                operation(JOIN, Strategy.IMMEDIATE)
            with pytest.raises(CatalogError, match="refresh_every must be >= 1"):
                operation(OFF_KEY, Strategy.SNAPSHOT, refresh_every=0)
        assert db.views == {} and db.views_on("r1") == ()
        assert db.disk.files() == files


class TestEverySourceIsSettled:
    def test_rebuild_with_a_pending_inner_backlog(self):
        """The repair primitive folds the inner AD file too: a copy
        built over an unfolded backlog has it applied twice."""
        db = join_db()
        db.define_view(JOIN, Strategy.DEFERRED)
        db.apply_transaction(Transaction.of("r2", [Update(3, {"c": 999})]))
        db.apply_transaction(Transaction.of("r2", [Update(4, {"c": 998})]))
        assert db.relations["r2"].ad_entry_count() == 4
        db.rebuild_view("v")
        assert Counter(db.query_view("v", 0, 9)) == recomputed(db)
        assert db.relations["r2"].ad_entry_count() == 0

    def test_settling_the_inner_runs_the_joins_epoch(self):
        db = join_db()
        db.define_view(JOIN, Strategy.DEFERRED)
        db.apply_transaction(Transaction.of("r1", [Update(0, {"a": 5})]))
        db.apply_transaction(Transaction.of("r2", [Update(3, {"c": 999})]))
        assert db.deferred_coordinator("r2") is db.deferred_coordinator("r1")
        db.settle_relation("r2")
        assert db.relations["r1"].pending == db.relations["r2"].pending == 0
        assert Counter(db.query_view("v", 0, 9, refresh=False)) == recomputed(db)


class TestSiblingsShareOneInnerRead:
    def test_two_deferred_joins_over_one_differential_inner(self):
        """Section 4's rule for R2: one read of the inner AD file per
        epoch feeds both joins, and it is folded after both applied."""
        db = join_db()
        db.define_view(JOIN, Strategy.DEFERRED)
        db.define_view(JOIN2, Strategy.DEFERRED)
        inner = db.relations["r2"]
        rng = random.Random(11)
        for epoch in range(1, 5):
            db.apply_transaction(Transaction.of("r2", [
                Update(rng.randrange(12), {"c": rng.randrange(1000)}),
            ]))
            db.apply_transaction(Transaction.of("r1", [
                Update(rng.randrange(120), {"a": rng.randrange(20)}),
                Update(rng.randrange(120), {"j": rng.randrange(12)}),
            ]))
            assert Counter(db.query_view("v", 0, 9)) == recomputed(db)
            assert Counter(
                db.query_view("w", 5, 19, refresh=False)
            ) == recomputed(db, JOIN2)
            assert inner.net_reads == epoch and inner.pending == 0

    def test_a_second_outer_over_the_inner_is_refused(self):
        db = join_db()
        db.create_relation(
            Schema("r3", ("id", "a", "j"), "id", tuple_bytes=100), "a",
            kind="hypothetical",
        )
        db.define_view(JOIN, Strategy.DEFERRED)
        other = JoinView("w", "r3", "r2", "j", IntervalPredicate("a", 0, 9),
                         ("id", "a"), ("j", "c"), "a")
        with pytest.raises(CatalogError, match="must share their outer relation"):
            db.define_view(other, Strategy.DEFERRED)
        assert list(db.views) == ["v"]
