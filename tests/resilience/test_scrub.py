"""Integrity scrubbing: verify, classify by owner, repair locally."""

import random
from collections import Counter

from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.resilience.scrub import (
    classify_file,
    repair_database,
    scrub_database,
    view_files,
)
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, SelectProjectView
from repro.views.predicate import IntervalPredicate

R = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
SP = SelectProjectView("v_tuples", "r", IntervalPredicate("a", 0, 9),
                       ("id", "a"), "a")
AGG = AggregateView("v_total", "r", IntervalPredicate("a", 0, 9), "sum", "v")


def make_db(strategy=Strategy.DEFERRED):
    db = Database(buffer_pages=256)
    rng = random.Random(3)
    records = [R.new_record(id=i, a=rng.randrange(50), v=rng.randrange(100))
               for i in range(200)]
    db.create_relation(R, "a", kind="hypothetical", records=records, ad_buckets=2)
    db.define_view(SP, strategy)
    db.define_view(AGG, strategy)
    db.pool.flush_all()
    return db


def corrupt_first_page(db, file):
    db.pool.flush_all()
    pid = db.disk.file_pages(file)[0]
    assert db.disk.corrupt(pid) is not None
    db.pool.invalidate_all()
    return pid


class TestClassification:
    def test_naming_conventions(self):
        db = make_db()
        assert classify_file(db, "view.v_tuples.leaf") == ("view", "v_tuples")
        assert classify_file(db, "view.v_tuples.int") == ("view", "v_tuples")
        assert classify_file(db, "agg.v_total") == ("view", "v_total")
        assert classify_file(db, "r.ad.hash") == ("differential", "r")
        assert classify_file(db, "r.leaf") == ("relation", "r")
        assert classify_file(db, "mystery.bin") == ("unknown", "mystery.bin")

    def test_relation_suffix_requires_catalog_entry(self):
        db = make_db()
        # Looks like a relation file, but no such relation exists.
        assert classify_file(db, "ghost.leaf") == ("unknown", "ghost.leaf")

    def test_view_files_covers_all_storage_shapes(self):
        """Each view's model names its own files — and they are the
        files the stored copy really lives in."""
        assert view_files(SP) == ("view.v_tuples.leaf", "view.v_tuples.int")
        assert view_files(AGG) == ("agg.v_total",)
        db = make_db()
        stored = {f for f in db.disk.files() if classify_file(db, f)[0] == "view"}
        assert {"view.v_tuples.leaf", "agg.v_total"} <= stored
        assert stored <= set(view_files(SP) + view_files(AGG))


class TestScrub:
    def test_clean_database_scrubs_ok(self):
        report = scrub_database(make_db())
        assert report.ok
        assert report.files_scanned > 0
        assert report.pages_scanned > 0

    def test_scrub_charges_metered_reads(self):
        db = make_db()
        before = db.meter.page_reads
        report = scrub_database(db)
        assert db.meter.page_reads - before >= report.pages_scanned

    def test_finds_and_classifies_view_damage(self):
        db = make_db()
        corrupt_first_page(db, "view.v_tuples.leaf")
        report = scrub_database(db)
        assert not report.ok
        assert report.damaged_views() == ["v_tuples"]
        assert report.damaged_relations() == []
        assert "view.v_tuples.leaf" in report.damaged_files

    def test_finds_relation_and_differential_damage(self):
        db = make_db()
        corrupt_first_page(db, "r.leaf")
        report = scrub_database(db)
        assert report.damaged_relations() == ["r"]
        assert report.damaged_views() == []

    def test_scoped_scrub_only_walks_requested_files(self):
        db = make_db()
        corrupt_first_page(db, "view.v_tuples.leaf")
        report = scrub_database(db, files=["agg.v_total"])
        assert report.ok  # damage is elsewhere
        assert report.files_scanned == 1

    def test_report_round_trips_to_dict(self):
        db = make_db()
        corrupt_first_page(db, "agg.v_total")
        doc = scrub_database(db).to_dict()
        assert doc["ok"] is False
        assert doc["damage"][0]["owner_kind"] == "view"
        assert doc["damage"][0]["owner"] == "v_total"


class TestRepair:
    def test_rebuilds_damaged_views_and_verifies(self):
        db = make_db()
        corrupt_first_page(db, "view.v_tuples.leaf")
        outcome = repair_database(db)
        assert outcome.rebuilt_views == ["v_tuples"]
        assert outcome.fully_repaired
        assert scrub_database(db).ok
        snapshot = db.relations["r"].logical_snapshot()
        assert Counter(db.query_view("v_tuples", 0, 9)) == Counter(SP.evaluate(snapshot))

    def test_relation_damage_is_escalated_not_hidden(self):
        db = make_db()
        corrupt_first_page(db, "r.leaf")
        outcome = repair_database(db)
        assert not outcome.fully_repaired
        assert outcome.unrepaired_files == ["r.leaf"]
        assert outcome.rebuilt_views == []

    def test_rebuild_verified_reports_a_rebuild_that_cannot_complete(self):
        from repro.resilience.scrub import rebuild_verified
        from repro.storage.pager import PageChecksumError, PageId

        db = make_db()
        corrupt_first_page(db, "view.v_tuples.leaf")
        assert rebuild_verified(db, "v_tuples")
        assert scrub_database(db, files=["view.v_tuples.leaf"]).ok

        def faulting_rebuild():
            raise PageChecksumError(PageId("r.leaf", 0))

        # A rebuild that trips on damage says so instead of raising.
        assert not rebuild_verified(db, "v_tuples", faulting_rebuild)
