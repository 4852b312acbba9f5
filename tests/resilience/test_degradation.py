"""The degradation ladder: labeled answers, fallback evaluators, repair."""

import random
from collections import Counter

import pytest

from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.resilience.degradation import (
    DegradedResult,
    describe_failure,
    qm_fallback_answer,
)
from repro.resilience.faults import TransientReadError
from repro.resilience.policy import CircuitOpenError, ResilienceConfig
from repro.service.server import ViewServer
from repro.storage.pager import PageChecksumError, PageId
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, SelectProjectView
from repro.views.predicate import IntervalPredicate
from repro.engine.transaction import Transaction, Update

R = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
SP = SelectProjectView("v_tuples", "r", IntervalPredicate("a", 0, 9),
                       ("id", "a"), "a")
AGG = AggregateView("v_total", "r", IntervalPredicate("a", 0, 9), "sum", "v")


def make_resilient_server(config=None, strategy=Strategy.DEFERRED):
    config = config if config is not None else ResilienceConfig()
    db = Database(buffer_pages=256, resilience=config)
    rng = random.Random(5)
    records = [R.new_record(id=i, a=rng.randrange(50), v=rng.randrange(100))
               for i in range(200)]
    db.create_relation(R, "a", kind="hypothetical", records=records, ad_buckets=2)
    server = ViewServer(db)
    for definition in (SP, AGG):
        server.register_view(definition, strategy, adaptive=False)
    db.pool.flush_all()
    return server


def corrupt_view_page(server, file):
    db = server.database
    db.pool.flush_all()
    pid = db.disk.file_pages(file)[0]
    assert db.disk.corrupt(pid) is not None
    db.pool.invalidate_all()
    return pid


def force_degraded(server, name):
    """Report a failure on a view's own storage to the health tracker."""
    server.health.fail(name, "query", PageChecksumError(PageId(f"agg.{name}", 0)))


def counter_value(server, name, **labels):
    return server.metrics.counter(name, **labels).value


class TestDescribeFailure:
    def test_checksum_names_the_file(self):
        pid = PageId("view.v.leaf", 3)
        reason, file = describe_failure(PageChecksumError(pid))
        assert reason.startswith("checksum:")
        assert file == "view.v.leaf"

    def test_transient_io_names_the_file(self):
        reason, file = describe_failure(TransientReadError(PageId("r.heap", 0)))
        assert reason.startswith("io_error:")
        assert file == "r.heap"

    def test_circuit_open_names_the_file(self):
        reason, file = describe_failure(CircuitOpenError("agg.v"))
        assert reason == "circuit_open:agg.v"
        assert file == "agg.v"

    def test_unrecognized_errors_carry_no_file(self):
        reason, file = describe_failure(RuntimeError("boom"))
        assert file is None
        assert "boom" in reason


class TestQmFallback:
    def test_matches_normal_answers(self):
        server = make_resilient_server()
        db = server.database
        expected_tuples = db.query_view("v_tuples", 0, 9)
        expected_total = db.query_view("v_total")
        assert Counter(qm_fallback_answer(db, SP, 0, 9)) == Counter(expected_tuples)
        assert qm_fallback_answer(db, AGG) == expected_total

    def test_sees_pending_differential_entries(self):
        """The rung-1 fallback reads *logical* content — fresh even while
        the batch still sits in AD."""
        server = make_resilient_server()
        db = server.database
        before = qm_fallback_answer(db, AGG)
        db.apply_transaction(
            Transaction.of("r", [Update(0, {"a": 5, "v": 10_000})])
        )
        assert qm_fallback_answer(db, AGG) != before


class TestDegradedServing:
    def test_view_damage_degrades_with_label_then_repairs(self):
        server = make_resilient_server()
        corrupt_view_page(server, "view.v_tuples.leaf")
        answer = server.query("v_tuples", 0, 9)
        assert isinstance(answer, DegradedResult)
        assert answer.mode == "qm_fallback"
        assert answer.staleness_bound == 0
        assert answer.reason.startswith("checksum:")
        assert answer.strategy == "deferred"
        snapshot = server.database.relations["r"].logical_snapshot()
        assert Counter(answer.unwrap()) == Counter(SP.evaluate(snapshot))
        # The tail-of-request repair already rebuilt the view.
        assert server.degraded_views() == {}
        assert counter_value(server, "repairs_total", view="v_tuples") == 1
        follow_up = server.query("v_tuples", 0, 9)
        assert not isinstance(follow_up, DegradedResult)
        assert Counter(follow_up) == Counter(answer.unwrap())

    def test_faulted_shared_refresh_degrades_all_deferred_siblings(self):
        """Regression: a coordinator refresh applies one net delta to every
        sibling; a fault mid-refresh leaves *any* of them half-applied, so
        marking only the queried view lets siblings serve silent rot."""
        server = make_resilient_server(ResilienceConfig(repair=False))
        server.apply_update(
            Transaction.of("r", [Update(1, {"a": 3, "v": 42})]), client="t"
        )
        corrupt_view_page(server, "view.v_tuples.leaf")
        answer = server.query("v_total")  # refresh faults on the sibling file
        assert isinstance(answer, DegradedResult)
        degraded = server.degraded_views()
        assert set(degraded) == {"v_total", "v_tuples"}
        assert degraded["v_tuples"].startswith("sibling:")
        # Both were queued; repair passes drain the queue (a pass may
        # re-fault on a sibling still corrupt, so allow more than one).
        server.resilience = ResilienceConfig(repair=True)
        restored: set[str] = set()
        for _ in range(4):
            restored |= set(server.repair()["restored"])
            if not server.degraded_views():
                break
        assert restored == {"v_total", "v_tuples"}
        assert server.degraded_views() == {}
        snapshot = server.database.relations["r"].logical_snapshot()
        assert server.query("v_total") == AGG.evaluate(snapshot)
        assert Counter(server.query("v_tuples", 0, 9)) == Counter(SP.evaluate(snapshot))

    def test_degraded_fast_path_skips_broken_machinery(self):
        server = make_resilient_server(ResilienceConfig(repair=False))
        corrupt_view_page(server, "view.v_tuples.leaf")
        first = server.query("v_tuples", 0, 9)
        giveups = counter_value(server, "disk_giveups_total", file="view.v_tuples.leaf")
        second = server.query("v_tuples", 0, 9)
        assert isinstance(first, DegradedResult) and isinstance(second, DegradedResult)
        # The second query served degraded without re-poking the bad file.
        assert counter_value(
            server, "disk_giveups_total", file="view.v_tuples.leaf"
        ) == giveups

    def test_stale_read_rung_bounds_staleness(self, monkeypatch):
        server = make_resilient_server(ResilienceConfig(repair=False))
        relation = server.database.relations["r"]
        healthy_total = server.query("v_total")
        server.apply_update(
            Transaction.of("r", [Update(2, {"v": 9_999})]), client="t"
        )
        pending = relation.ad_entry_count()
        assert pending > 0
        force_degraded(server, "v_total")
        monkeypatch.setattr(
            "repro.service.server.qm_fallback_answer",
            lambda *a, **k: (_ for _ in ()).throw(
                PageChecksumError(PageId("r.leaf", 0))
            ),
        )
        answer = server.query("v_total")
        assert isinstance(answer, DegradedResult)
        assert answer.mode == "stale_read"
        assert answer.unwrap() == healthy_total  # the last materialized copy
        assert answer.staleness_bound == pending

    def test_missed_updates_widen_the_bound(self, monkeypatch):
        server = make_resilient_server(ResilienceConfig(repair=False))
        relation = server.database.relations["r"]
        force_degraded(server, "v_total")
        for key in (3, 4):
            server.apply_update(
                Transaction.of("r", [Update(key, {"v": 1})]), client="t"
            )
        monkeypatch.setattr(
            "repro.service.server.qm_fallback_answer",
            lambda *a, **k: (_ for _ in ()).throw(
                PageChecksumError(PageId("r.leaf", 0))
            ),
        )
        answer = server.query("v_total")
        assert answer.staleness_bound == relation.ad_entry_count() + 2

    def test_last_rung_failure_is_unavailable(self, monkeypatch):
        server = make_resilient_server(
            ResilienceConfig(repair=False, degraded_reads=False)
        )
        force_degraded(server, "v_total")
        monkeypatch.setattr(
            "repro.service.server.qm_fallback_answer",
            lambda *a, **k: (_ for _ in ()).throw(
                PageChecksumError(PageId("r.leaf", 0))
            ),
        )
        with pytest.raises(PageChecksumError):
            server.query("v_total")
        assert counter_value(server, "unavailable_queries_total", view="v_total") == 1

    def test_staleness_limit_refuses_too_stale_reads(self, monkeypatch):
        server = make_resilient_server(
            ResilienceConfig(repair=False, staleness_limit=0)
        )
        force_degraded(server, "v_total")
        server.apply_update(
            Transaction.of("r", [Update(5, {"v": 1})]), client="t"
        )
        monkeypatch.setattr(
            "repro.service.server.qm_fallback_answer",
            lambda *a, **k: (_ for _ in ()).throw(
                PageChecksumError(PageId("r.leaf", 0))
            ),
        )
        with pytest.raises(PageChecksumError):
            server.query("v_total")

    def test_without_resilience_config_faults_propagate(self):
        db = Database(buffer_pages=256)
        rng = random.Random(5)
        records = [R.new_record(id=i, a=rng.randrange(50), v=rng.randrange(100))
                   for i in range(100)]
        db.create_relation(R, "a", kind="hypothetical", records=records,
                           ad_buckets=2)
        db.storage_disk.verify_reads = True  # checksums on, no degradation
        server = ViewServer(db)
        server.register_view(SP, Strategy.DEFERRED, adaptive=False)
        corrupt_view_page(server, "view.v_tuples.leaf")
        with pytest.raises(PageChecksumError):
            server.query("v_tuples", 0, 9)

    def test_query_modification_view_has_no_stale_rung(self, monkeypatch):
        """Regression: a QM view stores nothing, so when the fallback
        fails too the query is *unavailable* — not an AttributeError out
        of a stale read of a copy that does not exist."""
        server = make_resilient_server(
            ResilienceConfig(repair=False), strategy=Strategy.QM_CLUSTERED
        )
        force_degraded(server, "v_total")
        monkeypatch.setattr(
            "repro.service.server.qm_fallback_answer",
            lambda *a, **k: (_ for _ in ()).throw(
                PageChecksumError(PageId("r.leaf", 0))
            ),
        )
        with pytest.raises(PageChecksumError):
            server.query("v_total")
        assert counter_value(server, "unavailable_queries_total", view="v_total") == 1


class TestViewHealth:
    """The collaborator's own surface (the server only forwards to it)."""

    def test_fail_without_a_config_re_raises(self):
        db = Database(buffer_pages=64)
        db.create_relation(R, "a", kind="hypothetical", records=[])
        server = ViewServer(db)
        server.register_view(AGG, Strategy.DEFERRED, adaptive=False)
        assert not server.health.enabled
        error = PageChecksumError(PageId("agg.v_total", 0))
        with pytest.raises(PageChecksumError) as raised:
            server.health.fail("v_total", "query", error)
        assert raised.value is error
        assert server.health.healthy

    def test_fail_prefixes_the_phase_and_ignores_unhosted_views(self):
        server = make_resilient_server(ResilienceConfig(repair=False),
                                       strategy=Strategy.IMMEDIATE)
        error = PageChecksumError(PageId("agg.v_total", 0))
        assert server.health.fail("v_total", "query", error).startswith("checksum:")
        assert server.health.fail("v_total", "refresh", error).startswith(
            "refresh:checksum:")
        server.health.fail("not_hosted", "query", error)
        # Immediate views share no refresh: the sibling stays healthy.
        assert set(server.degraded_views()) == {"v_total"}
        assert server.health.reason("v_tuples") is None
        assert not server.health.healthy and not server.health.repairs_due()

    def test_base_damage_escalates_only_when_recovery_is_possible(self, tmp_path):
        from repro.durability.manager import DurabilityManager

        server = make_resilient_server()
        error = PageChecksumError(PageId("r.leaf", 0))
        server.health.fail("v_total", "query", error)
        assert not server.health.needs_recovery  # nothing to recover from
        manager = DurabilityManager(tmp_path)
        server.attach_durability(manager)
        server.health.fail("v_total", "query", error)
        assert server.health.needs_recovery and server.health.repairs_due()
