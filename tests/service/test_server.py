"""ViewServer: traffic surface, refresh policies, migration, metrics."""

import random
from contextlib import closing

import pytest

from repro.core.strategies import Strategy
from repro.engine.database import CatalogError, Database
from repro.engine.transaction import Transaction, Update
from repro.resilience.faults import FaultProfile, FaultRates
from repro.resilience.policy import ResilienceConfig, RetryPolicy
from repro.service.metrics import validate_metrics
from repro.service.scheduler import RefreshPolicy
from repro.service.server import ViewServer
from repro.storage.pager import PageChecksumError, PageId
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, SelectProjectView
from repro.views.predicate import IntervalPredicate

R = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
SP = SelectProjectView("v_tuples", "r", IntervalPredicate("a", 0, 9),
                       ("id", "a"), "a")
AGG = AggregateView("v_total", "r", IntervalPredicate("a", 0, 9), "sum", "v")


def make_server(strategy=Strategy.DEFERRED, policy=None, definitions=(SP, AGG),
                kind="hypothetical"):
    database = Database(buffer_pages=256)
    rng = random.Random(0)
    records = [R.new_record(id=i, a=rng.randrange(50), v=rng.randrange(100))
               for i in range(300)]
    database.create_relation(R, "a", kind=kind, records=records, ad_buckets=2)
    server = ViewServer(database)
    for definition in definitions:
        server.register_view(definition, strategy, adaptive=False, policy=policy)
    return server


def snapshot(server):
    return list(server.database.relations["r"].scan_logical())


class TestCatalog:
    def test_register_and_list(self):
        server = make_server()
        assert server.views() == ("v_tuples", "v_total")
        assert server.strategy_of("v_tuples") is Strategy.DEFERRED
        assert server.definition_of("v_total") is AGG

    def test_unknown_view_raises(self):
        server = make_server()
        with pytest.raises(CatalogError):
            server.query("nope", 0, 9)
        with pytest.raises(CatalogError):
            server.staleness("nope")

    def test_setup_cost_excluded_from_meter_by_default(self):
        server = make_server(definitions=())
        meter = server.database.meter
        before = meter.snapshot()
        server.register_view(SP, Strategy.DEFERRED, adaptive=False)
        delta = meter.diff(before)
        assert (delta.page_reads, delta.page_writes) == (0, 0)
        assert server.metrics.gauge("view_setup_ms", view="v_tuples").value > 0


class TestTraffic:
    @pytest.mark.parametrize("strategy", [
        Strategy.DEFERRED, Strategy.IMMEDIATE, Strategy.QM_CLUSTERED,
    ])
    def test_answers_match_definition_semantics(self, strategy):
        server = make_server(strategy)
        rng = random.Random(3)
        for _ in range(5):
            server.apply_update(Transaction.of("r", [
                Update(rng.randrange(300),
                       {"a": rng.randrange(50), "v": rng.randrange(100)})
                for _ in range(4)
            ]))
            current = snapshot(server)
            assert server.query("v_total") == AGG.evaluate(current)
            assert len(server.query("v_tuples", 0, 9)) == len(SP.evaluate(current))

    def test_updates_and_queries_are_metered(self):
        server = make_server()
        server.apply_update(Transaction.of("r", [Update(0, {"a": 5})]),
                            client="alice")
        server.query("v_total", client="bob")
        assert server.metrics.counter("updates_total", client="alice").value == 1
        assert server.metrics.counter("queries_total", client="bob").value == 1
        hist = server.metrics.histogram(
            "query_ms", view="v_total", strategy="deferred"
        )
        assert hist.count == 1 and hist.sum > 0

    def test_relation_health_gauges_after_update(self):
        server = make_server()
        server.apply_update(Transaction.of("r", [Update(0, {"a": 5})]))
        assert server.metrics.gauge("ad_entries", relation="r").value > 0


class TestSettleTiming:
    def test_immediate_views_fold_per_transaction(self):
        server = make_server(Strategy.IMMEDIATE)
        server.apply_update(Transaction.of("r", [Update(0, {"a": 5})]))
        assert server.database.relations["r"].ad_entry_count() == 0

    def test_qm_views_fold_lazily_at_query_time(self):
        server = make_server(Strategy.QM_CLUSTERED)
        server.apply_update(Transaction.of("r", [Update(0, {"a": 5, "v": 77})]))
        relation = server.database.relations["r"]
        assert relation.ad_entry_count() > 0  # backlog kept until a query
        total = server.query("v_total")
        assert relation.ad_entry_count() == 0
        assert total == AGG.evaluate(snapshot(server))

    def test_deferred_views_keep_backlog_until_refresh(self):
        server = make_server(Strategy.DEFERRED)
        server.apply_update(Transaction.of("r", [Update(0, {"a": 5})]))
        assert server.database.relations["r"].ad_entry_count() > 0


class TestRefreshPolicies:
    def test_periodic_serves_stale_answers_between_refreshes(self):
        server = make_server(Strategy.DEFERRED, policy=RefreshPolicy.periodic(3),
                             definitions=(AGG,))
        fresh = server.query("v_total")  # query 1: refreshes
        assert fresh == AGG.evaluate(snapshot(server))
        server.apply_update(Transaction.of("r", [
            Update(0, {"a": 5, "v": 10_000}),
        ]))
        stale = server.query("v_total")  # query 2: stale stored copy
        assert stale == fresh
        report = server.staleness("v_total")
        assert not report.is_fresh
        assert report.queries_since_refresh == 1
        server.query("v_total")          # query 3: still stale
        caught_up = server.query("v_total")  # query 4: refresh cycle
        assert caught_up == AGG.evaluate(snapshot(server))
        assert server.staleness("v_total").is_fresh

    def test_a_refresh_with_nothing_to_fold_runs_no_epoch_but_counts(self):
        server = make_server(Strategy.DEFERRED, policy=RefreshPolicy.periodic(2),
                             definitions=(AGG,))
        server.query("v_total")  # refresh cycle, nothing pending
        server.query("v_total")  # off cycle
        assert server.staleness("v_total").queries_since_refresh == 1
        server.query("v_total")  # refresh cycle again, still nothing
        assert server.staleness("v_total").queries_since_refresh == 0
        assert server.planner.epochs == 0
        server.apply_update(Transaction.of("r", [Update(0, {"a": 5, "v": 10})]))
        server.query("v_total")  # off cycle: the backlog stays
        assert server.query("v_total") == AGG.evaluate(snapshot(server))
        assert server.planner.epochs == 1

    def test_async_policy_folds_backlog_after_updates(self):
        server = make_server(Strategy.DEFERRED,
                             policy=RefreshPolicy.async_refresh())
        server.apply_update(Transaction.of("r", [Update(0, {"a": 5})]))
        assert server.database.relations["r"].ad_entry_count() == 0
        background = server.metrics.series("background_refresh_ms")
        assert background and background[0].count == 1

    def test_on_demand_matches_paper_default(self):
        server = make_server(Strategy.DEFERRED)
        assert server.staleness("v_total").policy == "on_demand"


class TestMigration:
    def test_migrate_changes_strategy_and_keeps_answers(self):
        server = make_server(Strategy.DEFERRED)
        server.apply_update(Transaction.of("r", [Update(0, {"a": 5, "v": 9})]))
        before = server.query("v_total")
        server.migrate("v_total", Strategy.QM_CLUSTERED)
        assert server.strategy_of("v_total") is Strategy.QM_CLUSTERED
        assert server.query("v_total") == before

    def test_migration_is_metered(self):
        server = make_server(Strategy.DEFERRED)
        server.migrate("v_tuples", Strategy.QM_CLUSTERED)
        switches = server.metrics.counter(
            "strategy_switches_total", view="v_tuples",
            from_strategy="deferred", to_strategy="qm_clustered",
        )
        assert switches.value == 1
        assert server.metrics.gauge(
            "view_strategy", view="v_tuples", strategy="qm_clustered"
        ).value == 1.0
        assert server.metrics.gauge(
            "view_strategy", view="v_tuples", strategy="deferred"
        ).value == 0.0

    def test_migrate_to_same_strategy_is_noop(self):
        server = make_server(Strategy.DEFERRED)
        server.migrate("v_total", Strategy.DEFERRED)
        assert not server.metrics.series("strategy_switches_total")


class TestMetricsExport:
    def test_export_passes_schema_validation(self):
        """Acceptance: the server's JSON export obeys the v1 schema."""
        server = make_server()
        rng = random.Random(5)
        for _ in range(4):
            server.apply_update(Transaction.of("r", [
                Update(rng.randrange(300), {"a": rng.randrange(50)}),
            ]), client="alice")
            server.query("v_total", client="bob")
            server.query("v_tuples", 0, 9, client="carol")
        server.migrate("v_tuples", Strategy.QM_CLUSTERED)
        doc = server.metrics_dict()
        validate_metrics(doc)  # must not raise
        names = {entry["name"] for entry in doc["metrics"]}
        assert {"queries_total", "updates_total", "query_ms", "update_ms",
                "ad_entries", "bloom_fill_fraction", "view_strategy",
                "strategy_switches_total", "migration_ms"} <= names

    def test_dashboard_mentions_views(self):
        server = make_server()
        server.query("v_total")
        text = server.dashboard()
        assert "query_ms" in text and "v_total" in text


class TestRequestPathGauges:
    """Gauges set after every request read counters; they neither
    recount nor touch the filesystem."""

    def gauge(self, server, name):
        (series,) = server.metrics.series(name)
        return series.value

    def test_durability_gauges_are_the_wal_counters(self, tmp_path, monkeypatch):
        from repro.durability.manager import DurabilityManager

        server = make_server()
        with closing(DurabilityManager(tmp_path, fsync_every=4)) as manager:
            manager.save_config(server.database.engine_config())
            server.attach_durability(manager)
            server.checkpoint()

            def forbidden(*args, **kwargs):
                raise AssertionError("per-request gauges walked the state directory")

            monkeypatch.setattr(manager, "stats", forbidden)
            monkeypatch.setattr(manager.wal, "segment_numbers", forbidden)
            for i in range(6):
                server.apply_update(Transaction.of("r", [Update(i, {"a": 3})]))
                server.query("v_total")
                wal = manager.wal
                assert self.gauge(server, "wal_records") == wal.records_appended
                assert self.gauge(server, "wal_bytes") == wal.bytes_appended
                assert self.gauge(server, "wal_fsyncs") == wal.fsyncs
            assert manager.wal.records_appended >= 6

    def test_bloom_fill_gauge_is_exact(self):
        server = make_server()
        for i in range(20):
            server.apply_update(Transaction.of("r", [Update(i, {"a": i % 50})]))
        bloom = server.database.relations["r"].bloom
        set_bits = sum(bin(byte).count("1") for byte in bloom._array)
        assert set_bits > 0
        assert self.gauge(server, "bloom_fill_fraction") == set_bits / bloom.bits


class TestShutdown:
    """Graceful stop: idempotent, and resources released even on failure."""

    def arm(self, server, tmp_path):
        from repro.durability.manager import DurabilityManager

        manager = DurabilityManager(tmp_path)
        manager.save_config(server.database.engine_config())
        server.attach_durability(manager)
        server.checkpoint()
        return manager

    def test_shutdown_detaches_and_seals(self, tmp_path):
        from repro.durability.wal import WalError

        server = make_server()
        manager = self.arm(server, tmp_path)
        checkpoints_before = manager.checkpoints_taken
        server.shutdown()
        assert server.durability is None
        assert server.database.journal is None
        assert manager.checkpoints_taken == checkpoints_before + 1
        with pytest.raises(WalError, match="closed"):
            manager.wal.append({"op": "x"})

    def test_shutdown_is_idempotent(self, tmp_path):
        server = make_server()
        self.arm(server, tmp_path)
        server.shutdown()
        server.shutdown()  # second call must be a clean no-op
        assert server.durability is None

    def test_shutdown_without_durability_is_a_noop(self):
        server = make_server()
        server.shutdown()  # never armed — nothing to release
        assert server.durability is None

    def test_failed_final_checkpoint_still_releases(self, tmp_path, monkeypatch):
        from repro.durability.wal import WalError

        server = make_server()
        manager = self.arm(server, tmp_path)

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(manager, "checkpoint", explode)
        with pytest.raises(RuntimeError, match="disk full"):
            server.shutdown()
        # The error propagated, but every resource was still released.
        assert server.durability is None
        assert server.database.journal is None
        with pytest.raises(WalError, match="closed"):
            manager.wal.append({"op": "x"})
        server.shutdown()  # and the server is safely re-shutdown-able


class TestStaleness:
    """staleness() must bound divergence by the pending differential."""

    def test_deferred_bound_tracks_pending_ad_entries(self):
        server = make_server(Strategy.DEFERRED)
        relation = server.database.relations["r"]
        assert server.staleness("v_total").pending_ad_entries == 0
        server.apply_update(Transaction.of("r", [
            Update(0, {"a": 5}), Update(1, {"a": 6}),
        ]))
        report = server.staleness("v_total")
        assert report.pending_ad_entries == relation.ad_entry_count() > 0
        server.query("v_total")  # on-demand refresh folds the backlog
        assert server.staleness("v_total").pending_ad_entries == 0

    def test_qm_strategies_report_zero_pending(self):
        server = make_server(Strategy.QM_CLUSTERED)
        server.apply_update(Transaction.of("r", [Update(0, {"a": 5})]))
        relation = server.database.relations["r"]
        assert relation.ad_entry_count() > 0  # backlog exists...
        # ...but recomputation reads logical content, so answers are fresh.
        assert server.staleness("v_total").pending_ad_entries == 0

    def test_immediate_strategy_is_always_fresh(self):
        server = make_server(Strategy.IMMEDIATE)
        server.apply_update(Transaction.of("r", [Update(0, {"a": 5})]))
        assert server.staleness("v_total").pending_ad_entries == 0

    def test_periodic_policy_staleness_clears_on_cycle(self):
        server = make_server(Strategy.DEFERRED, policy=RefreshPolicy.periodic(2),
                             definitions=(AGG,))
        server.query("v_total")  # query 1 refreshes (seen % every == 0)
        server.apply_update(Transaction.of("r", [Update(0, {"v": 10_000})]))
        assert server.staleness("v_total").pending_ad_entries > 0
        server.query("v_total")  # query 2: serves stale
        assert server.staleness("v_total").pending_ad_entries > 0
        server.query("v_total")  # query 3: refresh cycle comes around
        assert server.staleness("v_total").pending_ad_entries == 0


class TestRefusedMigration:
    def test_refused_migrate_leaves_the_view_hosted_and_answering(self):
        """The catalog is asked before anything is dropped: a refused
        migration raises and the server keeps serving the view."""
        server = make_server(Strategy.DEFERRED)
        server.apply_update(Transaction.of("r", [Update(0, {"a": 5, "v": 9})]))
        before = server.query("v_total")
        files = server.database.disk.files()
        with pytest.raises(CatalogError, match="unsupported strategy"):
            server.migrate("v_total", Strategy.SNAPSHOT)
        assert server.strategy_of("v_total") is Strategy.DEFERRED
        assert server.database.disk.files() == files
        assert server.query("v_total") == before == AGG.evaluate(snapshot(server))
        assert not server.metrics.series("strategy_switches_total")
        assert server.degraded_views() == {}


class TestRepairRestoresTheWholeSpec:
    def test_faulted_then_retried_repair_keeps_the_view_options(self):
        """A repair that faults between its drop and its re-define
        brings the view back as it was registered, not with default
        options: the journaled ``rebuild_view`` replays with them too."""
        database = Database(
            buffer_pages=256,
            fault_profile=FaultProfile(
                name="view-writes", rates=FaultRates(write_error=1.0),
                files=("view.",),
            ),
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=1)),
        )
        rng = random.Random(0)
        database.create_relation(R, "a", records=[
            R.new_record(id=i, a=rng.randrange(50), v=i) for i in range(300)
        ])
        server = ViewServer(database)
        server.register_view(SP, Strategy.SNAPSHOT, adaptive=False, refresh_every=3)
        server.health.fail(
            "v_tuples", "query", PageChecksumError(PageId("view.v_tuples.leaf", 0))
        )
        database.faults.arm()
        assert server.repair()["restored"] == []
        assert "v_tuples" not in database.views  # dropped, re-define faulted
        database.faults.disarm()
        assert server.repair()["restored"] == ["v_tuples"]
        assert database.views["v_tuples"].refresh_every == 3
        assert database.view_spec("v_tuples").refresh_every == 3
