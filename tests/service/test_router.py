"""Adaptive router: statistics, candidate filtering, live migration."""

import random
from collections import Counter

import pytest

from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.engine.transaction import Transaction, Update
from repro.service.router import AdaptiveRouter, RouterConfig, WorkloadStats
from repro.service.server import ViewServer
from repro.service.traffic import PhaseSpec, demo_server, drifting_traffic, run_traffic
from repro.storage.tuples import Schema
from repro.views.definition import JoinView
from repro.views.predicate import IntervalPredicate


class TestWorkloadStats:
    def test_p_tracks_the_mix(self):
        stats = WorkloadStats()
        for _ in range(30):
            stats.observe_query(10.0)
        assert stats.P < 0.05
        for _ in range(30):
            stats.observe_update(5)
        assert stats.P > 0.5

    def test_decay_forgets_old_phases(self):
        stats = WorkloadStats(decay=0.9)
        for _ in range(50):
            stats.observe_update(5)
        high = stats.P
        for _ in range(50):
            stats.observe_query(10.0)
        assert stats.P < 0.1 < high

    def test_batch_size_and_width_are_smoothed(self):
        stats = WorkloadStats()
        stats.observe_update(4)
        stats.observe_query(20.0)
        assert stats.avg_batch_size == 4.0
        assert stats.avg_query_width == 20.0
        stats.observe_update(8)
        assert 4.0 < stats.avg_batch_size < 8.0


class TestEstimation:
    def test_parameters_need_enough_queries(self):
        demo = demo_server()
        router = demo.server.router
        assert router.estimate_parameters(demo.server, "v_tuples") is None

    def test_parameters_reflect_catalog_and_stats(self):
        demo = demo_server()
        router = demo.server.router
        for _ in range(10):
            router.observe_query("v_tuples", 100.0)
            router.observe_update("v_tuples", 6)
        params = router.estimate_parameters(demo.server, "v_tuples")
        assert params.N == 2000
        assert params.S == 100 and params.B == 4000
        assert params.f == pytest.approx(0.1, rel=0.5)
        assert params.f_v == pytest.approx(1.0)
        assert params.l == pytest.approx(6.0, rel=0.2)

    def test_candidates_on_hypothetical_relation(self):
        """Deferred stays available; immediate assumes in-place base
        writes a hypothetical relation doesn't provide."""
        demo = demo_server()
        candidates = demo.server.router.candidates(demo.server, "v_tuples")
        assert Strategy.DEFERRED in candidates
        assert Strategy.QM_CLUSTERED in candidates
        assert Strategy.IMMEDIATE not in candidates


class TestLiveMigration:
    def run_drift(self, decision_every=20):
        demo = demo_server(router_config=RouterConfig(decision_every=decision_every))
        phases = (
            PhaseSpec(operations=70, update_probability=0.15, batch_size=3),
            PhaseSpec(operations=70, update_probability=0.9, batch_size=8),
        )
        requests = drifting_traffic(demo, phases, seed=8)
        run_traffic(demo.server, requests)
        return demo

    def test_deferred_to_qm_as_p_rises(self):
        """Acceptance: the router holds deferred through the query-heavy
        phase, then migrates to query modification as P rises."""
        demo = self.run_drift()
        switches = demo.server.router.switches
        assert switches, "no migration happened"
        tuple_switches = [sw for sw in switches if sw.view == "v_tuples"]
        assert tuple_switches
        first = tuple_switches[0]
        assert first.from_strategy is Strategy.DEFERRED
        assert first.to_strategy is Strategy.QM_CLUSTERED
        # The migration happens in the update-heavy phase, not before:
        # by then the estimated P is well above the first phase's 0.15.
        assert first.estimated_p > 0.3
        assert demo.server.strategy_of("v_tuples") is Strategy.QM_CLUSTERED

    def test_switch_is_visible_in_metrics(self):
        demo = self.run_drift()
        counters = demo.server.metrics.series("strategy_switches_total")
        assert counters and sum(c.value for c in counters) >= 1

    def test_queries_stay_correct_across_migration(self):
        demo = self.run_drift()
        current = list(demo.database.relations["r"].scan_logical())
        total = demo.server.query("v_total")
        expected = demo.server.definition_of("v_total").evaluate(current)
        assert total == expected

    def test_hysteresis_blocks_thin_margins(self):
        demo = demo_server(
            router_config=RouterConfig(decision_every=5, min_relative_margin=10.0)
        )
        phases = (PhaseSpec(operations=60, update_probability=0.5, batch_size=5),)
        run_traffic(demo.server, drifting_traffic(demo, phases, seed=8))
        assert demo.server.router.switches == []


class TestOnlyHostableCandidates:
    """The router proposes what the catalog's hosting table accepts:
    a migration it runs unprompted can never be a refused one."""

    R1 = Schema("r1", ("id", "a", "j"), "id", tuple_bytes=100)
    R2 = Schema("r2", ("j", "c"), "j", tuple_bytes=100)
    JOIN = JoinView("v", "r1", "r2", "j", IntervalPredicate("a", 0, 9),
                    ("id", "a"), ("j", "c"), "a")

    def build(self, inner_kind):
        database = Database(buffer_pages=256)
        rng = random.Random(1)
        database.create_relation(
            self.R1, "a", kind="hypothetical", ad_buckets=4,
            records=[self.R1.new_record(id=i, a=rng.randrange(40), j=rng.randrange(8))
                     for i in range(200)],
        )
        database.create_relation(
            self.R2, "j", kind=inner_kind, ad_buckets=4,
            records=[self.R2.new_record(j=j, c=j) for j in range(8)],
        )
        server = ViewServer(database, router=AdaptiveRouter())
        server.register_view(self.JOIN, Strategy.DEFERRED)
        return server

    def test_candidates_follow_the_inner_relation(self):
        plain = self.build("hashed")
        assert plain.router.candidates(plain, "v") == (
            Strategy.DEFERRED, Strategy.QM_LOOPJOIN,
        )
        differential = self.build("hashed_hypothetical")
        assert differential.router.candidates(differential, "v") == (
            Strategy.DEFERRED,
        )

    def test_update_heavy_stream_over_a_differential_inner(self):
        """At the parent the router's 27th-operation decision migrated
        to the nested-loop plan, which the engine refuses over a
        ``hashed_hypothetical`` inner only after dropping the view."""
        server = self.build("hashed_hypothetical")
        db = server.database
        rng = random.Random(2)
        for op in range(400):
            if op % 9 == 8:
                answer = Counter(server.query("v", 0, 9))
                assert answer == Counter(self.JOIN.evaluate(
                    db.logical_records("r1"), db.logical_records("r2")
                )), op
            elif op % 9 == 4:
                server.apply_update(Transaction.of("r2", [
                    Update(rng.randrange(8), {"c": rng.randrange(1000)}),
                ]))
            else:
                server.apply_update(Transaction.of("r1", [
                    Update(rng.randrange(200), {"a": rng.randrange(40)})
                    for _ in range(6)
                ]))
        assert server.strategy_of("v") is Strategy.DEFERRED
        assert server.router.switches == []
