"""Drifting-P traffic generation."""

import sys
import threading

import pytest

from repro.service.traffic import (
    PhaseSpec,
    Request,
    demo_server,
    drifting_traffic,
    run_traffic,
)


class TestPhaseSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseSpec(operations=0, update_probability=0.5)
        with pytest.raises(ValueError):
            PhaseSpec(operations=10, update_probability=1.0)
        with pytest.raises(ValueError):
            PhaseSpec(operations=10, update_probability=0.5, batch_size=0)


class TestDriftingTraffic:
    def make(self, phases, seed=11):
        demo = demo_server(n_tuples=400)
        return demo, drifting_traffic(demo, phases, seed=seed)

    def test_realized_mix_matches_each_phase(self):
        phases = (
            PhaseSpec(operations=40, update_probability=0.25, batch_size=2),
            PhaseSpec(operations=40, update_probability=0.75, batch_size=6),
        )
        _, requests = self.make(phases)
        first, second = requests[:40], requests[40:]
        assert sum(r.kind == "update" for r in first) == 10
        assert sum(r.kind == "update" for r in second) == 30
        assert all(len(r.txn) == 2 for r in first if r.kind == "update")
        assert all(len(r.txn) == 6 for r in second if r.kind == "update")

    def test_updates_interleave_rather_than_cluster(self):
        phases = (PhaseSpec(operations=40, update_probability=0.5),)
        _, requests = self.make(phases)
        kinds = [r.kind for r in requests]
        # A fair 1:1 mix must alternate, never run three of a kind.
        for i in range(len(kinds) - 2):
            assert len(set(kinds[i:i + 3])) > 1

    def test_same_seed_same_stream(self):
        phases = (PhaseSpec(operations=30, update_probability=0.4),)
        demo_a, requests_a = self.make(phases, seed=5)
        demo_b, requests_b = self.make(phases, seed=5)
        assert [r.kind for r in requests_a] == [r.kind for r in requests_b]
        assert [(r.lo, r.hi) for r in requests_a if r.kind == "query"] == \
               [(r.lo, r.hi) for r in requests_b if r.kind == "query"]

    def test_clients_round_robin(self):
        phases = (PhaseSpec(operations=9, update_probability=0.0),)
        _, requests = self.make(phases)
        assert [r.client for r in requests[:4]] == ["alice", "bob", "carol", "alice"]

    def test_run_traffic_counts(self):
        phases = (PhaseSpec(operations=20, update_probability=0.3),)
        demo, requests = self.make(phases)
        summary = run_traffic(demo.server, requests)
        assert summary.updates == 6
        assert summary.queries == 14
        assert summary.operations == 20
        assert len(summary.answers) == 14


class ScriptedTarget:
    """Anything with the query/apply_update surface is a target."""

    def __init__(self, gate=None):
        self.gate = gate
        self.seen = []

    def query(self, view, lo=None, hi=None, client="anon"):
        if view == "boom":
            raise RuntimeError(f"kapow from {client}")
        if view == "hang":
            self.gate.wait(timeout=30)
        self.seen.append((client, view))
        return lo

    def apply_update(self, txn, client="anon"):
        self.seen.append((client, "update"))


def queries(client, *views):
    return [Request(client, "query", view=view, lo=i) for i, view in enumerate(views)]


class TestRunTraffic:
    def test_streams_are_dealt_to_threads_round_robin_and_merged_in_order(self):
        target = ScriptedTarget()
        streams = [queries(f"c{i}", "a", "b") for i in range(4)]
        summary = run_traffic(target, streams, threads=2)
        assert summary.queries == 8 and summary.updates == 0
        assert len(summary.query_ms) == 8 and summary.wall_seconds > 0
        # Thread 0 ran streams 0 and 2 in that order, thread 1 ran 1 and 3;
        # the summary lists thread 0's answers first.
        assert summary.answers == [0, 1] * 4
        per_client = {c: [v for cl, v in target.seen if cl == c] for c in
                      ("c0", "c1", "c2", "c3")}
        assert all(views == ["a", "b"] for views in per_client.values())
        order = [client for client, _ in target.seen]
        assert order.index("c0") < order.index("c2")
        assert order.index("c1") < order.index("c3")

    def test_no_request_is_lost_or_counted_twice_under_contention(self):
        # More threads than cores and a very short switch interval: a
        # counter shared between workers would drop increments here.
        streams = [queries(f"c{i}", *(["a"] * 50)) for i in range(24)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            summary = run_traffic(ScriptedTarget(), streams, threads=8,
                                  join_timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert summary.queries == len(summary.answers) == 24 * 50
        assert sorted(summary.answers) == sorted(list(range(50)) * 24)

    def test_a_worker_exception_surfaces_after_the_join(self):
        target = ScriptedTarget()
        streams = [queries("good", "a", "b", "c"), queries("bad", "a", "boom", "z")]
        with pytest.raises(RuntimeError, match="kapow from bad"):
            run_traffic(target, streams, threads=2)
        # The healthy thread ran to completion before the error was raised.
        assert [v for c, v in target.seen if c == "good"] == ["a", "b", "c"]
        assert ("bad", "z") not in target.seen

    def test_a_wedged_thread_fails_the_replay(self):
        gate = threading.Event()
        target = ScriptedTarget(gate)
        try:
            with pytest.raises(RuntimeError, match="wedged"):
                run_traffic(
                    target, [queries("ok", "a"), queries("stuck", "hang")],
                    threads=2, join_timeout=0.2,
                )
        finally:
            gate.set()

    def test_on_result_owns_failures_and_the_replay_carries_on(self):
        target = ScriptedTarget()
        seen = []
        summary = run_traffic(
            target, queries("c", "a", "boom", "b"),
            on_result=lambda request, answer, error: seen.append(
                (request.view, answer, type(error).__name__)),
        )
        assert seen == [("a", 0, "NoneType"), ("boom", None, "RuntimeError"),
                        ("b", 2, "NoneType")]
        assert summary.queries == 2  # the failed query is not counted
