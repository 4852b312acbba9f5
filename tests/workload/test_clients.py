"""Open-loop load generation: population shape, validators, reports."""

import random

import pytest

from repro.cluster.worker import encode_answer
from repro.gateway import AdmissionConfig, GatewayConfig, GatewayHandle, ViewServerBackend
from repro.service.spec import demo_spec
from repro.service.traffic import demo_server
from repro.views.definition import ViewTuple
from repro.workload.clients import (
    LoadReport,
    OpenLoopConfig,
    ZipfClientPopulation,
    demo_request_factory,
    exact_percentile,
    run_closed_loop,
    run_open_loop,
)


class TestZipfClientPopulation:
    def test_weights_are_monotone_and_normalized(self):
        population = ZipfClientPopulation(10, s=1.2, seed=3)
        assert len(population.names) == 10
        assert all(a > b for a, b in
                   zip(population.weights, population.weights[1:]))
        assert sum(population.weights) == pytest.approx(1.0)

    def test_head_dominates(self):
        population = ZipfClientPopulation(20, s=1.1, seed=3)
        assert population.share(3) > 0.45

    def test_picks_follow_the_weights(self):
        population = ZipfClientPopulation(5, s=1.5, seed=11)
        counts = {}
        for _ in range(3000):
            name = population.pick()
            counts[name] = counts.get(name, 0) + 1
        ranked = sorted(counts, key=counts.get, reverse=True)
        assert ranked[0] == population.names[0]

    def test_requires_at_least_one_client(self):
        with pytest.raises(ValueError):
            ZipfClientPopulation(0)


class TestExactPercentile:
    def test_empty_is_none(self):
        assert exact_percentile([], 0.5) is None

    def test_known_values(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert exact_percentile(values, 0.0) == 10.0
        assert exact_percentile(values, 1.0) == 40.0
        assert exact_percentile(values, 0.5) == pytest.approx(25.0)

    def test_input_order_does_not_matter(self):
        assert exact_percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            exact_percentile([1.0], 1.5)


class TestLoadReport:
    def test_outcome_accounting(self):
        report = LoadReport()
        for latency in (10.0, 20.0, 30.0):
            report.record("ok", latency)
        report.record("degraded", 50.0)
        report.record("rejected_rate", 0.5)
        report.record("expired", 100.0)
        report.offered = 6
        report.duration_s = 2.0
        assert report.ok == 4
        assert report.rejected == 2
        assert report.goodput() == pytest.approx(2.0)
        assert report.percentile("ok", 0.5) == 20.0

    def test_to_dict_summarizes_percentiles(self):
        report = LoadReport(offered=2, duration_s=1.0)
        report.record("ok", 5.0)
        report.record("ok", 15.0)
        doc = report.to_dict()
        assert doc["outcomes"]["ok"]["count"] == 2
        assert doc["outcomes"]["ok"]["p50_ms"] == pytest.approx(10.0)
        assert doc["wrong_results"] == 0


SERVING = demo_spec(serving=True)


class TestDemoRequestFactory:
    def test_mix_and_shapes(self):
        factory = demo_request_factory(SERVING, query_fraction=0.8)
        rng = random.Random(5)
        ops = [factory(rng)[0]["op"] for _ in range(400)]
        assert 0.7 < ops.count("query") / len(ops) < 0.9
        assert set(ops) == {"query", "update"}

    def test_tuples_validator_flags_out_of_range(self):
        factory = demo_request_factory(SERVING, query_fraction=1.0)
        rng = random.Random(0)
        while True:
            doc, validator = factory(rng)
            if doc["view"] == "v_tuples":
                break
        good = encode_answer([ViewTuple({"id": 1, "a": doc["lo"]})])
        assert validator(good) is None
        bad = encode_answer([ViewTuple({"id": 1, "a": doc["hi"] + 1})])
        assert "outside" in validator(bad)
        assert validator(encode_answer([])) is None

    def test_total_validator_requires_numeric_scalar(self):
        factory = demo_request_factory(SERVING)
        rng = random.Random(1)
        while True:
            doc, validator = factory(rng)
            if doc.get("view") == "v_total":
                break
        assert validator(encode_answer(12)) is None
        assert validator(encode_answer("twelve")) is not None
        assert validator(encode_answer([])) is not None

    def test_update_validator_requires_full_application(self):
        factory = demo_request_factory(SERVING, query_fraction=0.0)
        rng = random.Random(2)
        doc, validator = factory(rng)
        assert doc["op"] == "update"
        assert validator({"applied": len(doc["ops"])}) is None
        assert validator({"applied": 0}) is not None

    def test_names_bounds_and_keys_come_from_the_spec(self):
        factory = demo_request_factory(demo_spec(n_records=30))
        rng = random.Random(3)
        docs = [factory(rng)[0] for _ in range(300)]
        assert {d["view"] for d in docs if d["op"] == "query"} == {"by_a", "total"}
        ranged = [d for d in docs if d.get("view") == "by_a"]
        assert max(d["hi"] for d in ranged) > 100  # the whole 1600-wide domain
        assert all(0 <= d["lo"] <= d["hi"] < 1600 for d in ranged)
        keys = [op["key"] for d in docs if d["op"] == "update" for op in d["ops"]]
        assert keys and max(keys) < 30

class TestAgainstLiveGateway:
    @pytest.fixture(scope="class")
    def gateway(self):
        demo = demo_server(n_tuples=400, seed=7)
        handle = GatewayHandle.launch(
            ViewServerBackend(demo.server),
            GatewayConfig(admission=AdmissionConfig(max_queue=32), workers=2),
        )
        yield handle
        handle.stop()

    def test_open_loop_offers_on_schedule(self, gateway):
        report = run_open_loop(
            "127.0.0.1", gateway.port,
            OpenLoopConfig(rate=50.0, duration_s=1.0, deadline_ms=2000.0,
                           n_clients=6, seed=3),
            demo_request_factory(demo_spec(n_records=400, serving=True)),
        )
        assert report.offered == 50
        assert report.duration_s == pytest.approx(1.0)
        assert report.ok == 50  # unloaded: everything admitted and served
        assert not report.wrong and not report.errors
        assert report.server_stats["queue"]["peak"] <= 32
        assert report.percentile("ok", 0.99) is not None

    def test_closed_loop_reports_throughput(self, gateway):
        report = run_closed_loop(
            "127.0.0.1", gateway.port,
            demo_request_factory(demo_spec(n_records=400, serving=True)),
            concurrency=2, duration_s=0.5,
        )
        assert report.offered == report.ok + report.rejected + \
            report.outcomes.get("error", 0) + report.outcomes.get("lost", 0)
        assert report.goodput() > 0
        assert not report.wrong
