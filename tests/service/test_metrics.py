"""Metrics registry and the v1 export schema."""

import json
import math

import pytest

from repro.service.metrics import (
    SCHEMA,
    Histogram,
    MetricsRegistry,
    MetricsSchemaError,
    validate_metrics,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests", client="alice")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("requests")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.add(-2)
        assert gauge.value == 3.0

    def test_histogram_tracks_distribution(self):
        hist = MetricsRegistry().histogram("latency")
        for value in (0.5, 3.0, 3.0, 40.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(46.5)
        assert hist.mean == pytest.approx(46.5 / 4)
        assert hist.min == 0.5 and hist.max == 40.0
        assert sum(hist.bucket_counts) == hist.count

    def test_histogram_buckets_must_end_at_inf(self):
        with pytest.raises(ValueError):
            Histogram("h", (), buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", (), buckets=(2.0, 1.0, math.inf))


class TestRegistry:
    def test_same_name_and_labels_is_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", view="v", strategy="deferred")
        b = registry.counter("hits", strategy="deferred", view="v")
        assert a is b

    def test_different_labels_are_different_series(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", view="v1")
        b = registry.counter("hits", view="v2")
        assert a is not b
        assert len(registry.series("hits")) == 2

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_dashboard_renders_every_series(self):
        registry = MetricsRegistry()
        registry.counter("requests", client="a").inc()
        registry.gauge("ad_entries", relation="r").set(7)
        registry.histogram("query_ms", view="v").observe(12.0)
        text = registry.render_dashboard()
        assert "requests{client=a}" in text
        assert "ad_entries{relation=r}" in text
        assert "query_ms{view=v}" in text


class TestOneHot:
    def test_only_the_latest_value_of_a_key_is_hot(self):
        registry = MetricsRegistry()
        registry.set_one_hot("view_strategy", "strategy", "deferred", view="v")
        registry.set_one_hot("view_strategy", "strategy", "deferred", view="w")
        registry.set_one_hot("view_strategy", "strategy", "immediate", view="v")
        values = {
            tuple(sorted(dict(inst.labels).items())): inst.value
            for inst in registry.series("view_strategy")
        }
        assert values == {
            (("strategy", "deferred"), ("view", "v")): 0.0,
            (("strategy", "immediate"), ("view", "v")): 1.0,
            (("strategy", "deferred"), ("view", "w")): 1.0,
        }


class TestExportSchema:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("queries_total", client="alice").inc(3)
        registry.gauge("ad_entries", relation="r").set(4)
        hist = registry.histogram("query_ms", view="v", strategy="deferred")
        hist.observe(2.0)
        hist.observe(750.0)
        return registry

    def test_export_passes_validation(self):
        doc = self.make_registry().to_dict()
        validate_metrics(doc)  # must not raise
        assert doc["schema"] == SCHEMA

    def test_json_round_trip_passes_validation(self):
        text = self.make_registry().to_json()
        validate_metrics(json.loads(text))

    def test_export_parse_reexport_is_idempotent(self):
        # export -> parse -> re-export must be a fixed point: the
        # rebuilt registry serializes byte-identically.
        text = self.make_registry().to_json()
        rebuilt = MetricsRegistry.from_dict(json.loads(text))
        assert rebuilt.to_json() == text
        # And a second cycle through the rebuilt registry changes nothing.
        again = MetricsRegistry.from_dict(json.loads(rebuilt.to_json()))
        assert again.to_json() == text

    def test_from_dict_preserves_live_instruments(self):
        rebuilt = MetricsRegistry.from_dict(self.make_registry().to_dict())
        assert rebuilt.counter("queries_total", client="alice").value == 3
        assert rebuilt.gauge("ad_entries", relation="r").value == 4
        hist = rebuilt.histogram("query_ms", view="v", strategy="deferred")
        assert hist.count == 2
        assert hist.sum == pytest.approx(752.0)

    def test_rejects_missing_version_field(self):
        doc = self.make_registry().to_dict()
        del doc["schema"]
        with pytest.raises(MetricsSchemaError):
            validate_metrics(doc)

    def test_rejects_wrong_schema_tag(self):
        doc = self.make_registry().to_dict()
        doc["schema"] = "repro.service.metrics/v0"
        with pytest.raises(MetricsSchemaError):
            validate_metrics(doc)

    def test_rejects_negative_counter(self):
        doc = self.make_registry().to_dict()
        for entry in doc["metrics"]:
            if entry["kind"] == "counter":
                entry["value"] = -1
        with pytest.raises(MetricsSchemaError):
            validate_metrics(doc)

    def test_rejects_bucket_count_mismatch(self):
        doc = self.make_registry().to_dict()
        for entry in doc["metrics"]:
            if entry["kind"] == "histogram":
                entry["buckets"][0]["count"] += 1
        with pytest.raises(MetricsSchemaError):
            validate_metrics(doc)

    def test_rejects_non_inf_final_bucket(self):
        doc = self.make_registry().to_dict()
        for entry in doc["metrics"]:
            if entry["kind"] == "histogram":
                entry["buckets"] = entry["buckets"][:-1]
        with pytest.raises(MetricsSchemaError):
            validate_metrics(doc)

    def test_rejects_non_string_labels(self):
        doc = self.make_registry().to_dict()
        doc["metrics"][0]["labels"] = {"view": 3}
        with pytest.raises(MetricsSchemaError):
            validate_metrics(doc)

    def test_rejects_missing_percentile_summary(self):
        doc = self.make_registry().to_dict()
        for entry in doc["metrics"]:
            if entry["kind"] == "histogram":
                del entry["p95"]
        with pytest.raises(MetricsSchemaError):
            validate_metrics(doc)

    def test_rejects_non_null_percentiles_on_empty_histogram(self):
        registry = MetricsRegistry()
        registry.histogram("empty_ms")
        doc = registry.to_dict()
        validate_metrics(doc)  # null percentiles are the valid shape
        doc["metrics"][0]["p50"] = 1.0
        with pytest.raises(MetricsSchemaError):
            validate_metrics(doc)


class TestHistogramQuantiles:
    def test_empty_histogram_has_null_summaries(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.quantile(0.5) is None
        doc = hist.to_dict()
        assert doc["p50"] is None and doc["p95"] is None and doc["p99"] is None

    def test_quantiles_are_clamped_to_observed_range(self):
        hist = MetricsRegistry().histogram("h")
        for value in (3.0, 4.0, 4.5, 900.0):
            hist.observe(value)
        p99 = hist.quantile(0.99)
        assert p99 is not None and p99 <= 900.0
        p0 = hist.quantile(0.0)
        assert p0 is not None and p0 >= 3.0

    def test_interpolation_inside_a_bucket(self):
        # 100 observations spread across (2.5, 5.0]: the median must
        # land strictly inside that bucket, between min and max.
        hist = MetricsRegistry().histogram("h")
        for i in range(100):
            hist.observe(2.6 + (i % 10) * 0.2)
        p50 = hist.quantile(0.5)
        assert 2.6 <= p50 <= 4.4

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h").quantile(1.5)

    def test_export_summary_matches_quantile(self):
        hist = MetricsRegistry().histogram("h")
        for value in (1.0, 10.0, 100.0, 1000.0):
            hist.observe(value)
        doc = hist.to_dict()
        assert doc["p50"] == hist.quantile(0.50)
        assert doc["p95"] == hist.quantile(0.95)
        assert doc["p99"] == hist.quantile(0.99)

    def test_percentiles_round_trip_through_export(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", outcome="ok")
        for value in (0.7, 2.0, 2.2, 30.0, 600.0, 20_000.0):
            hist.observe(value)
        doc = registry.to_dict()
        rebuilt = MetricsRegistry.from_dict(doc).to_dict()
        assert rebuilt == doc  # p50/p95/p99 recomputed identically

    def test_custom_buckets_apply_on_first_creation_only(self):
        registry = MetricsRegistry()
        grid = (0.1, 1.0, math.inf)
        hist = registry.histogram("h", buckets=grid, outcome="ok")
        assert hist.buckets == grid
        again = registry.histogram("h", buckets=(5.0, math.inf), outcome="ok")
        assert again is hist and again.buckets == grid
