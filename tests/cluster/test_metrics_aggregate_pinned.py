"""The merged export of three exports, pinned byte for byte.

Float addition is not associative: ``(0.1 + 0.2) + 0.3`` and
``(0.3 + 0.2) + 0.1`` differ in the last bit.  The cluster's modelled
cost is read from the merged export, so ``aggregate_metrics`` must add
the exports in the order given.  The digest was recorded with the hand
merge that preceded ``MetricsRegistry.merge``; the fixture also has a
series only one export carries, a negative gauge, an empty histogram
on a custom grid that a later export fills, and quantiles that must be
recomputed from the merged buckets.
"""

import hashlib
import json
import math

from repro.cluster.metrics import aggregate_metrics
from repro.service.metrics import MetricsRegistry

DIGEST = "3d2433e8d11f9924287e03d11b8555a4947f0cf255ec86ec4d60e1b3b83c9a59"


def export(i, latency, scans):
    registry = MetricsRegistry()
    registry.counter("requests_total", view="v").inc(latency)
    registry.counter("cost_ms_total", shard=str(i % 2)).inc(latency / 3)
    registry.gauge("ad_depth", relation="r").set((2.0, 9.0, 4.0)[i])
    registry.histogram("query_ms", view="v").observe(latency)
    for value in scans:
        registry.histogram("scan_ms", view="v").observe(value)
    registry.histogram("refresh_ms", view="v", buckets=(0.5, 2.0, math.inf))
    if i == 2:
        registry.histogram("refresh_ms", view="v").observe(0.3)
        registry.gauge("breaker_open", shard="2").set(-1.0)
    return registry.to_dict()


EXPORTS = [
    export(0, 0.1, [1e-9, 12.0]),
    export(1, 0.2, [700.0]),
    export(2, 0.3, [3.3, 0.7]),
]


def series(doc, name):
    (entry,) = [m for m in doc["metrics"] if m["name"] == name]
    return entry


def test_three_exports_merge_to_the_pinned_bytes():
    text = json.dumps(aggregate_metrics(EXPORTS), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


def test_sums_are_taken_in_the_order_given():
    forward = aggregate_metrics(EXPORTS)
    backward = aggregate_metrics(EXPORTS[::-1])
    assert series(forward, "query_ms")["sum"] == 0.6000000000000001
    assert series(backward, "query_ms")["sum"] == 0.6
    assert series(forward, "requests_total")["value"] == 0.6000000000000001
    assert series(forward, "query_ms")["p95"] == 0.2899999999999999
    assert series(forward, "breaker_open")["value"] == -1.0
