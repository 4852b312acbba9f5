"""Cluster-wide metrics: N per-shard registries, one v1 export.

Each shard worker keeps its own :class:`~repro.service.metrics
.MetricsRegistry`; the router folds their exports, and its own, into
one registry with :meth:`MetricsRegistry.merge` (counters add, gauges
keep their worst shard, histograms merge bucket by bucket) and exports
that.  The result is a ``repro.service.metrics/v1`` document like any
single server's, so every consumer reads it unchanged.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.service.metrics import MetricsMergeError, MetricsRegistry

__all__ = ["MetricsMergeError", "aggregate_metrics", "cluster_registry"]


def cluster_registry(exports: Iterable[Mapping[str, Any]]) -> MetricsRegistry:
    """The exports merged into one live registry, in the order given."""
    registry = MetricsRegistry()
    for export in exports:
        registry.merge(export)
    return registry


def aggregate_metrics(exports: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Merge per-shard v1 exports into one v1 export.

    The exports are added in the order given, so the same exports in
    the same order always give the same float sums, bit for bit.
    """
    return cluster_registry(exports).to_dict()
