"""Observability for the serving layer: counters, gauges, histograms.

The paper prices strategies analytically; the server *measures* them.
Every request through :class:`~repro.service.server.ViewServer` lands
in a :class:`MetricsRegistry` — per-view and per-strategy query
latency, refresh cost, AD-file depth, Bloom-filter screening
effectiveness and strategy-switch events — so an operator (or the
adaptive router's tests) can see the cost model playing out live.

Instruments are keyed by ``(name, labels)`` like Prometheus series.
The registry exports a versioned JSON document (schema tag
``repro.service.metrics/v1``, checked by :func:`validate_metrics`) and
renders a plain-ASCII dashboard for the ``repro-serve`` CLI.

Latency here is *modelled milliseconds*: the serving layer converts
:class:`~repro.storage.pager.CostMeter` deltas with the workload's
cost constants (``c1``/``c2``/``c3``), so one histogram observation is
directly comparable with the paper's ``TOTAL_*`` formulas.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsMergeError",
    "MetricsRegistry",
    "MetricsSchemaError",
    "SCHEMA",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "validate_metrics",
]

#: Version tag stamped into every export; bump on breaking changes.
SCHEMA = "repro.service.metrics/v1"

#: Default histogram bucket upper bounds, in modelled milliseconds.
#: Spans one screen (c1=1) up to thousands of I/Os; +inf catches the rest.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, math.inf,
)

Labels = tuple[tuple[str, str], ...]


def _labels_of(labels: Mapping[str, Any]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Scalar:
    """One number per series: what a counter and a gauge share."""

    kind = ""

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._mutex = threading.Lock()

    @classmethod
    def from_entry(cls, key: tuple[str, Labels], entry: Mapping[str, Any]) -> Any:
        scalar = cls(*key)
        scalar.value = float(entry["value"])
        return scalar

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Counter(_Scalar):
    """A monotonically increasing count (requests served, switches)."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._mutex:
            self.value += amount

    def merge(self, entry: Mapping[str, Any]) -> None:
        """Another export's count of this series adds."""
        with self._mutex:
            self.value += entry["value"]


class Gauge(_Scalar):
    """A point-in-time level (AD depth, Bloom fill, staleness)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        with self._mutex:
            self.value = float(value)

    def add(self, amount: float) -> None:
        with self._mutex:
            self.value += amount

    def merge(self, entry: Mapping[str, Any]) -> None:
        """A level is reported at its worst export, never averaged."""
        with self._mutex:
            self.value = max(self.value, entry["value"])


class Histogram:
    """A cumulative-bucket latency/cost distribution.

    Buckets are upper bounds (the last must be ``+inf``); ``observe``
    also tracks count/sum/min/max so mean latency needs no bucket math.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        if not buckets or buckets[-1] != math.inf:
            raise ValueError(f"histogram {name!r} buckets must end with +inf")
        if list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} buckets must be sorted")
        self.name = name
        self.labels = labels
        self.buckets = buckets
        self.bucket_counts = [0] * len(buckets)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._mutex = threading.Lock()

    @classmethod
    def from_entry(
        cls, key: tuple[str, Labels], entry: Mapping[str, Any]
    ) -> "Histogram":
        hist = cls(*key, buckets=_bounds(entry))
        hist.merge(entry)
        return hist

    def merge(self, entry: Mapping[str, Any]) -> None:
        """Add another export's buckets, count and sum; widen min/max."""
        if _bounds(entry) != self.buckets:
            raise MetricsMergeError(
                f"{self.name}: exports have different bucket bounds"
            )
        with self._mutex:
            for i, bucket in enumerate(entry["buckets"]):
                self.bucket_counts[i] += bucket["count"]
            self.count += int(entry["count"])
            self.sum += float(entry["sum"])
            if entry.get("min") is not None:
                self.min = min(self.min, entry["min"])
            if entry.get("max") is not None:
                self.max = max(self.max, entry["max"])

    def observe(self, value: float) -> None:
        with self._mutex:
            self.count += 1
            self.sum += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    break

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile from the cumulative buckets.

        Linear interpolation inside the bucket holding the target rank,
        clamped to the observed ``[min, max]`` (so the open-ended top
        bucket can never report +inf).  ``None`` when empty.  The
        estimate depends only on exported state (bucket counts, count,
        min, max), so a registry rebuilt via :meth:`MetricsRegistry.from_dict`
        reports identical quantiles.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._mutex:
            if not self.count:
                return None
            target = q * self.count
            cumulative = 0
            prev_bound = -math.inf
            for bound, n in zip(self.buckets, self.bucket_counts):
                if n and cumulative + n >= target:
                    lo = max(self.min, prev_bound)
                    hi = self.max if bound == math.inf else min(self.max, bound)
                    if hi < lo:
                        hi = lo
                    fraction = min(1.0, max(0.0, (target - cumulative) / n))
                    return lo + (hi - lo) * fraction
                cumulative += n
                prev_bound = bound
            return self.max

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            # Summary quantiles are computed at export time from the
            # buckets, so dashboards and regression gates never have to
            # re-derive them — and round-tripping through from_dict
            # reproduces them exactly.
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": [
                {"le": "inf" if bound == math.inf else bound, "count": n}
                for bound, n in zip(self.buckets, self.bucket_counts)
            ],
        }


class MetricsRegistry:
    """Keyed store of instruments, exportable as JSON or a dashboard."""

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, Labels], Counter | Gauge | Histogram] = {}
        #: Guards instrument creation and iteration; the instruments
        #: themselves carry their own mutation locks, so concurrent
        #: request threads never lose an increment or observation.
        self._mutex = threading.Lock()

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] | None = None,
        **labels: Any,
    ) -> Histogram:
        """Histogram series; ``buckets`` overrides the default grid.

        The override only applies when the series is first created —
        later lookups return the existing instrument unchanged, so
        callers can pass the same buckets on every hot-path call.
        """
        return self._get(Histogram, name, labels, buckets=buckets)

    def _get(
        self,
        cls: type,
        name: str,
        labels: Mapping[str, Any],
        buckets: Iterable[float] | None = None,
    ) -> Any:
        key = (name, _labels_of(labels))
        # Instruments are never dropped: an existing one is read without
        # the mutex, which only creation takes.
        instrument = self._instruments.get(key)
        if type(instrument) is cls:
            return instrument
        with self._mutex:
            instrument = self._instruments.get(key)
            if instrument is None:
                if cls is Histogram and buckets is not None:
                    instrument = Histogram(name, key[1], buckets=tuple(buckets))
                else:
                    instrument = cls(name, key[1])
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {instrument.kind}, "
                    f"requested {cls.kind}"
                )
            return instrument

    def set_one_hot(self, name: str, hot: str, value: str, **key: str) -> None:
        """Set gauge ``name{**key, hot=value}`` to 1 and every other
        series of ``name`` carrying the ``key`` labels to 0."""
        for inst in self.series(name):
            if key.items() <= dict(inst.labels).items():
                inst.set(0.0)
        self.gauge(name, **key, **{hot: value}).set(1.0)

    def series(self, name: str | None = None) -> list[Counter | Gauge | Histogram]:
        """All instruments (optionally filtered by name), sorted by key."""
        with self._mutex:
            items = sorted(self._instruments.items())
        return [inst for (n, _), inst in items if name is None or n == name]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Versioned export: the whole registry as plain data."""
        return {
            "schema": SCHEMA,
            "metrics": [inst.to_dict() for inst in self.series()],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def merge(self, doc: Mapping[str, Any]) -> None:
        """Fold a v1 export into this registry.

        A series the registry has not seen is created from its entry.
        Otherwise a counter adds, a gauge keeps the max, and a histogram
        adds bucket counts, count and sum and takes min and max; a kind
        or bucket grid that disagrees raises :class:`MetricsMergeError`.
        Exports fold in the order they are merged, so the same exports
        in the same order give the same float sums bit for bit.
        """
        validate_metrics(doc)
        for entry in doc["metrics"]:
            cls = _KINDS[entry["kind"]]
            key = (entry["name"], _labels_of(entry["labels"]))
            with self._mutex:
                instrument = self._instruments.get(key)
                if instrument is None:
                    self._instruments[key] = cls.from_entry(key, entry)
                    continue
            if not isinstance(instrument, cls):
                raise MetricsMergeError(
                    f"{key[0]}: kind mismatch across exports "
                    f"({instrument.kind} vs {cls.kind})"
                )
            instrument.merge(entry)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a v1 export (inverse of :meth:`to_dict`).

        :meth:`merge` into an empty registry, so a registry rebuilt
        from its own export round-trips exactly:
        ``from_dict(r.to_dict()).to_dict() == r.to_dict()``.  Used by
        the durability layer to restore serving metrics state.
        """
        registry = cls()
        registry.merge(doc)
        return registry

    def render_dashboard(self, width: int = 72) -> str:
        """Plain-ASCII dashboard for terminals and logs."""
        lines = [f"{' metrics ':=^{width}}"]
        for inst in self.series():
            label_str = ",".join(f"{k}={v}" for k, v in inst.labels)
            head = f"{inst.name}{{{label_str}}}" if label_str else inst.name
            if isinstance(inst, Histogram):
                if inst.count:
                    lines.append(
                        f"{head:<52} n={inst.count:<6} mean={inst.mean:10.1f} ms"
                    )
                    lines.append(self._spark(inst, width))
                else:
                    lines.append(f"{head:<52} n=0")
            else:
                lines.append(f"{head:<52} {inst.value:14.1f}")
        lines.append("=" * width)
        return "\n".join(lines)

    @staticmethod
    def _spark(hist: Histogram, width: int) -> str:
        peak = max(hist.bucket_counts) or 1
        marks = "".join(
            " .:-=+*#"[min(7, (n * 7 + peak - 1) // peak)] for n in hist.bucket_counts
        )
        return f"    [{marks}] <= {hist.buckets[-2] if len(hist.buckets) > 1 else 'inf'} ms ... inf"


_KINDS: dict[str, Any] = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _bounds(entry: Mapping[str, Any]) -> tuple[float, ...]:
    """A histogram entry's bucket upper bounds, ``"inf"`` decoded."""
    return tuple(
        math.inf if b["le"] == "inf" else float(b["le"]) for b in entry["buckets"]
    )


class MetricsSchemaError(ValueError):
    """A metrics export violates the ``repro.service.metrics/v1`` schema."""


class MetricsMergeError(ValueError):
    """Two exports disagree on a series' kind or bucket bounds."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MetricsSchemaError(message)


def validate_metrics(doc: Mapping[str, Any]) -> None:
    """Check an export against the v1 schema; raises on violations.

    The schema check is what tests (and downstream scrapers) rely on:
    top-level ``schema``/``metrics`` keys, per-series ``name``/``kind``/
    ``labels``, kind-appropriate fields, cumulative histogram buckets
    ending at ``inf`` with counts summing to ``count``.
    """
    _require(isinstance(doc, Mapping), "export must be a mapping")
    _require(doc.get("schema") == SCHEMA, f"schema tag must be {SCHEMA!r}")
    metrics = doc.get("metrics")
    _require(isinstance(metrics, list), "'metrics' must be a list")
    for entry in metrics:
        _require(isinstance(entry, Mapping), "each metric must be a mapping")
        name = entry.get("name")
        _require(isinstance(name, str) and bool(name), "metric name must be a non-empty string")
        kind = entry.get("kind")
        _require(kind in ("counter", "gauge", "histogram"), f"{name}: bad kind {kind!r}")
        labels = entry.get("labels")
        _require(isinstance(labels, Mapping), f"{name}: labels must be a mapping")
        _require(
            all(isinstance(k, str) and isinstance(v, str) for k, v in labels.items()),
            f"{name}: label keys and values must be strings",
        )
        if kind in ("counter", "gauge"):
            _require(
                isinstance(entry.get("value"), (int, float)),
                f"{name}: {kind} needs a numeric 'value'",
            )
            if kind == "counter":
                _require(entry["value"] >= 0, f"{name}: counter must be >= 0")
        else:
            _validate_histogram(name, entry)


def _validate_histogram(name: str, entry: Mapping[str, Any]) -> None:
    for field in ("count", "sum", "mean"):
        _require(
            isinstance(entry.get(field), (int, float)),
            f"{name}: histogram needs numeric {field!r}",
        )
    for field in ("p50", "p95", "p99"):
        _require(field in entry, f"{name}: histogram needs a {field!r} summary field")
        value = entry[field]
        if entry["count"]:
            _require(
                isinstance(value, (int, float)),
                f"{name}: {field!r} must be numeric on a non-empty histogram",
            )
        else:
            _require(value is None, f"{name}: {field!r} must be null when count is 0")
    buckets = entry.get("buckets")
    _require(isinstance(buckets, list) and bool(buckets), f"{name}: needs buckets")
    bounds: list[float] = []
    total = 0
    for bucket in buckets:
        _require(isinstance(bucket, Mapping), f"{name}: bucket must be a mapping")
        le = bucket.get("le")
        bounds.append(math.inf if le == "inf" else float(le))
        count = bucket.get("count")
        _require(isinstance(count, int) and count >= 0, f"{name}: bucket count must be >= 0")
        total += count
    _require(bounds == sorted(bounds), f"{name}: bucket bounds must be sorted")
    _require(bounds[-1] == math.inf, f"{name}: last bucket must be 'inf'")
    _require(total == entry["count"], f"{name}: bucket counts must sum to count")
