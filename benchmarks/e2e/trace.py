"""Spans recorded from outside the program, and the per-layer numbers.

:class:`Tracer` replaces the public callables listed in :data:`TARGETS`
with timing wrappers for the length of one traced repetition and puts
them back afterwards — nothing under ``src/`` knows it is being traced
(spans inside the program are a later issue).  Only coarse calls are
wrapped, never anything per record.  A span is
``[name, start, end, parent, request, gauge]``: ``parent`` is the
enclosing span on the same thread, ``request`` the id of that thread's
root span, so one client op yields one tree, and ``gauge`` what
:data:`GAUGES` read off the call (``None`` for most).  A layer's self
time is its spans' duration minus what their direct children cover.

A name in :data:`TARGETS` that no longer resolves is reported in
``Tracer.missing`` and skipped, so a refactor of the program degrades
the trace instead of breaking the benchmark.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from typing import Any, Callable, Iterable

__all__ = ["TARGETS", "Tracer", "layer_metrics", "layer_self_seconds"]

#: ``(span name, module, attribute path, how)``; the span name's prefix
#: is the layer (``repro.<layer>``).  ``how`` is ``call`` for a plain
#: callable and ``enter`` for one returning a context manager, where
#: the span covers ``__enter__`` (the acquisition), not the body.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("gateway:backend.query", "repro.gateway.server", "ViewServerBackend.query", "call"),
    ("gateway:backend.update", "repro.gateway.server", "ViewServerBackend.update", "call"),
    ("gateway:pack_frame", "repro.gateway.server", "pack_frame", "call"),
    ("gateway:pack_frame", "repro.gateway.client", "pack_frame", "call"),
    ("gateway:admit", "repro.gateway.admission", "AdmissionController.admit", "call"),
    ("gateway:admit", "repro.gateway.admission", "AdmissionController.release", "call"),
    ("cluster:router.query", "repro.cluster.router", "ClusterRouter.query", "call"),
    ("cluster:router.update", "repro.cluster.router", "ClusterRouter.apply_update", "call"),
    # A shard call is opaque from here: transit plus the worker's whole
    # ViewServer, so its self time is its own layer, not the router's.
    ("shard:rpc.call", "repro.cluster.rpc", "ShardClient.call", "call"),
    ("cluster:send_frame", "repro.cluster.rpc", "send_frame", "call"),
    ("service:query", "repro.service.server", "ViewServer.query", "call"),
    ("service:update", "repro.service.server", "ViewServer.apply_update", "call"),
    ("concurrency:acquire", "repro.concurrency.locks", "LockManager.acquire", "enter"),
    ("engine:query_view", "repro.engine.database", "Database.query_view", "call"),
    ("engine:apply_transaction", "repro.engine.database", "Database.apply_transaction", "call"),
    ("engine:settle_relation", "repro.engine.database", "Database.settle_relation", "call"),
    ("maintenance:refresh", "repro.maintenance.planner", "SharedDeltaPlanner.refresh", "call"),
    ("hr:net_changes", "repro.hr.differential", "HypotheticalRelation.net_changes", "call"),
    ("hr:reset", "repro.hr.differential", "HypotheticalRelation.reset", "call"),
    ("views:apply_changes", "repro.views.matview", "MaterializedView.apply_changes", "call"),
    ("views:read_range", "repro.views.matview", "MaterializedView.read_range", "call"),
    ("durability:wal_append", "repro.durability.wal", "WriteAheadLog.append", "call"),
    ("durability:codec", "repro.durability.wal", "encode_event", "call"),
    ("durability:fsync", "repro.durability.wal", "WriteAheadLog.sync", "call"),
    ("durability:checkpoint", "repro.durability.manager", "DurabilityManager.checkpoint", "call"),
)

#: Span name -> ``gauge(self, result)``, counts read at the boundary
#: where the work happens.  The AD file is fullest when a refresh reads
#: it, so its size there is its peak.
GAUGES: dict[str, Callable[[Any, Any], Any]] = {
    "hr:net_changes": lambda relation, net: (relation.ad_entry_count(), len(net)),
}


class _TimedEnter:
    """Context-manager proxy whose ``__enter__`` runs inside a span."""

    __slots__ = ("_cm", "_enter")

    def __init__(self, cm: Any, enter: Callable[[Any], Any]) -> None:
        self._cm = cm
        self._enter = enter

    def __enter__(self) -> Any:
        return self._enter(self._cm)

    def __exit__(self, *exc_info: Any) -> Any:
        return self._cm.__exit__(*exc_info)


class Tracer:
    """In-memory span recorder; install, run one repetition, uninstall."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._undo: list[tuple[Any, str, Any]] = []

    def traced(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so each call records one span named ``name``."""
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        gauge = GAUGES.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent,
                    parent[4] if parent is not None else next(ids), None]
            stack.append(span)
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if gauge is not None:
                    span[5] = gauge(args[0], result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self, targets: Iterable[tuple[str, str, str, str]] = TARGETS) -> None:
        for name, module_name, path, how in targets:
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            if how == "enter":
                enter = self.traced(name, lambda cm: cm.__enter__())
                wrapped: Any = functools.wraps(original)(
                    lambda *a, _f=original, _e=enter, **k: _TimedEnter(_f(*a, **k), _e)
                )
            else:
                wrapped = self.traced(name, original)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """The spans as JSON lines (``parent`` is a line number or null)."""
        line_of = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, request, gauge in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": line_of[id(parent)] if parent is not None else None,
                    "request": request, "gauge": gauge,
                }) + "\n")


def _is_router(span: list[Any]) -> bool:
    return span[0].startswith("cluster:router.")


def _router_legs(spans: list[list[Any]]) -> list[tuple[list[Any], list[list[Any]]]]:
    """Each router span with the shard calls made inside its interval.

    Scatter legs run on their own threads, so they have no parent
    span; the single closed-loop client guarantees one router call at
    a time, which makes containment in time an exact assignment.
    """
    routers = [span for span in spans if _is_router(span)]
    starts = [span[1] for span in routers]
    legs: list[list[list[Any]]] = [[] for _ in routers]
    for span in spans:
        if span[0] == "shard:rpc.call":
            at = bisect.bisect_right(starts, span[1]) - 1
            if at >= 0 and span[2] <= routers[at][2]:
                legs[at].append(span)
    return list(zip(routers, legs))


def _self_seconds(spans: list[list[Any]]) -> dict[str, float]:
    """Span name -> summed self time.

    Self time is a span's duration minus its direct children; a router
    span also loses its longest parentless leg, the one it waited for.
    """
    total: dict[str, float] = {}
    for name, start, end, parent, _request, _gauge in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        if parent is not None:
            total[parent[0]] = total.get(parent[0], 0.0) - (end - start)
    for router, legs in _router_legs(spans):
        total[router[0]] -= max(
            (leg[2] - leg[1] for leg in legs if leg[3] is None), default=0.0)
    return total


def layer_self_seconds(spans: list[list[Any]]) -> dict[str, float]:
    """Layer -> summed self time; ``client`` is the driver loop's own."""
    layers: dict[str, float] = {}
    for name, seconds in _self_seconds(spans).items():
        layer = name.split(":", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers


def layer_metrics(
    spans: list[list[Any]], counts: dict[str, float], ops: int,
    client_seconds: float,
) -> dict[str, float]:
    """The per-layer table of one traced repetition.

    ``counts`` are the exact counters the stack read off the program's
    public attributes; ``ops`` the client ops the spans cover and
    ``client_seconds`` their summed client-observed latency.  ``*_us``
    values are the median span of that name, except ``overhead_us``,
    ``frame_us``, ``admit_us``, ``lock_acquire_us`` and the ``self_us``
    pair, which add up several spans of one request and are totals
    divided by the number of requests.
    """
    durations: dict[str, list[float]] = {}
    for name, start, end, _parent, _request, _gauge in spans:
        durations.setdefault(name, []).append(end - start)
    self_by_name = _self_seconds(spans)

    def total(*names: str) -> float:
        return sum(sum(durations.get(name, ())) for name in names)

    def median_us(name: str) -> float:
        values = durations.get(name)
        return statistics.median(values) * 1e6 if values else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def count(key: str) -> float:
        return counts.get(key, 0.0)

    backend = total("gateway:backend.query", "gateway:backend.update")
    routed = _router_legs(spans)
    service_self = self_by_name.get("service:query", 0.0) + self_by_name.get(
        "service:update", 0.0)
    checkpoints = durations.get("durability:checkpoint", [])
    stalls = []
    for span in spans:
        if span[0] == "durability:checkpoint":
            while span[3] is not None:
                span = span[3]
            stalls.append(span[2] - span[1])
    net_gauges = [span[5] for span in spans
                  if span[0] == "hr:net_changes" and span[5] is not None]
    covered = sum(seconds for name, seconds in self_by_name.items()
                  if not name.startswith("client:"))
    return {
        "gateway.overhead_us": (
            (client_seconds - backend) / ops * 1e6 if backend else 0.0),
        "gateway.frame_us": total("gateway:pack_frame") / ops * 1e6,
        "gateway.admit_us": total("gateway:admit") / ops * 1e6,
        "gateway.backend_share": ratio(backend, client_seconds),
        "gateway.queue_peak": count("gateway_queue_peak"),
        "gateway.rejected_share": count("gateway_rejected") / ops,
        "cluster.router_self_us": ratio(
            self_by_name.get("cluster:router.query", 0.0)
            + self_by_name.get("cluster:router.update", 0.0), len(routed)) * 1e6,
        "cluster.rpc_wait_us": median_us("shard:rpc.call"),
        "cluster.frame_us": total("cluster:send_frame") / ops * 1e6,
        "cluster.rpc_bytes_per_op": count("rpc_bytes") / ops,
        "cluster.legs_per_query": ratio(
            sum(len(legs) for router, legs in routed
                if router[0] == "cluster:router.query"), count("queries")),
        "cluster.moves_per_update": ratio(count("moves"), count("updates")),
        "cluster.worker_cpu_share": count("worker_cpu_share"),
        "service.query_us": median_us("service:query"),
        "service.update_us": median_us("service:update"),
        "service.self_us": service_self / ops * 1e6,
        "service.self_share": ratio(
            service_self, total("service:query", "service:update")),
        "service.refresh_epochs": count("refresh_epochs"),
        "concurrency.lock_acquire_us": total("concurrency:acquire") / ops * 1e6,
        "concurrency.lock_acquisitions_per_op": count("lock_acquisitions") / ops,
        "engine.query_us": median_us("engine:query_view"),
        "engine.txn_us": median_us("engine:apply_transaction"),
        "engine.page_reads_per_op": count("page_reads") / ops,
        "engine.page_writes_per_op": count("page_writes") / ops,
        "engine.screens_per_op": count("screens") / ops,
        "engine.ad_ops_per_op": count("ad_ops") / ops,
        "maintenance.refresh_us": median_us("maintenance:refresh"),
        "maintenance.refreshes_per_query": ratio(
            len(durations.get("maintenance:refresh", ())), count("queries")),
        "maintenance.net_reads": count("net_reads"),
        "maintenance.net_computes": count("net_computes"),
        "maintenance.screen_pass_share": ratio(
            count("screen_passed"), count("screened")),
        "hr.net_change_us": median_us("hr:net_changes"),
        "hr.fold_us": median_us("hr:reset"),
        "hr.net_tuples_per_refresh": ratio(
            sum(net for _, net in net_gauges), len(net_gauges)),
        "hr.ad_entries_peak": float(max((ad for ad, _ in net_gauges), default=0)),
        "hr.bloom_negative_rate": count("bloom_negative_rate"),
        "views.apply_us": median_us("views:apply_changes"),
        "views.read_range_us": median_us("views:read_range"),
        "views.tuples_per_query": ratio(count("answer_tuples"), count("queries")),
        "storage.pool_hit_share": ratio(
            count("pool_hits"), count("pool_hits") + count("pool_misses")),
        "storage.pool_misses_per_op": count("pool_misses") / ops,
        "durability.wal_append_us": median_us("durability:wal_append"),
        "durability.codec_us": median_us("durability:codec"),
        "durability.fsync_us": median_us("durability:fsync"),
        "durability.fsyncs": count("wal_fsyncs"),
        "durability.wal_bytes_per_update": ratio(
            count("wal_bytes"), count("updates")),
        "durability.checkpoint_ms": (
            statistics.median(checkpoints) * 1e3 if checkpoints else 0.0),
        "durability.checkpoints": float(len(checkpoints)),
        "durability.checkpoint_bytes": count("checkpoint_bytes"),
        "durability.checkpoint_stall_max_ms": max(stalls, default=0.0) * 1e3,
        "durability.recovery_s": count("recovery_s"),
        "trace.attributed_share": ratio(covered, client_seconds),
        "trace.missing_targets": count("missing_targets"),
    }
