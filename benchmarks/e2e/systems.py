"""The four stacks the workloads drive, and one repetition on each.

Every stack is built through the program's stable public API only
(``Database``, ``ViewServer``/``ViewServer.open``,
``GatewayHandle.launch`` + ``AsyncGatewayClient``,
``ClusterRouter.launch`` + ``ShardMap``), is fed nothing but the
generated records and ops, and releases everything it started in
``close()`` — which :func:`run_repetition` calls from ``finally``, so an
exception mid-stream still stops the gateway, reaps the shard workers
and seals the WAL.

All clients are closed-loop with ``pacing=0``: the callers of a view
service are application servers that wait for each reply, so a slow
system receives less load (open-loop overload stays covered by the
paced ``ext-gateway`` experiment).
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.router import ClusterRouter
from repro.cluster.shardmap import ShardMap
from repro.cluster.worker import decode_operation
from repro.concurrency.locks import set_lock_observer
from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.engine.transaction import Transaction
from repro.gateway import (
    AsyncGatewayClient,
    GatewayCallError,
    GatewayConfig,
    GatewayHandle,
    ViewServerBackend,
)
from repro.hr.differential import HypotheticalRelation
from repro.resilience.degradation import DegradedResult
from repro.service.server import ViewServer
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import IntervalPredicate

from .gen import WARMUP_SHARE, Inputs, View
from .trace import Tracer, layer_metrics, layer_self_seconds

__all__ = ["STACKS", "Failed", "Repetition", "best_seconds", "run_repetition",
           "summarise"]

#: Histograms of the metrics export that hold modelled milliseconds no
#: other histogram already counts (refresh cost paid inside a query is
#: in that query's cost box, hence in ``query_ms``).
MODELLED_HISTOGRAMS = frozenset(
    {"query_ms", "update_ms", "refresh_epoch_ms", "background_refresh_ms"})

#: Client ops between two readings of the wall and CPU clocks (see
#: :func:`summarise`); concurrent clients meet at these boundaries.
CHUNK_OPS = 25


@dataclass(frozen=True)
class Failed:
    """An op that raised, was rejected, expired, got lost or degraded."""

    why: str


class _LockCounter:
    """Lock observer counting acquisitions (exact, traced runs only)."""

    def __init__(self) -> None:
        self.acquired = 0

    def on_acquire(self, name: str, mode: str) -> None:
        self.acquired += 1

    def on_release(self, name: str, mode: str) -> None:
        pass


def _definition(view: View) -> Any:
    predicate = IntervalPredicate("a", view.lo, view.hi)
    if view.kind == "tuples":
        return SelectProjectView(view.name, view.relation, predicate, view.fields, "a")
    if view.kind == "join":
        return JoinView(view.name, view.relation, "s", "j", predicate,
                        view.fields, view.inner_fields, "a")
    return AggregateView(view.name, view.relation, predicate, "sum", view.fields[0])


def _modelled_ms(export: dict[str, Any]) -> float:
    return sum(entry["sum"] for entry in export["metrics"]
               if entry["kind"] == "histogram" and entry["name"] in MODELLED_HISTOGRAMS)


def _counter_total(export: dict[str, Any], name: str) -> float:
    return sum(entry["value"] for entry in export["metrics"]
               if entry["name"] == name and entry["kind"] == "counter")


class _InProcess:
    """``ViewServer`` called directly: one client thread, no network."""

    #: Buffer-pool pages; 1024 holds the 500 + 50 base pages and every
    #: view of ``serve_read_mostly`` with room to spare.
    pool = 1024
    durable = False

    def __init__(self, inputs: Inputs, workdir: str) -> None:
        self.inputs = inputs
        self.state_dir = os.path.join(workdir, "state") if self.durable else None
        self.locks = _LockCounter()
        self.baseline: dict[str, float] = {}
        self.recovery_s = 0.0
        self.server = self._open()
        try:
            self._load()
        except BaseException:
            self.server.shutdown()
            raise

    def _load(self) -> None:
        inputs = self.inputs
        shape = inputs.shape
        database = self.server.database
        self.schemas = {rel: Schema(rel, shape.fields, "id", tuple_bytes=100)
                        for rel in shape.relations}
        for rel, schema in self.schemas.items():
            database.create_relation(
                schema, "a", kind="hypothetical", ad_buckets=4,
                records=[schema.new_record(**row) for row in inputs.records[rel]])
        if inputs.inner:
            inner = Schema("s", ("j", "w"), "j", tuple_bytes=100)
            database.create_relation(
                inner, "j", kind="hashed",
                records=[inner.new_record(**row) for row in inputs.inner])
        for view in shape.views:
            self.server.register_view(
                _definition(view), Strategy(view.strategy), adaptive=False)
        if self.durable:
            # Bootstrap is not workload: recovery replays from here.
            self.server.checkpoint()

    def _open(self) -> ViewServer:
        config = {"buffer_pages": self.pool, "cold_operations": False}
        if self.durable:
            return ViewServer.open(self.state_dir, default_config=config,
                                   fsync_every=8, checkpoint_every=150)
        return ViewServer(Database(**config))

    # -- the op surface the driver loop calls ---------------------------
    def prepare(self) -> list[list[tuple]]:
        """Streams with transactions pre-built (the client's own work)."""
        return [
            [op if op[0] == "q" else ("u", Transaction.of(op[1], [
                decode_operation(self.schemas[op[1]], doc) for doc in op[2]]))
             for op in stream.ops]
            for stream in self.inputs.streams
        ]

    def query(self, view: str, lo: Any, hi: Any) -> Any:
        return self.server.query(view, lo, hi, client="c")

    def update(self, txn: Transaction) -> Any:
        return self.server.apply_update(txn, client="c")

    def run(self, prepared: list[list[tuple]], start: int, stop: int,
            out: list[list[Any]], fail_at: int | None = None) -> None:
        _drive(self.query, self.update, prepared[0], start, stop, out[0], fail_at)

    def payload(self, raw: Any) -> Any:
        return Failed(f"degraded:{raw.mode}") if isinstance(raw, DegradedResult) else raw

    def cpu_seconds(self) -> float:
        return time.process_time()

    def modelled_ms(self) -> float:
        return _modelled_ms(self.server.metrics_dict())

    # -- tracing --------------------------------------------------------
    def instrument(self, tracer: Tracer) -> None:
        self.query = tracer.traced("client:query", self.query)
        self.update = tracer.traced("client:update", self.update)
        self._start_counting()

    def _start_counting(self) -> None:
        set_lock_observer(self.locks)
        self.baseline = self._counters()

    def _counters(self) -> dict[str, float]:
        """Running totals read off the program's public attributes."""
        database = self.server.database
        meter, pool = database.meter, database.pool
        totals: dict[str, float] = {
            "page_reads": meter.page_reads, "page_writes": meter.page_writes,
            "screens": meter.screens, "ad_ops": meter.ad_ops,
            "pool_hits": pool.hits, "pool_misses": pool.misses,
            "refresh_epochs": self.server.planner.epochs,
            "lock_acquisitions": self.locks.acquired,
            "net_reads": 0, "net_computes": 0, "screen_passed": 0, "screened": 0,
        }
        for name, relation in database.relations.items():
            if isinstance(relation, HypotheticalRelation):
                totals["net_reads"] += relation.net_reads
                coordinator = database.deferred_coordinator(name)
                if coordinator is not None:
                    totals["net_computes"] += coordinator.net_computes
        for impl in database.views.values():
            stats = getattr(getattr(impl, "screen", None), "stats", None)
            if stats is not None:
                totals["screen_passed"] += stats.passed
                totals["screened"] += (
                    stats.passed + stats.stage1_rejected + stats.stage2_rejected)
        manager = self.server.durability
        if manager is not None:
            totals["wal_fsyncs"] = manager.wal.fsyncs
            totals["wal_bytes"] = manager.wal.bytes_appended
        return totals

    def counts(self) -> dict[str, float]:
        """Exact counters of the timed part (totals minus the baseline)."""
        counts = {key: value - self.baseline.get(key, 0)
                  for key, value in self._counters().items()}
        database = self.server.database
        blooms = [rel.bloom for rel in database.relations.values()
                  if isinstance(rel, HypotheticalRelation)]
        counts["bloom_negative_rate"] = (
            sum(b.negatives for b in blooms) / max(1, sum(b.probes for b in blooms)))
        manager = self.server.durability
        if manager is not None and manager.last_checkpoint is not None:
            counts["checkpoint_bytes"] = manager.last_checkpoint.bytes_written
        return counts

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        set_lock_observer(None)
        self.server.shutdown()

    def recovered_finals(self) -> list[list[Any]] | None:
        return None


class _Durable(_InProcess):
    """``ViewServer.open`` over a state dir; the data is 4x the pool."""

    #: 8 000 tuples are 200 base pages; 50 pool pages make every
    #: refresh and fold evict.
    pool = 50
    durable = True

    def recovered_finals(self) -> list[list[Any]]:
        """Reopen the sealed state dir, replay, and read every view."""
        began = time.perf_counter()
        self.server = ViewServer.open(self.state_dir)
        self.recovery_s = time.perf_counter() - began
        try:
            return [[self.payload(self.query(view, None, None))
                     for view, _ in stream.final]
                    for stream in self.inputs.streams]
        finally:
            self.server.shutdown()
            shutil.rmtree(self.state_dir, ignore_errors=True)


class _Gateway(_InProcess):
    """TCP gateway over an in-process server; one connection per tenant."""

    def __init__(self, inputs: Inputs, workdir: str) -> None:
        # The clients, the gateway's loop and its two workers are five
        # threads under one interpreter lock.  Left on two CPUs they
        # hand the lock across cores, which doubles the CPU time of a
        # request and makes a repetition run in 0.55 s or in 1.35 s
        # as the scheduler happens to place them; on one CPU the
        # request's own work is what is timed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        super().__init__(inputs, workdir)
        self.handle: GatewayHandle | None = None
        self.loop = asyncio.new_event_loop()
        self.clients: list[AsyncGatewayClient] = []
        try:
            self.handle = GatewayHandle.launch(
                ViewServerBackend(self.server), GatewayConfig(workers=2))
            for stream in inputs.streams:
                client = AsyncGatewayClient(
                    self.handle.host, self.handle.port, client=stream.client)
                self.loop.run_until_complete(client.connect())
                self.clients.append(client)
        except BaseException:
            self.close()
            raise

    def prepare(self) -> list[list[tuple]]:
        return [stream.ops for stream in self.inputs.streams]

    def run(self, prepared: list[list[tuple]], start: int, stop: int,
            out: list[list[Any]], fail_at: int | None = None) -> None:
        async def one(client: AsyncGatewayClient, ops: list[tuple],
                      rows: list[Any]) -> None:
            for i in range(start, stop):
                op = ops[i]
                began = time.perf_counter()
                try:
                    if op[0] == "q":
                        reply: Any = await client.query(op[1], op[2], op[3])
                    else:
                        reply = await client.update(op[1], op[2])
                except GatewayCallError as exc:
                    reply = Failed(f"lost:{exc}")
                rows[i] = (time.perf_counter() - began, reply)

        async def both() -> None:
            await asyncio.gather(*(
                one(client, ops, rows)
                for client, ops, rows in zip(self.clients, prepared, out)))

        self.loop.run_until_complete(both())

    def query(self, view: str, lo: Any, hi: Any) -> Any:
        return self.loop.run_until_complete(self.clients[0].query(view, lo, hi))

    def payload(self, raw: Any) -> Any:
        if isinstance(raw, Failed):
            return raw
        if not raw.ok:
            return Failed(raw.rejected or f"error:{raw.kind}:{raw.error}")
        if not isinstance(raw.result, dict) or "kind" not in raw.result:
            return raw.result
        answer, degraded = raw.answer()
        return Failed(f"degraded:{degraded['mode']}") if degraded else answer

    def modelled_ms(self) -> float:
        export = self.loop.run_until_complete(self.clients[0].metrics())
        return _modelled_ms(export["backend"])

    def instrument(self, tracer: Tracer) -> None:
        # The clients are coroutines; their side of a request is its
        # measured latency, not a span.
        self._start_counting()

    def counts(self) -> dict[str, float]:
        counts = super().counts()
        assert self.handle is not None
        stats = self.handle.gateway.stats()
        counts["gateway_queue_peak"] = stats["queue"]["peak"]
        counts["gateway_rejected"] = sum(stats["dead_letters"].values())
        return counts

    def close(self) -> None:
        try:
            for client in self.clients:
                self.loop.run_until_complete(client.close())
        finally:
            try:
                if self.handle is not None:
                    self.handle.stop()
            finally:
                self.loop.close()
                super().close()


class _CountingSocket:
    """Socket proxy adding up the bytes a ``ShardClient`` moves."""

    def __init__(self, sock: Any, tally: list[int]) -> None:
        self._sock = sock
        self._tally = tally

    def sendall(self, data: bytes) -> None:
        self._tally[0] += len(data)
        self._sock.sendall(data)

    def recv(self, size: int) -> bytes:
        chunk = self._sock.recv(size)
        self._tally[0] += len(chunk)
        return chunk

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)


class _Cluster:
    """Scatter–gather router over two forked range shards."""

    recovery_s = 0.0

    def __init__(self, inputs: Inputs, workdir: str) -> None:
        self.inputs = inputs
        shape = inputs.shape
        self.schemas = {rel: Schema(rel, shape.fields, "id") for rel in shape.relations}
        spec = {
            "buffer_pages": 256, "cache": False, "pacing": 0.0,
            "lock_timeout": 30.0, "state_dir": None,
            "relations": [
                {"name": rel, "fields": list(shape.fields), "key_field": "id",
                 "tuple_bytes": 100, "clustered_on": "a", "kind": "hypothetical",
                 "ad_buckets": 2, "records": inputs.records[rel]}
                for rel in shape.relations
            ],
            "views": [
                {"type": "aggregate" if view.kind == "sum" else "select_project",
                 "name": view.name, "relation": view.relation,
                 "predicate": {"field": "a", "lo": view.lo, "hi": view.hi,
                               "selectivity": 1.0},
                 "aggregate": "sum", "field": view.fields[0],
                 "projection": list(view.fields), "view_key": "a",
                 "strategy": view.strategy, "policy": None}
                for view in shape.views
            ],
        }
        # replicas=0 and no supervisor: nothing respawns, so close()
        # reaps exactly the two workers launched here.
        self.router = ClusterRouter.launch(
            spec, ShardMap.ranged("a", 0, shape.domain, 2), rpc_timeout=30.0)
        try:
            self.router.stats()  # returns once both workers have loaded
        except BaseException:
            self.router.close()
            raise
        self.pids = [process.pid for process in self.router.processes]
        self.rpc_bytes = [0]
        self.at_start = (0.0, 0.0, 0.0)

    def query(self, view: str, lo: Any, hi: Any) -> Any:
        return self.router.query(view, lo, hi, client="c")

    def update(self, txn: Transaction) -> Any:
        return self.router.apply_update(txn, client="c")

    prepare = _InProcess.prepare
    run = _InProcess.run
    payload = _InProcess.payload

    def _worker_cpu(self) -> float:
        """CPU seconds of the shard workers so far.

        Read from ``schedstat`` (nanoseconds on the CPU, per thread):
        the ``stat`` fields count 10 ms ticks, coarser than a chunk.
        """
        nanos = 0
        for pid in self.pids:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/schedstat", encoding="ascii") as stat:
                    nanos += int(stat.read().split()[0])
        return nanos / 1e9

    def cpu_seconds(self) -> float:
        return time.process_time() + self._worker_cpu()

    def modelled_ms(self) -> float:
        return _modelled_ms(self.router.cluster_metrics())

    def instrument(self, tracer: Tracer) -> None:
        self.query = tracer.traced("client:query", self.query)
        self.update = tracer.traced("client:update", self.update)
        for client in self.router.clients:
            client.sock = _CountingSocket(client.sock, self.rpc_bytes)
        self.at_start = (time.process_time(), self._worker_cpu(), self._moves())

    def _moves(self) -> float:
        return _counter_total(self.router.metrics.to_dict(), "cross_shard_moves_total")

    def counts(self) -> dict[str, float]:
        own = time.process_time() - self.at_start[0]
        workers = self._worker_cpu() - self.at_start[1]
        # The worker side is visible only through its metrics export.
        gauges = [entry["value"] for doc in self.router.shard_metrics().values()
                  for entry in doc["metrics"] if entry["name"] == "bloom_negative_rate"]
        return {
            "rpc_bytes": self.rpc_bytes[0],
            "moves": self._moves() - self.at_start[2],
            "worker_cpu_share": workers / (own + workers) if own + workers else 0.0,
            "bloom_negative_rate": max(gauges, default=0.0),
        }

    def close(self) -> None:
        self.router.close()

    def recovered_finals(self) -> None:
        return None


def _drive(query: Any, update: Any, ops: list[tuple], start: int, stop: int,
           rows: list[Any], fail_at: int | None) -> None:
    """The closed loop of one synchronous client."""
    clock = time.perf_counter
    for i in range(start, stop):
        if i == fail_at:
            raise RuntimeError(f"injected failure at op {i}")
        op = ops[i]
        began = clock()
        try:
            raw = query(op[1], op[2], op[3]) if op[0] == "q" else update(op[1])
        except Exception as exc:  # counted into `failed`, never hidden
            raw = Failed(f"raised:{type(exc).__name__}:{exc}")
        rows[i] = (clock() - began, raw)


STACKS = {
    "serve_read_mostly": _InProcess,
    "serve_update_durable": _Durable,
    "gateway_point": _Gateway,
    "cluster_scatter": _Cluster,
}


@dataclass
class Repetition:
    """What one repetition on a freshly built system measured."""

    setup_s: float
    #: Wall and CPU seconds of each timed chunk of ``CHUNK_OPS`` ops.
    chunk_wall_s: list[float]
    chunk_cpu_s: list[float]
    #: Client-observed seconds of every op, per stream, warm-up included.
    latency_s: list[list[float]]
    modelled_ms: float
    attempted: int
    failures: list[str]
    #: Per-layer table and layer self-times (traced repetitions only).
    layers: dict[str, float] = field(default_factory=dict)
    budget: dict[str, float] = field(default_factory=dict)


def _normal(view: View, answer: Any) -> Any:
    """An answer in the model's form: sorted value tuples, or a scalar."""
    if isinstance(answer, Failed) or view.kind == "sum":
        return answer
    fields = view.fields + view.inner_fields
    return sorted(tuple(vt.values[f] for f in fields) for vt in answer)


def run_repetition(
    workload: str, inputs: Inputs, workdir: str,
    tracer: Tracer | None = None, fail_at: int | None = None,
) -> Repetition:
    """Build the stack, run every stream once, check every answer."""
    views = {view.name: view for view in inputs.shape.views}
    n_ops = inputs.shape.ops
    warm = int(n_ops * WARMUP_SHARE)
    out: list[list[Any]] = [[None] * n_ops for _ in inputs.streams]
    chunk_wall_s: list[float] = []
    chunk_cpu_s: list[float] = []
    gc.collect()
    began = time.perf_counter()
    stack = STACKS[workload](inputs, workdir)
    setup_s = time.perf_counter() - began
    try:
        prepared = stack.prepare()
        stack.run(prepared, 0, warm, out)
        if tracer is not None:
            # After set-up, so forked shard workers never inherit the
            # wrappers; their side is read from shard_metrics() instead.
            tracer.install()
            stack.instrument(tracer)
        gc.collect()
        try:
            for start in range(warm, n_ops, CHUNK_OPS):
                cpu0, wall0 = stack.cpu_seconds(), time.perf_counter()
                stack.run(prepared, start, min(start + CHUNK_OPS, n_ops), out, fail_at)
                chunk_wall_s.append(time.perf_counter() - wall0)
                chunk_cpu_s.append(stack.cpu_seconds() - cpu0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        modelled_ms = stack.modelled_ms()
        counts = stack.counts() if tracer is not None else {}
        finals = [[stack.payload(stack.query(view, None, None))
                   for view, _ in stream.final] for stream in inputs.streams]
    finally:
        stack.close()
    recovered = stack.recovered_finals()

    failures: list[str] = []
    answer_tuples = 0
    for stream, rows in zip(inputs.streams, out):
        for i, (op, expected, (_, raw)) in enumerate(
                zip(stream.ops, stream.expected, rows)):
            answer = stack.payload(raw)
            if op[0] == "q":
                answer = _normal(views[op[1]], answer)
                if isinstance(answer, list) and i >= warm:
                    answer_tuples += len(answer)
                if answer != expected:
                    failures.append(f"{stream.client} op {i} {op[1]}: "
                                    f"{answer if isinstance(answer, Failed) else 'wrong answer'}")
            elif isinstance(answer, Failed):
                failures.append(f"{stream.client} op {i} update: {answer}")
    checks = [("final", finals)] + ([("recovered", recovered)] if recovered else [])
    for label, per_stream in checks:
        for stream, answers in zip(inputs.streams, per_stream):
            for (view, expected), answer in zip(stream.final, answers):
                if _normal(views[view], answer) != expected:
                    failures.append(f"{label} state of {view} differs from the oracle")
    n_checks = sum(len(s.final) for s in inputs.streams) * len(checks)
    rep = Repetition(
        setup_s=setup_s, chunk_wall_s=chunk_wall_s, chunk_cpu_s=chunk_cpu_s,
        latency_s=[[seconds for seconds, _ in rows] for rows in out],
        modelled_ms=modelled_ms,
        attempted=n_ops * len(inputs.streams) + n_checks, failures=failures,
    )
    if tracer is not None:
        timed = [seconds for row in rep.latency_s for seconds in row[warm:]]
        counts.update(
            queries=sum(op[0] == "q" for s in inputs.streams for op in s.ops[warm:]),
            answer_tuples=answer_tuples, recovery_s=stack.recovery_s,
            missing_targets=len(tracer.missing))
        counts["updates"] = len(timed) - counts["queries"]
        rep.layers = layer_metrics(tracer.spans, counts, len(timed), sum(timed))
        rep.budget = layer_self_seconds(tracer.spans)
    return rep


def best_seconds(chunks: list[list[float]]) -> float:
    """Each chunk's fastest repetition, summed over the chunks."""
    return sum(map(min, zip(*chunks)))


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarise(
    reps: list[Repetition], inputs: Inputs, scale: float
) -> dict[str, float]:
    """End-to-end metrics of one run from its repetitions.

    ``scale`` turns measured seconds into reference seconds (clock.py).

    Every repetition runs the same ops on the same data, so whatever
    differs between two repetitions of one op is the machine, and in
    this sandbox the machine slows by 20-40% for seconds at a time.  An
    op's latency is therefore its fastest repetition, and wall and CPU
    time are summed over chunks from each chunk's fastest repetition;
    percentiles are then taken over the ops of the stream.  That keeps
    what the op stream itself makes slow (a refresh paid by a query, a
    checkpoint behind an update) and drops what the neighbours do.
    """
    n_ops = inputs.shape.ops
    warm = int(n_ops * WARMUP_SHARE)
    timed_ops = (n_ops - warm) * len(inputs.streams)
    latency: dict[str, list[float]] = {"q": [], "u": []}
    for at, stream in enumerate(inputs.streams):
        best = map(min, zip(*(rep.latency_s[at] for rep in reps)))
        for op, seconds in list(zip(stream.ops, best))[warm:]:
            latency[op[0]].append(seconds * scale * 1e3)
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return {
        "setup_s": statistics.median(rep.setup_s for rep in reps) * scale,
        "ops_per_s": timed_ops / (
            best_seconds([rep.chunk_wall_s for rep in reps]) * scale),
        "query_p50_ms": _percentile(latency["q"], 0.50),
        "query_p95_ms": _percentile(latency["q"], 0.95),
        "update_p50_ms": _percentile(latency["u"], 0.50),
        "update_p95_ms": _percentile(latency["u"], 0.95),
        "cpu_ms_per_op": best_seconds(
            [rep.chunk_cpu_s for rep in reps]) * scale / timed_ops * 1e3,
        "modelled_ms_per_op": statistics.median(
            rep.modelled_ms for rep in reps) / (n_ops * len(inputs.streams)),
        "peak_rss_mb": sum(usage) / 1024.0,
    }
