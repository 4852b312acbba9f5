"""The gateway server: event-driven asyncio edge, admission, worker pool.

Architecture (one process)::

    clients ──TCP──▶ event loop (protocol callbacks)   worker threads
                     ├─ data_received: FrameParser      ├─ deadline check
                     ├─ admission pipeline ──▶ BoundedQueue ──▶ backend call
                     ├─ immediate rejections            └─ pack_frame(reply)
                     └─ conn.write(frame) ◀── call_soon_threadsafe ──┘

The event loop never executes engine work: a connection is an
:class:`asyncio.Protocol` whose ``data_received`` parses frames and runs
the admission pipeline (token buckets, concurrency guard, bounded queue)
on the spot.  Worker threads pop admitted requests from the bounded
ingress queue and drive the backend — a
:class:`~repro.service.server.ViewServer` (thread-safe since the
striped-lock refactor) or a :class:`~repro.cluster.router.ClusterRouter`
(scatter-gather legs already run on their own threads) — then encode
the reply themselves and hand the bytes to the loop.  Whole frames are
written from the loop thread only, so they cannot interleave and one
connection carries many overlapping requests matched by id (the
open-loop load generator depends on this).  A client that does not read
its replies fills its write buffer, which pauses *reading* from it.

Deadlines propagate: the budget a request arrives with is checked
again when a worker picks it up (expired in queue → dead letter,
engine untouched), is passed to the backend as its remaining RPC
timeout where supported (cluster legs), and is checked once more at
completion — an answer computed after its deadline is labelled
``expired``, not served as success, which is what keeps the p99 of
*admitted* requests bounded under overload.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol

from repro.cluster.worker import apply_documents, encode_answer
from repro.service.metrics import MetricsRegistry
from .admission import (
    EXPIRED,
    REJECTED_QUEUE_FULL,
    AdmissionConfig,
    AdmissionController,
)
from .protocol import GATEWAY_PROTOCOL, FrameError, FrameParser, pack_frame

__all__ = [
    "GatewayError",
    "GatewayConfig",
    "Backend",
    "ViewServerBackend",
    "ClusterBackend",
    "GatewayServer",
    "GatewayHandle",
    "GATEWAY_LATENCY_BUCKETS_MS",
]

#: Wall-clock latency buckets (ms).  The serving layer's modelled-ms
#: buckets start at 1 ms; gateway latencies are wall time and include
#: sub-millisecond rejections, so the grid extends two decades down.
GATEWAY_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 10_000.0, float("inf"),
)


#: Seconds a worker waits on an empty queue before re-checking stop.
_IDLE_POLL_S = 0.05


class GatewayError(RuntimeError):
    """Gateway configuration or protocol misuse."""


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway knobs: the admission pipeline plus the worker pool."""

    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Worker threads executing admitted requests against the backend.
    workers: int = 4

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class Backend(Protocol):
    """What the gateway needs from the serving stack behind it."""

    def views(self) -> tuple[str, ...]: ...
    def query(self, view: str, lo: Any, hi: Any, client: str,
              timeout: float | None = None) -> Any: ...
    def update(self, relation: str, ops: list[Mapping[str, Any]], client: str,
               timeout: float | None = None) -> int: ...
    def pop_retry_flag(self) -> bool:
        """Whether the calling thread's last query needed a replica retry."""
    def metrics(self) -> dict[str, Any]: ...


class ViewServerBackend:
    """Adapt one in-process :class:`ViewServer` to the gateway."""

    def __init__(self, server: Any) -> None:
        self.server = server

    def views(self) -> tuple[str, ...]:
        return tuple(self.server.views())

    def query(
        self, view: str, lo: Any, hi: Any, client: str,
        timeout: float | None = None,
    ) -> Any:
        # An in-process engine call is not interruptible; the gateway
        # enforces the deadline around it (pre-dispatch and at
        # completion) instead.
        return self.server.query(view, lo, hi, client=client)

    def update(
        self, relation: str, ops: list[Mapping[str, Any]], client: str,
        timeout: float | None = None,
    ) -> int:
        return apply_documents(self.server, relation, ops, client)

    def pop_retry_flag(self) -> bool:
        return False  # one server, no replicas to retry on

    def metrics(self) -> dict[str, Any]:
        return self.server.metrics_dict()


class ClusterBackend:
    """Adapt a scatter–gather :class:`ClusterRouter` to the gateway.

    The remaining deadline budget becomes the router's per-call RPC
    timeout, so a gateway deadline bounds every shard leg too.
    """

    def __init__(self, router: Any) -> None:
        self.router = router

    def views(self) -> tuple[str, ...]:
        return tuple(self.router.views())

    def query(
        self, view: str, lo: Any, hi: Any, client: str,
        timeout: float | None = None,
    ) -> Any:
        return self.router.query(view, lo, hi, client=client, timeout=timeout)

    def pop_retry_flag(self) -> bool:
        return self.router.pop_retried()

    def update(
        self, relation: str, ops: list[Mapping[str, Any]], client: str,
        timeout: float | None = None,
    ) -> int:
        # The documents are routed as they arrived (the shards decode
        # them); the remaining deadline budget bounds every shard leg of
        # the write fan-out, exactly as it already does for queries.
        self.router.apply_documents(relation, ops, client=client, timeout=timeout)
        return len(ops)

    def metrics(self) -> dict[str, Any]:
        return self.router.cluster_metrics()


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
def _error_doc(request: Mapping[str, Any], kind: str, error: str) -> dict[str, Any]:
    return {"id": request.get("id"), "ok": False, "kind": kind, "error": error}


class _Conn(asyncio.Protocol):
    """One client connection: frames parsed in, whole frames written out.

    Every method runs on the event loop.  :meth:`write` is the only
    place a reply reaches the socket, so frames cannot interleave.
    """

    transport: asyncio.Transport

    def __init__(self, gateway: "GatewayServer") -> None:
        self.gateway = gateway
        self.parser = FrameParser()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        if self.gateway._stopping.is_set():
            transport.abort()  # accepted while stop() was closing the rest
        else:
            self.gateway._conns.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            requests = self.parser.feed(data)
        except FrameError:
            self.close()  # garbage on the wire: drop the connection
            return
        for request in requests:
            self.gateway._dispatch(self, request)

    def write(self, frame: bytes) -> None:
        if self.transport.is_closing():
            self.gateway.metrics.counter("gateway_send_failures_total").inc()
        else:
            self.transport.write(frame)

    def pause_writing(self) -> None:
        # The client is not reading its replies: stop reading its
        # requests until the write buffer drains.
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def close(self) -> None:
        """Flush what the peer is taking, drop what it is not."""
        if self.transport.get_write_buffer_size():
            self.transport.abort()
        else:
            self.transport.close()

    def connection_lost(self, exc: Exception | None) -> None:
        self.gateway._conns.discard(self)


@dataclass
class _Pending:
    """One admitted request riding the ingress queue."""

    conn: _Conn
    request: dict[str, Any]
    op: str
    client: str
    received: float
    #: Absolute monotonic deadline, or None for no budget.
    deadline: float | None


class GatewayServer:
    """Serve the framed gateway protocol over a backend.

    Use :meth:`start`/:meth:`stop` inside an event loop, or
    :class:`GatewayHandle` to run the whole thing on a background
    thread (tests, experiments and ``repro-gateway serve``).
    """

    def __init__(
        self,
        backend: Backend,
        config: GatewayConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.backend = backend
        self.config = config or GatewayConfig()
        self.metrics = registry or MetricsRegistry()
        self.admission = AdmissionController(self.config.admission)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._conns: set[_Conn] = set()
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._started = 0.0
        #: ``(outcome, op)`` -> the five series one reply touches.
        self._series: dict[tuple[str, str], tuple[Any, ...]] = {}

    # -- lifecycle ------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        if self._server is not None:
            raise GatewayError("gateway already started")
        self._loop = asyncio.get_running_loop()
        self._stopping.clear()
        self._server = await self._loop.create_server(
            lambda: _Conn(self), host, port
        )
        self._started = time.monotonic()
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"gateway-worker-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def port(self) -> int:
        if self._server is None:
            raise GatewayError("gateway not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, finish what is executing, close every connection.

        Requests still queued when the workers exit are not run: their
        admission slots are released and their callers, like every
        other pending caller, see the connection close at once.
        """
        if self._server is None:
            return
        self._server.close()
        self._stopping.set()
        for thread in self._threads:
            await asyncio.get_running_loop().run_in_executor(None, thread.join)
        while (leftover := self.admission.queue.pop(timeout=0)) is not None:
            self.admission.release(leftover.client)
        for conn in list(self._conns):
            conn.close()
        # One more pass of the loop runs each connection_lost, which is
        # what closes the socket; the loop may be closed right after.
        await asyncio.sleep(0)
        self._server = None
        self._threads = []

    # -- observability --------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Queue, dead-letter, outcome and uptime counters as plain data."""
        outcomes = {
            dict(counter.labels)["outcome"]: int(counter.value)
            for counter in self.metrics.series("gateway_outcomes_total")
        }
        doc = self.admission.stats()
        doc["outcomes"] = outcomes
        doc["uptime_s"] = round(time.monotonic() - self._started, 3)
        doc["workers"] = self.config.workers
        doc["protocol"] = GATEWAY_PROTOCOL
        return doc

    def metrics_dict(self) -> dict[str, Any]:
        return self.metrics.to_dict()

    def _observe(self, outcome: str, op: str, latency_ms: float) -> None:
        series = self._series.get((outcome, op))
        if series is None:
            series = self._series[outcome, op] = (
                self.metrics.counter("gateway_outcomes_total", outcome=outcome),
                self.metrics.counter("gateway_requests_total", op=op),
                self.metrics.histogram(
                    "gateway_request_ms",
                    buckets=GATEWAY_LATENCY_BUCKETS_MS,
                    outcome=outcome,
                ),
                self.metrics.gauge("gateway_queue_depth"),
                self.metrics.gauge("gateway_queue_peak"),
            )
        outcomes, requests, latency, depth, peak = series
        outcomes.inc()
        requests.inc()
        latency.observe(latency_ms)
        queue = self.admission.queue
        depth.set(queue.depth)
        peak.set(queue.peak)

    def _dead_letter(
        self, label: str, client: str, op: str, detail: str, waited_ms: float
    ) -> None:
        self.admission.dead_letters.record(
            label, client, op, detail=detail, waited_ms=waited_ms
        )
        self.metrics.counter("gateway_dead_letters_total", reason=label).inc()

    # -- the asyncio edge ----------------------------------------------
    def _dispatch(self, conn: _Conn, request: dict[str, Any]) -> None:
        """Admission decision for one frame, on the event loop."""
        op = str(request.get("op", ""))
        client = str(request.get("client", "anon"))
        received = time.monotonic()

        if op in ("ping", "stats", "metrics"):
            self._answer_control(conn, request, op)
            return
        if op not in ("query", "update"):
            self._respond(conn, _error_doc(
                request, "GatewayError", f"unknown op {op!r}"))
            return

        # Malformed deadlines are rejected *before* admission: anything
        # that can fail after admit() would otherwise leak the client's
        # concurrency slot and wedge its cap permanently.
        budget_ms = request.get("deadline_ms")
        if budget_ms is None:
            budget_ms = self.config.admission.default_deadline_ms
        elif (
            isinstance(budget_ms, bool)
            or not isinstance(budget_ms, (int, float))
            or not math.isfinite(budget_ms)
        ):
            self._respond(conn, _error_doc(
                request, "GatewayError",
                f"deadline_ms must be a finite number, got {budget_ms!r}"))
            return

        decision = self.admission.admit(client)
        if not decision.admitted:
            assert decision.label is not None
            self._reject(conn, request, client, op, decision.label, decision.detail)
            return

        try:
            deadline = (
                received + budget_ms / 1000.0 if budget_ms is not None else None
            )
            pending = _Pending(conn, request, op, client, received, deadline)
            pushed = self.admission.queue.try_push(pending)
        except BaseException:
            # Between admit() and a successful try_push() the slot is
            # ours; never let it escape unreleased.
            self.admission.release(client)
            raise
        if not pushed:
            self.admission.release(client)
            self._reject(conn, request, client, op, REJECTED_QUEUE_FULL,
                         f"queue at cap {self.admission.queue.cap}")

    def _reject(
        self, conn: _Conn, request: dict[str, Any], client: str, op: str,
        label: str, detail: str,
    ) -> None:
        self._dead_letter(label, client, op, detail, 0.0)
        self._observe(label, op, 0.0)
        self._respond(conn, {"id": request.get("id"), "ok": False, "rejected": label})

    def _answer_control(self, conn: _Conn, request: dict[str, Any], op: str) -> None:
        if op == "ping":
            result: Any = {
                "protocol": GATEWAY_PROTOCOL,
                "views": list(self.backend.views()),
            }
        elif op == "stats":
            result = self.stats()
        else:
            # "metrics" calls into the backend — for a cluster that is
            # a synchronous scatter-gather bounded only by rpc_timeout,
            # so it must not run inline on the event loop (it would
            # stall parsing, admission and responses on every
            # connection while it waits).
            assert self._loop is not None
            self._loop.run_in_executor(None, self._answer_metrics, conn, request)
            return
        self._respond(conn, {"id": request.get("id"), "ok": True, "result": result})

    def _answer_metrics(self, conn: _Conn, request: dict[str, Any]) -> None:
        """Collect and answer ``metrics`` on an executor thread."""
        try:
            doc = {"id": request.get("id"), "ok": True, "result": {
                "gateway": self.metrics_dict(),
                "backend": self.backend.metrics(),
            }}
        except Exception as exc:
            doc = _error_doc(request, type(exc).__name__, str(exc))
        self._reply(conn, doc)

    def _respond(self, conn: _Conn, doc: dict[str, Any]) -> None:
        """Answer from the event loop."""
        conn.write(pack_frame(doc))

    def _reply(self, conn: _Conn, doc: dict[str, Any]) -> None:
        """Answer from any other thread: encode here, write on the loop."""
        try:
            frame = pack_frame(doc)
        except (FrameError, TypeError, ValueError) as exc:
            # An answer that cannot ride the wire (over the frame cap,
            # not JSON) still owes its caller a reply.
            frame = pack_frame(_error_doc(doc, type(exc).__name__, str(exc)))
        assert self._loop is not None
        try:
            self._loop.call_soon_threadsafe(conn.write, frame)
        except RuntimeError:
            # Loop already closed (shutdown race); the response is lost
            # with the connection, which is the normal close semantics.
            self.metrics.counter("gateway_send_failures_total").inc()

    # -- the worker pool ------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            pending = self.admission.queue.pop(timeout=_IDLE_POLL_S)
            if pending is None:
                continue
            try:
                self._execute(pending)
            finally:
                self.admission.release(pending.client)

    def _execute(self, pending: _Pending) -> None:
        now = time.monotonic()
        request = pending.request
        if pending.deadline is not None and now >= pending.deadline:
            # Expired while queued: the engine never sees it.
            self._expire(pending, "expired in queue", now)
            return
        remaining = (
            pending.deadline - now if pending.deadline is not None else None
        )
        try:
            if pending.op == "query":
                answer = self.backend.query(
                    request["view"], request.get("lo"), request.get("hi"),
                    pending.client, timeout=remaining,
                )
                result = encode_answer(answer)
                # pop_retry_flag runs on this same worker thread, so
                # the flag the router parked thread-locally belongs to
                # exactly this request.
                retried = self.backend.pop_retry_flag()
                if retried:
                    result["retried"] = True
                if result.get("degraded"):
                    outcome = "degraded"
                elif retried:
                    # A full-fidelity answer that needed a replica
                    # retry: correct, but worth its own histogram —
                    # failover latency hides inside these.
                    outcome = "ok_retry"
                else:
                    outcome = "ok"
            else:
                applied = self.backend.update(
                    request["relation"], request.get("ops", ()),
                    pending.client, timeout=remaining,
                )
                result = {"applied": applied}
                outcome = "ok"
        except Exception as exc:
            if (
                pending.deadline is not None
                and time.monotonic() >= pending.deadline - 0.010
            ):
                # The budget ran out mid-call: backends that honour the
                # remaining-time budget (cluster shard legs) raise when
                # it is exhausted, so the honest label is the deadline's
                # — expired — not an engine error.
                self._expire(pending, "deadline cut mid-call")
                return
            self._finish(pending, "error",
                         _error_doc(request, type(exc).__name__, str(exc)))
            return
        if pending.deadline is not None and time.monotonic() > pending.deadline:
            # Served too late to count: the caller's budget is blown, so
            # the answer is withheld and the work dead-lettered — this
            # is what bounds the latency of *admitted* successes.
            self._expire(pending, "completed past deadline")
            return
        self._finish(pending, outcome, {
            "id": request.get("id"), "ok": True, "result": result,
        })

    def _expire(
        self, pending: _Pending, detail: str, pickup: float | None = None
    ) -> None:
        """Dead-letter and answer ``expired``; ``late`` unless cut at pickup."""
        waited = (time.monotonic() if pickup is None else pickup) - pending.received
        self._dead_letter(EXPIRED, pending.client, pending.op, detail, waited * 1000.0)
        doc = {"id": pending.request.get("id"), "ok": False, "rejected": EXPIRED}
        if pickup is None:
            doc["late"] = True
        self._finish(pending, EXPIRED, doc)

    def _finish(self, pending: _Pending, outcome: str, doc: dict[str, Any]) -> None:
        latency_ms = (time.monotonic() - pending.received) * 1000.0
        self._observe(outcome, pending.op, latency_ms)
        self._reply(pending.conn, doc)


class GatewayHandle:
    """A gateway running on its own thread with its own event loop.

    What tests, experiments and ``repro-gateway serve`` use: ``launch`` returns
    once the socket is listening; ``stop`` tears the loop down and
    joins the thread.  The handle owns only the gateway — backend
    lifecycle (server shutdown, cluster close) stays with the caller.
    """

    def __init__(self, gateway: GatewayServer, host: str) -> None:
        self.gateway = gateway
        self.host = host
        self.port: int = 0
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    @classmethod
    def launch(
        cls,
        backend: Backend,
        config: GatewayConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: MetricsRegistry | None = None,
    ) -> "GatewayHandle":
        handle = cls(GatewayServer(backend, config, registry), host)
        ready = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            handle._loop = loop
            try:
                loop.run_until_complete(handle.gateway.start(host, port))
            except BaseException as exc:  # surfaced to the launcher
                failure.append(exc)
                ready.set()
                loop.close()
                return
            handle.port = handle.gateway.port
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(handle.gateway.stop())
                loop.close()

        thread = threading.Thread(target=run, name="gateway-loop", daemon=True)
        handle._thread = thread
        thread.start()
        ready.wait(timeout=30.0)
        if failure:
            raise failure[0]
        if handle.port == 0:
            raise GatewayError("gateway failed to start within 30s")
        return handle

    def stop(self) -> None:
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "GatewayHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
