"""Shard workers: one process, one partition, one full serving stack.

A worker hosts a complete :class:`~repro.service.server.ViewServer`
(engine + maintenance + optional durability and resilience) over its
slice of every base relation, and speaks the framed RPC protocol of
:mod:`repro.cluster.rpc` over a socket inherited from the router.

Everything a worker needs is described by its slice of the stack's spec
(a plain dict, picklable and JSON-able; see :mod:`repro.service.spec`),
built by the same :func:`~repro.service.spec.build_server` that stands
the whole spec up in one process.  Workers are built without a router,
so their views never adapt: a strategy migration must be a cluster-wide
decision (all shards answer under the same strategy or the equivalence
guarantee means nothing).
"""

from __future__ import annotations

import signal
import socket
from operator import attrgetter
from typing import Any, Mapping

from repro.durability.codec import (
    decode_operation,
    decode_value,
    encode_operation,
    encode_record,
    encode_value,
    tagged_columns,
)
from repro.engine.transaction import Transaction
from repro.resilience.degradation import DegradedResult
from repro.service.server import ViewServer
from repro.service.spec import build_server
from repro.storage.tuples import Layout
from .rpc import FrameParser, send_frame

__all__ = [
    "WorkerSpecError",
    "DeltaGapError",
    "WorkerState",
    "worker_main",
    "encode_operation",
    "decode_operation",
    "apply_documents",
    "encode_answer",
    "decode_answer",
    "answer_rows",
]


class WorkerSpecError(ValueError):
    """A request names an op the worker does not know."""


class DeltaGapError(RuntimeError):
    """A shipped delta skipped an epoch: the replica must re-bootstrap."""


class WorkerState:
    """Per-process replication state the serve loop threads through.

    ``applied_epoch`` counts the committed update batches this worker
    has absorbed — via epoch-tagged ``update`` calls on a primary or
    ``apply_delta`` shipments on a replica — so any member can report
    how caught-up it is and serve a consistent ``snapshot`` for a
    replacement worker's bootstrap.
    """

    __slots__ = ("applied_epoch",)

    def __init__(self, applied_epoch: int = 0) -> None:
        self.applied_epoch = applied_epoch


# ----------------------------------------------------------------------
# wire encoding of transactions and answers
# ----------------------------------------------------------------------
# Operations, records, keys and answer cells cross the wire through the
# journal's codec (``encode_operation``/``decode_operation`` are its
# operation codec, in the wire spelling): an atom is itself, a tuple or
# list travels tagged and comes back what it was, on a shard as
# in-process.
def apply_documents(
    server: ViewServer, relation: str, ops: Any, client: str
) -> int:
    """Apply wire operation documents as one transaction; returns its size.

    How every in-process server takes a write off the wire: a shard
    worker (``update`` / ``apply_delta``) and the gateway's
    ``ViewServerBackend`` alike.
    """
    schema = server.database.base_of(relation).schema
    txn = Transaction.of(
        relation, [decode_operation(schema, doc) for doc in ops]
    )
    server.apply_update(txn, client=client)
    return len(txn)


_layout_of, _row_of = attrgetter("layout"), attrgetter("row")


def encode_answer(answer: Any, view_key: str | None = None) -> dict[str, Any]:
    """Flatten a ViewServer answer (tuples, scalar, or degraded) to JSON.

    Tuples travel as positional rows under one list of field names —
    ``view_key`` first when given, the rest by name, so that sorting
    rows sorts tuples by ``(view key, identity)``: a definition's layout,
    so a shard sends its stored rows as they are.  ``tagged`` lists the
    columns that hold a non-atom and went through the value codec; an
    all-atom answer has no such key and pays no per-cell call.  A scalar
    goes through the value codec too.
    """
    degraded = None
    payload = answer
    if isinstance(answer, DegradedResult):
        degraded = {
            "view": answer.view,
            "mode": answer.mode,
            "reason": answer.reason,
            "staleness_bound": answer.staleness_bound,
            "strategy": answer.strategy,
        }
        payload = answer.unwrap()
    if isinstance(payload, list):
        fields = sorted(payload[0].layout.fields) if payload else []
        if view_key in fields:
            fields.remove(view_key)
            fields.insert(0, view_key)
        rows: list[Any] = list(map(_row_of, payload))
        picks = {lay: lay.pick(tuple(fields)) for lay in set(map(_layout_of, payload))}
        if set(picks.values()) != {tuple}:
            rows = [picks[vt.layout](vt.row) for vt in payload]
        body = {"kind": "rows", "fields": fields, "rows": rows}
        tagged = tagged_columns(rows)
        if tagged:
            body["tagged"] = tagged
            body["rows"] = rows = [list(row) for row in rows]
            for row in rows:
                for at in tagged:
                    row[at] = encode_value(row[at])
    else:
        body = {"kind": "scalar", "value": encode_value(payload)}
    body["degraded"] = degraded
    return body


def answer_rows(doc: Mapping[str, Any]) -> list[Any]:
    """The rows of a ``rows`` answer, tagged cells decoded (in place)."""
    rows = doc["rows"]
    for at in doc.get("tagged", ()):
        for row in rows:
            row[at] = decode_value(row[at])
    return rows


def decode_answer(doc: Mapping[str, Any]) -> tuple[Any, dict[str, Any] | None]:
    """``(payload, degraded_info)`` — the router re-wraps degraded merges.
    A row becomes a view tuple over it, in the answer's one layout."""
    if doc.get("kind") == "rows":
        make = Layout.of(doc["fields"]).make
        payload: Any = [make(tuple(row)) for row in answer_rows(doc)]
    else:
        payload = decode_value(doc.get("value"))
    return payload, doc.get("degraded")


# ----------------------------------------------------------------------
# the serve loop
# ----------------------------------------------------------------------
def _handle(
    server: ViewServer,
    op: str,
    request: Mapping[str, Any],
    state: WorkerState,
) -> Any:
    if op == "ping":
        return {"views": list(server.views()), "epoch": state.applied_epoch}
    if op == "update":
        # A replicated primary tags each batch with the epoch the
        # router assigned it, so a snapshot taken from this worker
        # carries an exact catch-up position — and a retried write
        # whose first attempt committed before the connection broke
        # is recognized and skipped instead of double-applied.
        epoch = request.get("epoch")
        if isinstance(epoch, int) and epoch <= state.applied_epoch:
            return {"applied": 0, "epoch": state.applied_epoch,
                    "duplicate": True}
        applied = apply_documents(
            server, request["relation"], request["ops"],
            request.get("client", "router"),
        )
        if isinstance(epoch, int):
            state.applied_epoch = epoch
        return {"applied": applied}
    if op == "apply_delta":
        epoch = int(request["epoch"])
        if epoch <= state.applied_epoch:
            # A re-shipped batch this replica already holds (catch-up
            # after a repair overlaps the live stream): idempotent skip.
            return {"applied": 0, "epoch": state.applied_epoch,
                    "duplicate": True}
        if epoch != state.applied_epoch + 1:
            raise DeltaGapError(
                f"delta epoch {epoch} skips ahead of applied "
                f"{state.applied_epoch}; replica needs a snapshot bootstrap"
            )
        applied = apply_documents(
            server, request["relation"], request["ops"],
            request.get("client", "replication"),
        )
        state.applied_epoch = epoch
        return {"applied": applied, "epoch": state.applied_epoch}
    if op == "snapshot":
        # The router holds the shard's write lock while fetching, so
        # the records and the epoch cut the same consistent state.
        relations = {
            name: [encode_record(r)["values"] for r in server.database.logical_records(name)]
            for name in sorted(server.database.relations)
        }
        return {"epoch": state.applied_epoch, "relations": relations}
    if op == "fetch":
        record = server.database.logical_record(
            request["relation"], decode_value(request["key"])
        )
        return {"values": None if record is None else encode_record(record)["values"]}
    if op == "query":
        answer = server.query(
            request["view"], request.get("lo"), request.get("hi"),
            client=request.get("client", "router"),
        )
        definition = server.definition_of(request["view"])
        return encode_answer(answer, getattr(definition, "view_key", None))
    if op == "refresh":
        return {"refreshed": list(server.refresh_all_stale())}
    if op == "stats":
        relations = {}
        for name, relation in sorted(server.database.relations.items()):
            if relation.differential:
                coordinator = server.database.deferred_coordinator(name)
                relations[name] = {
                    "net_reads": relation.net_reads,
                    "pending": relation.pending,
                    "net_computes": (
                        coordinator.net_computes if coordinator is not None else 0
                    ),
                }
        return {
            "epochs": server.planner.epochs,
            "coalesced_waits": server.planner.coalesced_waits,
            "relations": relations,
            "degraded_views": server.degraded_views(),
        }
    if op == "metrics":
        return server.metrics_dict()
    if op == "checkpoint":
        info = server.checkpoint()
        return {"bytes_written": info.bytes_written}
    raise WorkerSpecError(f"unknown op {op!r}")


def serve(
    sock: socket.socket,
    server: ViewServer,
    shard_id: int,
    state: WorkerState | None = None,
) -> str:
    """Answer framed requests until a ``shutdown`` op or peer EOF.

    Returns ``"shutdown"`` when the router asked the worker to exit and
    ``"eof"`` when the connection merely closed — the accept loop in
    :func:`worker_main` uses the distinction to keep the process alive
    across a router-side reconnect.

    Requests on one connection are handled strictly in order, so by the
    time ``shutdown`` is read every earlier request has been fully
    answered — the drain the router's close() relies on.  The reply is
    sent *before* the durability seal so the router is never left
    waiting on a final checkpoint.
    """
    if state is None:
        state = WorkerState()
    parser = FrameParser()
    while True:
        try:
            request = parser.recv(sock)
        except OSError:
            return "eof"
        if request is None:
            return "eof"
        request_id = request.get("id")
        op = str(request.get("op", ""))
        if op == "shutdown":
            send_frame(sock, {"id": request_id, "ok": True,
                              "result": {"shard": shard_id}})
            return "shutdown"
        try:
            result = _handle(server, op, request, state)
        except Exception as exc:  # surfaced to the router as an error frame
            response = {
                "id": request_id,
                "ok": False,
                "kind": type(exc).__name__,
                "error": str(exc),
            }
        else:
            response = {"id": request_id, "ok": True, "result": result}
        try:
            send_frame(sock, response)
        except OSError:
            return "eof"


def worker_main(
    listener: socket.socket, spec: Mapping[str, Any], shard_id: int
) -> None:
    """Process entry point for one shard worker.

    ``listener`` is a *listening* TCP socket inherited from the router.
    The worker accepts one connection at a time and serves it to EOF,
    then loops back to ``accept`` — this is what lets the router repair
    a poisoned :class:`~repro.cluster.rpc.ShardClient` with
    ``reconnect()`` instead of declaring the shard dead: the worker
    process (and all its state) outlives any single connection.  Only
    an explicit ``shutdown`` op ends the process.

    SIGINT is ignored: a Ctrl-C at the terminal reaches the whole
    process group, and the worker must stay alive long enough for the
    router's drain-then-shutdown path to run — otherwise pipes break
    mid-request and the router would have to treat its own shutdown as
    a partial failure.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    server = build_server(spec)
    state = WorkerState(int(spec.get("replica_epoch", 0)))
    try:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                break  # listener torn down under us: exit cleanly
            try:
                reason = serve(conn, server, shard_id, state)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
            if reason == "shutdown":
                break
    finally:
        try:
            server.shutdown()
        finally:
            listener.close()
