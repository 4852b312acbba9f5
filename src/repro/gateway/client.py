"""Asyncio client for the gateway protocol.

One :class:`AsyncGatewayClient` owns one TCP connection and any number
of in-flight requests on it: the connection's ``data_received``
demultiplexes response frames by ``id`` back to their awaiting callers,
which is what lets the open-loop load generator keep issuing requests
on schedule while earlier ones are still queued server-side.

Responses come back as :class:`GatewayReply` — a small record exposing
the three outcome classes (``ok`` / ``rejected`` / ``error``) without
raising, because under deliberate overload rejections are *expected*
data, not exceptions.  :func:`call_once` is the convenience wrapper for
scripts and tests that want exactly one call on a fresh connection.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Any, Mapping

from repro.cluster.worker import decode_answer
from .protocol import FrameError, FrameParser, pack_frame

__all__ = ["AsyncGatewayClient", "GatewayCallError", "GatewayReply", "call_once"]


class GatewayCallError(RuntimeError):
    """The connection died or the protocol was violated mid-call."""


@dataclass(frozen=True)
class GatewayReply:
    """One response frame, classified.

    Exactly one of the three outcome classes holds: ``ok`` (``result``
    carries the payload), ``rejected`` (a rejection label from
    :data:`~repro.gateway.admission.REJECTION_LABELS`), or an engine
    error (``error`` carries the message, ``kind`` the exception class).
    """

    doc: Mapping[str, Any]

    @property
    def ok(self) -> bool:
        return bool(self.doc.get("ok"))

    @property
    def rejected(self) -> str | None:
        return self.doc.get("rejected")

    @property
    def error(self) -> str | None:
        return self.doc.get("error")

    @property
    def kind(self) -> str | None:
        return self.doc.get("kind")

    @property
    def result(self) -> Any:
        return self.doc.get("result")

    def answer(self) -> tuple[Any, dict[str, Any] | None]:
        """Decode an ``ok`` query result into (payload, degraded_info)."""
        if not self.ok:
            raise GatewayCallError(f"no answer in a non-ok reply: {self.doc}")
        return decode_answer(self.doc["result"])


class _Replies(asyncio.Protocol):
    """The client's end of the connection: reply frames in, futures resolved."""

    def __init__(self, client: "AsyncGatewayClient") -> None:
        self.client = client
        self.parser = FrameParser()

    def data_received(self, data: bytes) -> None:
        try:
            docs = self.parser.feed(data)
        except FrameError as exc:
            self.client._drop(GatewayCallError(f"connection lost: {exc}"))
            return
        pending = self.client._pending
        for doc in docs:
            future = pending.pop(doc.get("id"), None)
            if future is not None and not future.done():
                future.set_result(GatewayReply(doc))

    def connection_lost(self, exc: Exception | None) -> None:
        if exc is None:
            try:
                self.parser.eof()
            except FrameError as torn:
                exc = torn
        self.client._fail_pending(GatewayCallError(
            "gateway closed the connection" if exc is None
            else f"connection lost: {exc}"
        ))


class AsyncGatewayClient:
    """A pipelined connection to one gateway.

    Every ``call`` is bounded: the server may legitimately drop a
    response (send failure, shutdown race), and an unbounded await on a
    still-open connection would hang the caller forever.  Requests
    carrying ``deadline_ms`` wait that budget plus ``reply_slack_s``
    (engine work is not interruptible, so a late ``expired`` reply can
    trail the deadline by the full execution time); requests without
    one wait ``reply_timeout_s``.  Either knob can be ``None`` to
    disable the bound.  Expiry raises :class:`GatewayCallError`, which
    the load generators record as a ``lost`` outcome.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client: str = "anon",
        reply_timeout_s: float | None = 60.0,
        reply_slack_s: float | None = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client = client
        self.reply_timeout_s = reply_timeout_s
        self.reply_slack_s = reply_slack_s
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future[GatewayReply]] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._transport: asyncio.Transport | None = None
        self._closed = False

    async def connect(self) -> "AsyncGatewayClient":
        self._loop = asyncio.get_running_loop()
        self._transport, _ = await self._loop.create_connection(
            lambda: _Replies(self), self.host, self.port
        )
        return self

    async def __aenter__(self) -> "AsyncGatewayClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def close(self) -> None:
        self._drop(GatewayCallError("connection closed"))
        # One more pass of the loop runs connection_lost, which is what
        # closes the socket; the loop may be closed right after.
        await asyncio.sleep(0)

    def _drop(self, exc: Exception) -> None:
        """Abandon the connection: nothing sent or received after this."""
        self._closed = True
        if self._transport is not None:
            self._transport.abort()
        self._fail_pending(exc)

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    def _reply_budget(self, request: Mapping[str, Any]) -> float | None:
        deadline_ms = request.get("deadline_ms")
        if isinstance(deadline_ms, (int, float)) and not isinstance(
            deadline_ms, bool
        ):
            if self.reply_slack_s is None:
                return None
            return max(0.0, deadline_ms) / 1000.0 + self.reply_slack_s
        return self.reply_timeout_s

    @staticmethod
    def _expire(
        future: asyncio.Future[GatewayReply], request_id: int, budget: float
    ) -> None:
        if not future.done():
            future.set_exception(GatewayCallError(
                f"no reply to request {request_id} within {budget:.3f}s "
                f"(response lost)"
            ))

    async def call(
        self, doc: Mapping[str, Any], timeout: float | None = None
    ) -> GatewayReply:
        """Send one request document (``id`` is assigned here) and await.

        ``timeout`` overrides the computed reply bound for this call.
        """
        if self._transport is None or self._loop is None or self._closed:
            raise GatewayCallError("client is not connected")
        if self._transport.is_closing():
            raise GatewayCallError("send failed: Connection lost")
        request = dict(doc)
        request_id = request["id"] = next(self._ids)
        future: asyncio.Future[GatewayReply] = self._loop.create_future()
        self._pending[request_id] = future
        timer: asyncio.TimerHandle | None = None
        try:
            self._transport.write(pack_frame(request))
            budget = timeout if timeout is not None else self._reply_budget(request)
            if budget is not None:
                timer = self._loop.call_later(
                    budget, self._expire, future, request_id, budget
                )
            return await future
        finally:
            if timer is not None:
                timer.cancel()
            self._pending.pop(request_id, None)

    # -- typed helpers --------------------------------------------------
    async def ping(self) -> GatewayReply:
        return await self.call({"op": "ping"})

    async def stats(self) -> dict[str, Any]:
        reply = await self.call({"op": "stats"})
        if not reply.ok:
            raise GatewayCallError(f"stats failed: {reply.doc}")
        return dict(reply.result)

    async def metrics(self) -> dict[str, Any]:
        reply = await self.call({"op": "metrics"})
        if not reply.ok:
            raise GatewayCallError(f"metrics failed: {reply.doc}")
        return dict(reply.result)

    async def query(
        self, view: str, lo: Any, hi: Any,
        deadline_ms: float | None = None,
    ) -> GatewayReply:
        doc: dict[str, Any] = {
            "op": "query", "view": view, "lo": lo, "hi": hi,
            "client": self.client,
        }
        if deadline_ms is not None:
            doc["deadline_ms"] = deadline_ms
        return await self.call(doc)

    async def update(
        self, relation: str, ops: list[Mapping[str, Any]],
        deadline_ms: float | None = None,
    ) -> GatewayReply:
        doc: dict[str, Any] = {
            "op": "update", "relation": relation, "ops": list(ops),
            "client": self.client,
        }
        if deadline_ms is not None:
            doc["deadline_ms"] = deadline_ms
        return await self.call(doc)


async def call_once(
    host: str, port: int, doc: Mapping[str, Any], client: str = "anon"
) -> GatewayReply:
    """One request on a fresh connection; closes it afterwards."""
    async with AsyncGatewayClient(host, port, client=client) as conn:
        return await conn.call(doc)
