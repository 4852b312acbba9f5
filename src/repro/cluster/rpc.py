"""Framed JSON RPC between the front-end router and shard workers.

The wire protocol is deliberately small: every message is one JSON
document preceded by a 4-byte big-endian length.  Requests carry a
monotonically increasing per-connection ``id`` which the worker echoes
back, so a response can never be credited to the wrong call even after
a timeout left a late reply in the pipe — the client discards frames
whose id is not the one it is waiting for.

Failure classes the router distinguishes:

* :class:`ShardTimeout` — the worker did not answer within the
  per-call deadline.  The call is abandoned but the connection
  *recovers*: the client keeps a persistent receive buffer (a partial
  frame stays buffered across the timeout, so framing never
  desynchronizes) and ids are monotonic, so the next call simply
  drains and discards any late replies to abandoned requests.  One
  slow call — e.g. a request whose remaining gateway deadline was fed
  in as the RPC timeout — therefore degrades that call only, it does
  not remove the shard from service.
* :class:`ShardUnavailable` — the worker is gone (EOF, broken pipe) or
  the connection is poisoned.  Poisoning is reserved for genuinely
  unrecoverable desynchronization: a send that timed out mid-frame
  (the worker's inbound framing is now ahead of ours), a transport
  error, or a response id from the future.
* :class:`RemoteOpError` — the worker executed the call and raised;
  the exception class name and message come back in the error frame.
"""

from __future__ import annotations

import json
import select
import socket
import struct
import threading
import time
from typing import Any, Callable, Generator, Mapping

__all__ = [
    "RpcError",
    "ShardTimeout",
    "ShardUnavailable",
    "RemoteOpError",
    "FrameError",
    "ShardClient",
    "Leg",
    "finish",
    "blocking",
    "gather",
    "FrameParser",
    "pack_frame",
    "send_frame",
]

_LENGTH = struct.Struct("!I")

#: Upper bound on one frame; a corrupt length prefix fails loudly
#: instead of attempting a multi-gigabyte read.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class RpcError(Exception):
    """Base class for shard RPC failures."""


class FrameError(RpcError):
    """The byte stream does not parse as the framed protocol."""


class ShardTimeout(RpcError):
    """A shard missed its per-call deadline."""

    def __init__(self, shard_id: int, op: str, timeout: float) -> None:
        super().__init__(
            f"shard {shard_id} did not answer {op!r} within {timeout:.3f}s"
        )
        self.shard_id = shard_id
        self.op = op
        self.timeout = timeout


class ShardUnavailable(RpcError):
    """A shard's connection is closed, broken, or poisoned."""

    def __init__(self, shard_id: int, reason: str) -> None:
        super().__init__(f"shard {shard_id} unavailable: {reason}")
        self.shard_id = shard_id
        self.reason = reason


class RemoteOpError(RpcError):
    """The worker ran the operation and it raised."""

    def __init__(self, shard_id: int, kind: str, message: str) -> None:
        super().__init__(f"shard {shard_id} {kind}: {message}")
        self.shard_id = shard_id
        self.kind = kind
        self.message = message


def pack_frame(doc: Mapping[str, Any]) -> bytes:
    """One length-prefixed JSON frame as bytes."""
    payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds the protocol cap")
    return _LENGTH.pack(len(payload)) + payload


def send_frame(sock: socket.socket, doc: Mapping[str, Any]) -> None:
    """Write one length-prefixed JSON frame."""
    sock.sendall(pack_frame(doc))


class FrameParser:
    """Incremental decoder of the framed protocol: bytes in, documents out.

    The one frame decoder of the stack: the gateway's two protocol ends
    and the shard client push chunks through :meth:`feed`, the shard
    worker's blocking end pulls through :meth:`recv`.  An incomplete
    frame stays buffered, so any chunking of a stream yields the same
    documents.  A malformed frame poisons the parser: the documents
    completed before it are still delivered, then every call raises
    its :class:`FrameError`.
    """

    __slots__ = ("_buf", "_ready", "_error")

    def __init__(self) -> None:
        self._buf = bytearray()
        #: Documents :meth:`recv` has decoded but not yet handed out.
        self._ready: list[dict[str, Any]] = []
        self._error: FrameError | None = None

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Every document ``data`` completes, in order."""
        if self._error is not None:
            raise self._error
        buf = self._buf
        buf += data
        docs: list[dict[str, Any]] = []
        pos = 0
        try:
            while len(buf) - pos >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buf, pos)
                if length > MAX_FRAME_BYTES:
                    raise FrameError(f"frame length {length} exceeds the protocol cap")
                end = pos + _LENGTH.size + length
                if end > len(buf):
                    break
                try:
                    doc = json.loads(buf[pos + _LENGTH.size:end].decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise FrameError(f"frame payload is not JSON: {exc}") from exc
                if not isinstance(doc, dict):
                    raise FrameError(
                        f"frame must be a JSON object, got {type(doc).__name__}"
                    )
                docs.append(doc)
                pos = end
        except FrameError as exc:
            self._error = exc
            if not docs:
                raise
        del buf[:pos]
        return docs

    def eof(self) -> None:
        """The peer closed: raise unless it did so at a frame boundary."""
        if self._error is not None:
            raise self._error
        if self._buf:
            raise FrameError("connection closed mid-frame")

    def recv(self, sock: socket.socket) -> dict[str, Any] | None:
        """Next document off a blocking socket; ``None`` on a clean EOF.

        A ``socket.timeout`` leaves every received byte buffered, so
        the next call resumes at the exact framing position.
        """
        while not self._ready:
            if self._error is not None:
                raise self._error
            chunk = sock.recv(65536)
            if not chunk:
                self.eof()
                return None
            self._ready = self.feed(chunk)
        return self._ready.pop(0)


#: A blocking operation written as a generator that yields ``(sock,
#: deadline)`` wherever it would wait for bytes: resume it once ``sock``
#: is readable, or throw ``socket.timeout`` into it when ``deadline``
#: seconds pass first, as a blocking read under that timeout would.
#: Resuming it early is always correct: it then blocks in the read.
Leg = Generator[tuple[socket.socket, float], None, Any]


def finish(leg: Leg) -> Any:
    """Run a leg to its end, blocking at each wait: its result."""
    try:
        while True:
            next(leg)
    except StopIteration as done:
        return done.value


def blocking(leg_method: Callable[..., Leg]) -> Callable[..., Any]:
    """The blocking form of a method written as a leg: same arguments,
    same code, run to its end on the spot."""
    def run(*args: Any, **kwargs: Any) -> Any:
        return finish(leg_method(*args, **kwargs))
    run.__doc__ = leg_method.__doc__
    return run


def gather(
    legs: Mapping[Any, Leg], failures_of: tuple[type[Exception], ...]
) -> tuple[dict[Any, Any], dict[Any, Exception]]:
    """Run many legs at once on the calling thread.

    Legs are started in ascending key order — that is when a leg claims
    its locks and its connection and writes its frame, so two callers
    naming the same shards in opposite orders cannot deadlock — then
    resumed as their replies arrive, each wait under its own deadline.
    Returns ``(results, failures)`` by key: a leg's result, or the
    ``failures_of`` exception that ended it.  A finished leg has let go
    of its connection while the others are still waited for.
    """
    results: dict[Any, Any] = {}
    failures: dict[Any, Exception] = {}
    waiting: dict[int, tuple[Any, Leg, float]] = {}  # by file descriptor
    poller = select.poll()

    def step(key: Any, leg: Leg, resume: Callable[[Leg], Any]) -> None:
        try:
            sock, deadline = resume(leg)
        except StopIteration as done:
            results[key] = done.value
        except failures_of as exc:
            failures[key] = exc
        else:
            poller.register(sock, select.POLLIN)
            waiting[sock.fileno()] = key, leg, time.monotonic() + deadline

    try:
        for key in sorted(legs):
            step(key, legs[key], next)
        while waiting:
            now = time.monotonic()
            patience = min(expires for _, _, expires in waiting.values()) - now
            readable = {fd for fd, _ in poller.poll(max(0.0, patience) * 1e3)}
            # Timed out is: found empty by a poll made after the deadline.
            # A reply that sat in its socket while another leg's retry
            # held this loop up is read, however late.
            for fd, (key, leg, expires) in list(waiting.items()):
                if fd in readable or expires <= now:
                    del waiting[fd]
                    poller.unregister(fd)
                    step(key, leg, next if fd in readable else _time_out)
    finally:
        for _, leg, _ in waiting.values():
            leg.close()
    return results, failures


def _time_out(leg: Leg) -> Any:
    return leg.throw(socket.timeout())


class ShardClient:
    """The router's handle on one shard worker connection.

    Calls are serialized per shard (one outstanding request per
    connection); cross-shard parallelism comes from the router issuing
    calls on *different* clients concurrently.  A per-call timeout
    abandons that call but keeps the connection serviceable: received
    bytes persist in the client's :class:`FrameParser` (so a partial
    frame resumes where it stopped) and later calls discard stale
    replies by id.  Only
    unrecoverable desynchronization — a send timing out mid-frame, a
    transport error, a response id from the future — poisons the
    connection, after which every call fails fast with
    :class:`ShardUnavailable`.
    """

    def __init__(
        self,
        sock: socket.socket,
        shard_id: int,
        timeout: float = 10.0,
        address: tuple[str, int] | None = None,
    ) -> None:
        self.sock = sock
        self.shard_id = shard_id
        self.timeout = timeout
        #: Where the worker listens, when known.  A client with an
        #: address is *repairable*: :meth:`reconnect` can replace a
        #: poisoned transport with a fresh connection to the same
        #: worker instead of removing the shard from service forever.
        self.address = address
        #: Successful :meth:`reconnect` repairs on this client.
        self.reconnects_total = 0
        self._mutex = threading.Lock()
        self._next_id = 0
        self._broken: str | None = None
        self._closed = False
        #: Keeps a partial frame across a recv timeout, which is what
        #: makes the timeout recoverable (see the class docstring).
        self._parser = FrameParser()
        #: Replies parsed off the socket and not yet matched to a call.
        self._replies: list[dict[str, Any]] = []

    @property
    def broken(self) -> str | None:
        """Why the connection is poisoned, or ``None`` if healthy."""
        return self._broken

    def reconnect(
        self,
        attempts: int = 4,
        base_delay: float = 0.05,
        max_delay: float = 1.0,
        connect_timeout: float = 2.0,
    ) -> None:
        """Replace a poisoned transport with a fresh connection.

        Retries with capped exponential backoff (``base_delay * 2**i``
        capped at ``max_delay``); on success the framing state is reset
        — receive buffer cleared, request ids restarted — because the
        new connection shares no history with the old one.  Raises
        :class:`ShardUnavailable` when no address is known or every
        attempt fails; the client stays poisoned in that case so callers
        keep failing fast.
        """
        with self._mutex:
            if self._closed:
                raise ShardUnavailable(self.shard_id, "client closed")
            if self.address is None:
                raise ShardUnavailable(
                    self.shard_id, "no worker address to reconnect to"
                )
            last_error: Exception | None = None
            for attempt in range(max(1, attempts)):
                if attempt:
                    time.sleep(min(max_delay, base_delay * 2 ** (attempt - 1)))
                try:
                    sock = socket.create_connection(
                        self.address, timeout=connect_timeout
                    )
                except OSError as exc:
                    last_error = exc
                    continue
                try:
                    # shutdown(), not just close(): workers forked after
                    # this connection was established inherited a
                    # duplicate of its descriptor, so close() alone
                    # would never deliver EOF — the worker would stay
                    # blocked on the old connection instead of
                    # accepting the replacement.  shutdown() sends FIN
                    # at the connection level regardless of how many
                    # processes still hold the descriptor.
                    self.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    self.sock.close()
                except OSError:
                    pass
                sock.settimeout(self.timeout)
                self.sock = sock
                self._parser = FrameParser()
                self._replies = []
                self._next_id = 0
                self._broken = None
                self.reconnects_total += 1
                return
            raise ShardUnavailable(
                self.shard_id,
                f"reconnect to {self.address} failed after {attempts} "
                f"attempts: {last_error}",
            )

    def exchange(
        self, op: str, timeout: float | None = None, **params: Any
    ) -> Leg:
        """One request/response round trip; returns the result payload.

        A leg: the request frame is written at the first step and each
        later step makes one ``recv``.  The connection is this call's
        from the frame to the reply, and is let go however the leg ends.
        """
        deadline = self.timeout if timeout is None else timeout
        with self._mutex:
            if self._closed:
                raise ShardUnavailable(self.shard_id, "client closed")
            if self._broken is not None:
                raise ShardUnavailable(self.shard_id, self._broken)
            self._next_id += 1
            request_id = self._next_id
            request = {"id": request_id, "op": op}
            request.update(params)
            try:
                self.sock.settimeout(deadline)
                send_frame(self.sock, request)
            except socket.timeout:
                # A partial outbound frame cannot be resumed — the
                # worker's inbound framing is now ahead of ours.
                self._broken = f"send of {op!r} timed out mid-frame"
                raise ShardTimeout(self.shard_id, op, deadline) from None
            except OSError as exc:
                self._broken = f"transport error: {exc}"
                raise ShardUnavailable(self.shard_id, self._broken) from exc
            replies = self._replies
            try:
                while True:
                    if not replies:
                        yield self.sock, deadline
                        chunk = self.sock.recv(65536)
                        if not chunk:
                            self._parser.eof()
                            self._broken = "worker closed the connection"
                            raise ShardUnavailable(self.shard_id, self._broken)
                        replies += self._parser.feed(chunk)
                        continue
                    response = replies.pop(0)
                    rid = response.get("id")
                    if rid == request_id:
                        break
                    if isinstance(rid, int) and 0 < rid < request_id:
                        # A late reply to a call an earlier timeout
                        # abandoned: discard it and keep reading — this
                        # is how the connection resynchronizes instead
                        # of staying poisoned.
                        continue
                    self._broken = f"out-of-order response id {rid!r}"
                    raise ShardUnavailable(self.shard_id, self._broken)
            except socket.timeout:
                # The call is abandoned; its reply, if one ever comes,
                # is drained by a later call.  Framing stays intact
                # (partial frames persist in the receive buffer), so
                # the connection itself remains usable.
                raise ShardTimeout(self.shard_id, op, deadline) from None
            except (OSError, FrameError) as exc:
                if self._broken is None:
                    self._broken = f"transport error: {exc}"
                raise ShardUnavailable(self.shard_id, self._broken) from exc
        if response.get("ok"):
            return response.get("result")
        raise RemoteOpError(
            self.shard_id,
            str(response.get("kind", "Exception")),
            str(response.get("error", "unknown remote failure")),
        )

    call = blocking(exchange)

    def close(self) -> None:
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass
