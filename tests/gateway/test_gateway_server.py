"""The gateway over live sockets: admission, deadlines, pipelining.

Most tests drive a :class:`StubBackend` whose behaviour is keyed by
view name (``echo``, ``sleep``, ``block``, ``boom``) so rejection and
expiry paths are deterministic; the integration tests at the bottom
front the real demo :class:`ViewServer` and a 1-shard cluster.
"""

import asyncio
import concurrent.futures
import gc
import json
import logging
import socket
import struct
import threading
import time

import pytest

from repro.gateway import (
    AdmissionConfig,
    AsyncGatewayClient,
    GATEWAY_PROTOCOL,
    GatewayCallError,
    GatewayConfig,
    GatewayHandle,
    ViewServerBackend,
)
from repro.gateway.admission import BoundedQueue
from repro.service.metrics import validate_metrics
from repro.service.traffic import demo_server


class StubBackend:
    """Scriptable backend: the view name selects the behaviour."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        #: Set once a ``block`` query is executing (out of the queue).
        self.blocking = threading.Event()
        self.updates: list[tuple[str, int]] = []

    def views(self):
        return ("echo", "sleep", "block", "boom")

    def query(self, view, lo, hi, client, timeout=None):
        if view == "sleep":
            time.sleep(float(lo))
            return lo
        if view == "block":
            self.blocking.set()
            assert self.gate.wait(timeout=10), "test gate never opened"
            return 1
        if view == "boom":
            raise RuntimeError("kapow")
        return lo

    def update(self, relation, ops, client, timeout=None):
        self.updates.append((relation, len(ops)))
        return len(ops)

    def pop_retry_flag(self):
        return False

    def metrics(self):
        return {"stub": True}


def launch_stub(config: GatewayConfig):
    backend = StubBackend()
    handle = GatewayHandle.launch(backend, config)
    return backend, handle


def call(handle, doc):
    async def go():
        async with AsyncGatewayClient(
            "127.0.0.1", handle.port, client=doc.get("client", "t")
        ) as conn:
            return await conn.call(doc)
    return asyncio.run(go())


def gateway_stats(handle):
    async def go():
        async with AsyncGatewayClient("127.0.0.1", handle.port) as conn:
            return await conn.stats()
    return asyncio.run(go())


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestControlOps:
    def test_ping_names_protocol_and_views(self):
        _, handle = launch_stub(GatewayConfig())
        with handle:
            reply = call(handle, {"op": "ping"})
        assert reply.ok
        assert reply.result["protocol"] == GATEWAY_PROTOCOL
        assert reply.result["views"] == ["echo", "sleep", "block", "boom"]

    def test_stats_and_metrics_answer_inline(self):
        _, handle = launch_stub(GatewayConfig())
        with handle:
            call(handle, {"op": "query", "view": "echo", "lo": 5, "hi": 5})
            stats = gateway_stats(handle)
            metrics = call(handle, {"op": "metrics"})
        assert stats["protocol"] == GATEWAY_PROTOCOL
        assert stats["outcomes"].get("ok") == 1
        assert stats["queue"]["cap"] == 64
        validate_metrics(metrics.result["gateway"])
        assert metrics.result["backend"] == {"stub": True}
        names = {m["name"] for m in metrics.result["gateway"]["metrics"]}
        assert "gateway_request_ms" in names

    def test_unknown_op_is_an_error_reply(self):
        _, handle = launch_stub(GatewayConfig())
        with handle:
            reply = call(handle, {"op": "frobnicate"})
        assert not reply.ok
        assert "unknown op" in reply.error


class TestRequestPath:
    def test_query_round_trip(self):
        _, handle = launch_stub(GatewayConfig())
        with handle:
            reply = call(handle, {"op": "query", "view": "echo",
                                  "lo": 42, "hi": 99})
        assert reply.ok
        assert reply.result == {"kind": "scalar", "value": 42,
                                "degraded": None}

    def test_update_round_trip(self):
        backend, handle = launch_stub(GatewayConfig())
        with handle:
            reply = call(handle, {
                "op": "update", "relation": "r",
                "ops": [{"kind": "update", "key": 1, "changes": {"v": 2}},
                        {"kind": "delete", "key": 9}],
            })
        assert reply.ok and reply.result == {"applied": 2}
        assert backend.updates == [("r", 2)]

    def test_engine_exception_becomes_error_reply(self):
        _, handle = launch_stub(GatewayConfig())
        with handle:
            reply = call(handle, {"op": "query", "view": "boom",
                                  "lo": 0, "hi": 0})
        assert not reply.ok
        assert reply.kind == "RuntimeError"
        assert reply.error == "kapow"

    def test_responses_pipeline_out_of_order(self):
        _, handle = launch_stub(GatewayConfig(workers=2))

        async def go():
            async with AsyncGatewayClient("127.0.0.1", handle.port) as conn:
                slow = asyncio.get_running_loop().create_task(
                    conn.query("sleep", 0.4, None))
                await asyncio.sleep(0.05)
                fast = await conn.query("echo", 7, None)
                slow_done = slow.done()
                await slow
                return fast, slow_done

        with handle:
            fast, slow_done_when_fast_returned = asyncio.run(go())
        assert fast.ok and fast.result["value"] == 7
        assert not slow_done_when_fast_returned


class TestAdmissionOverTheWire:
    def test_rate_rejection_label(self):
        _, handle = launch_stub(GatewayConfig(
            admission=AdmissionConfig(client_rate=1.0, client_burst=1)
        ))

        async def go():
            async with AsyncGatewayClient(
                "127.0.0.1", handle.port, client="hot"
            ) as conn:
                first = await conn.query("echo", 1, None)
                second = await conn.query("echo", 2, None)
                return first, second

        with handle:
            first, second = asyncio.run(go())
        assert first.ok
        assert not second.ok and second.rejected == "rejected_rate"

    def test_concurrency_queue_full_and_expiry_labels(self):
        self.assert_queue_labels()

    def test_labels_hold_when_the_worker_picks_up_late(self, monkeypatch):
        """A request that is admitted counts as in flight before a worker
        takes it from the queue: the scenario must wait for the worker,
        not for the count, or a late pickup (a loaded machine) leaves A
        in the queue and B is refused as queue-full."""
        real_pop = BoundedQueue.pop

        def late_pop(self, timeout=None):
            deadline = time.monotonic() + (timeout or 0)
            while not self.depth and time.monotonic() < deadline:
                time.sleep(0.005)
            if self.depth:
                time.sleep(0.3)
            return real_pop(self, timeout=0)

        monkeypatch.setattr(BoundedQueue, "pop", late_pop)
        self.assert_queue_labels()

    def assert_queue_labels(self):
        backend, handle = launch_stub(GatewayConfig(
            admission=AdmissionConfig(client_concurrency=2, max_queue=1),
            workers=1,
        ))

        async def go():
            async with AsyncGatewayClient(
                "127.0.0.1", handle.port, client="c"
            ) as conn:
                loop = asyncio.get_running_loop()
                # A occupies the single worker (client c: 1 in flight).
                blocked = loop.create_task(conn.query("block", 0, None))
                await asyncio.sleep(0)
                # Wait until A is executing so the queue is empty again
                # (A counts as in flight from admission, queued or not).
                assert await loop.run_in_executor(
                    None, backend.blocking.wait, 5.0)
                stats = await loop.run_in_executor(None, gateway_stats_sync)
                assert stats["queue"]["depth"] == 0
                # B fills the 1-deep queue (client c: 2 in flight) with
                # a deadline that will expire while it waits.
                queued = loop.create_task(
                    conn.query("echo", 2, None, deadline_ms=50.0))
                await asyncio.sleep(0)
                assert await loop.run_in_executor(
                    None, wait_until,
                    lambda: gateway_stats_sync()["queue"]["depth"] == 1,
                )
                # C: client c is now at its concurrency cap.
                third = await conn.query("echo", 3, None)
                # D from another client: the queue itself is full.
                async with AsyncGatewayClient(
                    "127.0.0.1", handle.port, client="d"
                ) as other:
                    fourth = await other.query("echo", 4, None)
                await asyncio.sleep(0.1)  # let B's deadline lapse
                backend.gate.set()
                return await blocked, await queued, third, fourth

        def gateway_stats_sync():
            return gateway_stats(handle)

        with handle:
            blocked, queued, third, fourth = asyncio.run(go())
            stats = gateway_stats(handle)
        assert blocked.ok
        assert queued.rejected == "expired"
        assert third.rejected == "rejected_concurrency"
        assert fourth.rejected == "rejected_queue_full"
        assert stats["dead_letters"] == {
            "expired": 1, "rejected_concurrency": 1, "rejected_queue_full": 1,
        }
        assert stats["queue"]["peak"] <= 1

    def test_completion_after_deadline_is_expired_not_served(self):
        _, handle = launch_stub(GatewayConfig())
        with handle:
            reply = call(handle, {"op": "query", "view": "sleep",
                                  "lo": 0.2, "hi": None, "deadline_ms": 40.0})
            stats = gateway_stats(handle)
        assert not reply.ok
        assert reply.rejected == "expired"
        assert reply.doc.get("late") is True
        assert stats["dead_letters"] == {"expired": 1}

    def test_malformed_deadline_never_leaks_a_concurrency_slot(self):
        # A string deadline_ms used to raise *after* admit() had taken
        # the client's slot, permanently wedging its concurrency cap.
        _, handle = launch_stub(GatewayConfig(
            admission=AdmissionConfig(client_concurrency=1)
        ))

        async def go():
            async with AsyncGatewayClient(
                "127.0.0.1", handle.port, client="m"
            ) as conn:
                bad = [
                    await conn.call({
                        "op": "query", "view": "echo", "lo": 1, "hi": 1,
                        "client": "m", "deadline_ms": "soon",
                    })
                    for _ in range(3)
                ]
                good = await conn.query("echo", 5, None)
                return bad, good

        with handle:
            bad, good = asyncio.run(go())
            stats = gateway_stats(handle)
        for reply in bad:
            assert not reply.ok and reply.kind == "GatewayError"
            assert "deadline_ms" in reply.error
        # With a cap of 1, a valid request still gets through: the
        # malformed frames consumed no slots.
        assert good.ok and good.result["value"] == 5
        assert stats["inflight"] == 0

    def test_default_deadline_applies_when_request_names_none(self):
        _, handle = launch_stub(GatewayConfig(
            admission=AdmissionConfig(default_deadline_ms=40.0)
        ))
        with handle:
            reply = call(handle, {"op": "query", "view": "sleep",
                                  "lo": 0.2, "hi": None})
        assert reply.rejected == "expired"


#: Frames exactly as the commit before the event-driven edge wrote
#: them (captured from its ``pack_frame``): the bytes must not move.
PARENT_QUERY = (
    b'\x00\x00\x00c{"id":7,"op":"query","view":"echo","lo":"h\\u00e9llo",'
    b'"hi":null,"client":"raw","deadline_ms":5000.0}'
)
PARENT_PING = b'\x00\x00\x00\x14{"id":8,"op":"ping"}'
PARENT_REPLY = (
    b'\x00\x00\x00R{"id":7,"ok":true,"result":{"kind":"scalar",'
    b'"value":"h\\u00e9llo","degraded":null}}'
)


def raw_frame(sock):
    """The next frame off a blocking socket, ``struct`` only, as bytes."""
    def exactly(n):
        data = b""
        while len(data) < n:
            chunk = sock.recv(n - len(data))
            assert chunk, "gateway closed the connection mid-reply"
            data += chunk
        return data
    header = exactly(4)
    return header + exactly(struct.unpack("!I", header)[0])


class TestWireCompatibility:
    def test_parent_format_bytes_in_and_out(self):
        _, handle = launch_stub(GatewayConfig())
        with handle, socket.create_connection(
            ("127.0.0.1", handle.port), timeout=5.0
        ) as sock:
            sock.sendall(PARENT_QUERY)
            assert raw_frame(sock) == PARENT_REPLY
            sock.sendall(PARENT_PING[:3])  # a frame split mid-header
            sock.sendall(PARENT_PING[3:])
            pong = json.loads(raw_frame(sock)[4:])
        assert pong["id"] == 8 and pong["ok"] is True
        # The frames are the parent's; the tag is not: v2 answers tuple
        # queries as positional rows (gateway/protocol.py).
        assert pong["result"]["protocol"] == "repro.gateway/v2"

    def test_garbage_drops_the_connection(self):
        _, handle = launch_stub(GatewayConfig())
        with handle, socket.create_connection(
            ("127.0.0.1", handle.port), timeout=5.0
        ) as sock:
            sock.sendall(struct.pack("!I", 8) + b"not json")
            assert sock.recv(1) == b""


class TestBackPressure:
    def test_unread_replies_pause_reading_and_arrive_in_full(self):
        # A client pipelines requests with 256 KiB answers and reads
        # nothing: once the kernel's socket buffers are full the
        # transport's write buffer passes its high-water mark, and the
        # gateway must stop *reading* that client instead of queueing
        # ever more replies for it.
        count, blob = 48, "x" * (256 * 1024)
        _, handle = launch_stub(GatewayConfig(admission=AdmissionConfig(
            client_concurrency=None, max_queue=count)))

        def on_loop(fn):
            done = concurrent.futures.Future()
            handle._loop.call_soon_threadsafe(lambda: done.set_result(fn()))
            return done.result(timeout=5.0)

        def edge():
            (conn,) = handle.gateway._conns
            return (conn.transport.is_reading(),
                    conn.transport.get_write_buffer_size())

        with handle, socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
            sock.settimeout(10.0)
            sock.connect(("127.0.0.1", handle.port))
            requests = b"".join(
                struct.pack("!I", len(payload)) + payload
                for payload in (
                    json.dumps({"id": i, "op": "query", "view": "echo",
                                "lo": blob, "hi": None}).encode()
                    for i in range(count)
                )
            )
            sender = threading.Thread(target=sock.sendall, args=(requests,),
                                      daemon=True)
            sender.start()
            assert wait_until(lambda: not on_loop(edge)[0], timeout=10.0)
            samples = []
            for _ in range(20):
                time.sleep(0.01)
                samples.append(on_loop(edge))
            # Nothing was read meanwhile: reading stays paused and the
            # buffer holds a few replies, not all 12 MiB of them.
            assert not any(reading for reading, _ in samples)
            assert 0 < max(size for _, size in samples) < 8 * len(blob)

            replies = [json.loads(raw_frame(sock)[4:]) for _ in range(count)]
            sender.join(timeout=10.0)
            assert not sender.is_alive()
            assert wait_until(lambda: on_loop(edge) == (True, 0))
        assert sorted(reply["id"] for reply in replies) == list(range(count))
        assert all(reply["ok"] and reply["result"]["value"] == blob
                   for reply in replies)


class TestStopDrain:
    def test_stop_fails_queued_calls_at_once_and_closes_connections(self, caplog):
        # One worker blocked in the backend, a second request queued
        # behind it: stop() used to answer the first, abandon the
        # second with its socket open (the caller sat out its whole
        # reply bound) and destroy the connection's pending task.
        backend, handle = launch_stub(GatewayConfig(workers=1))
        admission = handle.gateway.admission

        async def go():
            loop = asyncio.get_running_loop()
            async with AsyncGatewayClient(
                "127.0.0.1", handle.port, client="c", reply_timeout_s=8.0
            ) as conn:
                blocked = loop.create_task(conn.query("block", 0, None))
                assert await loop.run_in_executor(
                    None, wait_until,
                    lambda: admission.stats()["inflight"] == 1
                    and admission.queue.depth == 0,
                )
                queued = loop.create_task(conn.query("echo", 2, None))
                assert await loop.run_in_executor(
                    None, wait_until, lambda: admission.queue.depth == 1)
                stopping = loop.run_in_executor(None, handle.stop)
                assert await loop.run_in_executor(
                    None, wait_until, handle.gateway._stopping.is_set)
                backend.gate.set()
                first = await blocked
                await stopping
                stopped = time.monotonic()
                with pytest.raises(GatewayCallError,
                                   match="gateway closed the connection"):
                    await queued
                return first, time.monotonic() - stopped

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            first, waited = asyncio.run(go())
            gc.collect()
        assert first.ok
        assert waited < 2.0
        assert admission.stats()["inflight"] == 0
        assert admission.queue.depth == 0
        assert "Task was destroyed" not in caplog.text


class TestBoundedClientAwait:
    """The server may drop a response; the client must not hang."""

    @staticmethod
    async def _black_hole_server():
        async def black_hole(reader, writer):
            try:
                while await reader.read(65536):
                    pass
            finally:
                writer.close()

        return await asyncio.start_server(black_hole, "127.0.0.1", 0)

    def test_dropped_reply_raises_instead_of_hanging(self):
        async def go():
            server = await self._black_hole_server()
            port = server.sockets[0].getsockname()[1]
            try:
                async with AsyncGatewayClient("127.0.0.1", port) as conn:
                    with pytest.raises(GatewayCallError, match="response lost"):
                        await conn.call({"op": "ping"}, timeout=0.2)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(go())

    def test_deadline_plus_slack_bounds_the_await(self):
        async def go():
            server = await self._black_hole_server()
            port = server.sockets[0].getsockname()[1]
            try:
                conn = AsyncGatewayClient("127.0.0.1", port, reply_slack_s=0.1)
                async with conn:
                    started = time.monotonic()
                    with pytest.raises(GatewayCallError, match="response lost"):
                        await conn.call({"op": "query", "view": "echo",
                                         "lo": 0, "hi": 0,
                                         "deadline_ms": 50.0})
                    assert time.monotonic() - started < 5.0
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(go())


class TestRealBackends:
    def test_view_server_backend_serves_and_updates(self):
        demo = demo_server(n_tuples=300, seed=7)
        backend = ViewServerBackend(demo.server)
        with GatewayHandle.launch(backend, GatewayConfig(workers=2)) as handle:
            direct = demo.server.query("v_total", None, None, client="direct")
            reply = call(handle, {"op": "query", "view": "v_total",
                                  "lo": None, "hi": None})
            assert reply.ok
            served, degraded = reply.answer()
            assert served == direct and degraded is None

            update = call(handle, {
                "op": "update", "relation": "r",
                "ops": [{"kind": "update", "key": 0,
                         "changes": {"v": 5555}}],
            })
            assert update.ok and update.result == {"applied": 1}

            tuples = call(handle, {"op": "query", "view": "v_tuples",
                                   "lo": 0, "hi": 20})
            assert tuples.ok
            rows, _ = tuples.answer()
            assert all(0 <= vt.values["a"] <= 20 for vt in rows)

    def test_cluster_backend_over_the_wire(self):
        harness = pytest.importorskip("repro.cluster.harness")
        from repro.gateway import ClusterBackend

        router = harness.launch_demo(1, n_records=120, seed=5)
        try:
            backend = ClusterBackend(router)
            with GatewayHandle.launch(
                backend, GatewayConfig(workers=2)
            ) as handle:
                reply = call(handle, {"op": "query", "view": "total",
                                      "lo": None, "hi": None})
                assert reply.ok
                served, _ = reply.answer()
                direct = router.query("total", None, None, client="direct")
                assert served == direct

                update = call(handle, {
                    "op": "update", "relation": "r",
                    "ops": [{"kind": "update", "key": 3,
                             "changes": {"v": 77}}],
                })
                assert update.ok and update.result == {"applied": 1}
        finally:
            router.close()

    def test_cluster_backend_inserts_moves_and_deletes_a_new_key(self):
        """Wire documents reach the shards as they arrived: an insert
        needs no schema on the gateway side (it used to be refused)."""
        harness = pytest.importorskip("repro.cluster.harness")
        from repro.cluster.worker import build_server
        from repro.gateway import ClusterBackend

        twin = ViewServerBackend(
            build_server(harness.demo_spec(n_records=120, seed=5))
        )
        router = harness.launch_demo(2, n_records=120, seed=5)
        try:
            backend = ClusterBackend(router)

            def answers(target):
                rows = target.query("by_a", 0, harness.DOMAIN - 1, "check")
                return (
                    sorted(vt.identity() for vt in rows),
                    target.query("total", None, None, "check"),
                )

            steps = [
                [{"kind": "insert", "values": {"id": 9999, "a": 5, "v": 1}}],
                # a: 5 -> 1500 crosses the two-shard range boundary
                [{"kind": "update", "key": 9999,
                  "changes": {"a": 1500, "v": 2}}],
                [{"kind": "delete", "key": 9999}],
            ]
            for ops in steps:
                assert backend.update("r", ops, "c") == len(ops)
                assert twin.update("r", ops, "c") == len(ops)
                assert answers(backend) == answers(twin)
            assert len(answers(backend)[0]) == 120
        finally:
            router.close()
            twin.server.shutdown()

    def test_handle_stop_is_idempotent(self):
        _, handle = launch_stub(GatewayConfig())
        handle.stop()
        handle.stop()
