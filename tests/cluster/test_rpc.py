"""Framed RPC: wire format, request ids, deadlines, timeout recovery."""

import json
import socket
import struct
import threading
import time
import weakref

import pytest

from repro.cluster.rpc import (
    FrameError,
    FrameParser,
    MAX_FRAME_BYTES,
    RemoteOpError,
    ShardClient,
    ShardTimeout,
    ShardUnavailable,
    pack_frame,
    send_frame,
)

_parsers = weakref.WeakKeyDictionary()


def recv_frame(sock):
    """The worker side of a test: next frame via one parser per socket."""
    return _parsers.setdefault(sock, FrameParser()).recv(sock)


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFrames:
    def test_round_trip(self, pair):
        left, right = pair
        send_frame(left, {"op": "ping", "id": 7})
        assert recv_frame(right) == {"op": "ping", "id": 7}

    def test_bytes_are_what_the_parent_commit_wrote(self, pair):
        # Captured from send_frame before the parser was shared.
        left, right = pair
        send_frame(left, {"id": 1, "op": "query", "view": "v", "lo": 0, "hi": 9})
        assert right.recv(4096) == (
            b'\x00\x00\x00.{"id":1,"op":"query","view":"v","lo":0,"hi":9}'
        )

    def test_clean_eof_is_none(self, pair):
        left, right = pair
        left.close()
        assert recv_frame(right) is None

    def test_eof_mid_frame_raises(self, pair):
        left, right = pair
        left.sendall(struct.pack("!I", 100) + b"{")
        left.close()
        with pytest.raises(FrameError):
            recv_frame(right)

    def test_oversized_length_prefix_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameError):
            recv_frame(right)

    def test_non_json_payload_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack("!I", 3) + b"\xff\xfe!")
        with pytest.raises(FrameError):
            recv_frame(right)

    def test_non_object_payload_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack("!I", 2) + b"[]")
        with pytest.raises(FrameError):
            recv_frame(right)


def echo_worker(sock, reply):
    """One-shot server thread: answer the next request via ``reply``."""

    def run():
        request = recv_frame(sock)
        if request is not None:
            send_frame(sock, reply(request))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestShardClient:
    def test_call_returns_result_payload(self, pair):
        left, right = pair
        echo_worker(right, lambda req: {"id": req["id"], "ok": True,
                                        "result": {"echo": req["op"]}})
        client = ShardClient(left, shard_id=3)
        assert client.call("ping") == {"echo": "ping"}

    def test_ids_increase_per_connection(self, pair):
        left, right = pair
        seen = []

        def run():
            while True:
                request = recv_frame(right)
                if request is None:
                    return
                seen.append(request["id"])
                send_frame(right, {"id": request["id"], "ok": True,
                                   "result": None})

        threading.Thread(target=run, daemon=True).start()
        client = ShardClient(left, shard_id=0)
        client.call("a")
        client.call("b")
        client.call("c")
        assert seen == [1, 2, 3]

    def test_remote_error_frame_raises_remote_op_error(self, pair):
        left, right = pair
        echo_worker(right, lambda req: {"id": req["id"], "ok": False,
                                        "kind": "KeyError", "error": "nope"})
        client = ShardClient(left, shard_id=1)
        with pytest.raises(RemoteOpError) as excinfo:
            client.call("query")
        assert excinfo.value.kind == "KeyError"
        assert client.broken is None  # the op failed; the transport did not

    def test_timeout_abandons_the_call_without_poisoning(self, pair):
        left, _right = pair  # nobody answers
        client = ShardClient(left, shard_id=2, timeout=0.05)
        with pytest.raises(ShardTimeout) as excinfo:
            client.call("query")
        assert excinfo.value.shard_id == 2
        assert client.broken is None  # framing intact: still serviceable

    def test_recovery_drains_the_late_reply(self, pair):
        left, right = pair
        client = ShardClient(left, shard_id=2, timeout=0.05)
        with pytest.raises(ShardTimeout):
            client.call("slow")
        # The worker answers the abandoned request late; the retry must
        # discard that stale frame and get its own answer.
        first = recv_frame(right)
        send_frame(right, {"id": first["id"], "ok": True, "result": "stale"})

        def serve_next():
            request = recv_frame(right)
            send_frame(right, {"id": request["id"], "ok": True,
                               "result": "fresh"})

        thread = threading.Thread(target=serve_next, daemon=True)
        thread.start()
        assert client.call("query", timeout=5.0) == "fresh"
        thread.join(timeout=5.0)
        assert client.broken is None

    def test_timeout_mid_frame_resynchronizes(self, pair):
        left, right = pair
        client = ShardClient(left, shard_id=3, timeout=0.1)

        def dribble():
            request = recv_frame(right)
            payload = json.dumps({"id": request["id"], "ok": True,
                                  "result": "stale"}).encode("utf-8")
            frame = struct.pack("!I", len(payload)) + payload
            right.sendall(frame[:5])  # header + 1 byte, then stall
            time.sleep(0.3)           # the client times out meanwhile
            right.sendall(frame[5:])  # finish the stale frame late
            retry = recv_frame(right)
            send_frame(right, {"id": retry["id"], "ok": True,
                               "result": "fresh"})

        thread = threading.Thread(target=dribble, daemon=True)
        thread.start()
        with pytest.raises(ShardTimeout):
            client.call("a")
        assert client.broken is None
        assert client.call("b", timeout=5.0) == "fresh"
        thread.join(timeout=5.0)

    def test_timeout_inside_the_header_resynchronizes(self, pair):
        left, right = pair
        client = ShardClient(left, shard_id=3, timeout=0.1)

        def dribble():
            request = recv_frame(right)
            frame = pack_frame({"id": request["id"], "ok": True,
                                "result": "stale"})
            right.sendall(frame[:2])  # half the length prefix, then stall
            time.sleep(0.3)           # the client times out meanwhile
            right.sendall(frame[2:])
            retry = recv_frame(right)
            send_frame(right, {"id": retry["id"], "ok": True,
                               "result": "fresh"})

        thread = threading.Thread(target=dribble, daemon=True)
        thread.start()
        with pytest.raises(ShardTimeout):
            client.call("a")
        assert client.broken is None
        assert client.call("b", timeout=5.0) == "fresh"
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_send_timeout_poisons_the_connection(self, pair):
        left, _right = pair
        # Shrink the send buffer and fill it so sendall blocks past the
        # deadline: outbound framing is torn mid-frame, which *is* the
        # unrecoverable case.
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        client = ShardClient(left, shard_id=7, timeout=0.05)
        with pytest.raises(ShardTimeout):
            client.call("bulk", blob="x" * (64 * 1024 * 1024 // 32))
        assert client.broken is not None
        with pytest.raises(ShardUnavailable):
            client.call("ping")  # fails fast, no second deadline wait

    def test_out_of_order_id_poisons_the_connection(self, pair):
        left, right = pair
        echo_worker(right, lambda req: {"id": 999, "ok": True, "result": None})
        client = ShardClient(left, shard_id=4)
        with pytest.raises(ShardUnavailable):
            client.call("ping")
        assert "out-of-order" in client.broken

    def test_worker_eof_is_unavailable(self, pair):
        left, right = pair
        right.close()
        client = ShardClient(left, shard_id=5)
        with pytest.raises(ShardUnavailable):
            client.call("ping")

    def test_closed_client_refuses_calls(self, pair):
        left, _right = pair
        client = ShardClient(left, shard_id=6)
        client.close()
        client.close()  # idempotent
        with pytest.raises(ShardUnavailable):
            client.call("ping")
