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
    RpcError,
    ShardClient,
    ShardTimeout,
    ShardUnavailable,
    finish,
    gather,
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


def gathered(client, op, **params):
    """``client.call`` as the one leg of a gather."""
    results, failures = gather({0: client.exchange(op, **params)}, (RpcError,))
    if failures:
        raise failures[0]
    return results[0]


class TestShardClient:
    #: How a round trip is made.  Ids, deadlines, stale-reply discard
    #: and poisoning are one implementation under the blocking ``call``
    #: and a leg driven by ``gather``, so the subclass below re-runs
    #: every case through the latter.
    call = staticmethod(ShardClient.call)

    def test_call_returns_result_payload(self, pair):
        left, right = pair
        echo_worker(right, lambda req: {"id": req["id"], "ok": True,
                                        "result": {"echo": req["op"]}})
        client = ShardClient(left, shard_id=3)
        assert self.call(client, "ping") == {"echo": "ping"}

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
        self.call(client, "a")
        self.call(client, "b")
        self.call(client, "c")
        assert seen == [1, 2, 3]

    def test_remote_error_frame_raises_remote_op_error(self, pair):
        left, right = pair
        echo_worker(right, lambda req: {"id": req["id"], "ok": False,
                                        "kind": "KeyError", "error": "nope"})
        client = ShardClient(left, shard_id=1)
        with pytest.raises(RemoteOpError) as excinfo:
            self.call(client, "query")
        assert excinfo.value.kind == "KeyError"
        assert client.broken is None  # the op failed; the transport did not

    def test_timeout_abandons_the_call_without_poisoning(self, pair):
        left, _right = pair  # nobody answers
        client = ShardClient(left, shard_id=2, timeout=0.05)
        with pytest.raises(ShardTimeout) as excinfo:
            self.call(client, "query")
        assert excinfo.value.shard_id == 2
        assert client.broken is None  # framing intact: still serviceable

    def test_recovery_drains_the_late_reply(self, pair):
        left, right = pair
        client = ShardClient(left, shard_id=2, timeout=0.05)
        with pytest.raises(ShardTimeout):
            self.call(client, "slow")
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
        assert self.call(client, "query", timeout=5.0) == "fresh"
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
            self.call(client, "a")
        assert client.broken is None
        assert self.call(client, "b", timeout=5.0) == "fresh"
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
            self.call(client, "a")
        assert client.broken is None
        assert self.call(client, "b", timeout=5.0) == "fresh"
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
            self.call(client, "bulk", blob="x" * (64 * 1024 * 1024 // 32))
        assert client.broken is not None
        with pytest.raises(ShardUnavailable):
            self.call(client, "ping")  # fails fast, no second deadline wait

    def test_out_of_order_id_poisons_the_connection(self, pair):
        left, right = pair
        echo_worker(right, lambda req: {"id": 999, "ok": True, "result": None})
        client = ShardClient(left, shard_id=4)
        with pytest.raises(ShardUnavailable):
            self.call(client, "ping")
        assert "out-of-order" in client.broken

    def test_worker_eof_is_unavailable(self, pair):
        left, right = pair
        right.close()
        client = ShardClient(left, shard_id=5)
        with pytest.raises(ShardUnavailable):
            self.call(client, "ping")

    def test_closed_client_refuses_calls(self, pair):
        left, _right = pair
        client = ShardClient(left, shard_id=6)
        client.close()
        client.close()  # idempotent
        with pytest.raises(ShardUnavailable):
            self.call(client, "ping")


class TestShardClientGathered(TestShardClient):
    call = staticmethod(gathered)


def serve(sock, answer=lambda request: request["op"], before=None):
    """Worker thread: answer every request on ``sock`` until EOF."""

    def run():
        try:
            while True:
                request = recv_frame(sock)
                if request is None:
                    return
                if before is not None:
                    before(request)
                send_frame(sock, {"id": request["id"], "ok": True,
                                  "result": answer(request)})
        except OSError:
            return  # the test closed the socket

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


@pytest.fixture()
def two_shards():
    pairs = [socket.socketpair() for _ in range(2)]
    clients = [ShardClient(left, shard_id=i, timeout=5.0)
               for i, (left, _) in enumerate(pairs)]
    yield clients, [right for _, right in pairs]
    for left, right in pairs:
        left.close()
        right.close()


class TestGather:
    def test_frames_go_out_in_key_order_whatever_order_legs_are_named_in(
        self, two_shards
    ):
        clients, workers = two_shards
        for sock in workers:
            serve(sock)
        sent = []

        def leg(shard):
            sent.append(shard)  # runs at the leg's first step, not at creation
            return (yield from clients[shard].exchange("ping", timeout=5.0))

        results, failures = gather({1: leg(1), 0: leg(0)}, (RpcError,))
        assert (results, failures) == ({0: "ping", 1: "ping"}, {})
        assert sent == [0, 1]

    def test_a_buffered_reply_is_read_not_timed_out(self, two_shards):
        # Leg 0's worker hangs up and its retry blocks well past leg 1's
        # deadline, while leg 1's reply has long been sitting in the
        # socket: leg 1 must return it.
        clients, workers = two_shards
        serve(workers[0], before=lambda request: workers[0].close())
        serve(workers[1], before=lambda request: time.sleep(0.1))
        outlived = {}

        def retrying():
            try:
                return (yield from clients[0].exchange("query", timeout=5.0))
            except ShardUnavailable:
                time.sleep(0.6)  # a replica retry, blocking
                outlived["deadline"] = True
                return "from a replica"

        results, failures = gather(
            {0: retrying(), 1: clients[1].exchange("query", timeout=0.3)},
            (RpcError,),
        )
        assert outlived and failures == {}
        assert results == {0: "from a replica", 1: "query"}

    def test_an_empty_socket_past_its_deadline_is_a_timeout(self, two_shards):
        clients, workers = two_shards
        serve(workers[0])
        began = time.monotonic()
        results, failures = gather(
            {0: clients[0].exchange("a", timeout=5.0),
             1: clients[1].exchange("b", timeout=0.15)},  # nobody answers
            (RpcError,),
        )
        assert results == {0: "a"}
        assert isinstance(failures[1], ShardTimeout)
        assert 0.1 < time.monotonic() - began < 2.0
        assert clients[1].broken is None  # abandoned, not poisoned

    def test_a_finished_leg_frees_its_connection_while_others_wait(
        self, two_shards
    ):
        clients, workers = two_shards
        release = threading.Event()
        serve(workers[0])
        serve(workers[1], before=lambda request: release.wait(10.0))
        outcome = {}

        def scatter():
            outcome["gathered"] = gather(
                {shard: clients[shard].exchange("slow", timeout=10.0)
                 for shard in (0, 1)}, (RpcError,))

        thread = threading.Thread(target=scatter, daemon=True)
        thread.start()
        try:
            # Another caller's round trip on shard 0 completes while
            # shard 1's leg of the scatter is still outstanding.
            assert clients[0].call("other", timeout=5.0) == "other"
            assert "gathered" not in outcome
        finally:
            release.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcome["gathered"] == ({0: "slow", 1: "slow"}, {})

    def test_opposite_argument_orders_never_deadlock(self, two_shards):
        # Legs claim connections (and whatever locks they take first,
        # as a replica set's write lock) in ascending key order only.
        clients, workers = two_shards
        for sock in workers:
            serve(sock)
        locks = [threading.RLock(), threading.RLock()]
        rounds = 500
        done = []

        def leg(shard):
            with locks[shard]:
                return (yield from clients[shard].exchange("w", timeout=10.0))

        def scatter(order):
            for _ in range(rounds):
                results, failures = gather(
                    {shard: leg(shard) for shard in order}, (RpcError,))
                assert results == {0: "w", 1: "w"} and not failures
            done.append(order)

        threads = [threading.Thread(target=scatter, args=(order,), daemon=True)
                   for order in ((0, 1), (1, 0))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [(0, 1), (1, 0)]

    def test_an_escaping_exception_releases_every_claimed_connection(
        self, two_shards
    ):
        clients, workers = two_shards
        serve(workers[0], before=lambda request: time.sleep(0.2))

        def broken():
            raise LookupError("not a leg failure")
            yield

        with pytest.raises(LookupError):
            gather({0: clients[0].exchange("a", timeout=5.0), 1: broken()},
                   (RpcError,))
        # Leg 0 was closed mid-wait: its late reply is stale to the next
        # call, which gets its own answer.
        assert clients[0].call("b", timeout=5.0) == "b"

    def test_finish_is_the_blocking_form(self, two_shards):
        clients, workers = two_shards
        serve(workers[0])
        assert finish(clients[0].exchange("ping", timeout=5.0)) == "ping"
