"""The end-to-end tracer's names still resolve against ``src/``.

``benchmarks/e2e/trace.py`` installs its spans from outside by looking
names up in module and class ``__dict__``s; a name that no longer
resolves is skipped and a per-layer metric silently reads 0.  This
guard loads the tracer by path (read-only use of the benchmark) and
fails when a refactor renames, moves or stops calling a traced
function.
"""

import asyncio
import importlib.util
import socket
import threading
from pathlib import Path

import pytest

from repro.cluster.rpc import FrameParser, ShardClient, pack_frame
from repro.gateway import AsyncGatewayClient, GatewayHandle, ViewServerBackend
from repro.service.traffic import demo_server

TRACE_PATH = Path(__file__).parents[1] / "benchmarks" / "e2e" / "trace.py"


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def tracer(trace):
    tracer = trace.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_every_target_resolves_the_way_install_resolves_it(trace, tracer):
    assert tracer.missing == []
    assert len(tracer._undo) == len(trace.TARGETS)


def test_gateway_targets_are_on_the_request_path(tracer):
    # A traced name bound to a local before install() would resolve
    # and still record nothing: drive one request and count spans.
    demo = demo_server(n_tuples=120, seed=3)
    with GatewayHandle.launch(ViewServerBackend(demo.server)) as handle:
        async def go():
            async with AsyncGatewayClient("127.0.0.1", handle.port) as conn:
                return await conn.query("v_total", None, None)
        assert asyncio.run(go()).ok
    names = [span[0] for span in tracer.spans]
    assert names.count("gateway:pack_frame") == 2  # request and reply
    assert names.count("gateway:admit") == 2  # admit and release
    assert names.count("gateway:backend.query") == 1
    assert "service:query" in names


def test_shard_rpc_targets_are_on_the_request_path(tracer):
    left, right = socket.socketpair()

    def answer():
        request = FrameParser().recv(right)
        right.sendall(pack_frame({"id": request["id"], "ok": True, "result": 1}))

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    try:
        assert ShardClient(left, shard_id=0).call("ping", timeout=5.0) == 1
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    finally:
        left.close()
        right.close()
    names = [span[0] for span in tracer.spans]
    assert names.count("cluster:send_frame") == 1
    assert names.count("shard:rpc.call") == 1
