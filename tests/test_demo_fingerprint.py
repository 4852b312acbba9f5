"""The two demo data sets, pinned from the commit before they were unified.

``demo_server(seed=7)`` (ext-service / ext-resilience / ext-gateway) and
the cluster demo spec (``seed=17``; the paced ``BENCH_parallel`` shard
series) feed numbers that are committed or gated, so the data, the view
definitions, the engine shape and the modelled cost of a fixed stream
must not move.  The digests below were recorded at the parent of the PR
that made one ``demo_spec`` produce both; they are never regenerated to
make a change pass.  One deliberate re-pin: ``SERVICE_DEMO["stream"]``
moved when a deferred fold began to go over the base file in its own
order, which lowers the stream's modelled cost from 86 619 to 86 559 ms
(records, definitions, engine and every answer are unchanged).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any

from repro.cluster.harness import demo_spec
from repro.cluster.worker import build_server
from repro.durability.codec import encode_definition
from repro.engine.transaction import Transaction, Update
from repro.service.traffic import PhaseSpec, demo_server, drifting_traffic

SERVICE_DEMO = {
    "records": "a24f3214f70eef0c",
    "definitions": "95639f5d68e8bd45",
    "engine": "91927f700583555f",
    "stream": "e27307dd42f7e11a",
}
CLUSTER_DEMO = {
    "records": "5bc2a24964ba95f2",
    "definitions": "9e4b5dcf31e1a1e7",
    "engine": "0f5d15befc73dc8d",
    "stream": "dd61c92e0dec9a3c",
}


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(answer: Any) -> Any:
    if isinstance(answer, list):
        return [dict(vt.values) for vt in answer]
    return answer


def _fingerprint(server: Any, requests: list[tuple]) -> dict[str, str]:
    """Digest the data, the definitions, the engine and one replay."""
    database = server.database
    records = {
        name: [dict(r.values) for r in database.logical_records(name)]
        for name in sorted(database.relations)
    }
    definitions = [
        encode_definition(server.definition_of(name)) for name in server.views()
    ]
    setup_ms = database.meter.setup_milliseconds(server.params)
    answers = []
    for kind, *args in requests:
        if kind == "update":
            server.apply_update(args[0], client="fp")
        else:
            answers.append(_plain(server.query(*args, client="fp")))
    stream = {
        "setup_ms": repr(setup_ms),
        "ms": repr(database.meter.milliseconds(server.params)),
        "answers": answers,
    }
    return {
        "records": _digest(records),
        "definitions": _digest(definitions),
        "engine": _digest(database.engine_config()),
        "stream": _digest(stream),
    }


def _cluster_stream(n_records: int, domain: int, length: int = 200) -> list[tuple]:
    """Chunk queries, totals, value updates and partition-field moves."""
    rng = random.Random(23)
    requests: list[tuple] = []
    for step in range(length):
        if step % 3 == 2:
            lo = rng.randrange(16) * (domain // 16)
            requests.append(("query", "by_a", lo, lo + domain // 16 - 1))
        elif step % 7 == 6:
            requests.append(("query", "total", None, None))
        else:
            changes = {"v": rng.randrange(1000)}
            if step % 5 == 0:
                changes["a"] = rng.randrange(domain)
            requests.append(("update", Transaction.of(
                "r", [Update(rng.randrange(n_records), changes)]
            )))
    return requests


def test_service_demo_is_the_parent_commits_demo():
    demo = demo_server(seed=7)
    phases = (PhaseSpec(operations=200, update_probability=0.3, batch_size=4),)
    requests = [
        ("update", r.txn) if r.kind == "update"
        else ("query", r.view, r.lo, r.hi)
        for r in drifting_traffic(demo, phases, seed=11)
    ]
    assert len(requests) == 200
    assert _fingerprint(demo.server, requests) == SERVICE_DEMO


def test_cluster_demo_is_the_parent_commits_demo():
    spec = demo_spec(seed=17)
    server = build_server(spec)
    try:
        n_records = len(spec["relations"][0]["records"])
        requests = _cluster_stream(n_records, domain=1600)
        assert _fingerprint(server, requests) == CLUSTER_DEMO
    finally:
        server.shutdown()
