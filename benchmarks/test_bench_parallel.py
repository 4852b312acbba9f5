"""Multi-threaded serving throughput: the striped-lock hot path.

Drives fixed mixed query+update streams over eight single-view
relations at 1/2/4/8 threads (threads partition the relations, so the
total work is constant and the interleaving commutes), measures
aggregate queries/sec, and cross-checks answer equivalence between a
deferred and an immediate twin driven by the same streams.

Pacing realizes each request's modelled milliseconds as wall sleeps
taken outside the engine mutex (see ``docs/performance.md``), so the
numbers measure how well the locking scheme overlaps modelled I/O —
not the host's Python speed — and the committed baseline stays
meaningful across machines.

Results land in ``benchmarks/BENCH_parallel.json``; CI's perf-smoke
job runs this at reduced scale (``REPRO_PARALLEL_SCALE``) and fails on
a >20% single-thread regression via ``check_parallel_regression.py``.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

from repro.core.strategies import Strategy
from repro.engine.transaction import Transaction, Update
from repro.service.server import ViewServer
from repro.service.spec import build_server
from repro.service.traffic import Request, run_traffic
from repro.workload.clients import exact_percentile

#: Wall seconds per modelled millisecond (~10 ms sleep per typical op).
PACING = 2e-4
N_RELATIONS = 8
N_RECORDS = 160
THREAD_COUNTS = (1, 2, 4, 8)
OUT_PATH = Path(__file__).parent / "BENCH_parallel.json"
SCALE = float(os.environ.get("REPRO_PARALLEL_SCALE", "1.0"))
OPS_PER_RELATION = max(6, int(24 * SCALE))


def make_spec(strategy: Strategy, pacing: float = PACING) -> dict:
    """Eight single-view relations ``r0..r7`` with the same seeded data."""
    relations, views = [], []
    for i in range(N_RELATIONS):
        rng = random.Random(7)
        relations.append({
            "name": f"r{i}", "fields": ["id", "a", "v"], "key_field": "id",
            "tuple_bytes": 100, "clustered_on": "a", "kind": "hypothetical",
            "ad_buckets": 2,
            "records": [
                {"id": k, "a": rng.randrange(20), "v": rng.randrange(100)}
                for k in range(N_RECORDS)
            ],
        })
        views.append({
            "type": "select_project", "name": f"v{i}", "relation": f"r{i}",
            "predicate": {"field": "a", "lo": 0, "hi": 9},
            "projection": ["id", "a"], "view_key": "a",
            "strategy": strategy.value,
        })
    return {"buffer_pages": 512, "pacing": pacing, "lock_timeout": 120.0,
            "relations": relations, "views": views}


def make_server(strategy: Strategy, pacing: float = PACING) -> ViewServer:
    return build_server(make_spec(strategy, pacing))


def make_streams() -> list[list[Request]]:
    """One deterministic mixed op stream per relation (2:1 query:update)."""
    streams = []
    for rel_idx in range(N_RELATIONS):
        rng = random.Random(4000 + rel_idx)
        ops = []
        for step in range(OPS_PER_RELATION):
            if step % 3 == 0:
                key, value = rng.randrange(N_RECORDS), rng.randrange(1000)
                ops.append(Request("anon", "update", txn=Transaction.of(
                    f"r{rel_idx}", [Update(key, {"v": value})])))
            else:
                ops.append(Request("anon", "query", view=f"v{rel_idx}",
                                   lo=0, hi=9))
        streams.append(ops)
    return streams


def drive(server: ViewServer, streams, n_threads: int) -> dict:
    """Run every stream to completion on ``n_threads`` workers
    (thread t owns the relations with index ≡ t mod n_threads)."""
    summary = run_traffic(server, streams, threads=n_threads, join_timeout=600.0)
    point = {"queries": summary.queries,
             "wall_s": round(summary.wall_seconds, 4),
             "qps": round(summary.queries / summary.wall_seconds, 2)}
    p95 = exact_percentile(summary.query_ms, 0.95)
    if p95 is not None:
        # Pacing makes per-query wall latency machine-comparable, so
        # the regression gate can bound p95 alongside qps.
        point["p95_ms"] = round(p95, 3)
    return point


def check_equivalence() -> int:
    """Drive deferred and immediate twins with identical streams at four
    threads; count views whose final answers disagree."""
    streams = make_streams()
    finals = {}
    for strategy in (Strategy.DEFERRED, Strategy.IMMEDIATE):
        server = make_server(strategy, pacing=0.0)
        drive(server, streams, n_threads=4)
        finals[strategy] = [
            sorted((t.values["id"], t.values["a"])
                   for t in server.query(view, 0, 9))
            for view in server.views()
        ]
    return sum(
        1 for a, b in zip(finals[Strategy.DEFERRED], finals[Strategy.IMMEDIATE])
        if a != b
    )


def test_parallel_throughput_scales_and_strategies_agree():
    streams = make_streams()
    per_thread = {}
    for n_threads in THREAD_COUNTS:
        server = make_server(Strategy.DEFERRED)
        per_thread[str(n_threads)] = drive(server, streams, n_threads)

    violations = check_equivalence()
    speedup_4t = per_thread["4"]["qps"] / per_thread["1"]["qps"]
    # Read-modify-write: test_bench_cluster.py merges its sharded
    # series into the same report file, so only this benchmark's own
    # keys are replaced here.
    report = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    report.update({
        "pacing_s_per_ms": PACING,
        "scale": SCALE,
        "ops_per_relation": OPS_PER_RELATION,
        "relations": N_RELATIONS,
        "threads": per_thread,
        "speedup_4t": round(speedup_4t, 2),
        "equivalence_violations": violations,
    })
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print("\n" + json.dumps(report, indent=2))

    assert violations == 0
    assert speedup_4t >= 2.0, (
        f"4-thread aggregate throughput only {speedup_4t:.2f}x single-thread"
    )
