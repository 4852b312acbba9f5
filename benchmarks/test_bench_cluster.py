"""Sharded serving throughput: scatter–gather across worker processes.

Drives paced mixed query+update traffic from eight client threads
against 1/2/4-shard clusters (same data set, same chunk-aligned query
width at every shard count — see :mod:`repro.cluster.harness`),
measures aggregate queries/sec through the front-end router, and
cross-checks answer equivalence across all three maintenance
strategies on a four-shard cluster driven by concurrent commuting
streams.

Unlike the thread benchmark next door, each shard is a separate
*process* hosting a full ViewServer over its partition, so the scaling
here is past the GIL: the paced modelled milliseconds burn in N
workers at once.  The headline the committed JSON carries is
near-linear aggregate qps at 4 shards and zero cross-shard
strategy-equivalence violations.

Results MERGE into ``benchmarks/BENCH_parallel.json`` (this file and
``test_bench_parallel.py`` each own disjoint top-level keys of the
same report); CI's cluster-smoke job runs this at reduced scale via
``REPRO_PARALLEL_SCALE``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.cluster.harness import DOMAIN, launch_demo, partitioned_cluster_streams
from repro.service.traffic import TrafficSummary, run_traffic

#: Wall seconds per modelled millisecond inside each shard worker.
#: Heavier than the thread benchmark's pacing: sleep-dominated runs
#: keep the process-parallel speedup stable on small CI hosts.
PACING = 4e-4
SHARD_COUNTS = (1, 2, 4)
N_RECORDS = 480
CLIENT_THREADS = 8
OUT_PATH = Path(__file__).parent / "BENCH_parallel.json"
SCALE = float(os.environ.get("REPRO_PARALLEL_SCALE", "1.0"))
OPS_PER_THREAD = max(8, int(24 * SCALE))
STRATEGIES = ("deferred", "immediate", "qm_clustered")


def merge_report(updates: dict) -> dict:
    """Read-modify-write ``OUT_PATH``: this benchmark and the thread
    benchmark own disjoint keys of one report file, and either may run
    first (or alone), so neither may overwrite the other's series."""
    report = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    report.update(updates)
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def drive(router, n_threads: int, ops_per_thread: int) -> TrafficSummary:
    """Each client thread replays its own commuting partitioned stream."""
    return run_traffic(
        router,
        partitioned_cluster_streams(n_threads, ops_per_thread, N_RECORDS),
        threads=n_threads,
    )


def measure(n_shards: int) -> dict:
    """Aggregate qps through the router at one shard count."""
    router = launch_demo(
        n_shards, strategy="deferred", pacing=PACING, n_records=N_RECORDS
    )
    try:
        # Warm the per-shard buffer pools and view materializations so
        # the timed window measures steady-state serving.
        drive(router, 2, 4)
        summary = drive(router, CLIENT_THREADS, OPS_PER_THREAD)
    finally:
        router.close()
    return {
        "queries": summary.queries,
        "updates": summary.updates,
        "wall_s": round(summary.wall_seconds, 4),
        "qps": round(summary.qps, 2),
    }


def final_answers(strategy: str, n_shards: int = 4) -> dict:
    """Final view answers after concurrent commuting traffic.

    Four client threads drive disjoint key sets (updates commute), so
    every strategy twin must converge to identical answers whatever
    the cross-shard interleaving was.
    """
    router = launch_demo(
        n_shards, strategy=strategy, pacing=0.0, n_records=N_RECORDS
    )
    try:
        drive(router, 4, 18)
        router.refresh_epoch()
        tuples = router.query("by_a", 0, DOMAIN - 1, client="check")
        return {
            "by_a": sorted(
                (vt.values["id"], vt.values["a"], vt.values["v"])
                for vt in tuples
            ),
            "total": router.query("total", client="check"),
        }
    finally:
        router.close()


def check_cluster_equivalence() -> int:
    """Count views whose merged answers differ between strategies."""
    finals = {strategy: final_answers(strategy) for strategy in STRATEGIES}
    reference = finals[STRATEGIES[0]]
    return sum(
        1
        for view in reference
        if any(finals[s][view] != reference[view] for s in STRATEGIES[1:])
    )


def test_sharded_throughput_scales_and_strategies_agree():
    per_shard = {}
    for n_shards in SHARD_COUNTS:
        per_shard[str(n_shards)] = measure(n_shards)

    violations = check_cluster_equivalence()
    speedup_4 = per_shard["4"]["qps"] / per_shard["1"]["qps"]
    report = merge_report({
        "cluster": {
            "pacing_s_per_ms": PACING,
            "scale": SCALE,
            "ops_per_thread": OPS_PER_THREAD,
            "client_threads": CLIENT_THREADS,
            "records": N_RECORDS,
        },
        "shards": per_shard,
        "shard_speedup_4": round(speedup_4, 2),
        "cluster_equivalence_violations": violations,
    })
    print("\n" + json.dumps(report, indent=2))

    assert violations == 0
    floor = 3.0 if SCALE >= 1.0 else 2.2
    assert speedup_4 >= floor, (
        f"4-shard aggregate throughput only {speedup_4:.2f}x one shard "
        f"(floor {floor}x at scale {SCALE})"
    )
