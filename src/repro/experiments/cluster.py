"""``ext-cluster``: sharded scatter–gather serving scaling.

Forks 1/2/… shard-worker clusters over the same demo data set, drives
identical paced concurrent traffic through the front-end router at
each width, and tabulates aggregate throughput, per-shard routing mix
and the speedup over one shard.  Pacing realizes each request's
modelled milliseconds as wall sleeps *inside the worker processes*,
so the speedup measures process parallelism past the GIL (see
``docs/cluster.md``), not host arithmetic.
"""

from __future__ import annotations

from repro.cluster.harness import launch_demo, partitioned_cluster_streams
from repro.service.metrics import MetricsRegistry
from repro.service.traffic import run_traffic
from .series import TableData

__all__ = [
    "DEFAULT_SHARD_COUNTS",
    "configure_shard_counts",
    "cluster_scaling_table",
]

#: Wall seconds per modelled millisecond inside each shard worker.
PACING = 2e-4
CLIENT_THREADS = 4
OPS_PER_THREAD = 12
N_RECORDS = 480

#: Kept small so ``repro-experiments all`` stays fast; ``--shards N``
#: widens the sweep.
DEFAULT_SHARD_COUNTS = (1, 2)

_shard_counts: tuple[int, ...] = DEFAULT_SHARD_COUNTS


def configure_shard_counts(max_shards: int) -> tuple[int, ...]:
    """Widen the default sweep to powers of two up to ``max_shards``.

    Called by the runner's ``--shards N`` flag before any experiment
    executes (and before its worker pool forks, so the override
    propagates to pool workers).
    """
    if max_shards < 1:
        raise ValueError(f"max_shards must be >= 1, got {max_shards}")
    counts = [1]
    while counts[-1] * 2 <= max_shards:
        counts.append(counts[-1] * 2)
    if counts[-1] != max_shards:
        counts.append(max_shards)
    global _shard_counts
    _shard_counts = tuple(counts)
    return _shard_counts


def _routing_mix(export: dict) -> tuple[int, int]:
    """(single-shard, scatter) query totals from a cluster export."""
    registry = MetricsRegistry.from_dict(export)
    single, scatter = (
        int(sum(counter.value for counter in registry.series(name)))
        for name in ("single_shard_queries_total", "scatter_queries_total")
    )
    return single, scatter


def cluster_scaling_table(
    shard_counts: tuple[int, ...] | None = None,
    pacing: float = PACING,
) -> TableData:
    """The ``ext-cluster`` artifact: aggregate qps per shard count."""
    shard_counts = shard_counts if shard_counts is not None else _shard_counts
    rows = []
    baseline_qps: float | None = None
    for n_shards in sorted(set(shard_counts)):
        router = launch_demo(
            n_shards, strategy="deferred", pacing=pacing, n_records=N_RECORDS
        )
        try:
            for threads, ops in ((2, 4), (CLIENT_THREADS, OPS_PER_THREAD)):
                summary = run_traffic(  # the first, short pass warms up
                    router, partitioned_cluster_streams(threads, ops, N_RECORDS),
                    threads=threads,
                )
            router.refresh_epoch()
            single, scatter = _routing_mix(router.cluster_metrics())
            epochs = router.stats()["epochs"]
        finally:
            router.close()
        if baseline_qps is None:
            baseline_qps = summary.qps
        speedup = summary.qps / baseline_qps if baseline_qps else 0.0
        rows.append((
            n_shards,
            summary.queries,
            summary.updates,
            round(summary.wall_seconds, 2),
            round(summary.qps, 1),
            f"{speedup:.2f}x",
            single,
            scatter,
            epochs,
        ))
    return TableData(
        table_id="ext-cluster",
        title="Sharded scatter-gather serving: aggregate throughput by width",
        columns=("shards", "queries", "updates", "wall s", "qps",
                 "speedup", "1-shard q", "scatter q", "epochs"),
        rows=tuple(rows),
        notes=(
            f"{CLIENT_THREADS} client threads x {OPS_PER_THREAD} ops over "
            f"{N_RECORDS} tuples, pacing {pacing:g} s per modelled ms inside "
            "each worker process; chunk-aligned queries keep per-query width "
            "constant across shard counts. Speedup is aggregate qps vs one "
            "shard; the routing mix shows chunk queries staying single-shard "
            "under range placement. Full sweep: repro-experiments "
            "ext-cluster --shards 4."
        ),
    )
