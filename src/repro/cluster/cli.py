"""``repro-cluster``: drive a sharded cluster from the command line.

Forks N shard workers over the demo data set, runs paced concurrent
traffic through the scatter–gather router, and reports aggregate
throughput plus the per-shard epoch accounting::

    repro-cluster --shards 4                       # 4-way range-sharded demo
    repro-cluster --shards 8 --scheme hash         # consistent-hash placement
    repro-cluster --shards 2 --strategy immediate  # strategy twin
    repro-cluster --shards 2 --replicas 1          # replicated + supervised
    repro-cluster --shards 4 --json                # aggregated metrics export
    repro-cluster --shards 2 --state-dir st        # per-shard WAL + checkpoints
    repro-cluster --shards 4 --shard-map-out map.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.service.traffic import run_traffic
from .harness import (
    DOMAIN,
    add_stack_args,
    partitioned_cluster_streams,
    stack_from_args,
)
from .router import ClusterRouter

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Serve a sharded multi-process materialized-view cluster "
        "behind a scatter-gather router (Hanson, SIGMOD 1987).",
    )
    parser.add_argument("--threads", type=int, default=4,
                        help="concurrent client threads (default 4)")
    parser.add_argument("--ops", type=int, default=60, metavar="N",
                        help="operations per client thread (default 60)")
    parser.add_argument("--json", action="store_true",
                        help="print the aggregated cluster metrics export "
                        "(schema v1) instead of the summary")
    parser.add_argument("--shard-map-out", type=Path, default=None,
                        metavar="FILE",
                        help="also write the versioned shard map JSON to FILE")
    add_stack_args(parser, "cluster")
    # The key range of the traffic below is the demo's default size.
    parser.set_defaults(shards=2, records=480)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        print(f"--threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 2
    try:
        router = stack_from_args(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    assert isinstance(router, ClusterRouter)
    try:
        if args.shard_map_out is not None:
            args.shard_map_out.parent.mkdir(parents=True, exist_ok=True)
            args.shard_map_out.write_text(router.shard_map.to_json(indent=2) + "\n")
        summary = run_traffic(
            router,
            partitioned_cluster_streams(args.threads, args.ops, args.records),
            threads=args.threads,
        )
        router.refresh_epoch()
        stats = router.stats()
        if args.json:
            print(json.dumps(router.cluster_metrics(), indent=2, sort_keys=True))
            return 0
        replication = (
            f", {args.replicas} replica(s)/shard (supervised)"
            if args.replicas else ""
        )
        print(
            f"cluster: {args.shards} shard(s), {args.scheme} placement over "
            f"'a' in [0, {DOMAIN}), strategy {args.strategy}, "
            f"map v{router.shard_map.version}{replication}"
        )
        print(
            f"served {summary.operations} requests ({summary.queries} queries, "
            f"{summary.updates} updates) from {args.threads} threads "
            f"in {summary.wall_seconds:.2f}s -> {summary.qps:.0f} qps "
            f"aggregate"
        )
        print(
            f"cluster refresh epochs: {stats['epochs']} "
            f"(+{stats['coalesced_waits']} coalesced waits)"
        )
        for shard, shard_stats in sorted(stats["shards"].items()):
            relations = shard_stats.get("relations", {})
            nets = ", ".join(
                f"{rel}: net_reads={info['net_reads']} pending={info['pending']}"
                for rel, info in sorted(relations.items())
            )
            print(
                f"  shard {shard}: epochs={shard_stats.get('epochs', 0)} "
                f"coalesced={shard_stats.get('coalesced_waits', 0)}"
                + (f" [{nets}]" if nets else "")
            )
        if args.state_dir is not None:
            print(f"  durability: per-shard WAL + checkpoints under "
                  f"{args.state_dir}/shard-NNN")
        return 0
    finally:
        router.close()


if __name__ == "__main__":
    raise SystemExit(main())
