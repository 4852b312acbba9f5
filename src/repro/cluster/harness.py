"""Demo stacks at either placement, for the CLIs, tests and benchmarks.

The cluster-shaped demo data set (:func:`repro.service.spec.demo_spec`)
is one relation ``r(id, a, v)`` whose partition field ``a`` is spread
uniformly over ``[0, DOMAIN)``, with a select-project view keyed on
``a`` (single-shard routable under a range shard map) and a ``sum(v)``
aggregate (always scatter–gather).

The query workload is **chunk-aligned**: the domain is divided into
``CHUNKS`` equal chunks, and each query asks for exactly one chunk.
Chunk boundaries coincide with shard boundaries for every power-of-two
shard count up to ``CHUNKS``, so a chunk query routes to exactly one
shard and the per-query result width is *independent of the shard
count* — aggregate qps scaling then measures process parallelism, not
shrinking answers.

:func:`add_stack_args` / :func:`stack_from_args` are the one place the
three serving CLIs declare and resolve the flags that describe a demo
stack: placement is ``--shards`` (absent: one in-process server).
"""

from __future__ import annotations

import argparse
import random
from typing import Any

from repro.core.strategies import Strategy
from repro.engine.transaction import Transaction, Update
from repro.resilience.faults import fault_profile, profile_names
from repro.resilience.policy import ResilienceConfig
from repro.service.cache import QueryResultCache
from repro.service.router import RouterConfig
from repro.service.spec import DOMAIN, demo_spec
from repro.service.traffic import Request, ServiceDemo, demo_server
from .replication import ReplicationConfig
from .router import ClusterRouter
from .shardmap import ShardMap
from .supervisor import ClusterSupervisor

__all__ = [
    "DOMAIN",
    "CHUNKS",
    "demo_spec",
    "demo_shard_map",
    "launch_demo",
    "live_worker_pids",
    "chunk_bounds",
    "partitioned_cluster_streams",
    "add_stack_args",
    "stack_from_args",
]

#: Chunk-aligned query granularity; shard counts 1/2/4/8/16 all align.
CHUNKS = 16


def demo_shard_map(n_shards: int, scheme: str = "range") -> ShardMap:
    if scheme == "hash":
        return ShardMap.hashed("a", n_shards)
    return ShardMap.ranged("a", 0, DOMAIN, n_shards)


def launch_demo(
    n_shards: int,
    strategy: str = "deferred",
    scheme: str = "range",
    pacing: float = 0.0,
    router_cache: bool = False,
    n_records: int | None = None,
    seed: int | None = None,
    state_dir: str | None = None,
    rpc_timeout: float = 30.0,
    replicas: int = 0,
    supervise: bool = False,
    replication: ReplicationConfig | None = None,
) -> ClusterRouter:
    """Fork a demo cluster and return its router.

    ``replicas`` workers per shard beyond the primary; ``supervise``
    attaches a started :class:`ClusterSupervisor` (heartbeats, failover
    promotion, respawn) that ``router.close()`` stops automatically.
    """
    spec = demo_spec(
        n_records=n_records, strategy=strategy, pacing=pacing,
        seed=seed, state_dir=state_dir,
    )
    if replication is None:
        replication = ReplicationConfig(replicas=replicas)
    router = ClusterRouter.launch(
        spec,
        demo_shard_map(n_shards, scheme),
        cache=QueryResultCache() if router_cache else None,
        rpc_timeout=rpc_timeout,
        replication=replication,
    )
    if supervise:
        ClusterSupervisor(router).start()
    return router


def live_worker_pids(router: ClusterRouter) -> list[int]:
    """Pids of every worker process currently alive under the router.

    Includes supervisor-respawned members, so a test can assert that
    ``close()`` leaves no orphans no matter how much churn the chaos
    harness caused: after close, none of these pids may be running.
    """
    return [
        member.process.pid
        for replica_set in router.shards
        for member in replica_set.members
        if member.process.is_alive()
    ]


def chunk_bounds(chunk: int) -> tuple[int, int]:
    """Inclusive ``[lo, hi]`` bounds of one chunk-aligned query."""
    width = DOMAIN // CHUNKS
    lo = (chunk % CHUNKS) * width
    return lo, lo + width - 1


def partitioned_cluster_streams(
    n_threads: int, length: int, n_records: int
) -> list[list[Request]]:
    """One deterministic request stream per client thread, over disjoint keys.

    Thread ``i`` touches only keys ``i, i + n, i + 2n, ...``, so the
    streams commute across threads: every strategy twin converges to
    the same final state whatever the interleaving — the property the
    cross-shard equivalence check rests on.  Every third request is a
    chunk query; the updates between them never touch the partition
    field, keeping placement stable under load (cross-shard moves are
    exercised separately).
    """
    streams = []
    for index in range(n_threads):
        rng = random.Random(1000 + index)
        client = f"t{index}"
        stream = []
        for step in range(length):
            if step % 3 == 2:
                lo, hi = chunk_bounds(rng.randrange(CHUNKS))
                stream.append(Request(client, "query", view="by_a", lo=lo, hi=hi))
            else:
                key = index + n_threads * rng.randrange(
                    max(1, n_records // n_threads)
                )
                stream.append(Request(client, "update", txn=Transaction.of(
                    "r", [Update(key, {"v": rng.randrange(1000)})]
                )))
        streams.append(stream)
    return streams


# ----------------------------------------------------------------------
# the stack flags of repro-serve, repro-cluster and repro-gateway serve
# ----------------------------------------------------------------------
_STRATEGIES = ("deferred", "immediate", "qm_clustered")
#: ``(placement, option strings, argparse keywords)``: ``None`` means
#: either placement, and a flag tied to one is an error at the other.
_STACK_FLAGS: tuple[tuple[str | None, tuple[str, ...], dict[str, Any]], ...] = (
    (None, ("--records", "--n-tuples"), dict(
        dest="records", type=int, metavar="N",
        help="tuples in the demo relation (default 2000 in-process, 480 sharded)")),
    (None, ("--seed",), dict(
        type=int, help="seed for data and traffic (default 7 in-process, 17 sharded)")),
    (None, ("--pacing",), dict(
        type=float, default=0.0, metavar="S",
        help="wall seconds per modelled ms inside each server (default 0: unpaced)")),
    (None, ("--state-dir",), dict(
        metavar="DIR", help="journal (WAL + checkpoints) under DIR, one "
        "DIR/shard-NNN per shard; recoverable with repro-recover")),
    ("server", ("--domain",), dict(type=int, help="attribute domain size (default 1000)")),
    ("server", ("--view-bound",), dict(
        type=int, help="views cover a in [0, bound) (default 100)")),
    ("server", ("--static",), dict(
        choices=_STRATEGIES, help="pin one strategy instead of adaptive routing")),
    ("server", ("--decision-every",), dict(
        type=int, metavar="N", help="router re-decides every N ops per view")),
    ("server", ("--checkpoint-every",), dict(
        type=int, metavar="N",
        help="checkpoint every N served requests (requires --state-dir)")),
    ("server", ("--fault-profile",), dict(
        choices=profile_names(), help="inject seeded storage faults after bootstrap; "
        "installs checksums, retries, breakers and degraded serving")),
    ("server", ("--fault-seed",), dict(
        type=int, metavar="SEED",
        help="re-seed the fault profile's RNG (requires --fault-profile)")),
    ("server", ("--degraded-reads",), dict(
        action=argparse.BooleanOptionalAction, default=True,
        help="allow bounded-staleness stale reads as the last degradation rung "
        "(default on; only meaningful with --fault-profile)")),
    ("cluster", ("--shards", "--cluster"), dict(
        dest="shards", type=int, metavar="N",
        help="shard worker processes behind a scatter-gather router")),
    ("cluster", ("--scheme",), dict(
        choices=("range", "hash"), default="range", help="tuple placement: key "
        "range (prunable routing) or consistent hash (default range)")),
    ("cluster", ("--strategy",), dict(
        choices=_STRATEGIES, default="deferred",
        help="maintenance strategy on every shard (default deferred)")),
    ("cluster", ("--replicas",), dict(
        type=int, default=0, metavar="N",
        help="replica workers per shard beyond the primary (default 0)")),
    ("cluster", ("--supervise",), dict(
        action="store_true", help="attach the health-checking supervisor "
        "(heartbeats, failover promotion, respawn); implied by --replicas > 0")),
    ("cluster", ("--router-cache",), dict(
        action="store_true", help="cache merged cross-shard results at the router")),
)


def add_stack_args(
    parser: argparse.ArgumentParser, placement: str | None = None
) -> None:
    """Declare the flags that describe a demo stack.

    ``placement`` pins a command to ``"server"`` (``repro-serve``: no
    sharding flags) or ``"cluster"`` (``repro-cluster``: no
    single-process flags); ``None`` (``repro-gateway serve``) takes
    both and ``--shards`` chooses.
    """
    group = parser.add_argument_group("stack")
    for tied_to, options, keywords in _STACK_FLAGS:
        if placement is None or tied_to in (None, placement):
            group.add_argument(*options, **keywords)


def stack_from_args(args: argparse.Namespace) -> ServiceDemo | ClusterRouter:
    """Stand up the demo stack the :func:`add_stack_args` flags describe.

    An in-process :class:`ServiceDemo` without ``--shards``, a launched
    :class:`ClusterRouter` with it; the caller owns the shutdown.  Size
    and seed default to the chosen demo's own.  Raises
    :class:`ValueError` for flags that describe no stack (the CLIs
    print it and exit 2).
    """
    shards = getattr(args, "shards", None)
    for tied_to, options, keywords in _STACK_FLAGS:
        dest = keywords.get("dest", options[0][2:].replace("-", "_"))
        if tied_to == ("server" if shards is not None else "cluster") and (
            getattr(args, dest, None) not in (None, False, keywords.get("default"))
        ):
            raise ValueError(
                f"{options[0]} needs --shards" if shards is None
                else f"{options[0]} describes an in-process server, not --shards"
            )
    if shards is not None:
        if shards < 1:
            raise ValueError(f"--shards must be >= 1, got {shards}")
        if args.replicas < 0:
            raise ValueError(f"--replicas must be >= 0, got {args.replicas}")
        return launch_demo(
            shards, strategy=args.strategy, scheme=args.scheme, pacing=args.pacing,
            router_cache=args.router_cache, n_records=args.records, seed=args.seed,
            state_dir=args.state_dir, replicas=args.replicas,
            supervise=args.supervise or args.replicas > 0,
        )
    if args.checkpoint_every is not None:
        if args.state_dir is None:
            raise ValueError("--checkpoint-every requires --state-dir "
                             "(there is nowhere to write the checkpoint)")
        if args.checkpoint_every < 1:
            raise ValueError(f"invalid --checkpoint-every "
                             f"{args.checkpoint_every}: must be >= 1")
    if args.fault_seed is not None and args.fault_profile is None:
        raise ValueError("--fault-seed requires --fault-profile")
    profile = resilience = None
    if args.fault_profile is not None:
        profile = fault_profile(args.fault_profile, seed=args.fault_seed)
        resilience = ResilienceConfig(degraded_reads=args.degraded_reads)
    sizes = {"n_tuples": args.records, "domain": args.domain,
             "view_bound": args.view_bound, "seed": args.seed}
    return demo_server(
        # Only what a flag set: demo_server's defaults stand for the rest.
        **{name: value for name, value in sizes.items() if value is not None},
        strategy=Strategy(args.static or "deferred"),
        adaptive=args.static is None,
        router_config=(
            RouterConfig(decision_every=args.decision_every)
            if args.decision_every is not None else None
        ),
        fault_profile=profile,
        resilience=resilience,
        pacing=args.pacing,
        state_dir=args.state_dir,
        checkpoint_every=args.checkpoint_every,
    )
