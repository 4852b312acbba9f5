"""Multi-client traffic with a drifting workload mix, plus a demo server.

The experiments in :mod:`repro.workload` run one view under one
strategy with a fixed ``P``.  The serving layer's whole argument is
about what happens when ``P`` *drifts*: this module builds deterministic
multi-phase request streams (each phase its own update probability and
batch size, interleaved Bresenham-style so any mix spreads evenly), a
small two-view demo server to serve them against, and the one replay
loop — :func:`run_traffic` drives :class:`Request` streams at anything
with the ``query`` / ``apply_update`` surface a
:class:`~repro.service.server.ViewServer` and a
:class:`~repro.cluster.router.ClusterRouter` share.

Everything is seeded — replaying the same stream against servers with
different strategies is what makes the adaptive-vs-static comparison
(``ext-service`` experiment and benchmark) apples-to-apples.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.parameters import Parameters
from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.engine.transaction import Transaction, Update
from repro.resilience.degradation import DegradedResult
from repro.resilience.faults import FaultProfile
from repro.resilience.policy import ResilienceConfig
from .router import AdaptiveRouter, RouterConfig
from .server import ViewServer
from .spec import build_server, demo_spec

__all__ = [
    "PhaseSpec",
    "Request",
    "ServiceDemo",
    "TrafficSummary",
    "demo_server",
    "drifting_traffic",
    "run_traffic",
]


@dataclass(frozen=True)
class PhaseSpec:
    """One segment of the drifting workload."""

    #: Requests in this phase (updates + queries).
    operations: int
    #: Fraction of requests that are update transactions (the paper's P).
    update_probability: float
    #: Tuples modified per update transaction (the paper's l).
    batch_size: int = 5

    def __post_init__(self) -> None:
        if self.operations < 1:
            raise ValueError(f"phase needs >= 1 operations, got {self.operations}")
        if not 0.0 <= self.update_probability < 1.0:
            raise ValueError(
                f"update probability must be in [0, 1), got {self.update_probability}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class Request:
    """One client request: an update transaction or a view query."""

    client: str
    kind: str  # "update" | "query"
    view: str | None = None
    txn: Transaction | None = None
    lo: Any = None
    hi: Any = None


@dataclass
class ServiceDemo:
    """A ready-to-serve database: one relation, two views, known keys."""

    database: Database
    server: ViewServer
    #: The spec the server was built from (``demo_spec(serving=True)``).
    spec: dict[str, Any]
    relation: str
    view_names: tuple[str, ...]
    keys: list[int]
    domain: int
    view_bound: int


def demo_server(
    n_tuples: int = 2000,
    domain: int = 1000,
    view_bound: int = 100,
    seed: int = 7,
    strategy: Strategy = Strategy.DEFERRED,
    adaptive: bool = True,
    router_config: RouterConfig | None = None,
    fault_profile: FaultProfile | None = None,
    resilience: ResilienceConfig | None = None,
    pacing: float = 0.0,
    state_dir: str | None = None,
    checkpoint_every: int | None = None,
) -> ServiceDemo:
    """Build the standard serving-layer demo, in this process.

    :func:`~repro.service.spec.demo_spec`'s serving shape: one relation
    ``r`` (clustered on the predicate attribute ``a``, hypothetical so
    deferred maintenance — and migration back to it — stays available)
    carrying ``v_tuples`` (Model 1 select-project) and ``v_total``
    (Model 3 sum) over ``a in [0, view_bound)``.  ``strategy`` picks
    their initial strategy; ``adaptive`` arms the router (pass
    ``adaptive=False`` for the static baselines).

    ``fault_profile`` injects storage faults (armed only *after* the
    clean bootstrap, baseline checkpoint included) and ``resilience``
    installs the checksum/retry/breaker/degradation stack over them.
    """
    spec = demo_spec(
        n_records=n_tuples, domain=domain, view_bound=view_bound, seed=seed,
        strategy=strategy.value, pacing=pacing, state_dir=state_dir,
        checkpoint_every=checkpoint_every, serving=True,
    )
    relation = spec["relations"][0]
    server = build_server(
        spec,
        params=Parameters(
            N=n_tuples, S=relation["tuple_bytes"], f=view_bound / domain
        ),
        router=AdaptiveRouter(router_config) if adaptive else None,
        fault_profile=fault_profile,
        resilience=resilience,
    )
    db = server.database
    db.reset_meter()
    if db.faults is not None:
        db.faults.arm()  # bootstrap ran clean; the workload takes the risk
    return ServiceDemo(
        database=db,
        server=server,
        spec=spec,
        relation=relation["name"],
        view_names=tuple(view["name"] for view in spec["views"]),
        keys=list(range(n_tuples)),
        domain=domain,
        view_bound=view_bound,
    )


def drifting_traffic(
    demo: ServiceDemo,
    phases: tuple[PhaseSpec, ...],
    seed: int = 11,
) -> list[Request]:
    """A deterministic multi-phase request stream over the demo's views.

    Within each phase, updates are spread among queries with the same
    fractional-credit interleaving the workload generator uses, so a
    phase's realized mix matches its ``update_probability`` exactly
    (up to rounding).  Queries read the whole view range, round-robin
    over the demo's views; clients round-robin over the whole stream.
    """
    rng = random.Random(seed)
    clients = ("alice", "bob", "carol")
    requests: list[Request] = []
    view_cycle = 0
    client_cycle = 0

    def next_client() -> str:
        nonlocal client_cycle
        client = clients[client_cycle % len(clients)]
        client_cycle += 1
        return client

    def make_update(batch_size: int) -> Request:
        chosen = rng.sample(demo.keys, min(batch_size, len(demo.keys)))
        ops = [
            Update(key, {"a": rng.randrange(demo.domain), "v": rng.randrange(10_000)})
            for key in chosen
        ]
        return Request(
            client=next_client(), kind="update",
            txn=Transaction.of(demo.relation, ops),
        )

    def make_query() -> Request:
        nonlocal view_cycle
        view = demo.view_names[view_cycle % len(demo.view_names)]
        view_cycle += 1
        return Request(
            client=next_client(), kind="query",
            view=view, lo=0, hi=demo.view_bound - 1,
        )

    for phase in phases:
        updates = round(phase.operations * phase.update_probability)
        queries = phase.operations - updates
        if queries == 0:
            requests.extend(make_update(phase.batch_size) for _ in range(updates))
            continue
        credit, issued = 0.0, 0
        per_query = updates / queries
        for _ in range(queries):
            credit += per_query
            while credit >= 1.0 and issued < updates:
                requests.append(make_update(phase.batch_size))
                issued += 1
                credit -= 1.0
            requests.append(make_query())
        while issued < updates:
            requests.append(make_update(phase.batch_size))
            issued += 1
    return requests


@dataclass
class TrafficSummary:
    """What one replay of request streams did and cost."""

    queries: int = 0
    updates: int = 0
    #: Queries answered off the normal path (DegradedResult unwrapped).
    degraded: int = 0
    #: Per query, thread by thread in stream order: the tuple count of
    #: a range answer, or the scalar.
    answers: list = field(default_factory=list)
    #: Wall milliseconds of each query, in the order of ``answers``.
    query_ms: list[float] = field(default_factory=list)
    #: Wall clock of the whole replay, every thread included.
    wall_seconds: float = 0.0

    @property
    def operations(self) -> int:
        return self.queries + self.updates

    @property
    def qps(self) -> float:
        """Requests (queries and updates) per wall second."""
        return self.operations / self.wall_seconds if self.wall_seconds > 0 else 0.0


#: ``on_result(request, answer, error)``: ``error`` is what the request
#: raised, else ``None``.
OnResult = Callable[[Request, Any, Exception | None], None]


def _serve(
    target: Any, request: Request, summary: TrafficSummary,
    on_result: OnResult | None,
) -> None:
    answer: Any = None
    error: Exception | None = None
    began = time.perf_counter()
    try:
        if request.kind == "update":
            target.apply_update(request.txn, client=request.client)
        else:
            answer = target.query(
                request.view, request.lo, request.hi, client=request.client
            )
    except Exception as exc:
        if on_result is None:
            raise
        error = exc
    elapsed_ms = (time.perf_counter() - began) * 1000.0
    if on_result is not None:
        on_result(request, answer, error)
    if request.kind == "update":
        summary.updates += 1
    elif error is None:
        if isinstance(answer, DegradedResult):
            summary.degraded += 1
            answer = answer.unwrap()
        summary.answers.append(len(answer) if isinstance(answer, list) else answer)
        summary.query_ms.append(elapsed_ms)
        summary.queries += 1


def run_traffic(
    target: Any,
    streams: Sequence[Request] | Sequence[Sequence[Request]],
    threads: int = 1,
    on_result: OnResult | None = None,
    join_timeout: float = 300.0,
) -> TrafficSummary:
    """Replay request streams against a server, a router — any placement.

    ``target`` is anything with ``query(name, lo, hi, client=)`` and
    ``apply_update(txn, client=)``.  ``streams`` holds one stream per
    logical client (a bare request list is one stream); thread ``t`` of
    ``threads`` replays streams ``t, t + threads, ...`` in order, and a
    single thread is the caller's own.  The wall clock covers the whole
    convoy.

    A request that raises ends its thread's replay and is re-raised,
    after the join when threaded, where a thread still alive after
    ``join_timeout`` seconds fails the replay as wedged.  With
    ``on_result`` the callback owns failure policy instead: it is
    called after every request with ``(request, answer, error)`` and
    the replay carries on (a failed query is not counted).
    """
    if streams and isinstance(streams[0], Request):
        streams = [streams]
    parts = [TrafficSummary() for _ in range(threads)]
    errors: list[BaseException] = []

    def worker(index: int) -> None:
        try:
            for stream in streams[index::threads]:
                for request in stream:
                    _serve(target, request, parts[index], on_result)
        except BaseException as exc:  # re-raised below, after the join
            errors.append(exc)

    start = time.perf_counter()
    if threads == 1:
        worker(0)
    else:
        pool = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(join_timeout)
            if thread.is_alive():
                raise RuntimeError("traffic thread wedged: likely deadlock")
    if errors:
        raise errors[0]
    summary = TrafficSummary(wall_seconds=time.perf_counter() - start)
    for part in parts:
        summary.queries += part.queries
        summary.updates += part.updates
        summary.degraded += part.degraded
        summary.answers += part.answers
        summary.query_ms += part.query_ms
    return summary
