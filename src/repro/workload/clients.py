"""Open-loop load generation against a live gateway.

Hanson's analysis assumes Poisson-ish arrival processes that do not
slow down when the system does; a *closed*-loop driver (issue, wait,
issue) accidentally self-throttles and can never push a server past
saturation.  The generator here is **open-loop**: request ``i`` is
issued at ``start + i/rate`` regardless of how many earlier requests
are still in flight, which is exactly the arrival process that makes
admission control necessary — and measurable.

The client population is heavy-tailed: client ``rank`` issues traffic
proportional to ``1 / rank**s`` (:class:`ZipfClientPopulation`), so a
few hot clients dominate, exercising the *per-client* token buckets
and concurrency guards rather than just the global ones.

Request factories yield ``(doc, validator)`` pairs; validators check
*invariants* of an admitted answer (tuples inside the queried range,
aggregate is a number, updates applied in full) so the overload
experiment can assert "zero wrong results" without assuming quiescence
mid-run.  Every completion lands in a :class:`LoadReport` with exact
per-outcome latency percentiles.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.cluster.worker import decode_answer
from repro.gateway.admission import REJECTION_LABELS
from repro.gateway.client import AsyncGatewayClient, GatewayCallError

__all__ = [
    "LoadReport",
    "OpenLoopConfig",
    "ZipfClientPopulation",
    "demo_request_factory",
    "exact_percentile",
    "run_closed_loop",
    "run_open_loop",
]

#: factory(rng) -> (request doc sans client/deadline, validator or None);
#: validator(result) -> error string, or None when the answer is sound.
RequestFactory = Callable[
    [random.Random],
    tuple[dict[str, Any], Callable[[Any], str | None] | None],
]


class ZipfClientPopulation:
    """``n`` clients with Zipf(s) traffic shares: hot heads, long tail."""

    def __init__(
        self, n_clients: int, s: float = 1.1, seed: int = 0, prefix: str = "c",
    ) -> None:
        if n_clients < 1:
            raise ValueError(f"need at least one client, got {n_clients}")
        self.names = tuple(f"{prefix}{rank:03d}" for rank in range(1, n_clients + 1))
        raw = [1.0 / (rank ** s) for rank in range(1, n_clients + 1)]
        total = sum(raw)
        self.weights = tuple(w / total for w in raw)
        self._rng = random.Random(seed)

    def pick(self) -> str:
        """Draw one client name, weighted by the Zipf shares."""
        return self._rng.choices(self.names, weights=self.weights, k=1)[0]

    def share(self, top_k: int) -> float:
        """Traffic share of the ``top_k`` hottest clients (for tests)."""
        return sum(self.weights[:top_k])


def exact_percentile(values: list[float], q: float) -> float | None:
    """Exact ``q``-percentile (linear interpolation); ``None`` if empty."""
    if not values:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


@dataclass
class LoadReport:
    """Everything one load run produced, percentile-ready."""

    offered: int = 0
    #: The offered-load window: goodput's denominator.  Open-loop runs
    #: use the scheduled window (``offered / rate``); the drain tail,
    #: bounded by the deadline budget, is reported as ``wall_s``.
    duration_s: float = 0.0
    #: Wall time including the drain of in-flight tails.
    wall_s: float = 0.0
    #: outcome label -> completion count.  Outcomes are ``ok``,
    #: ``ok_retry`` (full-fidelity answer that needed a replica
    #: retry), ``degraded``, the admission rejection labels, ``error``
    #: (engine exception) and ``lost`` (connection died mid-call).
    outcomes: dict[str, int] = field(default_factory=dict)
    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    #: Per-completion ``(monotonic_time, outcome)`` samples in
    #: completion order — what failover experiments slice into
    #: pre-kill / failover-window / post-window populations.
    samples: list[tuple[float, str]] = field(default_factory=list)
    #: Invariant violations in admitted answers — must stay empty.
    wrong: list[str] = field(default_factory=list)
    #: Engine error messages (first few, for diagnosis).
    errors: list[str] = field(default_factory=list)
    #: Gateway ``stats`` snapshot taken after the run, when available.
    server_stats: dict[str, Any] | None = None

    def record(
        self, outcome: str, latency_ms: float, at: float | None = None,
    ) -> None:
        """Count one completion under ``outcome`` with its latency."""
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.latencies_ms.setdefault(outcome, []).append(latency_ms)
        self.samples.append(
            (time.monotonic() if at is None else at, outcome)
        )

    @property
    def ok(self) -> int:
        return (
            self.outcomes.get("ok", 0)
            + self.outcomes.get("ok_retry", 0)
            + self.outcomes.get("degraded", 0)
        )

    @property
    def rejected(self) -> int:
        return sum(
            n for label, n in self.outcomes.items()
            if label.startswith("rejected_") or label == "expired"
        )

    def unexpected_outcomes(self) -> list[str]:
        """Outcome labels beyond served, degraded and labelled load shed.

        ``error`` and ``lost`` land here: a stack under overload or
        faults may shed or degrade, never fail a request unlabelled.
        """
        allowed = {"ok", "ok_retry", "degraded", *REJECTION_LABELS}
        return sorted(set(self.outcomes) - allowed)

    def goodput(self) -> float:
        """Admitted-and-served requests per second."""
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    def percentile(self, outcome: str, q: float) -> float | None:
        """Exact ``q``-percentile latency of ``outcome`` completions."""
        return exact_percentile(self.latencies_ms.get(outcome, []), q)

    def to_dict(self) -> dict[str, Any]:
        """Summary as plain data (raw latency lists are left out)."""
        summary = {
            outcome: {
                "count": self.outcomes[outcome],
                "p50_ms": self.percentile(outcome, 0.50),
                "p95_ms": self.percentile(outcome, 0.95),
                "p99_ms": self.percentile(outcome, 0.99),
            }
            for outcome in sorted(self.outcomes)
        }
        return {
            "offered": self.offered,
            "duration_s": round(self.duration_s, 3),
            "wall_s": round(self.wall_s, 3),
            "goodput_rps": round(self.goodput(), 3),
            "ok": self.ok,
            "rejected": self.rejected,
            "wrong_results": len(self.wrong),
            "wrong_samples": self.wrong[:5],
            "error_samples": self.errors[:5],
            "outcomes": summary,
            "server_stats": self.server_stats,
        }


@dataclass(frozen=True)
class OpenLoopConfig:
    """Offered load: how hard, how long, who, and with what budget."""

    #: Offered load in requests/second — issued on schedule, not on
    #: completion.
    rate: float = 200.0
    duration_s: float = 2.0
    #: Per-request deadline budget (wall ms); None sends no deadline.
    deadline_ms: float | None = 250.0
    n_clients: int = 20
    zipf_s: float = 1.1
    seed: int = 17


def demo_request_factory(
    spec: Mapping[str, Any], query_fraction: float = 0.8
) -> RequestFactory:
    """Requests (and validators) for a demo stack, read off its spec.

    ``spec`` is what the serve side was built from
    (:func:`repro.service.spec.demo_spec`): the relation, its key
    count, the two view names and the range the views cover all come
    from it.  Queries split between tuple-view range reads (validated:
    every returned tuple's ``a`` lies inside the queried interval) and
    reads of the sum (validated: it is a number).  Updates rewrite the
    non-view attribute ``v`` of a random record (validated: the whole
    transaction applied).
    """
    relation = spec["relations"][0]["name"]
    key_count = len(spec["relations"][0]["records"])
    tuples_view, total_view = (view["name"] for view in spec["views"])
    view_bound = spec["views"][0]["predicate"]["hi"] + 1

    def tuples_validator(lo: int, hi: int) -> Callable[[Any], str | None]:
        def check(result: Any) -> str | None:
            tuples = decode_answer(result)[0] if isinstance(result, Mapping) else None
            if not isinstance(tuples, list):
                return f"{tuples_view}: expected a tuples answer, got {result!r}"
            for vt in tuples:
                a = vt.get("a")
                if a is None or not lo <= a <= hi:
                    return f"{tuples_view}: tuple a={a!r} outside [{lo}, {hi}]"
            return None
        return check

    def total_validator(result: Any) -> str | None:
        if not isinstance(result, Mapping) or result.get("kind") != "scalar":
            return f"{total_view}: expected a scalar answer, got {result!r}"
        value = result.get("value")
        if value is not None and not isinstance(value, (int, float)):
            return f"{total_view}: non-numeric sum {value!r}"
        return None

    def update_validator(n_ops: int) -> Callable[[Any], str | None]:
        def check(result: Any) -> str | None:
            if not isinstance(result, Mapping) or result.get("applied") != n_ops:
                return f"update: expected {n_ops} ops applied, got {result!r}"
            return None
        return check

    def factory(rng: random.Random) -> tuple[
        dict[str, Any], Callable[[Any], str | None] | None
    ]:
        roll = rng.random()
        if roll < query_fraction / 2:
            lo = rng.randrange(view_bound)
            hi = min(view_bound - 1, lo + rng.randrange(1, view_bound // 2 + 1))
            return (
                {"op": "query", "view": tuples_view, "lo": lo, "hi": hi},
                tuples_validator(lo, hi),
            )
        if roll < query_fraction:
            return (
                {"op": "query", "view": total_view, "lo": None, "hi": None},
                total_validator,
            )
        ops = [{
            "kind": "update",
            "key": rng.randrange(key_count),
            "changes": {"v": rng.randrange(10_000)},
        }]
        return (
            {"op": "update", "relation": relation, "ops": ops},
            update_validator(len(ops)),
        )

    return factory


async def _issue(
    conn: AsyncGatewayClient,
    doc: dict[str, Any],
    validator: Callable[[Any], str | None] | None,
    report: LoadReport,
) -> None:
    started = time.monotonic()
    try:
        reply = await conn.call(doc)
    except GatewayCallError as exc:
        report.record("lost", (time.monotonic() - started) * 1000.0)
        report.errors.append(f"lost: {exc}")
        return
    latency_ms = (time.monotonic() - started) * 1000.0
    if reply.ok:
        result = reply.result
        if isinstance(result, Mapping) and result.get("degraded"):
            outcome = "degraded"
        elif isinstance(result, Mapping) and result.get("retried"):
            outcome = "ok_retry"
        else:
            outcome = "ok"
        report.record(outcome, latency_ms)
        if validator is not None:
            problem = validator(result)
            if problem is not None:
                report.wrong.append(problem)
    elif reply.rejected is not None:
        report.record(reply.rejected, latency_ms)
    else:
        report.record("error", latency_ms)
        report.errors.append(f"{reply.kind}: {reply.error}")


async def _connect_population(
    host: str, port: int, names: tuple[str, ...]
) -> dict[str, AsyncGatewayClient]:
    conns: dict[str, AsyncGatewayClient] = {}
    for name in names:
        conns[name] = await AsyncGatewayClient(host, port, client=name).connect()
    return conns


async def _close_all(conns: dict[str, AsyncGatewayClient]) -> None:
    for conn in conns.values():
        await conn.close()


async def run_open_loop_async(
    host: str,
    port: int,
    config: OpenLoopConfig,
    factory: RequestFactory,
    fetch_stats: bool = True,
) -> LoadReport:
    """Drive ``rate`` req/s for ``duration_s`` seconds, open loop."""
    population = ZipfClientPopulation(
        config.n_clients, config.zipf_s, seed=config.seed
    )
    rng = random.Random(config.seed + 1)
    report = LoadReport()
    conns = await _connect_population(host, port, population.names)
    tasks: list[asyncio.Task[None]] = []
    total = max(1, int(config.rate * config.duration_s))
    start = time.monotonic()
    try:
        for i in range(total):
            due = start + i / config.rate
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            client = population.pick()
            doc, validator = factory(rng)
            doc["client"] = client
            if config.deadline_ms is not None:
                doc["deadline_ms"] = config.deadline_ms
            report.offered += 1
            tasks.append(
                asyncio.get_running_loop().create_task(
                    _issue(conns[client], doc, validator, report)
                )
            )
        await asyncio.gather(*tasks, return_exceptions=True)
        report.duration_s = total / config.rate
        report.wall_s = time.monotonic() - start
        if fetch_stats:
            async with AsyncGatewayClient(host, port, client="stats") as probe:
                report.server_stats = await probe.stats()
    finally:
        await _close_all(conns)
    return report


def run_open_loop(
    host: str,
    port: int,
    config: OpenLoopConfig,
    factory: RequestFactory,
    fetch_stats: bool = True,
) -> LoadReport:
    """Synchronous wrapper around :func:`run_open_loop_async`."""
    return asyncio.run(
        run_open_loop_async(host, port, config, factory, fetch_stats=fetch_stats)
    )


async def run_closed_loop_async(
    host: str,
    port: int,
    factory: RequestFactory,
    concurrency: int = 1,
    duration_s: float = 2.0,
    deadline_ms: float | None = None,
    seed: int = 29,
) -> LoadReport:
    """Closed-loop driver: each worker issues, awaits, repeats.

    This is the *saturation probe*: with enough workers to keep the
    gateway's own worker pool busy, its goodput is the throughput the
    backend can actually sustain — the denominator of the overload
    experiment's "goodput ≥ 80% of saturation" bar.
    """
    report = LoadReport()
    names = tuple(f"probe{i:02d}" for i in range(concurrency))
    conns = await _connect_population(host, port, names)
    start = time.monotonic()
    deadline = start + duration_s

    async def worker(name: str) -> None:
        rng = random.Random(seed + hash(name) % 1000)
        conn = conns[name]
        while time.monotonic() < deadline:
            doc, validator = factory(rng)
            doc["client"] = name
            if deadline_ms is not None:
                doc["deadline_ms"] = deadline_ms
            report.offered += 1
            await _issue(conn, doc, validator, report)

    try:
        await asyncio.gather(*(worker(name) for name in names))
        report.duration_s = time.monotonic() - start
        report.wall_s = report.duration_s
    finally:
        await _close_all(conns)
    return report


def run_closed_loop(
    host: str,
    port: int,
    factory: RequestFactory,
    concurrency: int = 1,
    duration_s: float = 2.0,
    deadline_ms: float | None = None,
    seed: int = 29,
) -> LoadReport:
    """Synchronous wrapper around :func:`run_closed_loop_async`."""
    return asyncio.run(run_closed_loop_async(
        host, port, factory, concurrency=concurrency, duration_s=duration_s,
        deadline_ms=deadline_ms, seed=seed,
    ))
