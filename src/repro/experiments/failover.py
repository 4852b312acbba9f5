"""``ext-failover``: killing shard primaries under live gateway load.

One replicated demo cluster (2 shards x 1 replica each, paced workers)
sits behind the network gateway with a health-checking supervisor
attached.  The experiment:

1. **saturation probe** — closed-loop clients measure the sustainable
   query rate ``S`` through a wide-open gateway;
2. **chaos phase** — an open-loop population offers ``0.8 x S`` while a
   dedicated writer thread commits paced updates through the router
   (journaling every acked write), and a seeded
   :class:`~repro.cluster.chaos.ChaosInjector` SIGKILLs one primary
   per shard at scheduled instants (plus a short SIGSTOP black-hole on
   a replica for flavor);
3. **quiesce** — after the storm the cluster is refreshed and compared
   *exactly* against an unsharded twin server that replayed the same
   acked-write journal.

The acceptance bar is the point of replication: **zero wrong answers**
ever (stale replica reads must carry a ``degraded`` staleness label,
never silently lie), failover restores non-degraded service within
**2 s** of each kill, at steady state after the last failover window
**>= 99%** of completions are full-fidelity (``ok``/``ok_retry``), the
writer never loses an acked write (twin equivalence), every killed
primary is both replaced by promotion and backfilled by a respawned
replica, and ``close()`` leaves no orphan worker processes behind.

``python -m repro.experiments.failover --json out.json`` writes the
phases, per-kill failover latencies and the journal/twin verdict as
JSON; CI's ``failover-chaos-smoke`` job runs ``--reduced`` (one kill,
shorter windows) and uploads the document as an artifact.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.chaos import ChaosInjector
from repro.cluster.harness import (
    DOMAIN,
    demo_spec,
    launch_demo,
    live_worker_pids,
)
from repro.cluster.replication import ReplicationConfig
from repro.cluster.rpc import ShardTimeout
from repro.engine.transaction import Transaction, Update
from repro.gateway import (
    AdmissionConfig,
    ClusterBackend,
    GatewayConfig,
    GatewayHandle,
)
from repro.resilience.degradation import DegradedResult
from repro.service.spec import build_server
from repro.workload.clients import (
    LoadReport,
    OpenLoopConfig,
    demo_request_factory,
    exact_percentile,
    run_closed_loop,
    run_open_loop,
)
from .acceptance import acceptance_main, fmt_ms
from .series import TableData

__all__ = [
    "FailoverRun",
    "run_failover",
    "check_acceptance",
    "failover_table",
    "main",
]

#: Wall seconds per modelled millisecond inside each shard worker.
PACING = 2e-4
N_SHARDS = 2
REPLICAS = 1
N_RECORDS = 480
WORKERS = 4
#: Per-request deadline budget during the chaos phase (wall ms).
DEADLINE_MS = 1000.0
#: Offered open-loop rate as a fraction of measured saturation: below
#: the knee, so every non-ok completion is attributable to the faults,
#: not to overload.
LOAD_FRACTION = 0.8
#: A failover must restore non-degraded service within this window.
FAILOVER_WINDOW_S = 2.0
#: Paced writer period: one single-op transaction per tick.
WRITE_PERIOD_S = 0.025

#: Fast-detection supervision so a kill is noticed in a few hundred ms.
CHAOS_REPLICATION = ReplicationConfig(
    replicas=REPLICAS,
    heartbeat_interval_s=0.1,
    heartbeat_timeout_s=0.4,
    suspect_after=1,
    dead_after=2,
    respawn=True,
)

_SERVED = ("ok", "ok_retry")


class _PacedWriter(threading.Thread):
    """Single-threaded update stream with an acked-write journal.

    Runs beside the open-loop query load and writes *through the
    router* (the path replication guards), journaling ``(key, value)``
    only after the ack returns — so the journal is exactly the set of
    writes the cluster promised to keep, in commit order, and an
    unsharded twin replaying it must reach the identical state.
    ``ShardTimeout`` acks nothing (the commit is ambiguous by
    definition) and is tallied separately; with kill-only faults it
    should never fire.
    """

    def __init__(
        self, router: Any, n_records: int, period_s: float, seed: int
    ) -> None:
        super().__init__(name="failover-writer", daemon=True)
        self.router = router
        self.n_records = n_records
        self.period_s = period_s
        self.seed = seed
        self.journal: list[tuple[int, int]] = []
        self.ambiguous: list[tuple[int, int]] = []
        self.failures: list[str] = []
        self.latencies_ms: list[float] = []
        self._halt = threading.Event()

    def run(self) -> None:
        rng = random.Random(self.seed)
        step = 0
        while not self._halt.is_set():
            key = rng.randrange(self.n_records)
            value = 100_000 + step  # unique per step: replay is auditable
            txn = Transaction.of("r", [Update(key, {"v": value})])
            started = time.monotonic()
            try:
                self.router.apply_update(txn, client="writer")
            except ShardTimeout:
                self.ambiguous.append((key, value))
            except Exception as exc:  # surfaced via acceptance, not raised
                self.failures.append(f"{type(exc).__name__}: {exc}")
            else:
                self.journal.append((key, value))
            self.latencies_ms.append((time.monotonic() - started) * 1000.0)
            step += 1
            self._halt.wait(self.period_s)

    def stop(self) -> None:
        self._halt.set()


@dataclass
class FailoverRun:
    """Everything the chaos phase measured."""

    saturation_rps: float
    offered_rate: float
    deadline_ms: float
    load: LoadReport
    #: Chaos schedule as executed: the injector's event log.
    chaos_events: list[dict[str, Any]]
    #: Per-kill ``{"shard", "at_s", "failover_ms", ...}`` records.
    kills: list[dict[str, Any]]
    #: Full-fidelity fraction after the last failover window closed.
    steady_served_fraction: float
    steady_samples: int
    writer_acked: int
    writer_ambiguous: int
    writer_failures: list[str]
    writer_p99_ms: float | None
    writer_max_ms: float | None
    #: Post-quiesce equivalence vs the unsharded journal-replay twin.
    quiesce_match: bool
    quiesce_detail: str
    #: Per-shard promotion/respawn counters after the storm.
    shard_counters: list[dict[str, int]]
    #: Worker pids alive after close() — must be empty (no orphans).
    orphans: list[int] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "saturation_rps": round(self.saturation_rps, 3),
            "offered_rate": round(self.offered_rate, 3),
            "deadline_ms": self.deadline_ms,
            "load": self.load.to_dict(),
            "chaos_events": self.chaos_events,
            "kills": self.kills,
            "steady_served_fraction": round(self.steady_served_fraction, 5),
            "steady_samples": self.steady_samples,
            "writer_acked": self.writer_acked,
            "writer_ambiguous": self.writer_ambiguous,
            "writer_failures": self.writer_failures[:5],
            "writer_p99_ms": self.writer_p99_ms,
            "writer_max_ms": self.writer_max_ms,
            "quiesce_match": self.quiesce_match,
            "quiesce_detail": self.quiesce_detail,
            "shard_counters": self.shard_counters,
            "orphans": self.orphans,
        }


def _tuples_of(answer: Any) -> list[dict[str, Any]] | None:
    if isinstance(answer, DegradedResult):
        return None
    return sorted(
        (dict(vt.values) for vt in answer), key=lambda d: d["id"]
    )


def _twin_verdict(
    journal: list[tuple[int, int]], router: Any, seed: int, strategy: str
) -> tuple[bool, str]:
    """Replay the acked journal on an unsharded twin and compare exactly."""
    router.refresh_epoch()
    cluster_tuples = _tuples_of(
        router.query("by_a", 0, DOMAIN - 1, client="oracle")
    )
    cluster_total = router.query("total", None, None, client="oracle")
    if cluster_tuples is None or isinstance(cluster_total, DegradedResult):
        return False, "cluster still degraded after refresh_epoch"

    twin = build_server(
        demo_spec(n_records=N_RECORDS, strategy=strategy, seed=seed)
    )
    try:
        for key, value in journal:
            twin.apply_update(
                Transaction.of("r", [Update(key, {"v": value})]),
                client="twin",
            )
        twin.refresh_all_stale()
        twin_tuples = _tuples_of(twin.query("by_a", 0, DOMAIN - 1, client="twin"))
        twin_total = twin.query("total", None, None, client="twin")
    finally:
        twin.shutdown()
    if cluster_total != twin_total:
        return False, f"total: cluster={cluster_total!r} twin={twin_total!r}"
    if cluster_tuples != twin_tuples:
        diff = [
            (c, t) for c, t in zip(cluster_tuples, twin_tuples) if c != t
        ][:3]
        return False, (
            f"by_a diverges on {sum(1 for c, t in zip(cluster_tuples, twin_tuples) if c != t)}"
            f"/{len(twin_tuples)} tuples, e.g. {diff}"
        )
    return True, (
        f"total={cluster_total!r}, {len(cluster_tuples)} tuples identical "
        f"after replaying {len(journal)} acked writes"
    )


def _kill_records(
    events: list[dict[str, Any]],
    chaos_t0: float,
    samples: list[tuple[float, str]],
    window_s: float,
) -> list[dict[str, Any]]:
    """Per-kill failover latency from the completion sample stream.

    Failover latency is the time from the kill instant to the *last*
    non-full-fidelity completion inside the window (service kept
    wobbling that long), or to the first served completion when the
    wobble never shows up at this sampling rate.
    """
    records = []
    for event in events:
        if event["action"] != "kill":
            continue
        t_kill = chaos_t0 + event["t"]
        in_window = [
            (t - t_kill, outcome)
            for t, outcome in samples
            if t_kill <= t < t_kill + window_s
        ]
        bad = [dt for dt, outcome in in_window if outcome not in _SERVED]
        served = [dt for dt, outcome in in_window if outcome in _SERVED]
        if bad:
            failover_ms = max(bad) * 1000.0
        elif served:
            failover_ms = min(served) * 1000.0
        else:
            failover_ms = None  # no traffic completed in the window at all
        records.append({
            "shard": event["shard"],
            "member": event["member"],
            "at_s": round(event["t"], 3),
            "failover_ms": (
                round(failover_ms, 1) if failover_ms is not None else None
            ),
            "window_samples": len(in_window),
            "window_disrupted": len(bad),
        })
    return records


def run_failover(
    duration_s: float = 6.0,
    probe_s: float = 1.5,
    seed: int = 11,
    reduced: bool = False,
    strategy: str = "deferred",
) -> FailoverRun:
    if reduced:
        duration_s = min(duration_s, 3.5)
        probe_s = min(probe_s, 1.0)
    router = launch_demo(
        N_SHARDS,
        strategy=strategy,
        pacing=PACING,
        n_records=N_RECORDS,
        seed=seed,
        rpc_timeout=10.0,
        replication=CHAOS_REPLICATION,
        supervise=True,
    )
    factory = demo_request_factory(
        demo_spec(n_records=N_RECORDS, seed=seed), query_fraction=1.0
    )
    config = GatewayConfig(
        admission=AdmissionConfig(max_queue=256, client_concurrency=None),
        workers=WORKERS,
    )
    worker_pids: list[int] = []
    try:
        with GatewayHandle.launch(ClusterBackend(router), config) as handle:
            # The writer runs through the probe too, so the measured
            # saturation already pays for write application, delta
            # shipping and supervision — otherwise the chaos phase
            # would be quietly oversubscribed.
            writer = _PacedWriter(
                router, N_RECORDS, WRITE_PERIOD_S, seed=seed + 2
            )
            writer.start()
            saturation = run_closed_loop(
                handle.host, handle.port, factory,
                concurrency=WORKERS, duration_s=probe_s, seed=seed + 1,
            )
            sat_rps = max(saturation.goodput(), 1.0)
            offered = LOAD_FRACTION * sat_rps

            chaos_t0 = time.monotonic()
            with ChaosInjector(router, seed=seed + 3) as injector:
                # One primary kill per shard, spaced out; plus a brief
                # replica black-hole (full mode) so SIGSTOP detection
                # runs under the same load.
                injector.at(1.0, injector.kill_primary, 0)
                if not reduced:
                    injector.at(2.2, injector.kill_primary, 1)

                    def _blackhole_replica() -> None:
                        replicas = router.shards[0].live_replicas()
                        if replicas:
                            injector.delay(replicas[0], 0.3)

                    injector.at(2.8, _blackhole_replica)
                try:
                    load = run_open_loop(
                        handle.host, handle.port,
                        OpenLoopConfig(
                            rate=offered, duration_s=duration_s,
                            deadline_ms=DEADLINE_MS, seed=seed + 4,
                        ),
                        factory,
                    )
                finally:
                    writer.stop()
                    writer.join(timeout=30.0)
                events = list(injector.events)

            kills = _kill_records(
                events, chaos_t0, load.samples, FAILOVER_WINDOW_S
            )
            last_kill_end = max(
                (chaos_t0 + e["t"] + FAILOVER_WINDOW_S
                 for e in events if e["action"] == "kill"),
                default=chaos_t0,
            )
            steady = [
                outcome for t, outcome in load.samples if t >= last_kill_end
            ]
            steady_served = (
                sum(1 for outcome in steady if outcome in _SERVED) / len(steady)
                if steady else 0.0
            )

            quiesce_match, quiesce_detail = _twin_verdict(
                writer.journal, router, seed, strategy
            )
            shard_counters = [
                {
                    "shard": rs.shard_id,
                    "promotions": rs.promotions_total,
                    "respawns": rs.respawns_total,
                    "repairs": rs.repairs_total,
                    "live_members": len(rs.live_members()),
                }
                for rs in router.shards
            ]
            worker_pids = live_worker_pids(router)
    finally:
        router.close()

    orphans = []
    for pid in worker_pids:
        try:
            os.kill(pid, 0)
        except (ProcessLookupError, PermissionError):
            continue
        orphans.append(pid)

    return FailoverRun(
        saturation_rps=sat_rps,
        offered_rate=offered,
        deadline_ms=DEADLINE_MS,
        load=load,
        chaos_events=events,
        kills=kills,
        steady_served_fraction=steady_served,
        steady_samples=len(steady),
        writer_acked=len(writer.journal),
        writer_ambiguous=len(writer.ambiguous),
        writer_failures=writer.failures,
        writer_p99_ms=exact_percentile(writer.latencies_ms, 0.99),
        writer_max_ms=max(writer.latencies_ms) if writer.latencies_ms else None,
        quiesce_match=quiesce_match,
        quiesce_detail=quiesce_detail,
        shard_counters=shard_counters,
        orphans=orphans,
    )


def check_acceptance(run: FailoverRun) -> list[str]:
    """The failover bar; returns human-readable violations (empty = pass)."""
    violations: list[str] = []
    report = run.load

    if report.wrong:
        violations.append(
            f"{len(report.wrong)} wrong results, e.g. {report.wrong[0]}"
        )
    unknown = report.unexpected_outcomes()
    if unknown:
        violations.append(
            f"unexpected outcome labels: {unknown} "
            "(a kill must surface as retry/degraded/rejection, never error)"
        )
    if not run.kills:
        violations.append("chaos phase recorded no kills — nothing was tested")
    for kill in run.kills:
        if kill["failover_ms"] is None:
            violations.append(
                f"no completions at all within {FAILOVER_WINDOW_S:.0f}s of "
                f"the shard {kill['shard']} kill"
            )
        elif kill["failover_ms"] > FAILOVER_WINDOW_S * 1000.0:
            violations.append(
                f"shard {kill['shard']} failover took "
                f"{kill['failover_ms']:.0f} ms (bar: < "
                f"{FAILOVER_WINDOW_S * 1000:.0f} ms)"
            )
    if run.steady_samples == 0:
        violations.append("no completions after the last failover window")
    elif run.steady_served_fraction < 0.99:
        violations.append(
            f"steady-state full-fidelity fraction "
            f"{run.steady_served_fraction:.1%} (bar: >= 99%)"
        )
    if run.writer_failures:
        violations.append(
            f"{len(run.writer_failures)} writer errors, e.g. "
            f"{run.writer_failures[0]} — primary kills must be transparent "
            "to acked writes"
        )
    if run.writer_ambiguous:
        violations.append(
            f"{run.writer_ambiguous} ambiguous (timed out) writes under "
            "kill-only faults"
        )
    if run.writer_max_ms is not None and (
        run.writer_max_ms > FAILOVER_WINDOW_S * 1000.0
    ):
        violations.append(
            f"slowest write took {run.writer_max_ms:.0f} ms (bar: < "
            f"{FAILOVER_WINDOW_S * 1000:.0f} ms including failover)"
        )
    if not run.quiesce_match:
        violations.append(f"post-quiesce twin mismatch: {run.quiesce_detail}")
    killed_shards = {kill["shard"] for kill in run.kills}
    for counters in run.shard_counters:
        if counters["shard"] in killed_shards:
            if counters["promotions"] < 1:
                violations.append(
                    f"shard {counters['shard']} lost its primary but "
                    "recorded no promotion"
                )
            if counters["respawns"] < 1:
                violations.append(
                    f"shard {counters['shard']} never respawned a "
                    "replacement replica"
                )
        if counters["live_members"] != 1 + REPLICAS:
            violations.append(
                f"shard {counters['shard']} ended with "
                f"{counters['live_members']} live members "
                f"(want {1 + REPLICAS})"
            )
    if run.orphans:
        violations.append(
            f"worker pids survived close(): {run.orphans}"
        )
    return violations


def failover_table(run: FailoverRun | None = None) -> TableData:
    """The ``ext-failover`` artifact: one row per injected kill."""
    if run is None:
        run = run_failover()
    rows = []
    for kill in run.kills:
        counters = next(
            (c for c in run.shard_counters if c["shard"] == kill["shard"]),
            {},
        )
        rows.append((
            f"kill primary s{kill['shard']}",
            f"{kill['at_s']:.1f}",
            fmt_ms(kill["failover_ms"]),
            kill["window_samples"],
            kill["window_disrupted"],
            counters.get("promotions", 0),
            counters.get("respawns", 0),
            f"{run.steady_served_fraction:.1%}",
            len(run.load.wrong),
        ))
    return TableData(
        table_id="ext-failover",
        title="Primary kills under load: failover latency and fidelity",
        columns=(
            "fault", "at s", "failover ms", "window n", "disrupted",
            "promotions", "respawns", "steady ok", "wrong",
        ),
        rows=tuple(rows),
        notes=(
            f"Open-loop query load at {LOAD_FRACTION:.0%} of measured "
            f"saturation ({run.offered_rate:.0f} of {run.saturation_rps:.0f} "
            "rps) through the gateway while a paced writer commits through "
            "the router; a seeded chaos injector SIGKILLs one primary per "
            "shard. Reads fail over to the most-caught-up replica within "
            "the request deadline (stale replica answers carry a bounded "
            "staleness label), writes promote inline and replay the "
            "retained delta log, and the supervisor respawns replacement "
            f"replicas. Bars: failover < {FAILOVER_WINDOW_S:.0f} s, >= 99% "
            "full-fidelity at steady state, zero wrong answers, exact "
            f"post-quiesce equivalence vs an unsharded twin replaying all "
            f"{run.writer_acked} acked writes "
            f"({'held' if run.quiesce_match else 'FAILED'})."
        ),
    )


def _add_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--duration", dest="duration_s", type=float, default=6.0,
                        help="open-loop chaos window in seconds")
    parser.add_argument("--probe", dest="probe_s", type=float, default=1.5,
                        help="closed-loop saturation probe window in seconds")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--reduced", action="store_true",
                        help="CI smoke mode: one kill, shorter windows")


def main(argv: list[str] | None = None) -> int:
    return acceptance_main(
        argv, "ext-failover: primary kills under live gateway load",
        _add_args, run_failover, failover_table,
        to_doc=lambda run: {"run": run.to_dict()}, check=check_acceptance,
    )


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())
