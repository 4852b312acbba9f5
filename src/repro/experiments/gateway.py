"""``ext-gateway``: overload behaviour of the network front door.

Three phases against one live gateway-fronted demo server (paced so
the saturation point is hardware-independent):

1. **single probe** — one closed-loop client measures the no-queueing
   service rate;
2. **saturation probe** — as many closed-loop clients as the gateway
   has workers measure the sustainable throughput ``S`` through a
   wide-open gateway (no rate limit, deep queue);
3. **overload** — the gateway is relaunched *tuned* (global token
   bucket at ``S``, small burst, short bounded queue, default deadline)
   and an open-loop Zipf population offers ``2×S``.

The acceptance bar is the point of admission control: under 2× offered
load the tuned gateway must keep goodput at ≥80% of saturation (load
is shed by labeled rejection, not by collapse), keep the p99 of
*admitted* requests bounded by the deadline budget, never let the
ingress queue exceed its cap, and serve **zero wrong results** — every
admitted answer passes its invariant validator during the storm, and
after quiescing the gateway-served aggregate equals the engine's own
answer exactly.

``python -m repro.experiments.gateway --json out.json`` writes the
phases, per-outcome latency summaries and rejection counts as JSON;
CI's ``gateway-overload-smoke`` job uploads it as an artifact.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from dataclasses import dataclass
from typing import Any

from repro.gateway import (
    AdmissionConfig,
    GatewayConfig,
    GatewayHandle,
    ViewServerBackend,
    call_once,
)
from repro.service.metrics import MetricsRegistry
from repro.service.traffic import demo_server
from repro.workload.clients import (
    LoadReport,
    OpenLoopConfig,
    demo_request_factory,
    run_closed_loop,
    run_open_loop,
)
from .acceptance import acceptance_main, fmt_ms
from .series import TableData

__all__ = [
    "GatewayOverloadRun",
    "run_overload",
    "check_acceptance",
    "gateway_table",
    "main",
]

#: Wall seconds per modelled millisecond: pins the demo's saturation
#: point to the cost model instead of to the host's CPU.
PACING = 2e-4
WORKERS = 4
#: Per-request deadline budget for the overload phase (wall ms).
DEADLINE_MS = 600.0
#: Tuned admission: rate at measured saturation, small burst so bursts
#: cannot swamp the queue, queue short enough that a queued request can
#: still meet its deadline (cap / S << deadline).
QUEUE_CAP = 16
GLOBAL_BURST = 8
CLIENT_CONCURRENCY = 64


@dataclass
class GatewayOverloadRun:
    """Everything the three phases measured."""

    single_client_rps: float
    saturation_rps: float
    offered_rate: float
    deadline_ms: float
    single: LoadReport
    saturation: LoadReport
    overload: LoadReport
    #: Post-quiesce equivalence: gateway-served v_total == engine's own.
    quiesce_match: bool
    quiesce_detail: str
    #: p50/p95/p99 per outcome from the gateway's exported metrics.
    metrics_summary: dict[str, dict[str, float | None]]

    def goodput_ratio(self) -> float:
        if self.saturation_rps <= 0:
            return 0.0
        return self.overload.goodput() / self.saturation_rps

    def to_dict(self) -> dict[str, Any]:
        return {
            "single_client_rps": round(self.single_client_rps, 3),
            "saturation_rps": round(self.saturation_rps, 3),
            "offered_rate": round(self.offered_rate, 3),
            "deadline_ms": self.deadline_ms,
            "goodput_ratio": round(self.goodput_ratio(), 4),
            "single": self.single.to_dict(),
            "saturation": self.saturation.to_dict(),
            "overload": self.overload.to_dict(),
            "quiesce_match": self.quiesce_match,
            "quiesce_detail": self.quiesce_detail,
            "metrics_summary": self.metrics_summary,
        }


def _call(host: str, port: int, doc: dict[str, Any]) -> Any:
    return asyncio.run(call_once(host, port, doc))


def _metrics_summary(export: dict[str, Any]) -> dict[str, dict[str, float | None]]:
    """Per-outcome latency summaries from the gateway's metrics export."""
    return {
        dict(hist.labels).get("outcome", ""): {
            "count": hist.count,
            "p50_ms": hist.quantile(0.50),
            "p95_ms": hist.quantile(0.95),
            "p99_ms": hist.quantile(0.99),
        }
        for hist in MetricsRegistry.from_dict(export).series("gateway_request_ms")
    }


def run_overload(
    duration_s: float = 2.0,
    probe_s: float = 1.5,
    seed: int = 7,
) -> GatewayOverloadRun:
    demo = demo_server(seed=seed, pacing=PACING)
    backend = ViewServerBackend(demo.server)
    factory = demo_request_factory(demo.spec)

    # Phases 1–2: saturation probes through a wide-open gateway.
    probe_cfg = GatewayConfig(
        admission=AdmissionConfig(max_queue=64, client_concurrency=None),
        workers=WORKERS,
    )
    with GatewayHandle.launch(backend, probe_cfg) as handle:
        single = run_closed_loop(
            handle.host, handle.port, factory,
            concurrency=1, duration_s=probe_s, seed=seed + 1,
        )
        saturation = run_closed_loop(
            handle.host, handle.port, factory,
            concurrency=WORKERS, duration_s=probe_s, seed=seed + 2,
        )
    sat_rps = max(saturation.goodput(), single.goodput())

    # Phase 3: tuned gateway, 2× saturation offered open-loop.
    tuned = GatewayConfig(
        admission=AdmissionConfig(
            global_rate=sat_rps,
            global_burst=GLOBAL_BURST,
            max_queue=QUEUE_CAP,
            client_concurrency=CLIENT_CONCURRENCY,
            default_deadline_ms=DEADLINE_MS,
        ),
        workers=WORKERS,
    )
    offered = 2.0 * sat_rps
    with GatewayHandle.launch(backend, tuned) as handle:
        overload = run_open_loop(
            handle.host, handle.port,
            OpenLoopConfig(
                rate=offered, duration_s=duration_s,
                deadline_ms=DEADLINE_MS, seed=seed + 3,
            ),
            factory,
        )

        # Quiesce: refresh everything, then the gateway and the engine
        # must agree exactly on the aggregate — the wire path added or
        # lost nothing.
        demo.server.refresh_all_stale()
        direct = demo.server.query("v_total", None, None, client="oracle")
        reply = _call(handle.host, handle.port, {
            "op": "query", "view": "v_total", "lo": None, "hi": None,
            "client": "oracle",
        })
        if reply.ok:
            served, degraded = reply.answer()
            quiesce_match = served == direct and degraded is None
            quiesce_detail = f"gateway={served!r} engine={direct!r}"
        else:
            quiesce_match = False
            quiesce_detail = f"quiesce query failed: {reply.doc}"

        export = _call(handle.host, handle.port, {"op": "metrics"})
        metrics_summary = _metrics_summary(export.result["gateway"])

    return GatewayOverloadRun(
        single_client_rps=single.goodput(),
        saturation_rps=sat_rps,
        offered_rate=offered,
        deadline_ms=DEADLINE_MS,
        single=single,
        saturation=saturation,
        overload=overload,
        quiesce_match=quiesce_match,
        quiesce_detail=quiesce_detail,
        metrics_summary=metrics_summary,
    )


def check_acceptance(run: GatewayOverloadRun) -> list[str]:
    """The overload bar; returns human-readable violations (empty = pass)."""
    violations: list[str] = []
    report = run.overload

    ratio = run.goodput_ratio()
    if ratio < 0.8:
        violations.append(
            f"goodput {report.goodput():.1f} rps is {ratio:.0%} of "
            f"saturation {run.saturation_rps:.1f} rps (bar: >= 80%)"
        )
    p99 = report.percentile("ok", 0.99)
    bound = run.deadline_ms * 1.5
    if p99 is None:
        violations.append("no admitted requests completed — p99 undefined")
    elif p99 > bound:
        violations.append(
            f"p99 of admitted requests {p99:.0f} ms exceeds "
            f"{bound:.0f} ms (1.5x the {run.deadline_ms:.0f} ms deadline)"
        )
    if report.wrong:
        violations.append(
            f"{len(report.wrong)} wrong results, e.g. {report.wrong[0]}"
        )
    if not run.quiesce_match:
        violations.append(f"post-quiesce mismatch: {run.quiesce_detail}")

    stats = report.server_stats or {}
    queue = stats.get("queue", {})
    if not queue:
        violations.append("overload report carries no gateway queue stats")
    elif queue["peak"] > queue["cap"]:
        violations.append(
            f"ingress queue peaked at {queue['peak']} above its cap "
            f"{queue['cap']}"
        )
    if report.rejected == 0:
        violations.append(
            "2x offered load produced no labeled rejections — admission "
            "control never engaged"
        )
    unknown = report.unexpected_outcomes()
    if unknown:
        violations.append(f"unexpected outcome labels: {unknown}")

    ok_summary = run.metrics_summary.get("ok", {})
    for field in ("p50_ms", "p95_ms", "p99_ms"):
        if not isinstance(ok_summary.get(field), (int, float)):
            violations.append(
                f"gateway metrics export lacks {field} for outcome 'ok'"
            )
    return violations


def gateway_table(run: GatewayOverloadRun | None = None) -> TableData:
    """The ``ext-gateway`` artifact: the three phases side by side."""
    if run is None:
        run = run_overload()

    def row(phase: str, rate: float, report: LoadReport) -> tuple:
        return (
            phase,
            f"{rate:.0f}",
            f"{report.goodput():.1f}",
            report.ok,
            report.rejected,
            report.outcomes.get("expired", 0),
            fmt_ms(report.percentile("ok", 0.50)),
            fmt_ms(report.percentile("ok", 0.95)),
            fmt_ms(report.percentile("ok", 0.99)),
            len(report.wrong),
        )

    rows = (
        row("single (closed)", run.single.goodput(), run.single),
        row("saturation (closed)", run.saturation_rps, run.saturation),
        row("2x overload (open)", run.offered_rate, run.overload),
    )
    return TableData(
        table_id="ext-gateway",
        title="Gateway goodput and admitted-request latency under overload",
        columns=(
            "phase", "offered rps", "goodput rps", "ok", "rejected",
            "expired", "p50 ms", "p95 ms", "p99 ms", "wrong",
        ),
        rows=rows,
        notes=(
            "Closed-loop probes measure the paced demo server's "
            "saturation through a wide-open gateway; the overload phase "
            "offers twice that rate open-loop (requests issued on "
            "schedule regardless of completions) from a Zipf client "
            "population, against a gateway tuned with its global token "
            "bucket at the measured saturation rate. Excess load must "
            "surface as labeled rejections while goodput holds >= 80% "
            "of saturation, admitted p99 stays within 1.5x the deadline "
            "budget, the bounded ingress queue never exceeds its cap, "
            "and zero answers violate their invariants (plus an exact "
            "post-quiesce equivalence check against the engine)."
        ),
    )


def _add_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--duration", dest="duration_s", type=float, default=2.0,
                        help="open-loop overload window in seconds")
    parser.add_argument("--probe", dest="probe_s", type=float, default=1.5,
                        help="closed-loop saturation probe window in seconds")
    parser.add_argument("--seed", type=int, default=7)


def main(argv: list[str] | None = None) -> int:
    return acceptance_main(
        argv, "ext-gateway: overload behaviour of the network front door",
        _add_args, run_overload, gateway_table,
        to_doc=lambda run: {"run": run.to_dict()}, check=check_acceptance,
    )


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())
