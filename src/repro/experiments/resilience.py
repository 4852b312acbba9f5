"""``ext-resilience``: availability and correctness under storage faults.

The chaos experiment for the resilience stack.  For every fault
profile × strategy cell, three servers replay the *same* seeded
request stream:

* **oracle** — a clean twin (no faults); its answers are ground truth.
* **baseline** — faults armed with no resilience layer: no checksum
  verification, no retries, no breakers, no degraded serving.  This is
  what silent storage rot does to a naive server: transient errors
  kill requests outright and torn/bit-flipped pages are served as if
  they were fine.
* **resilient** — the full stack (checksums verified on every read,
  retry + breakers, degradation ladder, background repair, WAL-backed
  recovery for base damage).

Three numbers decide the claim, per cell:

* **availability** — answered queries / issued queries, where a
  labeled :class:`~repro.resilience.degradation.DegradedResult` counts
  as answered (that is the point of the ladder);
* **wrong answers** — answers that differ from the oracle *without*
  being labeled degraded.  A stale read may diverge — it says so, and
  bounds how far; an unlabeled divergence is silent corruption;
* **overhead** — modelled milliseconds (CostMeter-priced, including
  repair and recovery work) relative to the clean oracle run.

``main()`` asserts the acceptance bar: every resilient cell serves
zero wrong answers at >= 99% availability, and every baseline cell
demonstrably loses requests, loses updates, or serves corrupt pages.

``python -m repro.experiments.resilience --json out.json`` writes the
matrix as JSON; CI uploads it as the ``ext-resilience`` artifact.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from dataclasses import asdict, dataclass
from typing import Any

from repro.core.strategies import Strategy
from repro.resilience.degradation import DegradedResult
from repro.resilience.faults import fault_profile
from repro.resilience.policy import ResilienceConfig, RetryPolicy
from repro.service.traffic import (
    PhaseSpec,
    Request,
    ServiceDemo,
    demo_server,
    drifting_traffic,
    run_traffic,
)
from .acceptance import acceptance_main
from .series import TableData

__all__ = [
    "ResilienceRun",
    "run_resilience_cell",
    "run_resilience_matrix",
    "resilience_table",
    "check_acceptance",
    "main",
]

PROFILES = ("transient", "torn", "bitrot", "mixed")
STRATEGIES = (Strategy.DEFERRED, Strategy.IMMEDIATE, Strategy.QM_CLUSTERED)

#: Matrix sizing — small enough for CI, hot enough that every profile
#: actually injects (rates × operations >> 1).
N_TUPLES = 400
DOMAIN = 300
VIEW_BOUND = 60
PHASES = (PhaseSpec(operations=150, update_probability=0.3, batch_size=4),)

#: The resilient arm's policy: deep retries so the transient profile's
#: per-op fault rates almost never exhaust (0.05^6 per guarded read).
RESILIENCE = ResilienceConfig(retry=RetryPolicy(max_attempts=6))


@dataclass(frozen=True)
class ResilienceRun:
    """One (profile, strategy, arm) cell of the chaos matrix."""

    profile: str
    strategy: str
    arm: str  # "oracle" | "baseline" | "resilient"
    queries: int
    answered: int
    #: Labeled degraded answers (subset of ``answered``).
    degraded: int
    #: Oracle-divergent answers NOT labeled degraded (silent corruption).
    wrong: int
    #: Labeled degraded answers that also diverged (bounded staleness).
    degraded_divergent: int
    updates: int
    lost_updates: int
    faults_injected: int
    modelled_ms: float

    @property
    def availability(self) -> float:
        return self.answered / self.queries if self.queries else 1.0


def _normalize(answer: Any) -> Any:
    """Comparable shape for an answer (tuple list -> sorted identities)."""
    if isinstance(answer, list):
        return sorted(
            vt.identity() if hasattr(vt, "identity") else vt for vt in answer
        )
    return answer


def _build_demo(
    profile_name: str | None, strategy: Strategy, resilient: bool,
    state_dir: str | None = None,
) -> ServiceDemo:
    profile = fault_profile(profile_name) if profile_name else None
    return demo_server(
        n_tuples=N_TUPLES,
        domain=DOMAIN,
        view_bound=VIEW_BOUND,
        strategy=strategy,
        adaptive=False,
        fault_profile=profile,
        resilience=RESILIENCE if resilient else None,
        state_dir=state_dir,
        checkpoint_every=40 if state_dir is not None else None,
    )


def _drive(
    demo: ServiceDemo, requests: list[Request], oracle_answers: list[Any] | None
) -> tuple[dict[str, Any], list[Any]]:
    """Replay one stream; compare each answer against the oracle's.

    Returns ``(stats dict, answers list)``.  ``oracle_answers is None``
    means this *is* the oracle run — record, don't compare.
    """
    server = demo.server
    params = server.params
    stats = {
        "queries": 0, "answered": 0, "degraded": 0, "wrong": 0,
        "degraded_divergent": 0, "updates": 0, "lost_updates": 0,
        "modelled_ms": 0.0,
    }
    answers: list[Any] = []
    meter = server.database.meter
    before = meter.snapshot()

    def on_result(request: Request, answer: Any, error: Exception | None) -> None:
        nonlocal meter, before
        if request.kind == "update":
            stats["updates"] += 1
            if error is not None:
                # The baseline has no recovery: the transaction is
                # simply gone (and may leave partial state behind).
                stats["lost_updates"] += 1
        else:
            if error is None:
                stats["answered"] += 1
                is_degraded = isinstance(answer, DegradedResult)
                norm = _normalize(answer.unwrap() if is_degraded else answer)
                if oracle_answers is None:
                    answers.append(norm)
                else:
                    matches = norm == oracle_answers[stats["queries"]]
                    if is_degraded:
                        stats["degraded"] += 1
                        if not matches:
                            stats["degraded_divergent"] += 1
                    elif not matches:
                        stats["wrong"] += 1
            stats["queries"] += 1
        # The engine may have been swapped by WAL recovery mid-request;
        # the fresh meter then carries the replay + post-swap cost.
        after_meter = server.database.meter
        if after_meter is meter:
            stats["modelled_ms"] += meter.diff(before).milliseconds(params)
        else:
            stats["modelled_ms"] += after_meter.milliseconds(params)
        meter, before = after_meter, after_meter.snapshot()

    run_traffic(server, requests, on_result=on_result)
    return stats, answers


def run_resilience_cell(
    profile_name: str, strategy: Strategy
) -> tuple[ResilienceRun, ResilienceRun, ResilienceRun]:
    """(oracle, baseline, resilient) runs over one identical stream."""
    oracle_demo = _build_demo(None, strategy, resilient=False)
    requests = drifting_traffic(oracle_demo, PHASES, seed=13)
    oracle_stats, oracle_answers = _drive(oracle_demo, requests, None)

    baseline_demo = _build_demo(profile_name, strategy, resilient=False)
    baseline_stats, _ = _drive(baseline_demo, requests, oracle_answers)

    with tempfile.TemporaryDirectory(prefix="repro-ext-resilience-") as tmp:
        # Journaled behind a baseline checkpoint of the clean bootstrap:
        # the faults arm only after it.
        resilient_demo = _build_demo(
            profile_name, strategy, resilient=True, state_dir=tmp
        )
        resilient_stats, _ = _drive(resilient_demo, requests, oracle_answers)
        resilient_faults = resilient_demo.database.faults
        injected = resilient_faults.injected_total if resilient_faults else 0
        try:
            resilient_demo.database.faults.disarm()  # clean final checkpoint
            resilient_demo.server.shutdown()
        except Exception:
            pass  # measurement is over; a failed final checkpoint is fine

    def make(arm: str, stats: dict, faults_injected: int) -> ResilienceRun:
        return ResilienceRun(
            profile=profile_name, strategy=strategy.value, arm=arm,
            faults_injected=faults_injected, **stats,
        )

    baseline_faults = baseline_demo.database.faults
    return (
        make("oracle", oracle_stats, 0),
        make("baseline", baseline_stats,
             baseline_faults.injected_total if baseline_faults else 0),
        make("resilient", resilient_stats, injected),
    )


def run_resilience_matrix(
    profiles: tuple[str, ...] = PROFILES,
    strategies: tuple[Strategy, ...] = STRATEGIES,
) -> tuple[ResilienceRun, ...]:
    runs: list[ResilienceRun] = []
    for profile_name in profiles:
        for strategy in strategies:
            runs.extend(run_resilience_cell(profile_name, strategy))
    return tuple(runs)


def check_acceptance(runs: tuple[ResilienceRun, ...]) -> list[str]:
    """The chaos bar; returns human-readable violations (empty = pass).

    * every resilient cell: zero wrong answers, availability >= 99%;
    * every baseline cell (aggregated per profile): at least one lost
      query, lost update, or silently wrong answer — the faults are
      real and the naive server demonstrably suffers them.
    """
    violations: list[str] = []
    baseline_harm: dict[str, int] = {}
    for run in runs:
        cell = f"{run.profile}/{run.strategy}"
        if run.arm == "resilient":
            if run.wrong:
                violations.append(
                    f"{cell}: resilient served {run.wrong} wrong answers"
                )
            if run.availability < 0.99:
                violations.append(
                    f"{cell}: resilient availability "
                    f"{run.availability:.1%} < 99%"
                )
        elif run.arm == "baseline":
            harm = (
                (run.queries - run.answered) + run.lost_updates + run.wrong
            )
            baseline_harm[run.profile] = baseline_harm.get(run.profile, 0) + harm
    for profile_name, harm in baseline_harm.items():
        if harm == 0:
            violations.append(
                f"{profile_name}: baseline took no damage — the profile "
                "is not exercising anything"
            )
    return violations


def resilience_table(runs: tuple[ResilienceRun, ...] | None = None) -> TableData:
    """The ``ext-resilience`` artifact: the chaos matrix."""
    if runs is None:
        runs = run_resilience_matrix()
    rows = []
    oracle_ms = {
        (run.profile, run.strategy): run.modelled_ms
        for run in runs if run.arm == "oracle"
    }
    for run in runs:
        clean = oracle_ms.get((run.profile, run.strategy), 0.0)
        overhead = run.modelled_ms / clean if clean else 0.0
        rows.append((
            run.profile,
            run.strategy,
            run.arm,
            run.queries,
            f"{run.availability:.1%}",
            run.wrong,
            run.degraded,
            run.lost_updates,
            run.faults_injected,
            round(run.modelled_ms, 0),
            f"{overhead:.2f}x",
        ))
    return TableData(
        table_id="ext-resilience",
        title="Availability and correctness under storage fault injection",
        columns=(
            "profile", "strategy", "arm", "queries", "availability",
            "wrong", "degraded", "lost updates", "faults", "ms", "vs clean",
        ),
        rows=tuple(rows),
        notes=(
            "Each (profile, strategy) cell replays one seeded request "
            "stream through three servers: a clean oracle, a faulted "
            "baseline with no resilience layer, and the full stack "
            "(checksums + retries + breakers + degraded serving + "
            "WAL-backed repair). 'wrong' counts answers diverging from "
            "the oracle without a DegradedResult label — silent "
            "corruption; labeled degraded answers are reported "
            "separately. 'ms' is CostMeter-priced and includes repair "
            "and recovery work, so 'vs clean' is the full price of "
            "surviving the profile."
        ),
    )


def _add_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profiles", default=PROFILES,
                        type=lambda text: tuple(p for p in text.split(",") if p),
                        help="comma-separated fault profiles to run "
                        f"(default {','.join(PROFILES)})")


def main(argv: list[str] | None = None) -> int:
    return acceptance_main(
        argv, "ext-resilience: chaos matrix for the resilience stack",
        _add_args, run_resilience_matrix, resilience_table,
        to_doc=lambda runs: {"runs": [
            {**asdict(run), "availability": run.availability} for run in runs
        ]},
        check=check_acceptance,
    )


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())
