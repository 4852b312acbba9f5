"""Degraded answers: the caller-visible shape and the fallback evaluators.

The paper's strategy space *is* the degradation ladder: query
modification materializes nothing, so any view whose stored machinery
is unhealthy can still be answered straight from the base relations at
QM cost (rung 1, fresh); a view whose base path is *also* unhealthy
can serve its last materialized copy with an explicit staleness bound
(rung 2, stale).  Either way the caller gets a
:class:`DegradedResult` naming the reason, the rung and the bound —
degradation is visible, never silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.resilience.faults import TransientIOError
from repro.resilience.policy import CircuitOpenError
from repro.storage.pager import PageChecksumError
from repro.views.definition import AggregateView

__all__ = [
    "DegradedResult",
    "describe_failure",
    "qm_fallback_answer",
]


@dataclass(frozen=True)
class DegradedResult:
    """An answer served off the normal strategy path.

    ``mode`` is the ladder rung used: ``"qm_fallback"`` (recomputed
    from base relations — fresh, ``staleness_bound == 0``) or
    ``"stale_read"`` (last materialized copy; ``staleness_bound`` is
    the number of committed updates it may be missing).
    """

    answer: Any
    view: str
    mode: str
    reason: str
    staleness_bound: int
    strategy: str

    def unwrap(self) -> Any:
        """The answer payload, shaped exactly like a normal answer."""
        return self.answer


def describe_failure(exc: Exception) -> tuple[str, str | None]:
    """``(reason, file)`` for any resilience-layer failure class.

    ``file`` is the disk file implicated (for breaker bookkeeping and
    repair targeting), or ``None`` when the failure names no file.
    """
    # Imported here, not at module top: the engine itself imports this
    # package's fault/policy modules, so a top-level import would cycle.
    from repro.engine.database import ViewMaintenanceError

    if isinstance(exc, CircuitOpenError):
        return (f"circuit_open:{exc.file}", exc.file)
    if isinstance(exc, PageChecksumError):
        return (f"checksum:{exc.page_id}", exc.page_id.file)
    if isinstance(exc, TransientIOError):
        return (f"io_error:{exc.page_id}", exc.page_id.file)
    if isinstance(exc, ViewMaintenanceError) and exc.failures:
        reason, file = describe_failure(exc.failures[0][1])
        return (f"view_maintenance({reason})", file)
    return (f"{type(exc).__name__}: {exc}", None)


def qm_fallback_answer(db: Any, definition: Any, lo: Any = None, hi: Any = None) -> Any:
    """Answer a view query by query modification over base relations.

    The universal rung-1 fallback: evaluates the view definition over
    the *logical* relation content (base plus pending AD entries), so
    the answer is fresh regardless of the materialized copy's health.
    Every page it reads is metered — degraded service has an honest,
    advisor-comparable cost.
    """
    tuples = definition.evaluate(
        *(db.logical_records(source) for source in definition.sources)
    )
    if isinstance(definition, AggregateView):
        return tuples  # AggregateView.evaluate returns the scalar state
    key = definition.view_key
    lo_bound = -math.inf if lo is None else lo
    hi_bound = math.inf if hi is None else hi
    selected = [vt for vt in tuples if lo_bound <= vt[key] <= hi_bound]
    selected.sort(key=lambda vt: (vt[key], vt.identity()))
    return selected
