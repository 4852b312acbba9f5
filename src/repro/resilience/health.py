"""View health: which hosted views are degraded, and getting them back.

:class:`ViewHealth` is the state machine behind the serving layer's
contract that *degraded answers are labelled, never silent*:

* a failure on a view's normal path (:meth:`ViewHealth.fail`) flips the
  view — and, for a deferred view, every deferred sibling on its
  relation — to degraded service and queues a repair;
* while degraded, queries are answered off the two-rung ladder
  (:meth:`ViewHealth.answer`) as a
  :class:`~repro.resilience.degradation.DegradedResult`;
* queued repairs (:meth:`ViewHealth.run_repairs`) rebuild the stored
  copy locally, or — when the damage sits in a base relation or a
  differential file, which no local rebuild can reach — escalate to
  checkpoint+WAL recovery through the ``recover`` callback.

The serving layer owns locking: ``fail``/``note_commit``/``answer`` are
called from request paths (state is guarded by an internal mutex),
``run_repairs``/``scrub`` under the server's exclusive world lock.
This object never sees the server, only the engine it watches, the
metrics registry, a hosted-view lookup and the recover callback.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.core.parameters import Parameters
from repro.core.strategies import Strategy
from repro.engine.database import ViewMaintenanceError, ViewSpec
from repro.resilience.degradation import DegradedResult, describe_failure
from repro.resilience.policy import RESILIENCE_ERRORS, ResilienceConfig
from repro.resilience.scrub import (
    ScrubReport,
    classify_file,
    rebuild_verified,
    scrub_database,
)

__all__ = ["DEGRADABLE_ERRORS", "ViewHealth"]

#: Failure classes the server degrades on (everything the resilience
#: layer detects, plus the engine's post-commit view-maintenance wrap).
DEGRADABLE_ERRORS = RESILIENCE_ERRORS + (ViewMaintenanceError,)

_BREAKER_STATE_LEVELS = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


class ViewHealth:
    """Degraded-view bookkeeping, the degradation ladder and repairs."""

    def __init__(
        self,
        config: ResilienceConfig | None,
        metrics: Any,
        params: Parameters,
        hosted: Callable[[str], Any],
        recover: Callable[[str], bool],
    ) -> None:
        #: Degradation policy; ``None`` disables degradation entirely
        #: (failures propagate to the caller).
        self.config = config
        self.metrics = metrics
        #: Cost constants pricing repair work in modelled milliseconds.
        self.params = params
        #: View name -> its definition, or ``None`` for a view the
        #: server does not host (engine-only views are never degraded).
        self._hosted = hosted
        #: ``recover(trigger) -> bool``: checkpoint+WAL recovery of the
        #: whole engine (False when unavailable or failed).
        self._recover = recover
        self.database: Any = None
        self._mutex = threading.RLock()
        #: Views currently serving degraded (view -> reason).
        self._degraded: dict[str, str] = {}
        #: Committed updates each degraded view has missed since
        #: degrading (feeds the stale-read staleness bound).
        self._missed_updates: dict[str, int] = {}
        #: What each queued repair restores: the view's spec when it
        #: degraded (``None``: already vanished).  Should the repair fault
        #: between its drop and re-define, this is all that is left.
        self._repairs: dict[str, ViewSpec | None] = {}
        #: Base-relation or AD damage: escalate to checkpoint+WAL recovery.
        self.needs_recovery = False

    def watch(self, database: Any) -> None:
        """Bind to an engine — at start-up, and again after recovery.

        A recovered engine has every stored copy rebuilt from the
        checkpoint and the log, so nothing stays degraded or queued.
        """
        self.database = database
        #: What :meth:`export_gauges` reads, looked up once per engine.
        self._faults, self._resilient = database.faults, database.resilient_disk
        if self._resilient is not None:
            self._resilient.listener = self._on_disk_event
        with self._mutex:
            for name in list(self._degraded):
                self._clear(name)
            self._repairs.clear()
            self.needs_recovery = False

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.config is not None

    @property
    def healthy(self) -> bool:
        """Nothing degraded, nothing queued, no recovery pending."""
        with self._mutex:
            return not (self._degraded or self._repairs or self.needs_recovery)

    def degraded_views(self) -> dict[str, str]:
        """Views currently serving degraded, with the triggering reason."""
        with self._mutex:
            return dict(self._degraded)

    def reason(self, name: str) -> str | None:
        """Why a view is served degraded, or ``None`` while it is not."""
        if self.config is None:
            return None
        with self._mutex:
            return self._degraded.get(name)

    def _recoverable(self) -> bool:
        """Whether WAL recovery can help: the engine is journaled."""
        return self.database.journal is not None

    # ------------------------------------------------------------------
    # degrading
    # ------------------------------------------------------------------
    def fail(
        self, name: str, phase: str, exc: Exception, target: Strategy | None = None
    ) -> str:
        """A view's normal path raised: degrade it, or re-raise.

        Without a resilience config the failure propagates.  Otherwise
        the view is marked degraded (reason prefixed with the ``phase``
        unless it is the plain ``"query"`` path), its repair queued, and
        the reason returned.  ``target`` is the strategy a failed
        migration was moving the view to: should the view have vanished
        between the migration's drop and re-define, the repair restores
        it under that strategy, matching the composite ``migrate`` WAL
        record (journaled before the drop) a later recovery replays.

        Deferred views over one relation share a coordinator refresh:
        one AD read, one ``apply_net`` per sibling, one fold.  A fault
        mid-refresh can leave *any* sibling's stored copy partially
        updated — not just this view's — so every deferred view on the
        relation is degraded with it and rebuilt before its copy is
        trusted again.  (Marking only this view lets a half-applied
        sibling serve silently wrong answers forever.)
        """
        if self.config is None:
            raise exc
        reason, file = describe_failure(exc)
        if phase != "query":
            reason = f"{phase}:{reason}"
        views = self.database.views
        with self._mutex:
            definition = self._hosted(name)
            if definition is None:
                return reason
            self._mark(name, definition, reason, file, target)
            if name in views and views[name].strategy is not Strategy.DEFERRED:
                return reason
            for sibling in self.database.views_on(definition.sources[0]):
                impl = views.get(sibling)
                if (
                    sibling != name
                    and impl is not None
                    and impl.strategy is Strategy.DEFERRED
                    and self._hosted(sibling) is not None
                ):
                    self._mark(sibling, impl.definition, f"sibling:{reason}", file)
        return reason

    def _mark(
        self,
        name: str,
        definition: Any,
        reason: str,
        file: str | None,
        target: Strategy | None = None,
    ) -> None:
        """Flip one view to degraded service and queue its repair."""
        if name not in self._degraded:
            self.metrics.counter("degradations_total", view=name).inc()
        self._degraded[name] = reason
        self._missed_updates.setdefault(name, 0)
        self.metrics.gauge("view_degraded", view=name).set(1.0)
        spec = self.database.view_spec(name)
        if spec is None and target is not None:
            self._repairs[name] = ViewSpec(definition, target)
        elif name not in self._repairs:
            self._repairs[name] = spec
        if file is not None and self._recoverable():
            kind, _owner = classify_file(self.database, file)
            if kind in ("relation", "differential"):
                # The damaged file is not the view's own storage; a
                # local rebuild cannot reach it.
                self.needs_recovery = True

    def _clear(self, name: str) -> None:
        with self._mutex:
            self._degraded.pop(name, None)
            self._missed_updates.pop(name, None)
            self._repairs.pop(name, None)
        self.metrics.gauge("view_degraded", view=name).set(0.0)

    def note_commit(self, affected: tuple[str, ...]) -> None:
        """A transaction committed: every degraded view among
        ``affected`` has missed one more update."""
        with self._mutex:
            for name in self._degraded:
                if name in affected:
                    self._missed_updates[name] = self._missed_updates.get(name, 0) + 1

    # ------------------------------------------------------------------
    # the degradation ladder
    # ------------------------------------------------------------------
    def answer(
        self,
        name: str,
        impl: Any,
        reason: str,
        fresh: Callable[[], Any],
        stored: Callable[[], Any],
    ) -> DegradedResult:
        """Walk the degradation ladder for one query.

        Rung 1 — ``fresh()``, the query-modification fallback:
        recompute from the logical base content (needs no materialized
        state; bound 0).  Rung 2 — ``stored()``, a bounded-staleness
        read of the last good materialized copy.  Both rungs failing
        makes the query unavailable: rung 1's failure is re-raised.
        """
        config = self.config
        assert config is not None
        try:
            answer, mode, bound = fresh(), "qm_fallback", 0
        except DEGRADABLE_ERRORS as qm_exc:
            bound = self.staleness_bound(name)
            stale_ok = (
                impl is not None
                and impl.strategy.is_materialized()
                and config.degraded_reads
                and (config.staleness_limit is None or bound <= config.staleness_limit)
            )
            if stale_ok:
                try:
                    answer, mode = stored(), "stale_read"
                except DEGRADABLE_ERRORS:
                    stale_ok = False
            if not stale_ok:
                self.metrics.counter("unavailable_queries_total", view=name).inc()
                raise qm_exc from None
        self.metrics.counter("degraded_queries_total", view=name, mode=mode).inc()
        strategy = impl.strategy if impl is not None else None
        if strategy is None:  # vanished mid-composite-op; report the repair target
            with self._mutex:
                queued = self._repairs.get(name)
            strategy = queued.strategy if queued is not None else None
        return DegradedResult(
            answer=answer,
            view=name,
            mode=mode,
            reason=reason,
            staleness_bound=bound,
            strategy=strategy.value if strategy is not None else "unavailable",
        )

    def staleness_bound(self, name: str) -> int:
        """Updates a degraded view's stored copy may be missing.

        Pending AD entries (the copy's refresh backlog) plus every
        committed update the view has missed since degrading.
        """
        pending = 0
        for relation_name in self._hosted(name).sources:
            try:
                pending += self.database.relations[relation_name].pending
            except DEGRADABLE_ERRORS:
                # The AD file itself is unreadable; fall back to the
                # last exported health gauge.
                pending += int(
                    self.metrics.gauge("ad_entries", relation=relation_name).value
                )
        with self._mutex:
            return pending + self._missed_updates.get(name, 0)

    # ------------------------------------------------------------------
    # repairs (callers hold the server's exclusive world lock)
    # ------------------------------------------------------------------
    def repairs_due(self) -> bool:
        """Whether :meth:`run_repairs` has anything it may do."""
        if self.config is None or not self.config.repair:
            return False
        with self._mutex:
            return bool(self._repairs) or self.needs_recovery

    def run_repairs(self) -> list[str]:
        """Drain the repair queue; returns the views restored.

        Repair work models the idle-time maintenance of the paper's
        deferred machinery, and is metered like any other work.
        Pending recovery wins: it rebuilds every stored copy, so the
        per-view queue is moot once it succeeds.
        """
        if not self.repairs_due():
            return []
        if self.needs_recovery:
            degraded = list(self._degraded) or list(self._repairs)
            return degraded if self._recover("repair") else []
        return [name for name in list(self._repairs) if self._repair(name)]

    def _repair(self, name: str) -> bool:
        """One background repair: rebuild (or restore), verify, reopen."""
        queued = self._repairs[name]
        db = self.database
        before = db.meter.snapshot()
        if name in db.views:
            repaired = rebuild_verified(db, name)
        elif queued is not None:
            # Vanished mid-composite-operation (a fault between a
            # migrate's or an earlier repair's drop and re-define).  The
            # composite WAL record already covers the re-define on
            # replay, so the restore is unjournaled.
            repaired = rebuild_verified(
                db, name, lambda: db.restore_view(queued), queued.definition
            )
        else:
            # Nothing left to restore from locally; the WAL replay
            # recreates the view if durability is armed.
            repaired = False
            if self._recoverable():
                self.needs_recovery = True
        if not repaired:
            self.metrics.counter("repair_failures_total", view=name).inc()
            return False
        self._clear(name)
        self.metrics.counter("repairs_total", view=name).inc()
        self.metrics.histogram("repair_ms", view=name).observe(
            db.meter.diff(before).milliseconds(self.params)
        )
        return True

    def scrub(self) -> ScrubReport:
        """Walk every disk file, verifying page checksums (metered).

        Any damaged hosted view found is marked degraded (its repair
        is queued); base-relation or differential damage flags the
        engine for checkpoint+WAL recovery.
        """
        report = scrub_database(self.database)
        self.metrics.counter("scrubs_total").inc()
        self.metrics.gauge("scrub_damaged_pages").set(len(report.damage))
        with self._mutex:
            for name in report.damaged_views():
                definition = self._hosted(name)
                if definition is not None:
                    self._mark(name, definition, "scrub:checksum", None)
            if report.damaged_relations() and self._recoverable():
                self.needs_recovery = True
        return report

    # ------------------------------------------------------------------
    # metrics bridges
    # ------------------------------------------------------------------
    def _on_disk_event(self, event: str, **info: Any) -> None:
        """Metrics bridge for the resilient disk's retry/breaker events."""
        if event == "retry":
            self.metrics.counter("disk_retries_total", file=info["file"]).inc()
        elif event == "give_up":
            self.metrics.counter("disk_giveups_total", file=info["file"]).inc()
        elif event == "transition":
            self.metrics.counter(
                "breaker_transitions_total",
                file=info["file"],
                from_state=info["old"],
                to_state=info["new"],
            ).inc()
            self.metrics.gauge("breaker_state", file=info["file"]).set(
                _BREAKER_STATE_LEVELS[info["new"]]
            )

    def export_relation_gauges(self, relation_name: str) -> None:
        """Export a differential relation's AD backlog and Bloom gauges."""
        relation = self.database.relations.get(relation_name)
        if relation is None or not relation.differential:
            return
        try:
            entries = relation.ad_entry_count()
            pages = relation.ad_page_count()
        except DEGRADABLE_ERRORS:
            if self.config is None:
                raise
            return  # keep the last good gauges
        self.metrics.gauge("ad_entries", relation=relation_name).set(entries)
        self.metrics.gauge("ad_pages", relation=relation_name).set(pages)
        bloom = relation.bloom
        self.metrics.gauge("bloom_fill_fraction", relation=relation_name).set(
            bloom.fill_fraction
        )
        self.metrics.gauge("bloom_negative_rate", relation=relation_name).set(
            bloom.negative_rate
        )

    def export_gauges(self) -> None:
        """Export the fault-injection and retry/breaker counters (of the
        fault injector and resilient disk :meth:`watch` found)."""
        faults, resilient = self._faults, self._resilient
        if faults is not None:
            for kind, count in faults.injected.items():
                self.metrics.gauge("faults_injected", kind=kind).set(count)
        if resilient is not None:
            self.metrics.gauge("disk_retries").set(resilient.retries)
            self.metrics.gauge("disk_giveups").set(resilient.gave_up)
            self.metrics.gauge("disk_backoff_ms").set(resilient.backoff_ms)
        if self.config is not None:
            self.metrics.gauge("degraded_views").set(len(self._degraded))
