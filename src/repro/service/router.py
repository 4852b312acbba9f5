"""Adaptive strategy routing: re-run the advisor on live statistics.

The paper's decision procedure (its conclusion, executable in
:mod:`repro.core.advisor`) assumes the workload parameters are known.
A server doesn't know them — it *observes* them.  The router keeps
exponentially decayed per-view statistics (update/query ratio ``P``,
batch size ``l``, query width ``f_v``, selectivity ``f`` via the
histogram estimator), periodically rebuilds a
:class:`~repro.core.parameters.Parameters` set from them, re-runs the
advisor, and — with hysteresis so estimation noise doesn't cause
thrash — migrates the view to the recommended strategy through
:meth:`ViewServer.migrate`.

Candidates are restricted to strategies the live catalog can actually
host (:func:`repro.maintenance.catalog.check_hosting` decides).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.advisor import evaluate
from repro.core.estimation import estimate_selectivity
from repro.core.parameters import PAPER_DEFAULTS, Parameters
from repro.core.strategies import Strategy, ViewModel
from repro.engine.database import ViewSpec
from repro.maintenance.catalog import model_class
from repro.views.definition import JoinView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import ViewServer

__all__ = ["AdaptiveRouter", "RouterConfig", "StrategySwitch", "WorkloadStats"]


@dataclass
class WorkloadStats:
    """Exponentially decayed view-workload statistics.

    Decay keeps the estimates tracking the *recent* mix: after a phase
    change, old observations fade with half-life ``ln 2 / (1 - decay)``
    operations (~34 ops at the default 0.98).
    """

    decay: float = 0.98
    update_weight: float = 0.0
    query_weight: float = 0.0
    #: EWMA of tuples modified per transaction (the paper's ``l``).
    avg_batch_size: float = 0.0
    #: EWMA of the query range width in key units.
    avg_query_width: float = 0.0
    operations: int = 0

    def observe_update(self, batch_size: int) -> None:
        self.update_weight = self.update_weight * self.decay + 1.0
        self.query_weight *= self.decay
        self.avg_batch_size = self._ewma(self.avg_batch_size, float(batch_size))
        self.operations += 1

    def observe_query(self, width: float | None) -> None:
        self.query_weight = self.query_weight * self.decay + 1.0
        self.update_weight *= self.decay
        if width is not None:
            self.avg_query_width = self._ewma(self.avg_query_width, width)
        self.operations += 1

    def _ewma(self, current: float, sample: float) -> float:
        if current == 0.0:
            return sample
        return current * self.decay + sample * (1.0 - self.decay)

    @property
    def P(self) -> float:
        """Estimated update probability ``k/(k+q)`` over the window."""
        total = self.update_weight + self.query_weight
        return self.update_weight / total if total > 0 else 0.0


@dataclass(frozen=True)
class RouterConfig:
    """Hysteresis and cadence knobs for the adaptive router."""

    #: Re-run the advisor every this-many operations per view.
    decision_every: int = 25
    #: The challenger must beat the incumbent's estimated cost by this
    #: relative margin before a migration is worth its rebuild cost.
    min_relative_margin: float = 0.15
    #: Statistics decay per operation (see :class:`WorkloadStats`).
    decay: float = 0.98


#: Minimum operations between two migrations of the same view.
_MIN_DWELL = 50
#: Don't decide before both sides of the mix have been seen a bit.
_MIN_WEIGHT = 2.0


@dataclass(frozen=True)
class StrategySwitch:
    """One migration the router performed."""

    view: str
    from_strategy: Strategy
    to_strategy: Strategy
    at_operation: int
    estimated_p: float
    #: Challenger's relative advantage over the incumbent at decision time.
    relative_advantage: float


#: Strategies the router will consider per view model.  Model 1 and 3
#: use the clustered query-modification plan (the paper's cheapest QM
#: variant when the base is clustered on the predicate attribute);
#: Model 2 uses the nested-loop join.
_CANDIDATES: dict[ViewModel, tuple[Strategy, ...]] = {
    ViewModel.SELECT_PROJECT: (Strategy.DEFERRED, Strategy.IMMEDIATE, Strategy.QM_CLUSTERED),
    ViewModel.JOIN: (Strategy.DEFERRED, Strategy.IMMEDIATE, Strategy.QM_LOOPJOIN),
    ViewModel.AGGREGATE: (Strategy.DEFERRED, Strategy.IMMEDIATE, Strategy.QM_CLUSTERED),
}


def query_width(lo: Any, hi: Any) -> float | None:
    """Width of a range query on the view key (``None`` when unbounded)."""
    try:
        return float(hi - lo + 1) if lo is not None and hi is not None else None
    except TypeError:
        return None


class AdaptiveRouter:
    """Per-view statistics plus the decide-and-migrate loop."""

    def __init__(self, config: RouterConfig | None = None) -> None:
        self.config = config or RouterConfig()
        self.stats: dict[str, WorkloadStats] = {}
        self.switches: list[StrategySwitch] = []
        self._last_switch_op: dict[str, int] = {}
        self._last_decision_op: dict[str, int] = {}
        #: Guards the decayed statistics: observation hooks run on hot
        #: request threads while decisions run under the server's
        #: admin (write) lock.
        self._mutex = threading.RLock()

    def stats_for(self, view: str) -> WorkloadStats:
        with self._mutex:
            stats = self.stats.get(view)
            if stats is None:
                stats = WorkloadStats(decay=self.config.decay)
                self.stats[view] = stats
            return stats

    # ------------------------------------------------------------------
    # observation hooks (called by the server)
    # ------------------------------------------------------------------
    def observe_update(self, view: str, batch_size: int) -> None:
        with self._mutex:
            self.stats_for(view).observe_update(batch_size)

    def observe_query(self, view: str, width: float | None) -> None:
        with self._mutex:
            self.stats_for(view).observe_query(width)

    def decision_due(self, view: str) -> bool:
        """Cheap hot-path pre-check: is a decision worth the admin lock?

        Mirrors :meth:`maybe_switch`'s cadence gate without taking it,
        so request threads only escalate to the server's exclusive
        (write) lock when the router would actually deliberate.
        """
        with self._mutex:
            stats = self.stats.get(view)
            if stats is None:
                return False
            last_decision = self._last_decision_op.get(view, 0)
            return stats.operations - last_decision >= self.config.decision_every

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def estimate_parameters(self, server: "ViewServer", view: str) -> Parameters | None:
        """Live :class:`Parameters` from the window statistics.

        ``N``/``S``/``B`` from the catalog, ``f`` from the histogram
        estimator over the predicate interval, the mix from the decayed
        weights.  Returns ``None`` while the window is too thin.
        """
        stats = self.stats_for(view)
        if stats.query_weight < _MIN_WEIGHT:
            return None
        definition = server.definition_of(view)
        db = server.database
        relation_name = definition.sources[0]
        base = db.relations[relation_name].base
        n_tuples = max(1, len(base))

        selectivity = definition.predicate.selectivity_hint() or PAPER_DEFAULTS.f
        intervals = definition.predicate.intervals()
        if intervals:
            iv = intervals[0]
            measured = estimate_selectivity(db, relation_name, iv.field, iv.lo, iv.hi)
            if measured > 0:
                selectivity = measured
        selectivity = min(1.0, max(1e-6, selectivity))

        f_v = PAPER_DEFAULTS.f_v
        view_width = None
        if intervals:
            try:
                view_width = float(intervals[0].hi - intervals[0].lo + 1)
            except TypeError:
                view_width = None
        if stats.avg_query_width > 0 and view_width:
            f_v = min(1.0, max(1e-6, stats.avg_query_width / view_width))

        f_r2 = PAPER_DEFAULTS.f_r2
        if isinstance(definition, JoinView):
            inner = db.relations[definition.inner]
            f_r2 = min(1.0, max(1e-9, len(inner) / n_tuples))

        return Parameters(
            N=n_tuples,
            S=base.schema.tuple_bytes,
            B=db.block_bytes,
            k=stats.update_weight,
            l=max(1.0, stats.avg_batch_size),
            q=stats.query_weight,
            f=selectivity,
            f_v=f_v,
            f_r2=f_r2,
            c1=server.params.c1,
            c2=server.params.c2,
            c3=server.params.c3,
        )

    def candidates(self, server: "ViewServer", view: str) -> tuple[Strategy, ...]:
        """Strategies the live catalog can host for this view, minus
        one the cost model cannot price: the immediate formulas assume
        updates write the base in place, whereas over a differential
        relation an immediate view pays the AD append *and* the fold.
        """
        definition = server.definition_of(view)
        db = server.database
        differential = db.relations[definition.sources[0]].differential
        return tuple(
            strategy
            for strategy in _CANDIDATES[model_class(definition).number]
            if not (strategy is Strategy.IMMEDIATE and differential)
            and db.can_host(ViewSpec(definition, strategy))
        )

    # ------------------------------------------------------------------
    # the decision loop
    # ------------------------------------------------------------------
    def maybe_switch(self, server: "ViewServer", view: str) -> StrategySwitch | None:
        """Re-run the advisor if due; migrate when a challenger wins big."""
        with self._mutex:
            return self._maybe_switch(server, view)

    def _maybe_switch(self, server: "ViewServer", view: str) -> StrategySwitch | None:
        stats = self.stats_for(view)
        cfg = self.config
        last_decision = self._last_decision_op.get(view, 0)
        if stats.operations - last_decision < cfg.decision_every:
            return None
        self._last_decision_op[view] = stats.operations
        if min(stats.update_weight, stats.query_weight) < _MIN_WEIGHT:
            return None
        params = self.estimate_parameters(server, view)
        if params is None:
            return None
        candidates = self.candidates(server, view)
        current = server.strategy_of(view)
        if current not in candidates or len(candidates) < 2:
            return None
        model = model_class(server.definition_of(view)).number
        breakdowns = evaluate(params, model, strategies=candidates)
        best = min(breakdowns.values(), key=lambda bd: bd.total)
        if best.strategy is current:
            return None
        incumbent = breakdowns[current].total
        if incumbent <= 0:
            return None
        advantage = (incumbent - best.total) / incumbent
        if advantage < cfg.min_relative_margin:
            return None
        last_switch = self._last_switch_op.get(view)
        if last_switch is not None and stats.operations - last_switch < _MIN_DWELL:
            return None
        server.migrate(view, best.strategy)
        switch = StrategySwitch(
            view=view,
            from_strategy=current,
            to_strategy=best.strategy,
            at_operation=stats.operations,
            estimated_p=stats.P,
            relative_advantage=advantage,
        )
        self.switches.append(switch)
        self._last_switch_op[view] = stats.operations
        server.metrics.gauge("router_estimated_p", view=view).set(stats.P)
        return switch
