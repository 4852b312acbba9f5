"""Stored copies refreshed by complete recomputation.

Two of the introduction's mechanisms share this strategy; they differ
only in *when* the rebuild runs:

* **database snapshots** (Adiba & Lindsay 1980, Lindsay et al. 1986)
  rebuild every ``refresh_every`` queries and serve possibly **stale**
  answers in between.  Updates cost nothing; the trade is staleness
  plus the periodic rebuild scan.  Cost model counterpart:
  :func:`repro.core.policies.analyze_snapshot`.
* **Buneman & Clemons' scheme** analyzes each update command *prior to
  execution*: unless it is a readily ignorable update, the copy is
  flagged stale and completely recomputed before the next read.
  Answers are always fresh; a single relevant update forces a full
  rebuild.
"""

from __future__ import annotations

from typing import Any

from repro.core.strategies import Strategy
from repro.engine.transaction import Transaction
from repro.views.definition import ViewTuple
from repro.views.delta import DeltaSet
from repro.views.predicate import is_readily_ignorable
from .base import MaintenanceStrategy
from .models import Model

__all__ = ["Snapshot"]


class Snapshot(MaintenanceStrategy):
    """A Model 1 copy rebuilt on a schedule or when it may have changed.

    ``Strategy.SNAPSHOT`` rebuilds before query 1, 1+r, 1+2r, ... for
    ``r = refresh_every`` (``r=1`` is always fresh); larger periods
    amortize the rebuild at the price of staleness.
    ``Strategy.BC_RECOMPUTE`` rebuilds before a read whenever a command
    that is not readily ignorable ran since the last one.
    """

    options = ("refresh_every",)

    def __init__(
        self, model: Model, strategy: Strategy, refresh_every: int = 10
    ) -> None:
        super().__init__(model, strategy)
        #: Rebuild when the view may have changed (Buneman-Clemons)
        #: rather than on the periodic schedule.
        self.on_change = strategy is Strategy.BC_RECOMPUTE
        self.refresh_every = refresh_every
        self.queries_since_rebuild = 0
        self.rebuild_count = 0
        #: Updates committed since the last rebuild (staleness metric).
        self.stale_updates = 0
        self._stale = False
        #: Commands dismissed by the compile-time RIU analysis.
        self.riu_skips = 0

    def on_transaction(self, txn: Transaction, delta: DeltaSet) -> None:
        """Snapshots ignore updates — they only age.  The on-change
        variant does compile-time analysis only: no per-tuple work."""
        if self.on_change:
            written = txn.written_fields()
            if "*" not in written and is_readily_ignorable(
                written, self.definition.fields_read()
            ):
                self.riu_skips += 1
                return
            self._stale = True
        self.stale_updates += len(delta)

    def rebuild(self) -> None:
        """Full recomputation: scan R's selected set, rewrite the copy."""
        self.model.rebuild()
        self.queries_since_rebuild = 0
        self.stale_updates = 0
        self._stale = False
        self.rebuild_count += 1

    def query(self, lo: Any = None, hi: Any = None) -> list[ViewTuple]:
        """Rebuild first when one is due, then serve from the copy."""
        due = (
            self._stale
            if self.on_change
            else self.queries_since_rebuild % self.refresh_every == 0
        )
        if due:
            self.rebuild()
        self.queries_since_rebuild += 1
        return self.read_stored(lo, hi)
