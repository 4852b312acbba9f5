"""Database snapshots: periodically rebuilt stored copies.

The introduction's third materialization mechanism (Adiba & Lindsay
1980, Lindsay et al. 1986): a stored copy of a single-relation
selection-projection, refreshed by *complete recomputation* every
``refresh_every`` queries, and serving possibly **stale** answers in
between.  Updates cost nothing (snapshots ignore them entirely); the
trade is staleness plus the periodic rebuild scan.

Cost model counterpart: :func:`repro.core.policies.analyze_snapshot`.
"""

from __future__ import annotations

from typing import Any

from repro.core.strategies import Strategy
from repro.engine import executor
from repro.engine.transaction import Transaction
from repro.hr.differential import ClusteredRelation
from repro.views.definition import SelectProjectView, ViewTuple
from repro.views.delta import DeltaSet
from repro.views.matview import MaterializedView
from .base import MaintenanceStrategy

__all__ = ["SnapshotSelectProject", "RecomputeOnChangeSelectProject"]


class SnapshotSelectProject(MaintenanceStrategy):
    """A Model 1 snapshot refreshed every ``refresh_every`` queries.

    ``refresh_every=1`` degenerates to always-fresh (rebuild before
    every read — the Buneman-Clemons fallback of recomputing whenever
    the view may have changed); larger periods amortize the rebuild at
    the price of staleness.
    """

    strategy = Strategy.SNAPSHOT

    def __init__(
        self,
        definition: SelectProjectView,
        relation: ClusteredRelation,
        matview: MaterializedView,
        refresh_every: int = 10,
    ) -> None:
        if refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {refresh_every}")
        if relation.clustered_on != definition.view_key:
            raise ValueError(
                "snapshot rebuilds use a clustered scan; relation must be "
                f"clustered on the view key {definition.view_key!r}"
            )
        self.definition = definition
        self.relation = relation
        self.matview = matview
        self.refresh_every = refresh_every
        self.queries_since_rebuild = 0
        self.rebuild_count = 0
        #: Updates committed since the last rebuild (staleness metric).
        self.stale_updates = 0

    @property
    def view_name(self) -> str:
        return self.definition.name

    def on_transaction(self, txn: Transaction, delta: DeltaSet) -> None:
        """Snapshots ignore updates — they only age."""
        self.stale_updates += len(delta)

    def rebuild(self) -> None:
        """Full recomputation: clustered scan of R, rewrite the copy."""
        intervals = [
            iv
            for iv in self.definition.predicate.intervals()
            if iv.field == self.relation.clustered_on
        ]
        meter = self.relation.meter
        if intervals:
            lo = min(iv.lo for iv in intervals)
            hi = max(iv.hi for iv in intervals)
            records = executor.clustered_scan(
                self.relation, lo, hi, self.definition.predicate, meter
            )
        else:
            records = executor.sequential_scan(
                self.relation, self.definition.predicate, meter
            )
        self.matview.rebuild([self.definition.project(r) for r in records])
        self.queries_since_rebuild = 0
        self.stale_updates = 0
        self.rebuild_count += 1

    def query(self, lo: Any = None, hi: Any = None) -> list[ViewTuple]:
        """Serve from the (possibly stale) copy; rebuild on schedule.

        The rebuild runs *before* the serving read when the period has
        elapsed, so query 1, 1+r, 1+2r, ... are fresh.
        """
        if self.queries_since_rebuild % self.refresh_every == 0:
            self.rebuild()
        self.queries_since_rebuild += 1
        return self.read_stored(lo, hi)


class RecomputeOnChangeSelectProject(SnapshotSelectProject):
    """Buneman & Clemons' scheme: the introduction's fourth algorithm.

    Each update command is analyzed *prior to execution*: if the system
    cannot rule out that it changes the view (the command is not a
    readily ignorable update), the stored copy is flagged stale and
    completely recomputed before the next read.  Unlike a periodic
    snapshot, answers are therefore always fresh; unlike incremental
    maintenance, a single relevant update forces a full rebuild.
    """

    strategy = Strategy.BC_RECOMPUTE

    def __init__(
        self,
        definition: SelectProjectView,
        relation: ClusteredRelation,
        matview: MaterializedView,
    ) -> None:
        super().__init__(definition, relation, matview, refresh_every=1)
        self._view_fields = definition.fields_read()
        self._stale = False
        #: Commands dismissed by the compile-time RIU analysis.
        self.riu_skips = 0

    def on_transaction(self, txn: Transaction, delta: DeltaSet) -> None:
        """Compile-time analysis only: no per-tuple work at all."""
        from repro.views.predicate import is_readily_ignorable

        written = txn.written_fields()
        if "*" not in written and is_readily_ignorable(written, self._view_fields):
            self.riu_skips += 1
            return
        self._stale = True
        self.stale_updates += len(delta)

    def query(self, lo: Any = None, hi: Any = None) -> list[ViewTuple]:
        """Rebuild first when any non-RIU command ran since last read."""
        if self._stale:
            self.rebuild()
            self._stale = False
        self.queries_since_rebuild = 1  # disable the periodic schedule
        return self.read_stored(lo, hi)
