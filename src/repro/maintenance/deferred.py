"""Deferred view maintenance: the paper's proposal (Section 2.2).

Base updates accumulate in the relation's hypothetical-relation ``AD``
file; the stored view is refreshed *just before data is retrieved from
it* by computing the net change sets and running the differential
update once for the whole batch.  Screening happens at update time
(tuples entering AD get markers), so a refresh applies the predicate to
already-screened tuples without paying ``c1`` again.
"""

from __future__ import annotations

from typing import Any

from repro.core.strategies import Strategy
from repro.engine.transaction import Transaction
from repro.hr.differential import HypotheticalRelation
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.delta import DeltaSet
from repro.views.matview import AggregateStateStore, MaterializedView
from .base import MaintenanceStrategy
from .refresh import refresh_aggregate, refresh_select_project
from .screening import TwoStageScreen

__all__ = [
    "DeferredCoordinator",
    "DeferredSelectProject",
    "DeferredJoin",
    "DeferredAggregate",
]


class DeferredCoordinator:
    """Shared refresh for all deferred views over one relation.

    Section 4: "In cases where more than one materialized view draws
    data from the same hypothetical relation, it may be worthwhile to
    refresh all the views whenever it is necessary to read the contents
    of the A and D sets ... since this would eliminate the need to read
    the hypothetical database again."  The coordinator does exactly
    that — one ``net_changes`` read feeds every registered view, then
    the AD file is folded down once.  It is also what makes multiple
    deferred views on one relation *correct*: a per-view reset would
    starve the siblings of the batched changes.
    """

    def __init__(self, relation: HypotheticalRelation) -> None:
        self.relation = relation
        self._views: list["_DeferredBase"] = []
        #: Durability hook: called (when set) just before a fold that
        #: actually installs pending changes, so the write-ahead log can
        #: journal the net-change install (:mod:`repro.durability`).
        self.on_refresh: Any = None
        #: Net-delta computations this coordinator has performed.  One
        #: refresh epoch bumps this exactly once however many sibling
        #: views it feeds — the shared-delta invariant the planner
        #: tests assert.
        self.net_computes = 0

    def register(self, view: "_DeferredBase") -> None:
        """Add a view over this coordinator's relation."""
        if view.relation is not self.relation:
            raise ValueError(
                f"view {view.view_name!r} is not over this coordinator's relation"
            )
        self._views.append(view)

    @property
    def views(self) -> tuple["_DeferredBase", ...]:
        return tuple(self._views)

    def deregister(self, view: "_DeferredBase") -> None:
        """Remove a view (catalog drop); the AD backlog stays for the
        remaining siblings."""
        if view in self._views:
            self._views.remove(view)

    def compute_net(self) -> DeltaSet:
        """One AD read producing the relation's net change set.

        This is the expensive half of a refresh (the paper's
        ``C_ADread``); :meth:`install` fans the result out, so the read
        happens once per refresh epoch regardless of sibling count.
        """
        self.net_computes += 1
        return self.relation.net_changes()

    def install(self, net: DeltaSet) -> None:
        """Fan one computed net delta out to every view, then fold.

        The durability hook fires before any page is written (the
        write-ahead discipline): replaying the journaled
        ``net_install`` reproduces the whole fold.
        """
        if self.on_refresh is not None and self.relation.ad_entry_count() > 0:
            self.on_refresh()
        for view in self._views:
            view.apply_net(net)
        self.relation.reset(net)

    def refresh_all(self) -> None:
        """Read AD once, refresh every registered view, reset the HR."""
        self.install(self.compute_net())


class _DeferredBase(MaintenanceStrategy):
    """Shared screening/refresh plumbing for deferred variants."""

    strategy = Strategy.DEFERRED

    def __init__(self, definition, relation: HypotheticalRelation) -> None:
        if not isinstance(relation, HypotheticalRelation):
            raise TypeError(
                "deferred maintenance requires a HypotheticalRelation "
                f"(got {type(relation).__name__}); create the relation with "
                "kind='hypothetical'"
            )
        self.definition = definition
        self.relation = relation
        self.screen = TwoStageScreen(
            definition.predicate,
            relation.meter,
            view_fields_read=definition.fields_read(),
        )
        #: Markers: identities of tuples that passed screening at
        #: update time.  Mirrors the paper's per-tuple view markers.
        self._markers: set = set()
        self.refresh_count = 0
        #: Every deferred view belongs to a coordinator; standalone
        #: construction gets a private one.
        self.coordinator = DeferredCoordinator(relation)
        self.coordinator.register(self)

    @property
    def view_name(self) -> str:
        return self.definition.name

    def on_transaction(self, txn: Transaction, delta: DeltaSet) -> None:
        """Screen incoming/deleted tuples and mark the survivors.

        The AD writes themselves were already performed (and charged)
        by the hypothetical relation when the database executed the
        transaction's operations.
        """
        if self.screen.transaction_is_riu(txn.written_fields()):
            return
        for record in self.screen.screen_many(list(delta.inserted) + list(delta.deleted)):
            self._markers.add(record)

    def join_coordinator(self, coordinator: DeferredCoordinator) -> None:
        """Move this view into a shared coordinator (database-managed)."""
        self.coordinator._views.remove(self)
        self.coordinator = coordinator
        coordinator.register(self)

    def refresh(self) -> None:
        """Batch-apply accumulated changes to every sibling view, then
        fold the AD file down (one shared AD read, per Section 4)."""
        self.coordinator.refresh_all()

    def query(self, lo: Any = None, hi: Any = None) -> Any:
        """The paper's on-demand policy: fold, then read the copy."""
        self.refresh()
        return self.read_stored(lo, hi)

    def _marked(self, net: DeltaSet) -> tuple[list, list]:
        marked_ins = [r for r in net.inserted if r in self._markers]
        marked_del = [r for r in net.deleted if r in self._markers]
        return marked_ins, marked_del

    def apply_net(self, net: DeltaSet) -> None:
        """Apply one already-read net delta to this view's stored copy."""
        marked_ins, marked_del = self._marked(net)
        self._apply_marked(marked_ins, marked_del)
        self._markers.clear()
        self.refresh_count += 1

    def _apply_marked(self, marked_ins: list, marked_del: list) -> None:
        raise NotImplementedError


class DeferredSelectProject(_DeferredBase):
    """Model 1 deferred maintenance over a duplicate-counted copy."""

    def __init__(
        self,
        definition: SelectProjectView,
        relation: HypotheticalRelation,
        matview: MaterializedView,
    ) -> None:
        super().__init__(definition, relation)
        self.matview = matview

    def _apply_marked(self, marked_ins: list, marked_del: list) -> None:
        if marked_ins or marked_del:
            refresh_select_project(self.definition, self.matview, marked_ins, marked_del)


class DeferredJoin(_DeferredBase):
    """Model 2 deferred maintenance, one- or two-sided.

    With a plain hashed inner relation this is the paper's Model 2
    (``R2`` never updated): only outer-side deltas are deferred and
    applied.  Give the inner relation its own hypothetical storage
    (``kind='hashed_hypothetical'``) and inner updates defer too; the
    refresh then applies the telescoped two-sided differential update

        ΔV = Δ1 × R2_old  +  R1_new × Δ2

    — outer deltas joined against the *pre-batch* inner state (its base
    file), inner deltas joined against the *post-batch* outer state
    (HR reads see pending changes) — and folds both AD files down.
    """

    def __init__(
        self,
        definition: JoinView,
        relation: HypotheticalRelation,
        inner,
        matview: MaterializedView,
    ) -> None:
        super().__init__(definition, relation)
        self.inner = inner
        self.matview = matview
        #: join value -> outer keys, kept current with every outer
        #: transaction (in-memory, like a resident secondary index).
        self._outer_by_join: dict = {}
        for record in relation.base.records_snapshot():
            self._outer_by_join.setdefault(
                record[definition.join_field], set()
            ).add(record.key)

    def _inner_is_deferred(self) -> bool:
        from repro.hr.hashed import HashedHypotheticalRelation

        return isinstance(self.inner, HashedHypotheticalRelation)

    def on_transaction(self, txn: Transaction, delta: DeltaSet) -> None:
        if txn.relation == self.definition.inner:
            if not self._inner_is_deferred():
                raise NotImplementedError(
                    "this deferred join's inner relation is plain hashed "
                    "storage; create it with kind='hashed_hypothetical' to "
                    "defer inner updates, or use Strategy.IMMEDIATE"
                )
            # Inner deltas sit in the inner AD file until refresh; the
            # view predicate screens outer tuples only, so there is no
            # per-tuple screening work here.
            return
        self._track_outer(delta)
        super().on_transaction(txn, delta)

    def _track_outer(self, delta: DeltaSet) -> None:
        field = self.definition.join_field
        for record in delta.deleted:
            keys = self._outer_by_join.get(record[field])
            if keys is not None:
                keys.discard(record.key)
                if not keys:
                    del self._outer_by_join[record[field]]
        for record in delta.inserted:
            self._outer_by_join.setdefault(record[field], set()).add(record.key)

    def _apply_marked(self, marked_ins: list, marked_del: list) -> None:
        from repro.views.delta import ChangeSet

        changes = ChangeSet()
        meter = self.relation.meter
        # Term 1: outer deltas against the pre-batch inner state.
        try:
            for record, sign in (
                [(r, +1) for r in marked_ins] + [(r, -1) for r in marked_del]
            ):
                join_value = record[self.definition.join_field]
                if self._inner_is_deferred():
                    partners = self.inner.probe_base(join_value)
                else:
                    partners = self.inner.probe_pinned(join_value)
                for inner_record in partners:
                    meter.record_screen()
                    vt = self.definition.combine(record, inner_record)
                    if sign > 0:
                        changes.insert(vt)
                    else:
                        changes.delete(vt)
        finally:
            if not self._inner_is_deferred():
                self.inner.pool.unpin_all()
        # Term 2: inner deltas against the post-batch outer state.
        if self._inner_is_deferred():
            inner_net = self.inner.net_changes()  # reads the inner AD
            for inner_record, sign in (
                [(r, +1) for r in inner_net.inserted]
                + [(r, -1) for r in inner_net.deleted]
            ):
                join_value = inner_record[self.definition.join_field]
                for outer_key in sorted(self._outer_by_join.get(join_value, ())):
                    outer = self.relation.read_by_key(outer_key)
                    if outer is None:
                        continue
                    meter.record_screen()
                    if not self.definition.predicate.matches(outer):
                        continue
                    vt = self.definition.combine(outer, inner_record)
                    if sign > 0:
                        changes.insert(vt)
                    else:
                        changes.delete(vt)
            self.inner.reset(inner_net)
        if changes:
            self.matview.apply_changes(changes)


class DeferredAggregate(_DeferredBase):
    """Model 3 deferred maintenance of a one-page aggregate state."""

    def __init__(
        self,
        definition: AggregateView,
        relation: HypotheticalRelation,
        store: AggregateStateStore,
    ) -> None:
        super().__init__(definition, relation)
        self.store = store

    def _apply_marked(self, marked_ins: list, marked_del: list) -> None:
        refresh_aggregate(self.definition, self.store, marked_ins, marked_del)
