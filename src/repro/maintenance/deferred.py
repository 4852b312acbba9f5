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
from repro.views.delta import DeltaSet
from .base import MaintenanceStrategy
from .models import Model
from .screening import TwoStageScreen

__all__ = ["DeferredCoordinator", "Deferred"]


class InnerBatch:
    """One refresh epoch's read of a differential inner relation ``R2``,
    shared by the ``readers`` joins over it (Section 4, for the inner
    side).  Each join in turn probes the pre-batch base file, then takes
    the net change: the first :meth:`read` reads the AD file, the last
    :meth:`done` folds it — the page accesses of a join applying alone.
    """

    def __init__(self, relation: Any, readers: int) -> None:
        self.relation, self.readers = relation, readers
        self._net: DeltaSet | None = None

    def read(self) -> DeltaSet:
        """The relation's net change set (one AD read per epoch)."""
        if self._net is None:
            self._net = self.relation.net_changes()
        return self._net

    def done(self) -> None:
        """One join has applied the net change; the last one folds."""
        self.readers -= 1
        if not self.readers:
            self.relation.reset(self._net)


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
        self._views: list["Deferred"] = []
        #: Durability hook: called (when set) just before a fold that
        #: actually installs pending changes, so the write-ahead log can
        #: journal the net-change install (:mod:`repro.durability`).
        self.on_refresh: Any = None
        #: Net-delta computations this coordinator has performed.  One
        #: refresh epoch bumps this exactly once however many sibling
        #: views it feeds — the shared-delta invariant the planner
        #: tests assert.
        self.net_computes = 0

    def register(self, view: "Deferred") -> None:
        """Add a view over this coordinator's relation."""
        if view.relation is not self.relation:
            raise ValueError(
                f"view {view.view_name!r} is not over this coordinator's relation"
            )
        self._views.append(view)

    @property
    def views(self) -> tuple["Deferred", ...]:
        return tuple(self._views)

    def deregister(self, view: "Deferred") -> None:
        """Remove a view (catalog drop); the AD backlog stays for the
        remaining siblings."""
        if view in self._views:
            self._views.remove(view)

    def inners(self) -> dict[str, Any]:
        """The differential inner relations of the registered joins, by name."""
        return {
            view.model.inner.schema.name: view.model.inner
            for view in self._views
            if view.model.inner is not None and view.model.inner.differential
        }

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
        if self.on_refresh is not None and self.relation.pending > 0:
            self.on_refresh()
        batches: dict[str, InnerBatch] = {}
        for view in self._views:
            inner = view.model.inner
            if inner is None or not inner.differential:
                view.apply_net(net)
                continue
            if inner.schema.name not in batches:
                readers = sum(v.model.inner is inner for v in self._views)
                batches[inner.schema.name] = InnerBatch(inner, readers)
            view.apply_net(net, batches[inner.schema.name])
        self.relation.reset(net)

    def refresh_all(self) -> None:
        """Read AD once, refresh every registered view, reset the HR."""
        self.install(self.compute_net())


class Deferred(MaintenanceStrategy):
    """Mark tuples as they change; apply the net batch before a read."""

    def __init__(self, model: Model, strategy: Strategy = Strategy.DEFERRED) -> None:
        super().__init__(model, strategy)
        self.screen = TwoStageScreen(
            self.definition.predicate,
            self.relation.meter,
            view_fields_read=self.definition.fields_read(),
        )
        #: Markers: identities of tuples that passed screening at
        #: update time.  Mirrors the paper's per-tuple view markers.
        self._markers: set = set()
        self.refresh_count = 0
        #: Every deferred view belongs to a coordinator; standalone
        #: construction gets a private one.
        self.coordinator = DeferredCoordinator(self.relation)
        self.coordinator.register(self)

    def on_transaction(self, txn: Transaction, delta: DeltaSet) -> None:
        """Screen incoming/deleted tuples and mark the survivors.

        The AD writes themselves were already performed (and charged)
        by the hypothetical relation when the database executed the
        transaction's operations.
        """
        if txn.relation != self.relation.schema.name:
            # A join's inner side: the delta sits in the inner AD file
            # until refresh, and the view predicate screens outer
            # tuples only, so there is no per-tuple work here.
            return
        self.model.track(delta)
        if self.screen.transaction_is_riu(txn.written_fields()):
            return
        self._markers.update(
            self.screen.screen_many(list(delta.inserted) + list(delta.deleted))
        )

    def join_coordinator(self, coordinator: DeferredCoordinator) -> None:
        """Move this view into a shared coordinator (database-managed)."""
        self.coordinator.deregister(self)
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

    def apply_net(self, net: DeltaSet, *inner: InnerBatch) -> None:
        """Apply one already-read net delta (and a join's differential
        ``inner`` one) to this view's stored copy.

        Screening happened at update time, so the marked tuples are
        picked out of the net sets without paying ``c1`` again.
        """
        self.model.apply(
            [r for r in net.inserted if r in self._markers],
            [r for r in net.deleted if r in self._markers],
            *inner,
        )
        self._markers.clear()
        self.refresh_count += 1

    def state_doc(self) -> dict[str, Any]:
        return {
            **self.model.state_doc(),
            "markers": sorted(self._markers, key=repr),
            "refresh_count": self.refresh_count,
        }

    def restore_state(self, doc: dict[str, Any]) -> None:
        self._markers = set(doc["markers"])
        self.refresh_count = doc.get("refresh_count", 0)
        self.model.restore_state(doc)
