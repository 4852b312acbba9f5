"""Immediate view maintenance: refresh after every transaction.

Blakeley et al.'s scheme (Section 2.1): the transaction's net A/D sets
are kept in an in-memory data structure (``c3`` per marked tuple to
maintain and reset, the paper's ``C_overhead``), screened through the
two-stage test, and the surviving tuples update the stored view before
the next operation runs.
"""

from __future__ import annotations

from typing import Any

from repro.core.strategies import Strategy
from repro.engine.relations import HashedRelation
from repro.engine.transaction import Transaction
from repro.hr.differential import ClusteredRelation
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.delta import DeltaSet
from repro.views.matview import AggregateStateStore, MaterializedView
from .base import MaintenanceStrategy
from .refresh import refresh_aggregate, refresh_join, refresh_select_project
from .screening import TwoStageScreen

__all__ = ["ImmediateSelectProject", "ImmediateJoin", "ImmediateAggregate"]


class _ImmediateBase(MaintenanceStrategy):
    """Shared screening + A/D-set bookkeeping for immediate variants."""

    strategy = Strategy.IMMEDIATE

    def __init__(self, definition, relation: ClusteredRelation) -> None:
        self.definition = definition
        self.relation = relation
        self.screen = TwoStageScreen(
            definition.predicate,
            relation.meter,
            view_fields_read=definition.fields_read(),
        )
        self.refresh_count = 0

    @property
    def view_name(self) -> str:
        return self.definition.name

    def query(self, lo: Any = None, hi: Any = None) -> Any:
        """The copy is maintained per transaction: always current."""
        return self.read_stored(lo, hi)

    def _marked(self, txn: Transaction, delta: DeltaSet):
        """Screen the transaction's delta; returns (ins, del) or None.

        ``None`` means the whole command was readily ignorable.  Each
        marked tuple costs ``c3`` to place in / clear from the
        in-memory A and D sets (``C_overhead``).
        """
        if self.screen.transaction_is_riu(txn.written_fields()):
            return None
        marked_ins = self.screen.screen_many(delta.inserted)
        marked_del = self.screen.screen_many(delta.deleted)
        self.relation.meter.record_ad_op(len(marked_ins) + len(marked_del))
        return marked_ins, marked_del


class ImmediateSelectProject(_ImmediateBase):
    """Model 1 immediate maintenance over a duplicate-counted copy."""

    def __init__(
        self,
        definition: SelectProjectView,
        relation: ClusteredRelation,
        matview: MaterializedView,
    ) -> None:
        super().__init__(definition, relation)
        self.matview = matview

    def on_transaction(self, txn: Transaction, delta: DeltaSet) -> None:
        marked = self._marked(txn, delta)
        if marked is None:
            return
        marked_ins, marked_del = marked
        if marked_ins or marked_del:
            refresh_select_project(self.definition, self.matview, marked_ins, marked_del)
            self.refresh_count += 1


class ImmediateJoin(_ImmediateBase):
    """Model 2 immediate maintenance, for updates on *either* side.

    The paper's Model 2 never updates ``R2``; this implementation also
    handles inner-side transactions (the delta algebra's two-sided
    case): an in-memory join index maps join values to outer keys, and
    each changed inner tuple fetches its joining outer tuples at one
    I/O apiece, mirroring the outer side's hash probes.
    """

    def __init__(
        self,
        definition: JoinView,
        relation: ClusteredRelation,
        inner: HashedRelation,
        matview: MaterializedView,
    ) -> None:
        super().__init__(definition, relation)
        self.inner = inner
        self.matview = matview
        self._outer_by_join: dict = {}
        for record in relation.records_snapshot():
            self._outer_by_join.setdefault(record[definition.join_field], set()).add(
                record.key
            )

    def on_transaction(self, txn: Transaction, delta: DeltaSet) -> None:
        if txn.relation == self.definition.inner:
            self._on_inner_delta(delta)
            return
        self._track_outer(delta)
        marked = self._marked(txn, delta)
        if marked is None:
            return
        marked_ins, marked_del = marked
        if marked_ins or marked_del:
            refresh_join(
                self.definition,
                self.inner,
                self.matview,
                marked_ins,
                marked_del,
                self.relation.meter,
            )
            self.refresh_count += 1

    def _track_outer(self, delta: DeltaSet) -> None:
        """Keep the join index current (in-memory, like a resident
        secondary index; no I/O charged)."""
        field = self.definition.join_field
        for record in delta.deleted:
            keys = self._outer_by_join.get(record[field])
            if keys is not None:
                keys.discard(record.key)
                if not keys:
                    del self._outer_by_join[record[field]]
        for record in delta.inserted:
            self._outer_by_join.setdefault(record[field], set()).add(record.key)

    def _on_inner_delta(self, delta: DeltaSet) -> None:
        """Apply inner-relation changes to the stored join view."""
        from repro.views.delta import ChangeSet

        changes = ChangeSet()
        meter = self.relation.meter
        touched = False
        for inner_record, sign in (
            [(r, +1) for r in delta.inserted] + [(r, -1) for r in delta.deleted]
        ):
            join_value = inner_record[self.definition.join_field]
            for outer_key in sorted(self._outer_by_join.get(join_value, ())):
                outer = self.relation.read_by_key(outer_key)  # one I/O each
                if outer is None:
                    continue
                meter.record_screen()  # c1 predicate test per pair
                if not self.definition.predicate.matches(outer):
                    continue
                vt = self.definition.combine(outer, inner_record)
                if sign > 0:
                    changes.insert(vt)
                else:
                    changes.delete(vt)
                touched = True
        if touched:
            self.matview.apply_changes(changes)
            self.refresh_count += 1


class ImmediateAggregate(_ImmediateBase):
    """Model 3 immediate maintenance of a one-page aggregate state."""

    def __init__(
        self,
        definition: AggregateView,
        relation: ClusteredRelation,
        store: AggregateStateStore,
    ) -> None:
        super().__init__(definition, relation)
        self.store = store

    def on_transaction(self, txn: Transaction, delta: DeltaSet) -> None:
        marked = self._marked(txn, delta)
        if marked is None:
            return
        marked_ins, marked_del = marked
        if refresh_aggregate(self.definition, self.store, marked_ins, marked_del):
            self.refresh_count += 1
