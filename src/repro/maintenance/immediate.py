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
from repro.engine.transaction import Transaction
from repro.views.delta import DeltaSet
from .base import MaintenanceStrategy
from .models import Model
from .screening import TwoStageScreen

__all__ = ["Immediate"]


class Immediate(MaintenanceStrategy):
    """Screen each transaction's delta and apply it at once."""

    def __init__(self, model: Model, strategy: Strategy = Strategy.IMMEDIATE) -> None:
        super().__init__(model, strategy)
        self.screen = TwoStageScreen(
            self.definition.predicate,
            self.relation.meter,
            view_fields_read=self.definition.fields_read(),
        )
        self.refresh_count = 0

    def on_transaction(self, txn: Transaction, delta: DeltaSet) -> None:
        if txn.relation != self.relation.schema.name:
            # A join's inner side: the view predicate reads outer
            # tuples only, so there is nothing to screen.
            if self.model.apply_inner(delta):
                self.refresh_count += 1
            return
        self.model.track(delta)
        if self.screen.transaction_is_riu(txn.written_fields()):
            return  # the whole command was readily ignorable
        marked_ins = self.screen.screen_batch(delta.inserted)
        marked_del = self.screen.screen_batch(delta.deleted)
        # Each marked tuple costs c3 to place in / clear from the
        # in-memory A and D sets (C_overhead).
        self.relation.meter.record_ad_op(len(marked_ins) + len(marked_del))
        if marked_ins or marked_del:
            self.model.apply(marked_ins, marked_del)
            self.refresh_count += 1

    def query(self, lo: Any = None, hi: Any = None) -> Any:
        """The copy is maintained per transaction: always current."""
        return self.read_stored(lo, hi)
