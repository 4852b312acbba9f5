"""Maintenance strategy interface.

A strategy owns everything view-specific: whether a materialized copy
exists, what happens after each base transaction, and how a view query
is answered.  The :class:`~repro.engine.database.Database` routes
transactions and queries to the strategies of the affected views.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any

from repro.core.strategies import Strategy
from repro.engine.transaction import Transaction
from repro.views.delta import DeltaSet

__all__ = ["MaintenanceStrategy", "QueryAnswer"]

#: A view query answers with either result tuples (Models 1/2) or a
#: scalar aggregate value (Model 3).
QueryAnswer = Any


class MaintenanceStrategy(ABC):
    """One view maintained under one strategy."""

    #: Which paper strategy this implements (set by subclasses).
    strategy: Strategy

    @property
    @abstractmethod
    def view_name(self) -> str:
        """Name of the view this strategy maintains."""

    @abstractmethod
    def on_transaction(self, txn: Transaction, delta: DeltaSet) -> None:
        """React to a committed base-relation transaction."""

    @abstractmethod
    def query(self, lo: Any = None, hi: Any = None) -> QueryAnswer:
        """Answer a view query.

        For select-project and join views, ``[lo, hi]`` is a range on
        the view key (``None`` bounds mean unbounded); aggregates
        ignore the range and return the scalar value.
        """

    def read_stored(self, lo: Any = None, hi: Any = None) -> QueryAnswer:
        """Read the stored copy as it stands: no refresh, no rebuild.

        What every materialized strategy's ``query`` ends with, and
        what the serving layer reads when it must not (periodic
        policy, degraded view) or need not (it just ran the shared
        refresh epoch itself) fold first.  An aggregate is one
        state-page read; a tuple view is a range read of the stored
        B+-tree at ``c1`` per tuple read.  Only materialized
        strategies have a stored copy.
        """
        store = getattr(self, "store", None)
        if store is not None:
            return store.value()
        result = self.matview.read_range(
            -math.inf if lo is None else lo, math.inf if hi is None else hi
        )
        self.relation.meter.record_screen(len(result))
        return result
