"""Maintenance strategy interface.

A strategy decides *when* a view's model (:mod:`.models`) is screened
against, refreshed, read or recomputed: after each transaction, before
each query, on a schedule, or never.  Everything that depends on the
view's shape lives in the model the strategy holds.  The
:class:`~repro.engine.database.Database` routes transactions and
queries to the strategies of the affected views.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.core.strategies import Strategy
from repro.engine.transaction import Transaction
from repro.views.delta import DeltaSet
from .models import Model

__all__ = ["MaintenanceStrategy", "QueryAnswer"]

#: A view query answers with either result tuples (Models 1/2) or a
#: scalar aggregate value (Model 3).
QueryAnswer = Any


class MaintenanceStrategy(ABC):
    """One view maintained under one strategy."""

    #: Names of the ``define_view`` options this strategy's constructor
    #: takes (after ``model`` and ``strategy``).
    options: tuple[str, ...] = ()

    def __init__(self, model: Model, strategy: Strategy) -> None:
        self.model = model
        #: Which paper strategy this runs as.
        self.strategy = strategy
        self.definition = model.definition
        self.relation = model.relation

    @property
    def view_name(self) -> str:
        """Name of the view this strategy maintains."""
        return self.definition.name

    def check_transaction(self, txn: Transaction) -> None:
        """Raise if this view cannot be maintained under ``txn``.

        Asked before the engine journals or applies anything, so a
        refused transaction leaves no trace.
        """
        self.model.check_transaction(txn)

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
        refresh epoch itself) fold first.
        """
        return self.model.read(lo, hi)

    def state_doc(self) -> dict[str, Any] | None:
        """In-memory maintenance state a checkpoint must carry, or
        ``None`` when the stored pages are the whole state."""
        return None

    def restore_state(self, doc: dict[str, Any]) -> None:
        """Adopt a :meth:`state_doc` read back from a checkpoint."""
