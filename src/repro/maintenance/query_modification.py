"""Query modification: no stored copy; rewrite queries on base relations.

The conventional approach (Stonebraker 1975).  A transaction needs no
view work at all; every view query is answered by the model's
recompute plan (clustered / unclustered / sequential scan for Model 1,
nested loops for Model 2, clustered recomputation for Model 3).
"""

from __future__ import annotations

from typing import Any

from repro.core.strategies import Strategy
from repro.engine.database import CatalogError
from repro.engine.transaction import Transaction
from repro.views.delta import DeltaSet
from .base import MaintenanceStrategy
from .models import Model

__all__ = ["QueryModification"]


class QueryModification(MaintenanceStrategy):
    """Never screen, never store: recompute at every query."""

    options = ("plan", "index_field", "index_for")

    def __init__(self, model: Model, strategy: Strategy, **plan_options: Any) -> None:
        # The requested variant picks Model 1's default plan; the view
        # then reports the curve its model actually recomputes under.
        super().__init__(model, model.plan_recompute(strategy, **plan_options))

    def on_transaction(self, txn: Transaction, delta: DeltaSet) -> None:
        """Nothing to do: there is no stored copy."""

    def query(self, lo: Any = None, hi: Any = None) -> Any:
        return self.model.recompute(lo, hi)

    def read_stored(self, lo: Any = None, hi: Any = None) -> Any:
        raise CatalogError(
            f"view {self.view_name!r} is answered by query modification "
            f"({self.strategy.label}) and has no stored copy to read"
        )
