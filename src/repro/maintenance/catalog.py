"""Strategy x model: the pairs ``Database.define_view`` supports.

The two decisions are independent: the view definition's type picks
the model (what is stored, how a delta changes it), the requested
:class:`~repro.core.strategies.Strategy` picks the class that decides
when maintenance runs.  Query modification, immediate and deferred
maintenance work over all three models; snapshots, Buneman-Clemons
recomputation and hybrid routing are defined for Model 1 only.
"""

from __future__ import annotations

from typing import Any

from repro.core.strategies import QUERY_MODIFICATION_VARIANTS, Strategy, ViewModel
from repro.engine.database import CatalogError
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from .base import MaintenanceStrategy
from .deferred import Deferred
from .hybrid import Hybrid
from .immediate import Immediate
from .models import AggregateModel, JoinModel, Model, SelectProjectModel
from .query_modification import QueryModification
from .snapshot import Snapshot

__all__ = ["MODELS", "SUPPORTED", "model_class", "strategy_class"]

#: View definition type -> the model that stores and maintains it.
MODELS: dict[type, type[Model]] = {
    SelectProjectView: SelectProjectModel,
    JoinView: JoinModel,
    AggregateView: AggregateModel,
}

_ALL = frozenset(ViewModel)
_MODEL_1 = frozenset({ViewModel.SELECT_PROJECT})

#: Strategy -> (the class that runs it, the models it is defined for).
SUPPORTED: dict[Strategy, tuple[type[MaintenanceStrategy], frozenset[ViewModel]]] = {
    **{variant: (QueryModification, _ALL) for variant in QUERY_MODIFICATION_VARIANTS},
    Strategy.IMMEDIATE: (Immediate, _ALL),
    Strategy.DEFERRED: (Deferred, _ALL),
    Strategy.SNAPSHOT: (Snapshot, _MODEL_1),
    Strategy.BC_RECOMPUTE: (Snapshot, _MODEL_1),
    Strategy.HYBRID: (Hybrid, _MODEL_1),
}


def model_class(definition: Any) -> type[Model]:
    """The model class for one view definition."""
    model = MODELS.get(type(definition))
    if model is None:
        raise CatalogError(f"unsupported view definition {type(definition).__name__}")
    return model


def strategy_class(strategy: Strategy, model: type[Model]) -> type[MaintenanceStrategy]:
    """The class running ``strategy``, if it is defined for ``model``."""
    cls, models = SUPPORTED[strategy]
    if model.number not in models:
        raise CatalogError(f"unsupported strategy {strategy} for {model.label} views")
    return cls
