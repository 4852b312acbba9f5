"""The view materialization strategies, runnable over the engine:
one class per strategy (when to maintain), one per view model (what is
stored and how a delta changes it)."""

from .base import MaintenanceStrategy
from .deferred import Deferred, DeferredCoordinator
from .hybrid import Hybrid, RouteDecision
from .immediate import Immediate
from .models import AggregateModel, JoinModel, Model, SelectProjectModel
from .planner import SharedDeltaPlanner
from .query_modification import QueryModification
from .screening import ScreenStats, TLockIndex, TwoStageScreen
from .snapshot import Snapshot

__all__ = [
    "AggregateModel",
    "Deferred",
    "DeferredCoordinator",
    "Hybrid",
    "Immediate",
    "JoinModel",
    "MaintenanceStrategy",
    "Model",
    "QueryModification",
    "RouteDecision",
    "ScreenStats",
    "SelectProjectModel",
    "SharedDeltaPlanner",
    "Snapshot",
    "TLockIndex",
    "TwoStageScreen",
]
