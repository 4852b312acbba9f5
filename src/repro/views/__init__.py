"""View definitions, predicates, delta algebra and materialized storage."""

from .aggregates import (
    AGGREGATE_NAMES,
    AggregateFunction,
    AverageAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
    make_aggregate,
)
from .definition import (
    AggregateView,
    JoinView,
    Layout,
    SelectProjectView,
    ViewDefinitionError,
    ViewTuple,
)
from .delta import (
    ChangeSet,
    DeltaSet,
    join_changes,
    join_changes_blakeley_original,
)
from .matview import AggregateStateStore, DuplicateCountError, MaterializedView
from .predicate import (
    AndPredicate,
    ComparisonPredicate,
    Interval,
    IntervalPredicate,
    NotPredicate,
    OrPredicate,
    Predicate,
    TruePredicate,
    is_readily_ignorable,
)

__all__ = [
    "AGGREGATE_NAMES",
    "AggregateFunction",
    "AggregateStateStore",
    "AggregateView",
    "AndPredicate",
    "AverageAggregate",
    "ChangeSet",
    "ComparisonPredicate",
    "CountAggregate",
    "DeltaSet",
    "DuplicateCountError",
    "Interval",
    "IntervalPredicate",
    "JoinView",
    "Layout",
    "MaterializedView",
    "MaxAggregate",
    "MinAggregate",
    "NotPredicate",
    "OrPredicate",
    "Predicate",
    "SelectProjectView",
    "SumAggregate",
    "TruePredicate",
    "ViewDefinitionError",
    "ViewTuple",
    "is_readily_ignorable",
    "join_changes",
    "join_changes_blakeley_original",
    "make_aggregate",
]
