"""Semantic analysis: :class:`ParsedView` → typed view definitions.

Classifies a parsed specification into the paper's three view models:

* one relation, field targets            → :class:`SelectProjectView`
* two relations, one equi-join term      → :class:`JoinView`
* one relation, single aggregate target  → :class:`AggregateView`

and checks the pieces against the paper's assumptions (single
conjunctive restriction set, at most one join term, aggregate views
aggregate exactly one field).
"""

from __future__ import annotations

from typing import Any

from repro.views.aggregates import AGGREGATE_NAMES
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import (
    AndPredicate,
    ComparisonPredicate,
    IntervalPredicate,
    Predicate,
    TruePredicate,
)
from .parser import (
    BetweenRestriction,
    ParsedView,
    QualifiedName,
    Restriction,
    TargetAggregate,
    TargetField,
    parse,
)

__all__ = ["BuildError", "build_definition", "define_view_from_text"]


class BuildError(ValueError):
    """A parsed definition is semantically invalid."""


def _predicate_for(spec: ParsedView, relation: str) -> Predicate:
    clauses: list[Predicate] = []
    for restriction in spec.restrictions:
        if restriction.name.relation != relation:
            continue
        if isinstance(restriction, BetweenRestriction):
            clauses.append(
                IntervalPredicate(restriction.name.field, restriction.lo, restriction.hi)
            )
        else:
            clauses.append(
                ComparisonPredicate(restriction.name.field, restriction.op, restriction.value)
            )
    if not clauses:
        return TruePredicate()
    if len(clauses) == 1:
        return clauses[0]
    return AndPredicate(tuple(clauses))


def _foreign_restrictions(spec: ParsedView, relation: str) -> list[str]:
    return [
        str(r.name)
        for r in spec.restrictions
        if r.name.relation != relation
    ]


def _view_key(spec: ParsedView, default: QualifiedName) -> str:
    if spec.clustered_on is not None:
        return spec.clustered_on.field
    return default.field


def build_definition(spec: ParsedView) -> SelectProjectView | JoinView | AggregateView:
    """Turn a parsed spec into the matching typed view definition."""
    aggregates = [t for t in spec.targets if isinstance(t, TargetAggregate)]
    fields = [t for t in spec.targets if isinstance(t, TargetField)]

    if aggregates:
        return _build_aggregate(spec, aggregates, fields)
    if spec.joins:
        return _build_join(spec, fields)
    return _build_select_project(spec, fields)


def _build_select_project(spec: ParsedView, fields: list[TargetField]) -> SelectProjectView:
    relations = spec.relations()
    if len(relations) != 1:
        raise BuildError(
            f"select-project view {spec.name!r} must reference exactly one "
            f"relation, found {list(relations)}"
        )
    relation = relations[0]
    predicate = _predicate_for(spec, relation)
    projection = tuple(t.name.field for t in fields)
    key = _view_key(spec, fields[0].name)
    if key not in projection:
        raise BuildError(
            f"view {spec.name!r}: clustering field {key!r} must be projected"
        )
    return SelectProjectView(
        name=spec.name,
        relation=relation,
        predicate=predicate,
        projection=projection,
        view_key=key,
    )


def _build_join(spec: ParsedView, fields: list[TargetField]) -> JoinView:
    if len(spec.joins) != 1:
        raise BuildError(
            f"view {spec.name!r}: the paper's Model 2 allows exactly one "
            f"join term, found {len(spec.joins)}"
        )
    join = spec.joins[0]
    if join.left.field != join.right.field:
        raise BuildError(
            f"view {spec.name!r}: natural join requires the same field name "
            f"on both sides, got {join.left} = {join.right}"
        )
    relations = spec.relations()
    if len(relations) != 2:
        raise BuildError(
            f"join view {spec.name!r} must reference exactly two relations, "
            f"found {list(relations)}"
        )
    outer, inner = join.left.relation, join.right.relation
    foreign = _foreign_restrictions(spec, outer)
    if foreign:
        raise BuildError(
            f"view {spec.name!r}: restrictions must apply to the outer "
            f"relation {outer!r} (the paper's C_f); found {foreign}"
        )
    outer_projection = tuple(
        t.name.field for t in fields if t.name.relation == outer
    )
    inner_projection = tuple(
        t.name.field for t in fields if t.name.relation == inner
    )
    default_key = next(
        (t.name for t in fields if t.name.relation == outer), fields[0].name
    )
    key = _view_key(spec, default_key)
    return JoinView(
        name=spec.name,
        outer=outer,
        inner=inner,
        join_field=join.left.field,
        predicate=_predicate_for(spec, outer),
        outer_projection=outer_projection,
        inner_projection=inner_projection,
        view_key=key,
    )


def _build_aggregate(
    spec: ParsedView,
    aggregates: list[TargetAggregate],
    fields: list[TargetField],
) -> AggregateView:
    if len(aggregates) != 1 or fields:
        raise BuildError(
            f"aggregate view {spec.name!r} must have exactly one aggregate "
            "target and no plain fields (the paper's Model 3)"
        )
    if spec.joins:
        raise BuildError(
            f"aggregate view {spec.name!r}: Model 3 aggregates a single "
            "relation, joins are not allowed"
        )
    target = aggregates[0]
    if target.function not in AGGREGATE_NAMES:
        raise BuildError(
            f"unknown aggregate {target.function!r}; expected one of "
            f"{AGGREGATE_NAMES}"
        )
    relation = target.name.relation
    foreign = _foreign_restrictions(spec, relation)
    if foreign:
        raise BuildError(
            f"aggregate view {spec.name!r}: restrictions must apply to "
            f"{relation!r}, found {foreign}"
        )
    return AggregateView(
        name=spec.name,
        relation=relation,
        predicate=_predicate_for(spec, relation),
        aggregate=target.function,
        field=target.name.field,
    )


def define_view_from_text(
    database: Any, source: str, strategy: Any, **define_kwargs: Any
):
    """Parse, build and register a view in one call.

    ``database`` is a :class:`repro.engine.database.Database`;
    ``strategy`` a :class:`repro.core.strategies.Strategy`.  Returns
    the registered maintenance-strategy object.
    """
    spec = parse(source)
    definition = build_definition(spec)
    return database.define_view(definition, strategy, **define_kwargs)
