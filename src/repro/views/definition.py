"""View definitions: the three structures of Section 3.1.

A view definition is declarative — it names base relations, a
predicate, projections and (for Model 3) an aggregate — and knows how
to *evaluate itself from scratch* over in-memory record collections.
The maintenance strategies and the delta algebra
(:mod:`repro.views.delta`) use the same definition objects, so
"recompute" and "incrementally maintain" are guaranteed to describe the
same view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.storage.tuples import Layout, Record, ViewTuple, _getter
from .aggregates import AggregateFunction, make_aggregate
from .predicate import Predicate

__all__ = [
    "Layout",
    "ViewTuple",
    "SelectProjectView",
    "JoinView",
    "AggregateView",
    "ViewDefinitionError",
]


class ViewDefinitionError(ValueError):
    """A view definition is internally inconsistent."""


class _Picks(dict):
    """Per base-record layout, the getter of ``fields`` from its rows,
    built the first time a record laid out that way is projected."""

    def __init__(self, fields: tuple[str, ...]) -> None:
        super().__init__()
        self.fields = fields

    def __missing__(self, layout: Layout) -> Callable[[tuple], tuple]:
        pick = self[layout] = layout.pick(self.fields)
        return pick


def _lay_out(definition: Any, projection: tuple[str, ...]) -> Layout:
    """Set a definition's layout: in wire order, the view key first and
    the rest by name, imaged in projection order."""
    image = tuple(dict.fromkeys(projection))
    key = definition.view_key
    layout = Layout.of((key, *sorted(set(image) - {key})), image)
    object.__setattr__(definition, "layout", layout)
    return layout


@dataclass(frozen=True)
class SelectProjectView:
    """Model 1: ``V = pi_projection(sigma_predicate(R))``.

    ``view_key`` is the projected field the materialized copy is
    clustered on (the paper clusters the view on the field used in the
    view predicate).
    """

    name: str
    relation: str
    predicate: Predicate
    projection: tuple[str, ...]
    view_key: str
    #: Set by ``__post_init__`` (see ``_lay_out``).
    layout: Layout = field(init=False, repr=False, compare=False)
    _pick: _Picks = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.projection:
            raise ViewDefinitionError(f"view {self.name!r} projects no fields")
        if self.view_key not in self.projection:
            raise ViewDefinitionError(
                f"view key {self.view_key!r} must be projected in {self.name!r}"
            )
        object.__setattr__(self, "_pick", _Picks(_lay_out(self, self.projection).fields))

    @property
    def sources(self) -> tuple[str, ...]:
        """Relations the view reads; the first is the one it screens."""
        return (self.relation,)

    def fields_read(self) -> frozenset[str]:
        """Fields the definition reads (predicate + projection): RIU set."""
        return self.predicate.fields_read() | frozenset(self.projection)

    def project(self, record: Record) -> ViewTuple:
        """Project one base tuple to its view tuple."""
        return self.layout.make(self._pick[record.layout](record.row))

    def evaluate(self, records: Iterable[Record]) -> list[ViewTuple]:
        """Compute the view from scratch (duplicates preserved)."""
        return [self.project(r) for r in records if self.predicate.matches(r)]


@dataclass(frozen=True)
class JoinView:
    """Model 2: natural join of ``outer`` and ``inner`` on a key field.

    ``predicate`` restricts the outer relation (the paper's ``C_f``
    clause with selectivity ``f``); the join is on
    ``outer.join_field = inner.join_field`` where the join field is a
    key of the inner relation (each outer tuple joins at most one inner
    tuple).  Half of each side's attributes are projected.
    """

    name: str
    outer: str
    inner: str
    join_field: str
    predicate: Predicate
    outer_projection: tuple[str, ...]
    inner_projection: tuple[str, ...]
    view_key: str
    #: Set by ``__post_init__``: the layout, a picker per side, the row's.
    layout: Layout = field(init=False, repr=False, compare=False)
    _sides: tuple[_Picks, _Picks] = field(init=False, repr=False, compare=False)
    _pick: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.outer_projection and not self.inner_projection:
            raise ViewDefinitionError(f"join view {self.name!r} projects no fields")
        overlap = set(self.outer_projection) & set(self.inner_projection)
        if overlap - {self.join_field}:
            raise ViewDefinitionError(
                f"join view {self.name!r}: ambiguous projected fields {sorted(overlap)}"
            )
        projected = set(self.outer_projection) | set(self.inner_projection)
        if self.view_key not in projected:
            raise ViewDefinitionError(
                f"view key {self.view_key!r} must be projected in {self.name!r}"
            )
        both = self.outer_projection + self.inner_projection
        at = {name: i for i, name in enumerate(both)}  # the inner side wins
        object.__setattr__(self, "_sides", (_Picks(self.outer_projection),
                                            _Picks(self.inner_projection)))
        object.__setattr__(self, "_pick", _getter([at[f] for f in _lay_out(self, both).fields]))

    @property
    def sources(self) -> tuple[str, ...]:
        """Relations the view reads; the first is the one it screens."""
        return (self.outer, self.inner)

    def fields_read(self) -> frozenset[str]:
        """Outer-side fields the definition reads (RIU set for R1 updates)."""
        return (
            self.predicate.fields_read()
            | frozenset(self.outer_projection)
            | frozenset((self.join_field,))
        )

    def combine(self, outer_record: Record, inner_record: Record) -> ViewTuple:
        """Build the result tuple for one joining pair."""
        outer, inner = self._sides
        return self.layout.make(self._pick(
            outer[outer_record.layout](outer_record.row)
            + inner[inner_record.layout](inner_record.row)))

    def evaluate(
        self, outer_records: Iterable[Record], inner_records: Iterable[Record]
    ) -> list[ViewTuple]:
        """Compute the join view from scratch (hash join in memory)."""
        by_key: dict[Any, list[Record]] = {}
        for inner in inner_records:
            by_key.setdefault(inner[self.join_field], []).append(inner)
        result = []
        for outer in outer_records:
            if not self.predicate.matches(outer):
                continue
            for inner in by_key.get(outer[self.join_field], ()):
                result.append(self.combine(outer, inner))
        return result


@dataclass(frozen=True)
class AggregateView:
    """Model 3: an aggregate over a Model-1-style selection.

    ``aggregate`` is the function name (count/sum/avg/min/max);
    ``field`` is the aggregated attribute (ignored by count).
    """

    name: str
    relation: str
    predicate: Predicate
    aggregate: str
    field: str

    def function(self) -> AggregateFunction:
        """Instantiate the aggregate function."""
        return make_aggregate(self.aggregate)

    @property
    def sources(self) -> tuple[str, ...]:
        """Relations the view reads; the first is the one it screens."""
        return (self.relation,)

    def fields_read(self) -> frozenset[str]:
        """Fields the definition reads (predicate + aggregated field)."""
        return self.predicate.fields_read() | frozenset((self.field,))

    def evaluate(self, records: Iterable[Record]) -> Any:
        """Compute the aggregate from scratch."""
        function = self.function()
        state = function.initial_state()
        for record in records:
            if self.predicate.matches(record):
                function.insert(state, record[self.field])
        return function.value(state)
