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

from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from repro.storage.tuples import Record
from .aggregates import AggregateFunction, make_aggregate
from .predicate import Predicate

__all__ = [
    "ViewTuple",
    "fields_of",
    "SelectProjectView",
    "JoinView",
    "AggregateView",
    "ViewDefinitionError",
]


class ViewDefinitionError(ValueError):
    """A view definition is internally inconsistent."""


class ViewTuple:
    """A projected result tuple — hashable by value for duplicate counts.

    Immutable in fact, not only by convention: the fields live in a dict
    the tuple owns and never hands out (:attr:`values` is a read-only
    view of it), so one tuple may be held by any number of readers — the
    stored copy, every answer that read it, the result cache.

    Identity (the sorted item tuple) and the hash derived from it are
    computed lazily and cached in slots that stay unset until then:
    query results build many view tuples that are returned to the
    caller without ever being hashed or stored, and the batch apply
    path calls :meth:`identity` repeatedly on the same tuple.
    """

    __slots__ = ("_values", "_hash", "_identity")

    def __init__(self, values: Mapping[str, Any]) -> None:
        _set_values(self, dict(values))

    @staticmethod
    def adopt(values: dict[str, Any], identity: tuple | None = None) -> "ViewTuple":
        """Trusted constructor: ``values`` is taken, not copied.

        For the paths that build a fresh dict per tuple and hand it over
        (a projection, the answer codec); the caller must not touch the
        dict afterwards.  A caller that already holds
        ``tuple(sorted(values.items()))`` passes it as ``identity``.
        """
        self = _new(ViewTuple)
        _set_values(self, values)
        if identity is not None:
            _set_identity(self, identity)
        return self

    @property
    def values(self) -> Mapping[str, Any]:
        """The fields, read-only (assigning through it raises ``TypeError``)."""
        return MappingProxyType(self._values)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("ViewTuple is immutable")

    def __getitem__(self, field: str) -> Any:
        return self._values[field]

    def get(self, field: str, default: Any = None) -> Any:
        """Field access with a default (dict.get semantics)."""
        return self._values.get(field, default)

    def identity(self) -> tuple:
        """Canonical sortable identity used as a storage key."""
        identity = getattr(self, "_identity", None)
        if identity is None:
            identity = tuple(sorted(self._values.items()))
            _set_identity(self, identity)
        return identity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViewTuple):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        value = getattr(self, "_hash", None)
        if value is None:
            value = hash(self.identity())
            _set_hash(self, value)
        return value

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"ViewTuple({inner})"


# ``__setattr__`` refuses every assignment, so the class's own code sets
# its slots through their descriptors (half the cost of
# ``object.__setattr__``, on a path that runs once per tuple built).
_new = ViewTuple.__new__
_set_values = ViewTuple._values.__set__
_set_hash = ViewTuple._hash.__set__
_set_identity = ViewTuple._identity.__set__

#: ``fields_of(vt)`` is the tuple's own field dict, without the
#: read-only wrapper :attr:`ViewTuple.values` builds per call: for the
#: bulk paths that read every field of many tuples (a stored tuple's
#: page image, the answer codec).  Read it, never edit it — the tuple
#: is shared.
fields_of = attrgetter("_values")


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

    def __post_init__(self) -> None:
        if not self.projection:
            raise ViewDefinitionError(f"view {self.name!r} projects no fields")
        if self.view_key not in self.projection:
            raise ViewDefinitionError(
                f"view key {self.view_key!r} must be projected in {self.name!r}"
            )

    @property
    def sources(self) -> tuple[str, ...]:
        """Relations the view reads; the first is the one it screens."""
        return (self.relation,)

    def fields_read(self) -> frozenset[str]:
        """Fields the definition reads (predicate + projection): RIU set."""
        return self.predicate.fields_read() | frozenset(self.projection)

    def project(self, record: Record) -> ViewTuple:
        """Project one base tuple to its view tuple."""
        return ViewTuple.adopt({f: record[f] for f in self.projection})

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
        values = {f: outer_record[f] for f in self.outer_projection}
        values.update({f: inner_record[f] for f in self.inner_projection})
        return ViewTuple.adopt(values)

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
