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
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.storage.tuples import Record
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


def _getter(keys: Sequence[Any]) -> Callable[[Any], tuple]:
    """``itemgetter(*keys)``, returning a tuple for one key or none too."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda source: tuple(map(source.__getitem__, keys))


class Layout:
    """The field order of a view tuple's row, shared by every tuple in it.

    ``fields`` is the row's order and ``index`` a field's position in it.
    ``image`` is the order a stored tuple's page image and
    :attr:`ViewTuple.values` list the fields in (a definition's
    projection order); ``names`` is the sorted order
    :meth:`ViewTuple.identity` pairs them in.  Layouts are interned:
    :meth:`of` hands out one object per ``(fields, image)``.
    """

    __slots__ = ("fields", "index", "image", "names", "_by_name", "_by_image")

    def __init__(self, fields: tuple[str, ...], image: tuple[str, ...]) -> None:
        self.fields, self.image, self.names = fields, image, tuple(sorted(fields))
        self.index = {name: at for at, name in enumerate(fields)}
        self._by_name, self._by_image = self.pick(self.names), self.pick(image)

    @staticmethod
    def of(fields: Iterable[str], image: Iterable[str] | None = None) -> "Layout":
        """The one layout of rows in ``fields`` order (imaged in ``image``
        order, by default the same)."""
        fields = tuple(fields)
        key = (fields, fields if image is None else tuple(image))
        return _LAYOUTS.get(key) or _LAYOUTS.setdefault(key, Layout(*key))

    def pick(self, fields: tuple[str, ...]) -> Callable[[tuple], tuple]:
        """A function from a row of this layout to the values of
        ``fields``, in that order (``tuple`` itself when that is the row)."""
        if fields == self.fields:
            return tuple
        return _getter([self.index[name] for name in fields])

    def make(self, row: tuple) -> "ViewTuple":
        """Trusted constructor: the view tuple over ``row``, a tuple of
        values in this layout's field order, taken as it is."""
        vt = _new(ViewTuple)
        _set_layout(vt, self)
        _set_row(vt, row)
        return vt

    def items(self, row: tuple) -> Iterable[tuple[str, Any]]:
        """``row``'s ``(field, value)`` pairs in image order."""
        return zip(self.image, self._by_image(row))


_LAYOUTS: dict[tuple[tuple[str, ...], tuple[str, ...]], Layout] = {}


class ViewTuple:
    """A projected result tuple — hashable by value for duplicate counts.

    A positional ``row`` over a shared :class:`Layout`; field access,
    equality, hash and ``repr`` do not depend on the layout.  Immutable
    in fact, not only by convention, so one tuple may be held by any
    number of readers — the stored copy, every answer that read it, the
    result cache.

    Identity (the sorted item tuple) and the hash derived from it are
    computed lazily and cached in slots that stay unset until then:
    query results build many view tuples that are returned to the
    caller without ever being hashed or stored, and the batch apply
    path calls :meth:`identity` repeatedly on the same tuple.
    """

    __slots__ = ("layout", "row", "_hash", "_identity")

    def __init__(self, values: Mapping[str, Any]) -> None:
        _set_layout(self, Layout.of(values))
        _set_row(self, tuple(values.values()))

    @property
    def values(self) -> Mapping[str, Any]:
        """The fields, read-only (assigning through it raises ``TypeError``)."""
        return MappingProxyType(dict(self.layout.items(self.row)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("ViewTuple is immutable")

    def __getitem__(self, field: str) -> Any:
        return self.row[self.layout.index[field]]

    def get(self, field: str, default: Any = None) -> Any:
        """Field access with a default (dict.get semantics)."""
        at = self.layout.index.get(field)
        return default if at is None else self.row[at]

    def identity(self) -> tuple:
        """Canonical sortable identity used as a storage key."""
        identity = getattr(self, "_identity", None)
        if identity is None:
            identity = tuple(zip(self.layout.names, self.layout._by_name(self.row)))
            _set_identity(self, identity)
        return identity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViewTuple):
            return NotImplemented
        if self.layout is other.layout:
            return self.row == other.row
        return self.identity() == other.identity()

    def __hash__(self) -> int:
        value = getattr(self, "_hash", None)
        if value is None:
            value = hash(self.identity())
            _set_hash(self, value)
        return value

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.identity())
        return f"ViewTuple({inner})"


# ``__setattr__`` refuses every assignment, so the module sets the slots
# through their descriptors (half the cost of ``object.__setattr__``, on
# a path that runs once per tuple built).
_new = ViewTuple.__new__
_set_layout = ViewTuple.layout.__set__
_set_row = ViewTuple.row.__set__
_set_hash = ViewTuple._hash.__set__
_set_identity = ViewTuple._identity.__set__


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
    _pick: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.projection:
            raise ViewDefinitionError(f"view {self.name!r} projects no fields")
        if self.view_key not in self.projection:
            raise ViewDefinitionError(
                f"view key {self.view_key!r} must be projected in {self.name!r}"
            )
        object.__setattr__(self, "_pick", _getter(_lay_out(self, self.projection).fields))

    @property
    def sources(self) -> tuple[str, ...]:
        """Relations the view reads; the first is the one it screens."""
        return (self.relation,)

    def fields_read(self) -> frozenset[str]:
        """Fields the definition reads (predicate + projection): RIU set."""
        return self.predicate.fields_read() | frozenset(self.projection)

    def project(self, record: Record) -> ViewTuple:
        """Project one base tuple to its view tuple."""
        return self.layout.make(self._pick(record.values))

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
    _sides: tuple[Callable, Callable] = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_sides", (_getter(self.outer_projection),
                                            _getter(self.inner_projection)))
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
        return self.layout.make(self._pick(outer(outer_record.values) + inner(inner_record.values)))

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
