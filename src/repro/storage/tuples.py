"""Records, view tuples and schemas for the simulated relations.

The paper models tuples as opaque ``S``-byte values with a unique key
and whatever attributes the view predicate / join reads.  Both kinds of
tuple are a positional *row* over a shared :class:`Layout`: a base
:class:`Record` is a key plus a row, a :class:`ViewTuple` (a view's
projected result) is a row alone.  A :class:`Schema` fixes the field
set, the key field and the tuple size (which determines the blocking
factor ``T = B/S``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = ["Layout", "Schema", "Record", "ViewTuple", "SchemaError", "record_repr"]


class SchemaError(ValueError):
    """A record does not conform to its schema."""


def _getter(keys: Sequence[Any]) -> Callable[[Any], tuple]:
    """``itemgetter(*keys)``, returning a tuple for one key or none too."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda source: tuple(map(source.__getitem__, keys))


class Layout:
    """The field order of a row, shared by every tuple laid out the same.

    ``fields`` is the row's order and ``index`` a field's position in it.
    ``image`` is the order the tuple's ``values``, ``repr`` and page
    image list the fields in (a permutation of ``fields``); ``names`` is
    the sorted order ``identity`` pairs them in.  Layouts are interned:
    :meth:`of` hands out one object per ``(fields, image)``.
    """

    __slots__ = ("fields", "index", "image", "names", "_by_name", "_by_image", "_from_image")

    def __init__(self, fields: tuple[str, ...], image: tuple[str, ...]) -> None:
        self.fields, self.image, self.names = fields, image, tuple(sorted(fields))
        if sorted(image) != list(self.names):
            raise ValueError(f"image {image} is not an order of the fields {fields}")
        self.index = {name: at for at, name in enumerate(fields)}
        self._by_name, self._by_image = self.pick(self.names), self.pick(image)
        at = {name: i for i, name in enumerate(image)}
        self._from_image = tuple if image == fields else _getter([at[f] for f in fields])

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
        vt = _new_tuple(ViewTuple)
        _set_layout(vt, self)
        _set_row(vt, row)
        return vt

    def record(self, key: Any, row: tuple) -> "Record":
        """Trusted constructor: the record ``key`` over ``row``, taken as
        it is."""
        record = _new_record(Record)
        _set_key(record, key)
        _set_layout(record, self)
        _set_row(record, row)
        _set_record_hash(record, None)
        return record

    def items(self, row: tuple) -> Iterable[tuple[str, Any]]:
        """``row``'s ``(field, value)`` pairs in image order."""
        return zip(self.image, self._by_image(row))

    def identity(self, row: tuple) -> tuple:
        """``row``'s ``(field, value)`` pairs in name order."""
        return tuple(zip(self.names, self._by_name(row)))


_LAYOUTS: dict[tuple[tuple[str, ...], tuple[str, ...]], Layout] = {}


@dataclass(frozen=True)
class Schema:
    """Field layout of one relation.

    ``tuple_bytes`` is the paper's ``S``; together with the block size
    it fixes how many records fit on a page.
    """

    name: str
    fields: tuple[str, ...]
    key_field: str
    tuple_bytes: int = 100

    def __post_init__(self) -> None:
        if not self.fields:
            raise SchemaError(f"schema {self.name!r} has no fields")
        if len(set(self.fields)) != len(self.fields):
            raise SchemaError(f"schema {self.name!r} has duplicate fields")
        if self.key_field not in self.fields:
            raise SchemaError(
                f"key field {self.key_field!r} not among fields of {self.name!r}"
            )
        if self.tuple_bytes < 1:
            raise SchemaError(f"tuple_bytes must be >= 1, got {self.tuple_bytes}")

    def records_per_page(self, block_bytes: int) -> int:
        """Blocking factor ``T = B/S`` (at least one record per page)."""
        return max(1, block_bytes // self.tuple_bytes)

    def new_record(self, **values: Any) -> "Record":
        """Build a record, checking the field set matches the schema: a
        row in schema order, imaged in the order ``values`` lists them."""
        try:
            layout = Layout.of(self.fields, values)
        except ValueError:  # not an order of the schema's fields
            raise self.fields_error(values) from None
        return layout.record(values[self.key_field], layout._from_image(tuple(values.values())))

    def fields_error(self, given: Iterable[str]) -> SchemaError:
        """The error for a record whose fields are ``given``, not this
        schema's."""
        names, own = set(given), set(self.fields)
        return SchemaError(
            f"record fields do not match schema {self.name!r}: "
            f"missing={sorted(own - names)}, extra={sorted(names - own)}"
        )

    def updated(self, record: "Record", **changes: Any) -> "Record":
        """Return a copy of ``record`` with some fields replaced, imaged
        in the same order.

        The key is recomputed from the (possibly updated) key field, so
        key-changing updates stay consistent with the schema.
        """
        unknown = changes.keys() - set(self.fields)
        if unknown:
            raise SchemaError(f"unknown fields {sorted(unknown)} in update")
        layout = record.layout
        if layout.fields != self.fields:  # a record built off this schema
            return self.new_record(**{**record.values, **changes})
        row = list(record.row)
        for name, value in changes.items():
            row[layout.index[name]] = value
        return layout.record(row[layout.index[self.key_field]], tuple(row))


class _Row:
    """What a record and a view tuple share: a positional ``row`` over a
    shared :class:`Layout`, read by field name.  Immutable in fact, so
    one tuple may be held by any number of readers."""

    __slots__ = ("layout", "row")

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getitem__(self, field: str) -> Any:
        return self.row[self.layout.index[field]]

    def get(self, field: str, default: Any = None) -> Any:
        """Field access with a default (dict.get semantics)."""
        at = self.layout.index.get(field)
        return default if at is None else self.row[at]

    @property
    def values(self) -> Mapping[str, Any]:
        """The fields, read-only and in image order, built per call
        (assigning through it raises ``TypeError``)."""
        return MappingProxyType(dict(self.layout.items(self.row)))


class Record(_Row):
    """An immutable base tuple: a key plus a row.

    Records hash and compare by *value* (key and all fields, whatever
    their order) so they can live in the A/D sets, Bloom filters and
    duplicate-count maps that the maintenance algorithms manipulate.
    The value hash is computed lazily on first use: most records flow
    through scans, screens and batch kernels without ever being hashed.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: Any, values: Mapping[str, Any]) -> None:
        _set_key(self, key)
        _set_layout(self, Layout.of(values))
        _set_row(self, tuple(values.values()))
        _set_record_hash(self, None)

    def identity(self) -> tuple:
        """The ``(field, value)`` pairs in name order."""
        return self.layout.identity(self.row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        if self.key != other.key:
            return False
        if self.layout is other.layout or self.layout.fields == other.layout.fields:
            return self.row == other.row
        return self.identity() == other.identity()

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.key, self.identity()))
            _set_record_hash(self, value)
        return value

    def __repr__(self) -> str:
        return record_repr(self.key, self.layout.items(self.row))


class ViewTuple(_Row):
    """A projected result tuple — hashable by value for duplicate counts.

    Field access, equality, hash and ``repr`` do not depend on the
    layout.  Identity (the sorted item tuple) and the hash derived from
    it are computed lazily and cached in slots that stay unset until
    then: query results build many view tuples that are returned to the
    caller without ever being hashed or stored, and the batch apply path
    calls :meth:`identity` repeatedly on the same tuple.
    """

    __slots__ = ("_hash", "_identity")

    def __init__(self, values: Mapping[str, Any]) -> None:
        _set_layout(self, Layout.of(values))
        _set_row(self, tuple(values.values()))

    def identity(self) -> tuple:
        """Canonical sortable identity used as a storage key."""
        identity = getattr(self, "_identity", None)
        if identity is None:
            identity = self.layout.identity(self.row)
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
_new_tuple, _new_record = ViewTuple.__new__, Record.__new__
_set_layout, _set_row = _Row.layout.__set__, _Row.row.__set__
_set_hash, _set_identity = ViewTuple._hash.__set__, ViewTuple._identity.__set__
_set_key, _set_record_hash = Record.key.__set__, Record._hash.__set__


def record_repr(key: Any, items: Iterable[tuple[str, Any]]) -> str:
    """A record's ``repr`` — and page image — from its key and its
    ``(field, value)`` items in order, for payloads that render as one."""
    inner = ", ".join([f"{k}={v!r}" for k, v in items])
    return f"Record(key={key!r}, {inner})"
