"""Update transactions: the unit the maintenance strategies react to.

A transaction is a batch of inserts, deletes and in-place updates to
one base relation (the paper's workload updates ``l`` tuples per
transaction).  The fields a transaction writes feed the RIU
(readily-ignorable-update) compile-time screen.  :func:`route` is the
one rule that refuses a transaction which would fail part-way, for the
engine and for the cluster router alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.storage.tuples import Record, Schema, SchemaError

__all__ = [
    "Insert", "Delete", "Update", "Operation", "Transaction", "route",
    "CatalogError", "UnsupportedTransactionError",
]


class CatalogError(ValueError):
    """Invalid catalog operation (unknown names, bad combinations)."""


class UnsupportedTransactionError(CatalogError, NotImplementedError):
    """A transaction some affected view cannot be maintained under, or
    an update that names its relation's key field.

    Raised by :meth:`Database.apply_transaction` *before* the
    transaction is journaled or any page is touched, so refusing it
    leaves no trace.  Also a ``NotImplementedError``: the catalog knows
    the relation and the view, it has no way to maintain the pair (and
    a tuple is re-keyed by a delete and an insert, not an update).
    """


@dataclass(frozen=True)
class Insert:
    """Insert a new tuple."""

    record: Record

    def written_fields(self) -> frozenset[str]:
        """Every field of the new tuple is written."""
        return frozenset(self.record.layout.fields)


@dataclass(frozen=True)
class Delete:
    """Delete the tuple with the given key."""

    key: Any

    def written_fields(self) -> frozenset[str]:
        """A deletion "writes" every field of the tuple it removes.

        The RIU test cannot rule it out without knowing the tuple, so
        the wildcard makes it conservatively never readily ignorable.
        """
        return frozenset(("*",))


@dataclass(frozen=True)
class Update:
    """Modify fields of the tuple with the given key."""

    key: Any
    changes: Mapping[str, Any]

    def __post_init__(self) -> None:
        if not self.changes:
            raise ValueError("update must change at least one field")

    def written_fields(self) -> frozenset[str]:
        """Only the modified fields are written."""
        return frozenset(self.changes)


Operation = Insert | Delete | Update


@dataclass(frozen=True)
class Transaction:
    """A batch of operations against one relation."""

    relation: str
    operations: tuple[Operation, ...]

    def __post_init__(self) -> None:
        if not self.operations:
            raise ValueError("transaction has no operations")

    def __len__(self) -> int:
        return len(self.operations)

    def written_fields(self) -> frozenset[str]:
        """Union of fields written — the RIU test's input."""
        fields: frozenset[str] = frozenset()
        for op in self.operations:
            fields |= op.written_fields()
        return fields

    @classmethod
    def of(cls, relation: str, operations: Iterable[Operation]) -> "Transaction":
        return cls(relation=relation, operations=tuple(operations))


def route(
    schema: Schema,
    operations: Iterable[Operation],
    lookup: Callable[[Any], Any],
    place: Callable[[Mapping[str, Any]], Any] | None = None,
) -> list[tuple[Any, Any]]:
    """Refuse a transaction that would fail part-way; else say where each
    operation goes.  Asked before anything is journaled or sent.

    ``lookup(key)`` is the owner of a live key, ``None`` for an absent
    one: the engine passes ``relation.logical_by_key`` (the owner is the
    tuple), the router its key directory (a shard).  Keys are looked up
    through an overlay of what the transaction's earlier operations did.
    ``place(values)`` is the owner that written values (an insert's
    fields, an update's changes) put a tuple on, or ``None`` to leave it
    where it is; without it an inserted tuple owns itself.

    Refused: an insert of a live key; a delete or update of a key that
    is not live; an update that names the key field or a field the
    schema lacks; an insert whose record has not exactly the schema's
    fields, or whose key is not its key field's value.

    Returns, per operation, its key's owner (for an insert, the one it
    is placed on) and, for an update that ``place`` moves to another
    owner, that owner (else ``None``).  A dict lookup per key; no I/O.
    """
    name, key_field, names = schema.name, schema.key_field, tuple(sorted(schema.fields))
    live: dict[Any, Any] = {}  # key -> its owner as the operations so far leave it
    routes = []
    for op in operations:
        key = op.record.key if isinstance(op, Insert) else op.key
        if key not in live:
            live[key] = lookup(key)
        owner, target = live[key], None
        if isinstance(op, Insert):
            record, layout = op.record, op.record.layout
            if layout.names != names:
                raise schema.fields_error(layout.fields)
            if record.row[layout.index[key_field]] != key:
                raise SchemaError(
                    f"record key {key!r} is not its key field {key_field!r}'s "
                    f"value {record[key_field]!r}"
                )
            if owner is not None:
                raise KeyError(f"duplicate key {key!r} in {name!r}")
            owner = live[key] = record if place is None else place(record.values)
        elif owner is None:
            raise KeyError(f"no tuple with key {key!r} in {name!r}")
        elif isinstance(op, Delete):
            live[key] = None
        else:
            changes = op.changes
            if key_field in changes:
                raise UnsupportedTransactionError(
                    f"update of {name!r} key {key!r} changes the key field "
                    f"{key_field!r}; re-key a tuple with a Delete and an Insert"
                )
            unknown = changes.keys() - schema.fields
            if unknown:
                raise SchemaError(f"unknown fields {sorted(unknown)} in update")
            moved = None if place is None else place(changes)
            if moved is not None and moved != owner:
                target = live[key] = moved
        routes.append((owner, target))
    return routes
