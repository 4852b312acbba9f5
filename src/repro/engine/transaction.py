"""Update transactions: the unit the maintenance strategies react to.

A transaction is a batch of inserts, deletes and in-place updates to
one base relation (the paper's workload updates ``l`` tuples per
transaction).  The fields a transaction writes feed the RIU
(readily-ignorable-update) compile-time screen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.storage.tuples import Record

__all__ = ["Insert", "Delete", "Update", "Operation", "Transaction"]


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
