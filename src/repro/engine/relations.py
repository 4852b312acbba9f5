"""Hash-clustered relation wrapper (the paper's ``R2``).

Section 3.1 stores the join view's inner relation with clustered
hashing on the join field; it is probed during joins and view
refreshes and — in the paper's Model 2 — never updated.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.storage.hashindex import HashFile
from repro.storage.pager import BufferPool
from repro.storage.tuples import Record, Schema

__all__ = ["HashedRelation"]


class HashedRelation:
    """A relation stored as a clustered hash file on one field."""

    def __init__(
        self,
        schema: Schema,
        pool: BufferPool,
        hashed_on: str,
        block_bytes: int = 4000,
        buckets: int | None = None,
    ) -> None:
        if hashed_on not in schema.fields:
            raise ValueError(
                f"cannot hash {schema.name!r} on unknown field {hashed_on!r}"
            )
        self.schema = schema
        self.pool = pool
        self.hashed_on = hashed_on
        self.records_per_page = schema.records_per_page(block_bytes)
        self.file = HashFile(
            schema.name,
            pool,
            hash_key=lambda record: record[hashed_on],
            records_per_page=self.records_per_page,
            buckets=buckets if buckets is not None else 64,
        )
        self._by_key: dict[Any, Record] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    @property
    def meter(self):
        return self.pool.disk.meter

    def bulk_load(self, records: list[Record]) -> None:
        """Initial load (meter usually reset afterwards)."""
        self.file.bulk_load(records)
        for record in records:
            self._by_key[record.key] = record

    def insert(self, record: Record) -> None:
        """Insert a new tuple (hash-file read + write)."""
        if record.key in self._by_key:
            raise KeyError(f"duplicate key {record.key!r} in {self.schema.name!r}")
        self.file.insert(record)
        self._by_key[record.key] = record

    def delete_by_key(self, key: Any) -> Record:
        """Delete and return the tuple with the given key."""
        record = self._by_key.pop(key, None)
        if record is None:
            raise KeyError(f"no tuple with key {key!r} in {self.schema.name!r}")
        self.file.delete(record)
        return record

    def update_by_key(self, key: Any, **changes: Any) -> tuple[Record, Record]:
        """Modify a tuple in place; returns (old, new)."""
        old = self._by_key.get(key)
        if old is None:
            raise KeyError(f"no tuple with key {key!r} in {self.schema.name!r}")
        new = self.schema.updated(old, **changes)
        self.file.delete(old)
        self.file.insert(new)
        del self._by_key[key]
        self._by_key[new.key] = new
        return old, new

    def peek_by_key(self, key: Any) -> Record | None:
        """Key lookup without I/O (bookkeeping paths only)."""
        return self._by_key.get(key)

    def probe(self, value: Any) -> list[Record]:
        """Hash lookup by the clustering field (reads one chain)."""
        return self.file.lookup(value)

    def read_by_key(self, key: Any) -> Record | None:
        """Fetch one tuple of a relation hashed on its key (one probe)."""
        matches = self.file.lookup(key)
        return matches[0] if matches else None

    def probe_pinned(self, value: Any) -> list[Record]:
        """Hash lookup that leaves touched pages pinned (join inner)."""
        return self.file.lookup_pinned(value)

    def scan_all(self) -> Iterator[Record]:
        """Read every page of the hash file once."""
        return self.file.scan_all()

    def records_snapshot(self) -> list[Record]:
        """All records without I/O (setup/baseline paths only)."""
        return list(self._by_key.values())
