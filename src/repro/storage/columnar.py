"""Columnar batches and selection vectors for the vectorized hot path.

The engine's hot loops — stage-2 screening, net-change computation,
differential apply, view-range reads — process *batches* of records
rather than one tuple at a time.  A :class:`ColumnBatch` is the unit of
that processing: a fixed set of rows exposed both as the original
record objects (zero-copy — the batch just references the caller's
list) and, on demand, as cached per-field *column* lists that
comprehension-style kernels iterate at C speed.

Filters do not materialize intermediate batches.  They narrow a
:class:`SelectionVector` — a list of row indices into one batch — so a
conjunction of predicates is evaluated as successive index-list
shrinking (`repro.views.predicate.Predicate.matches_batch`), and only
the final survivors are gathered with :meth:`ColumnBatch.take`.

Cost accounting is unaffected by batching **by construction**: batches
are built from exactly the page reads the tuple-at-a-time iterators
performed, and CPU charges (``c1`` screens, ``c3`` ad ops) are metered
per batch with the same totals (``meter.record_screen(n)`` instead of
``n`` calls).  See docs/performance.md ("Columnar batches").
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from .tuples import Record

__all__ = ["ColumnBatch", "SelectionVector"]


class SelectionVector:
    """An ordered index mask over one batch's rows.

    Indices are strictly increasing row positions, so composing filters
    by narrowing a selection preserves row order, and a selection is
    also a stable identifier of "which rows" independently of the
    values stored in them.
    """

    __slots__ = ("indices",)

    def __init__(self, indices: list[int]) -> None:
        self.indices = indices

    @classmethod
    def full(cls, length: int) -> "SelectionVector":
        """Every row of a batch of ``length`` rows."""
        return cls(list(range(length)))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __bool__(self) -> bool:
        return bool(self.indices)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SelectionVector):
            return self.indices == other.indices
        return NotImplemented

    def __repr__(self) -> str:
        return f"SelectionVector({self.indices!r})"


#: Sentinel distinguishing "field absent" from a stored ``None`` when a
#: column is materialized with :meth:`ColumnBatch.column` (which maps
#: absent fields to ``None``, matching ``Record.get``).
_ABSENT = object()


class ColumnBatch:
    """A batch of records with lazily materialized per-field columns.

    ``from_records`` is zero-copy: the batch aliases the caller's
    sequence and only builds a column (one list per field) the first
    time a kernel asks for it; columns are cached for the batch's
    lifetime, so a multi-clause predicate touches each field's values
    exactly once.  Batches are treated as immutable once built.
    """

    __slots__ = ("_records", "_columns", "_length")

    def __init__(self) -> None:  # use the classmethod constructor
        self._records: Sequence[Record] = ()
        self._columns: dict[Any, list] = {}
        self._length = 0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[Record]) -> "ColumnBatch":
        """Wrap an existing record sequence without copying it."""
        batch = cls()
        batch._records = records
        batch._length = len(records)
        return batch

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    # ------------------------------------------------------------------
    # column access
    # ------------------------------------------------------------------
    def column(self, field: str) -> list:
        """The field's values, row-aligned (``None`` where absent).

        Built once per batch and cached; kernels index the returned
        list directly (it must not be mutated).  The field's position is
        looked up once per row layout in the batch; when every row holds
        it at one position (a relation's rows are in its schema's order)
        the column is one pass reading that position.
        """
        col = self._columns.get(field)
        if col is None:
            records = self._records
            at = {lay: lay.index.get(field) for lay in {r.layout for r in records}}
            positions = set(at.values())
            if len(positions) == 1 and None not in positions:
                (i,) = positions
                col = [r.row[i] for r in records]
            else:
                col = [None if (i := at[r.layout]) is None else r.row[i] for r in records]
            self._columns[field] = col
        return col

    def presence(self, field: str) -> list[bool]:
        """Row-aligned ``field in record.values`` flags.

        Distinguishes an absent field from a stored ``None`` (the
        whole-field t-lock test needs presence, not value).
        """
        cache_key = (_ABSENT, field)
        col = self._columns.get(cache_key)
        if col is None:
            present = {lay: field in lay.index for lay in {r.layout for r in self._records}}
            col = [present[r.layout] for r in self._records]
            self._columns[cache_key] = col
        return col

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def record_at(self, index: int) -> Record:
        """The row as a :class:`Record` (zero-copy)."""
        return self._records[index]

    def to_records(self) -> Sequence[Record]:
        """All rows as records: the original sequence, unchanged."""
        return self._records

    def take(self, selection: SelectionVector) -> list[Record]:
        """Gather the selected rows as a record list (order-preserving)."""
        records = self._records
        return [records[i] for i in selection.indices]

    def __repr__(self) -> str:
        return f"ColumnBatch({self._length} rows)"
