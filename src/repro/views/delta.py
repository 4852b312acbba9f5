"""Delta sets and the differential view update algebra (Section 2.1).

A :class:`DeltaSet` holds the *net* inserted (``A``) and deleted
(``D``) tuples of one relation for one transaction or one deferred
batch, maintaining the paper's invariant ``A ∩ D = ∅``.

:func:`select_project_changes`, :func:`join_changes` and
:func:`aggregate_changes` turn delta sets into signed multisets of view
changes — the quantities the maintenance strategies apply to the
stored view with duplicate counts.

Appendix A: the original formulation in [Blak86] evaluates the
deletion terms against the *pre-update* relations (``D1 x R2``,
``R1 x D2``, ``D1 x D2``) and over-deletes when a transaction removes
both halves of a joining pair.  :func:`join_changes_blakeley_original`
implements that expression verbatim so tests and the Appendix-A
example can demonstrate the bug; :func:`join_changes` implements the
paper's corrected expression (using ``R1' = R1 - D1`` and
``R2' = R2 - D2``), and :func:`product_changes_telescoped` generalizes
the corrected rule to N-way products.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Sequence

from repro.storage.columnar import ColumnBatch
from repro.storage.tuples import Record
from .definition import AggregateView, JoinView, SelectProjectView, ViewTuple

__all__ = [
    "DeltaSet",
    "ChangeSet",
    "select_project_changes",
    "join_changes",
    "join_changes_blakeley_original",
    "product_changes_telescoped",
    "aggregate_changes",
]


class DeltaSet:
    """Net changes to one relation: inserted set ``A`` and deleted set ``D``.

    The *net* semantics the differential algorithm requires
    (Section 2.1's ``A_i ∩ D_i = ∅``) are enforced on entry:

    * deleting a tuple inserted earlier in the same batch cancels the
      insertion;
    * re-inserting a tuple deleted earlier cancels the deletion.
    """

    def __init__(self, relation: str) -> None:
        self.relation = relation
        self._inserted: dict[Record, None] = {}
        self._deleted: dict[Record, None] = {}

    @property
    def inserted(self) -> tuple[Record, ...]:
        return tuple(self._inserted)

    @property
    def deleted(self) -> tuple[Record, ...]:
        return tuple(self._deleted)

    def __bool__(self) -> bool:
        return bool(self._inserted or self._deleted)

    def __len__(self) -> int:
        return len(self._inserted) + len(self._deleted)

    def add_insert(self, record: Record) -> None:
        """Record an insertion (cancels a pending deletion of the tuple)."""
        if record in self._deleted:
            del self._deleted[record]
        else:
            self._inserted[record] = None

    def add_delete(self, record: Record) -> None:
        """Record a deletion (cancels a pending insertion of the tuple)."""
        if record in self._inserted:
            del self._inserted[record]
        else:
            self._deleted[record] = None

    def add_update(self, old: Record, new: Record) -> None:
        """Record a modification: old value deleted, new value inserted."""
        self.add_delete(old)
        self.add_insert(new)

    def merge(self, other: "DeltaSet") -> None:
        """Fold another batch in, preserving net semantics."""
        if other.relation != self.relation:
            raise ValueError(
                f"cannot merge deltas of {other.relation!r} into {self.relation!r}"
            )
        for record in other.deleted:
            self.add_delete(record)
        for record in other.inserted:
            self.add_insert(record)

    def clear(self) -> None:
        """Drop all recorded changes."""
        self._inserted.clear()
        self._deleted.clear()

    def invariant_ok(self) -> bool:
        """The paper's net-change invariant: ``A ∩ D = ∅``."""
        return not (set(self._inserted) & set(self._deleted))


class ChangeSet:
    """Signed multiset of view-tuple changes produced by a refresh step.

    Positive counts are insertions into the view, negative counts
    deletions; applying a change set to a duplicate-counted stored view
    is a per-tuple count adjustment.
    """

    def __init__(self) -> None:
        self._counts: Counter[ViewTuple] = Counter()

    def insert(self, tuple_: ViewTuple, count: int = 1) -> None:
        """Record ``count`` insertions of a view tuple."""
        self._add(tuple_, count)

    def delete(self, tuple_: ViewTuple, count: int = 1) -> None:
        """Record ``count`` deletions of a view tuple."""
        self._add(tuple_, -count)

    def _add(self, tuple_: ViewTuple, signed: int) -> None:
        new = self._counts[tuple_] + signed
        if new == 0:
            del self._counts[tuple_]
        else:
            self._counts[tuple_] = new

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChangeSet):
            return NotImplemented
        return self._counts == other._counts

    def items(self) -> Iterable[tuple[ViewTuple, int]]:
        """(tuple, signed count) pairs; deterministic order by identity."""
        return sorted(self._counts.items(), key=lambda item: repr(item[0].identity()))

    def count(self, tuple_: ViewTuple) -> int:
        """Signed multiplicity of one tuple (0 if untouched)."""
        return self._counts.get(tuple_, 0)

    @property
    def insertions(self) -> int:
        """Total positive multiplicity."""
        return sum(c for c in self._counts.values() if c > 0)

    @property
    def deletions(self) -> int:
        """Total negative multiplicity (as a positive number)."""
        return -sum(c for c in self._counts.values() if c < 0)

    def merged(self, other: "ChangeSet") -> "ChangeSet":
        """Return a new change set combining both operands."""
        result = ChangeSet()
        result._counts = self._counts + Counter()
        for tuple_, signed in other._counts.items():
            result._add(tuple_, signed)
        return result


def select_project_changes(
    view: SelectProjectView, delta: DeltaSet
) -> ChangeSet:
    """Changes to a Model 1 view: screen and project the delta.

    ``V1 = V0 ∪ pi(sigma(A)) - pi(sigma(D))`` — selection and
    projection distribute over union and difference once duplicate
    counts are maintained.
    """
    changes = ChangeSet()
    inserted = delta.inserted
    if inserted:
        batch = ColumnBatch.from_records(inserted)
        for i in view.predicate.matches_batch(batch).indices:
            changes.insert(view.project(inserted[i]))
    deleted = delta.deleted
    if deleted:
        batch = ColumnBatch.from_records(deleted)
        for i in view.predicate.matches_batch(batch).indices:
            changes.delete(view.project(deleted[i]))
    return changes


def _join_side(
    view: JoinView,
    outer_records: Iterable[Record],
    inner_records: Iterable[Record],
    sign: int,
    changes: ChangeSet,
    apply_predicate: bool = True,
) -> None:
    by_key: dict[Any, list[Record]] = {}
    for inner in inner_records:
        by_key.setdefault(inner[view.join_field], []).append(inner)
    for outer in outer_records:
        if apply_predicate and not view.predicate.matches(outer):
            continue
        for inner in by_key.get(outer[view.join_field], ()):
            changes._add(view.combine(outer, inner), sign)


def join_changes(
    view: JoinView,
    r1: Iterable[Record],
    r2: Iterable[Record],
    delta1: DeltaSet,
    delta2: DeltaSet,
) -> ChangeSet:
    """The paper's corrected differential join update (Section 2.1).

    With ``R1' = R1 - D1`` and ``R2' = R2 - D2``::

        V1 = V0 - pi(sigma(R1' x D2)) - pi(sigma(D1 x R2')) - pi(sigma(D1 x D2))
                + pi(sigma(R1' x A2)) + pi(sigma(A1 x R2')) + pi(sigma(A1 x A2))

    ``r1``/``r2`` are the *pre-update* relation states.
    """
    d1, a1 = set(delta1.deleted), list(delta1.inserted)
    d2, a2 = set(delta2.deleted), list(delta2.inserted)
    r1_prime = [t for t in r1 if t not in d1]
    r2_prime = [t for t in r2 if t not in d2]

    changes = ChangeSet()
    _join_side(view, r1_prime, d2, -1, changes)
    _join_side(view, d1, r2_prime, -1, changes)
    _join_side(view, d1, d2, -1, changes)
    _join_side(view, r1_prime, a2, +1, changes)
    _join_side(view, a1, r2_prime, +1, changes)
    _join_side(view, a1, a2, +1, changes)
    return changes


def join_changes_blakeley_original(
    view: JoinView,
    r1: Iterable[Record],
    r2: Iterable[Record],
    delta1: DeltaSet,
    delta2: DeltaSet,
) -> ChangeSet:
    """The original [Blak86] expression — *incorrect* per Appendix A.

    Deletion terms run against the pre-update ``R1``/``R2``::

        V1 = V0 + pi(sigma(A1 x A2 ∪ A1 x R2 ∪ R1 x A2))
                - pi(sigma(D1 x D2 ∪ D1 x R2 ∪ R1 x D2))

    When a transaction deletes tuples ``t1`` and ``t2`` that join, the
    pair's view tuple is deleted three times (``t1 ∈ R1 ∩ D1`` and
    ``t2 ∈ R2 ∩ D2``) instead of once, corrupting duplicate counts.
    Kept for the Appendix-A demonstration; never used for maintenance.
    """
    r1, r2 = list(r1), list(r2)
    a1, d1 = list(delta1.inserted), list(delta1.deleted)
    a2, d2 = list(delta2.inserted), list(delta2.deleted)

    changes = ChangeSet()
    _join_side(view, a1, a2, +1, changes)
    _join_side(view, a1, r2, +1, changes)
    _join_side(view, r1, a2, +1, changes)
    _join_side(view, d1, d2, -1, changes)
    _join_side(view, d1, r2, -1, changes)
    _join_side(view, r1, d2, -1, changes)
    return changes


def product_changes_telescoped(
    view: JoinView,
    relations: Sequence[tuple[Iterable[Record], DeltaSet]],
) -> ChangeSet:
    """N-way generalization of the corrected rule (telescoping deltas).

    For relations ``R_1..R_N`` with new states ``N_i = (R_i - D_i) ∪
    A_i``, the change to the product telescopes as::

        V1 - V0 = sum_i  N_1 x .. x N_{i-1} x (A_i - D_i) x R_{i+1} x .. x R_N

    which for N=2 is algebraically identical to :func:`join_changes`
    (tested in ``tests/views/test_delta.py``).  Only 2-way views are
    used by the paper's models; this exists to show the algorithm is
    not limited to them.  The ``view`` is used for predicate screening
    of the first relation and pairwise combination; for N > 2 callers
    supply a combining view chain (see tests).
    """
    if len(relations) != 2:
        raise NotImplementedError(
            "telescoped products beyond 2 relations require a view chain; "
            "use join_changes composition as shown in the tests"
        )
    (r1, delta1), (r2, delta2) = relations
    d1 = set(delta1.deleted)
    r1_new = [t for t in r1 if t not in d1] + list(delta1.inserted)

    changes = ChangeSet()
    # Term 1: (A1 - D1) x R2_old
    _join_side(view, delta1.inserted, r2, +1, changes)
    _join_side(view, delta1.deleted, r2, -1, changes)
    # Term 2: N1 x (A2 - D2)
    _join_side(view, r1_new, delta2.inserted, +1, changes)
    _join_side(view, r1_new, delta2.deleted, -1, changes)
    return changes


def aggregate_changes(
    view: AggregateView, delta: DeltaSet
) -> tuple[list[Any], list[Any]]:
    """Values entering / leaving a Model 3 aggregate for one batch."""
    return (
        _selected_values(view, delta.inserted),
        _selected_values(view, delta.deleted),
    )


def _selected_values(view: AggregateView, records: Sequence[Record]) -> list[Any]:
    """Aggregated-field values of the records passing the view predicate."""
    if not records:
        return []
    batch = ColumnBatch.from_records(records)
    selection = view.predicate.matches_batch(batch)
    field = view.field
    return [records[i][field] for i in selection.indices]
