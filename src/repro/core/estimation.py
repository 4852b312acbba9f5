"""Derive cost-model parameters from a live database.

The paper's formulas need ``N``, ``S``, ``B``, ``f``, ``f_v``, ``f_r2``
and the workload mix — numbers a practitioner rarely knows offhand.
This module measures them: relation statistics come from the catalog,
the view selectivity ``f`` from an equi-depth histogram over the
predicate attribute, and the workload mix from an operation log the
database already keeps (``transactions_applied`` / ``queries_answered``)
or from explicit counts.

The result plugs straight into :func:`repro.core.advisor.recommend`,
turning the advisor into "point it at a database and ask".
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from .parameters import PAPER_DEFAULTS, Parameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database
    from repro.views.definition import JoinView, SelectProjectView

__all__ = ["Histogram", "estimate_selectivity", "estimate_parameters"]


@dataclass(frozen=True)
class Histogram:
    """An equi-depth histogram over one attribute.

    ``boundaries[i]`` is the upper edge of bucket ``i``; each bucket
    holds ~``depth`` values.  Selectivity estimates interpolate inside
    the boundary buckets, the classical System-R approach.
    """

    boundaries: tuple[Any, ...]
    depth: float
    total: int

    @classmethod
    def build(cls, values: Sequence[Any], buckets: int = 32) -> "Histogram":
        """Construct from a sample of attribute values."""
        if not values:
            raise ValueError("cannot build a histogram from no values")
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        ordered = sorted(values)
        total = len(ordered)
        buckets = min(buckets, total)
        depth = total / buckets
        boundaries = tuple(
            ordered[min(total - 1, int(round((i + 1) * depth)) - 1)]
            for i in range(buckets)
        )
        return cls(boundaries=boundaries, depth=depth, total=total)

    def selectivity(self, lo: Any, hi: Any) -> float:
        """Estimated fraction of values in ``[lo, hi]``."""
        if hi < lo or self.total == 0:
            return 0.0
        # Buckets whose upper edge lands inside [lo, hi] are fully
        # counted (bisect_right so duplicate edges — heavy skew — all
        # count); one extra bucket of credit covers the straddlers.
        first = bisect.bisect_left(self.boundaries, lo)
        last = bisect.bisect_right(self.boundaries, hi)
        covered = max(0, last - first)
        fraction = (covered + 1.0) * self.depth / self.total
        return max(0.0, min(1.0, fraction))


def estimate_selectivity(
    database: "Database", relation_name: str, field: str,
    lo: Any, hi: Any, buckets: int = 32,
) -> float:
    """Histogram-estimated selectivity of ``lo <= field <= hi``.

    Uses the relation's in-memory snapshot (statistics collection —
    no workload I/O is charged).
    """
    snapshot = database.relations[relation_name].base.records_snapshot()
    values = [r[field] for r in snapshot]
    if not values:
        return 0.0
    return Histogram.build(values, buckets=buckets).selectivity(lo, hi)


def estimate_parameters(
    database: "Database",
    definition: "SelectProjectView | JoinView",
    f_v: float | None = None,
    updates: int | None = None,
    queries: int | None = None,
    tuples_per_transaction: float | None = None,
) -> Parameters:
    """Measure a :class:`Parameters` set for a view over a database.

    * ``N``, ``S``, ``B`` from the catalog.
    * ``f`` from an equi-depth histogram over the predicate attribute
      (falling back to the predicate's own hint, then the paper's .1).
    * ``f_r2`` from the two relations' cardinalities (join views).
    * Workload mix from explicit counts when given, else the database's
      own operation counters, else the paper's defaults.
    * Cost constants stay at the paper's values (they describe the
      simulated hardware, not the data).
    """
    from repro.views.definition import JoinView

    is_join = isinstance(definition, JoinView)
    relation_name = definition.outer if is_join else definition.relation
    base = database.relations[relation_name].base
    n_tuples = max(1, len(base))

    # Selectivity: histogram over the predicate's interval when it has
    # one; otherwise the definition's hint; otherwise the default.
    selectivity = definition.predicate.selectivity_hint()
    intervals = definition.predicate.intervals()
    if intervals:
        interval = intervals[0]
        measured = estimate_selectivity(
            database, relation_name, interval.field, interval.lo, interval.hi
        )
        if measured > 0:
            selectivity = measured
    if not selectivity or not 0.0 < selectivity <= 1.0:
        selectivity = PAPER_DEFAULTS.f

    f_r2 = PAPER_DEFAULTS.f_r2
    if is_join:
        inner = database.relations[definition.inner]
        f_r2 = min(1.0, max(1e-9, len(inner) / n_tuples))

    k = float(updates if updates is not None else database.transactions_applied)
    q = float(queries if queries is not None else database.queries_answered)
    if q <= 0:
        k, q = PAPER_DEFAULTS.k, PAPER_DEFAULTS.q

    return Parameters(
        N=n_tuples,
        S=base.schema.tuple_bytes,
        B=database.block_bytes,
        k=max(0.0, k),
        l=float(
            tuples_per_transaction
            if tuples_per_transaction is not None
            else PAPER_DEFAULTS.l
        ),
        q=q,
        f=selectivity,
        f_v=f_v if f_v is not None else PAPER_DEFAULTS.f_v,
        f_r2=f_r2,
    )
