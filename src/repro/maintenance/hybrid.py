"""Dual-access-path routing: Section 3.3's optimizer integration.

    "a materialized view could be clustered on one attribute, and the
    base relation on another.  In this situation, a query optimizer
    could choose to process a view query in one of two ways, depending
    on the query predicate."

:class:`Hybrid` maintains the materialized copy (immediate
scheme) clustered on the view key while the base relation stays
clustered on a different attribute.  Each query names the attribute it
ranges over; the router sends it down whichever access path its
analytic cost estimate favors — the clustered base index, or the
clustered view index — exactly the plan choice the paper sketches.
"""

from __future__ import annotations

from typing import Any

from repro.core.parameters import Parameters
from repro.core.strategies import Strategy
from repro.views.definition import ViewTuple
from .immediate import Immediate
from .models import Model

__all__ = ["Hybrid", "RouteDecision"]


class RouteDecision:
    """Record of one routing choice (inspectable in tests/examples)."""

    __slots__ = ("field", "path", "estimated_base_ms", "estimated_view_ms")

    def __init__(self, field: str, path: str,
                 estimated_base_ms: float, estimated_view_ms: float) -> None:
        self.field = field
        self.path = path
        self.estimated_base_ms = estimated_base_ms
        self.estimated_view_ms = estimated_view_ms

    def __repr__(self) -> str:
        return (
            f"RouteDecision(field={self.field!r}, path={self.path!r}, "
            f"base~{self.estimated_base_ms:.0f}ms, view~{self.estimated_view_ms:.0f}ms)"
        )


class Hybrid(Immediate):
    """Immediate maintenance plus per-query access-path choice.

    The base relation is clustered on ``relation.clustered_on``; the
    view copy on ``definition.view_key``.  ``query_on(field, lo, hi)``
    routes to whichever path covers ``field`` with a clustered scan; a
    query on a field covered by *neither* clustering falls back to the
    cheaper of (sequential base scan, full view scan), estimated with
    the Section 3 formulas at ``params`` (sized from the relation as it
    stands at definition).
    """

    def __init__(self, model: Model, strategy: Strategy = Strategy.HYBRID) -> None:
        super().__init__(model, strategy)
        self.params = Parameters.from_mapping(
            {"N": max(1, len(model.base.records_snapshot())),
             "B": model.block_bytes,
             "f": self.definition.predicate.selectivity_hint() or 0.1}
        )
        self.decisions: list[RouteDecision] = []

    def _estimate_base_ms(self, field: str, selectivity: float) -> float:
        p = self.params
        if field == self.relation.clustered_on:
            return p.c2 * selectivity * p.b + p.c1 * selectivity * p.N
        return p.c2 * p.b + p.c1 * p.N  # sequential fallback

    def _estimate_view_ms(self, field: str, selectivity: float) -> float:
        p = self.params
        view_pages = p.f * p.b / 2.0
        view_tuples = p.f * p.N
        if field == self.definition.view_key:
            fraction = min(1.0, selectivity / p.f)
            return (
                p.c2 * p.H_vi
                + p.c2 * fraction * view_pages
                + p.c1 * fraction * view_tuples
            )
        return p.c2 * view_pages + p.c1 * view_tuples  # full view scan

    def query_on(
        self, field: str, lo: Any = None, hi: Any = None,
        selectivity: float | None = None,
    ) -> list[ViewTuple]:
        """Answer a range query on an arbitrary projected field.

        ``selectivity`` is the optimizer's estimate of the fraction of
        the *base relation* the range covers (defaults to the view
        selectivity ``f`` — a neutral guess).
        """
        if field not in self.definition.projection:
            raise KeyError(
                f"field {field!r} is not projected by view {self.view_name!r}"
            )
        selectivity = self.params.f if selectivity is None else selectivity
        base_ms = self._estimate_base_ms(field, selectivity)
        view_ms = self._estimate_view_ms(field, selectivity)
        path = "base" if base_ms < view_ms else "view"
        self.decisions.append(RouteDecision(field, path, base_ms, view_ms))
        if path == "base":
            return self.model.recompute(lo, hi, field)
        return self.model.read(lo, hi, field)

    def query(self, lo: Any = None, hi: Any = None) -> list[ViewTuple]:
        """Default entry point: a range on the view key."""
        return self.query_on(self.definition.view_key, lo, hi)
