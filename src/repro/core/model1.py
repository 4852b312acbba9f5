"""Model 1 cost formulas: selection-projection views (Section 3.2).

The view is ``V = pi_Y(sigma_X(R))`` where the predicate ``X`` has
selectivity ``f`` and the projection keeps exactly half of each tuple's
attributes, so the materialized view holds ``f*N`` tuples on ``f*b/2``
pages.  A query to the view reads a fraction ``f_v`` of it.

Every function in this module returns milliseconds.  Components share
the names used in the paper (``C_query1``, ``C_AD``, ``C_ADread``,
``C_screen``, ``C_def_refresh``, ``C_imm_refresh``, ``C_overhead``) so
the breakdowns can be read side by side with Section 3.2.
"""

from __future__ import annotations

from .costs import CostBreakdown
from .parameters import Parameters
from .strategies import Strategy, ViewModel
from .yao import Method, yao

__all__ = [
    "cost_query_view",
    "cost_hr_maintenance",
    "cost_read_ad",
    "cost_screen",
    "cost_deferred_refresh",
    "cost_immediate_refresh",
    "cost_ad_set_overhead",
    "cost_base_update",
    "whole_system_total",
    "total_deferred",
    "total_immediate",
    "total_qm_clustered",
    "total_qm_unclustered",
    "total_qm_sequential",
    "all_totals",
]

_YAO: Method = "cardenas"


def cost_query_view(p: Parameters) -> float:
    """``C_query1``: read the query result from the stored view.

    One B+-tree descent (``H_vi`` page reads), a clustered scan of
    ``f*f_v*b/2`` view pages, and a ``c1`` screen of each of the
    ``f*f_v*N`` tuples read.  The ``/2`` reflects the projected view's
    doubled blocking factor (see DESIGN.md interpretation note 1).
    """
    io_scan = p.c2 * p.f * p.f_v * p.b / 2.0
    io_index = p.c2 * p.H_vi
    cpu = p.c1 * p.f * p.f_v * p.N
    return io_scan + io_index + cpu


def cost_hr_maintenance(p: Parameters, method: Method = _YAO) -> float:
    """``C_AD``: extra I/O to keep the hypothetical relation, per query.

    Each transaction touches ``y(2u, 2u/T, l)`` pages of the ``AD``
    differential file beyond what a plain relation update would do
    (the one extra read of the target AD page in the 3-I/O protocol of
    Section 2.2.2); there are ``k/q`` transactions per query.
    """
    if p.u <= 0 or p.l <= 0:
        return 0.0
    ad_tuples = 2.0 * p.u
    ad_pages = ad_tuples / p.T
    touched = yao(ad_tuples, ad_pages, p.l, method=method)
    return p.c2 * (p.k / p.q) * touched


def cost_read_ad(p: Parameters) -> float:
    """``C_ADread``: sequential read of the whole AD file at refresh time.

    ``AD`` holds ``2u`` tuples on ``2u/T`` pages.
    """
    return p.c2 * 2.0 * p.u / p.T


def cost_screen(p: Parameters) -> float:
    """``C_screen``: per-query cost of the two-stage screening test.

    Rule indexing (t-locks) is free; the satisfiability substitution
    test costs ``c1`` for each of the ``f*u`` tuples per query that
    disturb a t-lock interval.
    """
    return p.c1 * p.f * p.u


def cost_deferred_refresh(p: Parameters, method: Method = _YAO) -> float:
    """``C_def_refresh``: apply the batched net change to the view.

    About ``f*u`` insertions plus ``f*u`` deletions reach the view per
    query; they land on ``X1 = y(fN, fb/2, 2fu)`` distinct view pages,
    each costing a B+-tree descent, a data-page read+write and a leaf
    index-page write (``3 + H_vi`` I/Os).
    """
    changes = 2.0 * p.f * p.u
    if changes <= 0:
        return 0.0
    x1 = yao(p.view_tuples_model1, p.view_pages_model1, changes, method=method)
    return p.c2 * (3.0 + p.H_vi) * x1


def cost_immediate_refresh(p: Parameters, method: Method = _YAO) -> float:
    """``C_imm_refresh``: per-query cost of refreshing after every transaction.

    Each transaction modifies ``2*f*l`` view tuples on ``X2 = y(fN,
    fb/2, 2fl)`` pages at ``3 + H_vi`` I/Os per page; there are ``k/q``
    transactions per query.
    """
    changes = 2.0 * p.f * p.l
    if changes <= 0 or p.k <= 0:
        return 0.0
    x2 = yao(p.view_tuples_model1, p.view_pages_model1, changes, method=method)
    return (p.k / p.q) * p.c2 * (3.0 + p.H_vi) * x2


def cost_ad_set_overhead(p: Parameters) -> float:
    """``C_overhead``: resetting immediate's in-memory A/D sets.

    ``c3`` per tuple for the ``2*f*l`` marked tuples per transaction,
    ``k/q`` transactions per query.
    """
    return p.c3 * 2.0 * p.f * p.l * (p.k / p.q)


def cost_base_update(p: Parameters, strategy: Strategy, method: Method = _YAO) -> float:
    """``C_base``: writing the updates into the base relation, per query.

    The paper leaves it out of every total as the "normal" update cost.
    It differs by strategy all the same: a deferred fold applies a
    query's ``u`` changes in one pass over ``y(N, b, u)`` base pages,
    while immediate maintenance and query modification touch ``y(N, b,
    l)`` pages per transaction, ``k/q`` times per query.  Each page costs
    ``3 + H_base`` I/Os, as a view page does in ``C_def_refresh``.
    Models 2 and 3 update the same ``N``-tuple relation, so the one term
    serves all three models.
    """
    if strategy is Strategy.DEFERRED:
        touched = yao(p.N, p.b, p.u, method=method)
    else:
        touched = (p.k / p.q) * yao(p.N, p.b, p.l, method=method)
    return p.c2 * (3.0 + p.H_base) * touched


def whole_system_total(p: Parameters, breakdown: CostBreakdown, method: Method = _YAO) -> float:
    """A strategy's cost per query with its base update included: the
    paper's total for any model plus :func:`cost_base_update`.  The
    paper's totals, figures and the advisor's ranking do not use it."""
    return breakdown.total + cost_base_update(p, breakdown.strategy, method=method)


def total_deferred(p: Parameters, method: Method = _YAO) -> CostBreakdown:
    """``TOTAL_deferred1`` (Section 3.2.1)."""
    return CostBreakdown.build(
        Strategy.DEFERRED,
        ViewModel.SELECT_PROJECT,
        {
            "C_AD": cost_hr_maintenance(p, method=method),
            "C_ADread": cost_read_ad(p),
            "C_query1": cost_query_view(p),
            "C_def_refresh": cost_deferred_refresh(p, method=method),
            "C_screen": cost_screen(p),
        },
    )


def total_immediate(p: Parameters, method: Method = _YAO) -> CostBreakdown:
    """``TOTAL_immediate1`` (Section 3.2.2)."""
    return CostBreakdown.build(
        Strategy.IMMEDIATE,
        ViewModel.SELECT_PROJECT,
        {
            "C_query1": cost_query_view(p),
            "C_imm_refresh": cost_immediate_refresh(p, method=method),
            "C_screen": cost_screen(p),
            "C_overhead": cost_ad_set_overhead(p),
        },
    )


def total_qm_clustered(p: Parameters) -> CostBreakdown:
    """``TOTAL_clustered``: query modification via a clustered index scan.

    Reads ``f*f_v*b`` base-relation pages (no extra tuples) and screens
    the ``f*f_v*N`` tuples retrieved.
    """
    return CostBreakdown.build(
        Strategy.QM_CLUSTERED,
        ViewModel.SELECT_PROJECT,
        {
            "C_io": p.c2 * p.b * p.f * p.f_v,
            "C_cpu": p.c1 * p.N * p.f * p.f_v,
        },
    )


def total_qm_unclustered(p: Parameters, method: Method = _YAO) -> CostBreakdown:
    """``TOTAL_unclustered``: query modification via a secondary index.

    Fetching ``N*f*f_v`` tuples scattered over ``b`` pages costs
    ``y(N, b, N*f*f_v)`` reads; each fetched tuple is screened.
    """
    fetched = p.N * p.f * p.f_v
    return CostBreakdown.build(
        Strategy.QM_UNCLUSTERED,
        ViewModel.SELECT_PROJECT,
        {
            "C_io": p.c2 * yao(p.N, p.b, fetched, method=method),
            "C_cpu": p.c1 * fetched,
        },
    )


def total_qm_sequential(p: Parameters) -> CostBreakdown:
    """``TOTAL_sequential``: full scan of ``R`` with every tuple screened."""
    return CostBreakdown.build(
        Strategy.QM_SEQUENTIAL,
        ViewModel.SELECT_PROJECT,
        {
            "C_io": p.c2 * p.b,
            "C_cpu": p.c1 * p.N,
        },
    )


def all_totals(p: Parameters, method: Method = _YAO) -> dict[Strategy, CostBreakdown]:
    """All Model 1 strategies' breakdowns, keyed by strategy."""
    breakdowns = (
        total_deferred(p, method=method),
        total_immediate(p, method=method),
        total_qm_clustered(p),
        total_qm_unclustered(p, method=method),
        total_qm_sequential(p),
    )
    return {bd.strategy: bd for bd in breakdowns}
