"""The lock plan: which striped locks a request takes, decided once.

Striped locks are named ``rel:<relation>`` and ``view:<view>`` and are
always acquired through :meth:`repro.concurrency.LockManager.acquire`,
which sorts them (relations before views) — the fixed lock-ordering
discipline.  This module is the only place those names are built, and
:func:`lock_plan` the only place a query's lock set is chosen; the
table in ``tests/service/test_lock_plan.py`` pins every row.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple

from repro.core.strategies import Strategy

__all__ = [
    "LockPlan", "backlog", "fold_locks", "fold_set", "lock_plan", "probe_locks",
    "update_locks",
]


class LockPlan(NamedTuple):
    """Lock names for one query: never a read and a write side together."""

    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    #: Write locks of the shared refresh epoch a deferred view runs
    #: (and releases) before it serves; empty when no fold is due.
    fold: tuple[str, ...] = ()
    #: The plan that folds, when this one skipped a fold because the
    #: fold set's relations (``unfolded``) had nothing pending: the
    #: server checks their backlog again under this plan's locks and
    #: takes ``due`` instead if an update committed in between.
    due: LockPlan | None = None
    unfolded: tuple[str, ...] = ()


def _names(relations: Iterable[str], views: Iterable[str]) -> tuple[str, ...]:
    return tuple(f"rel:{name}" for name in relations) + tuple(
        f"view:{name}" for name in views
    )


def fold_set(
    database: Any, relation: str, sources: Iterable[str] = (), view: str | None = None
) -> tuple[list[str], list[str]]:
    """``(relations, views)`` a fold of one relation's AD file may rewrite.

    The relation itself, every deferred sibling view it feeds, and
    those views' other source relations (a two-sided deferred join
    folds its inner relation's AD during the same refresh) — plus the
    requesting view and its sources, for a query-modification settle.
    """
    relations = {relation, *sources}
    views = set() if view is None else {view}
    for name in database.views_on(relation):
        impl = database.views.get(name)
        if impl is not None and impl.strategy is Strategy.DEFERRED:
            views.add(name)
            relations.update(impl.definition.sources)
    return sorted(relations), sorted(views)


def fold_locks(
    database: Any, relation: str, sources: Iterable[str] = (), view: str | None = None
) -> tuple[str, ...]:
    """Write locks of a fold: every name in :func:`fold_set`."""
    return _names(*fold_set(database, relation, sources, view))


def backlog(database: Any, relations: Iterable[str]) -> bool:
    """Whether a fold of the fold set ``relations`` has anything to fold:
    an AD entry pending in one of them (an in-memory count, no I/O)."""
    catalog = database.relations
    return any(catalog[name].pending for name in relations)


def update_locks(database: Any, relation: str) -> tuple[str, ...]:
    """Write locks of one transaction: its relation and every view on it."""
    return _names((relation,), database.views_on(relation))


def probe_locks(definition: Any) -> tuple[str, ...]:
    """Read locks of a cache probe: the epochs of the view's sources."""
    return _names(definition.sources, ())


def lock_plan(
    database: Any, definition: Any, strategy: Strategy | None, refresh_now: bool = False
) -> LockPlan:
    """The striped locks one query of ``definition`` takes.

    ``strategy`` is the view's current strategy, or ``None`` for a view
    known to be degraded — it is served off the degradation ladder
    under exclusive locks, so nothing pokes the broken machinery
    concurrently.  Query modification folds pending AD into the base
    before reading it, which rewrites any deferred siblings too:
    exclusive locks over the whole fold set.  Every materialized
    strategy reads its stored copy under shared locks; a deferred view
    whose policy says ``refresh_now`` first runs the fold epoch.  Both
    folds are planned only when the fold set has a :func:`backlog`;
    without one the query reads under shared locks, with the folding
    plan kept as ``due``.
    """
    sources = definition.sources
    own = _names(sources, (definition.name,))
    if strategy is None:
        return LockPlan(writes=own)
    if strategy.is_query_modification():
        relations, views = fold_set(database, sources[0], sources, definition.name)
        due = LockPlan(writes=_names(relations, views))
    elif strategy is Strategy.DEFERRED and refresh_now:
        relations, views = fold_set(database, sources[0])
        due = LockPlan(reads=own, fold=_names(relations, views))
    else:
        return LockPlan(reads=own)
    if backlog(database, relations):
        return due
    return LockPlan(reads=own, due=due, unfolded=tuple(relations))
