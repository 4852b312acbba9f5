"""The lock plan: which striped locks a request takes, decided once.

Striped locks are named ``rel:<relation>`` and ``view:<view>`` and are
always acquired through :meth:`repro.concurrency.LockManager.acquire`,
which sorts them (relations before views) — the fixed lock-ordering
discipline.  This module is the only place those names are built, and
:func:`lock_plan` the only place a query's lock set is chosen; the
table in ``tests/service/test_lock_plan.py`` pins every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.strategies import Strategy

__all__ = ["LockPlan", "fold_locks", "lock_plan", "probe_locks", "update_locks"]


@dataclass(frozen=True)
class LockPlan:
    """Lock names for one query: never a read and a write side together."""

    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    #: Write locks of the shared refresh epoch a deferred view runs
    #: (and releases) before it serves; empty when no fold is due.
    fold: tuple[str, ...] = ()


def _names(relations: Iterable[str], views: Iterable[str]) -> tuple[str, ...]:
    return tuple(f"rel:{name}" for name in relations) + tuple(
        f"view:{name}" for name in views
    )


def fold_locks(
    database: Any, relation: str, sources: Iterable[str] = (), view: str | None = None
) -> tuple[str, ...]:
    """Everything a fold of one relation's AD file may rewrite.

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
    return _names(sorted(relations), sorted(views))


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
    whose policy says ``refresh_now`` first runs the fold epoch.
    """
    sources = definition.sources
    own = _names(sources, (definition.name,))
    if strategy is None:
        return LockPlan(writes=own)
    if strategy.is_query_modification():
        return LockPlan(
            writes=fold_locks(database, sources[0], sources, definition.name)
        )
    if strategy is Strategy.DEFERRED and refresh_now:
        return LockPlan(reads=own, fold=fold_locks(database, sources[0]))
    return LockPlan(reads=own)
