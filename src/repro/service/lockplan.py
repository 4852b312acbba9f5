"""The lock plan: which striped locks a request takes, decided once.

Striped locks are named ``rel:<relation>`` and ``view:<view>`` and are
always acquired through :meth:`repro.concurrency.LockManager.acquire`,
which sorts them (relations before views) — the fixed lock-ordering
discipline.  This module is the only place those names are built, and
:func:`lock_plan` the only place a query's lock set is chosen; the
table in ``tests/service/test_lock_plan.py`` pins every row.

Every name here is a function of the catalog alone, so the server
compiles them once per catalog state (:class:`ServingPlan` per hosted
view, one :class:`Compiled` for the per-relation sets) and reuses them
until the engine's ``catalog_epoch`` moves or the engine is swapped.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple

from repro.core.strategies import Strategy

__all__ = [
    "Compiled", "LockPlan", "ServingPlan", "fold_locks", "fold_set", "lock_plan",
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
    #: fold set's relations had nothing pending: the server checks
    #: their backlog again under this plan's locks and takes ``due``
    #: instead if an update committed in between.
    due: LockPlan | None = None


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


def fold_locks(database: Any, relation: str) -> tuple[str, ...]:
    """Write locks of a refresh epoch: every name in :func:`fold_set`."""
    return _names(*fold_set(database, relation))


def update_locks(database: Any, relation: str) -> tuple[str, ...]:
    """Write locks of one transaction: its relation and every view on it."""
    return _names((relation,), database.views_on(relation))


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
    folds are planned only when the fold set has a backlog (an AD entry
    pending in one of its relations: an in-memory count, no I/O);
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
    if any(database.relations[name].pending for name in relations):
        return due
    return LockPlan(reads=own, due=due)


class Compiled:
    """Lock names compiled against one catalog state, each built on
    first use: current while the engine and its ``catalog_epoch`` are
    the ones it was built from, replaced whole (never edited) after."""

    def __init__(self, database: Any) -> None:
        self.database, self.epoch = database, database.catalog_epoch
        self._memo: dict[Any, Any] = {}

    def current(self, database: Any) -> bool:
        return database is self.database and database.catalog_epoch == self.epoch

    def memo(self, build: Callable[..., Any], *args: Any) -> Any:
        """``build(database, *args)``, built once."""
        value = self._memo.get((build, args))
        if value is None:
            value = self._memo[build, args] = build(self.database, *args)
        return value


class ServingPlan(Compiled):
    """One hosted view's requests, compiled.

    Keeps :func:`lock_plan`'s outcomes, one per refresh verdict and
    backlog state, with what a request reads beside them: the fold
    set's relation objects (the backlog check reads their ``pending``,
    no name lookup), the cache probe's read locks (the epochs of the
    view's sources) and the ``query_ms`` histogram bound to the view's
    labels.
    """

    def __init__(self, database: Any, definition: Any, strategy: Any, query_ms: Any) -> None:
        super().__init__(database)
        self.definition, self.strategy, self.query_ms = definition, strategy, query_ms
        self.sources = sources = definition.sources
        relations = database.relations
        self.folds = tuple(relations[n] for n in fold_set(database, sources[0], sources)[0])
        self.probe = _names(sources, ())

    def pending(self) -> bool:
        """Whether the fold set has AD pending (as :func:`lock_plan` asks)."""
        return any(relation.pending for relation in self.folds)

    def plan(self, refresh_now: bool) -> LockPlan:
        """:func:`lock_plan` for this verdict and the current backlog."""
        memo = self._memo
        # A plain read is filed under the verdict alone: no backlog
        # changes it, so none is checked.
        plan = memo.get(refresh_now) or memo.get((refresh_now, self.pending()))
        if plan is None:
            plan = lock_plan(self.database, self.definition, self.strategy, refresh_now)
            # Filed by what lock_plan saw, which an update may have
            # changed since ``pending()`` was read.
            if plan.due is not None:
                memo[refresh_now, False], memo[refresh_now, True] = plan, plan.due
            else:
                memo[(refresh_now, True) if plan.fold or plan.writes else refresh_now] = plan
        return plan
