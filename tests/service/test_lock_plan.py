"""The lock plan, pinned: one row per strategy x request state x view
shape x backlog.

``TABLE`` was recorded once at the commit *before* the plan existed
(six hand-built ``_rel_locks(...) + _view_locks(...)`` sites), with the
``set_lock_observer`` hook around ``ViewServer.query``.  Those plans
folded whether or not anything was pending, so each row now stands
with one update pending in ``r1``; ``EMPTY_BACKLOG`` records the plans
of the same queries with nothing pending, where no fold is planned.
Every row is checked twice: against what
:func:`repro.service.lockplan.lock_plan` returns, and against what the
server actually acquires — so the plan cannot silently widen or narrow
a lock, and the pipeline cannot bypass the plan.
"""

import random
from collections import Counter

import pytest

from repro.concurrency import locks
from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.engine.transaction import Transaction, Update
from repro.resilience.policy import ResilienceConfig
from repro.service.scheduler import RefreshPolicy
from repro.service.server import ViewServer
from repro.storage.pager import PageChecksumError, PageId
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import IntervalPredicate

R1 = Schema("r1", ("id", "a", "j", "v"), "id", tuple_bytes=100)
R2 = Schema("r2", ("j", "c"), "j", tuple_bytes=100)
IN_VIEW = IntervalPredicate("a", 0, 9)
SHAPES = {
    "single": SelectProjectView("v", "r1", IN_VIEW, ("id", "a"), "a"),
    "join": JoinView("v", "r1", "r2", "j", IN_VIEW, ("id", "a"), ("j", "c"), "a"),
}
#: A deferred sibling on the same relation: what makes the fold set
#: (refresh epochs, query-modification settles) wider than the view.
SIBLING = AggregateView("sib", "r1", IN_VIEW, "sum", "v")

STRATEGIES = {
    # Not hostable on this catalog: qm_unclustered (needs a plain
    # relation; plans like the other QM variants) and hybrid (needs a
    # view key off the clustering attribute; plans like snapshot).
    "single": ("deferred", "immediate", "qm_clustered", "qm_sequential",
               "snapshot", "bc_recompute"),
    "join": ("deferred", "immediate", "qm_loopjoin"),
}
STATES = ("refresh_now", "fresh", "known_degraded")

#: (shape, strategy, state) -> (read locks, write locks) of one query.
TABLE = {
    ('single', 'deferred', 'refresh_now'):
        (['rel:r1', 'view:v'], ['rel:r1', 'view:sib', 'view:v']),
    ('single', 'deferred', 'fresh'):
        (['rel:r1', 'view:v'], []),
    ('single', 'deferred', 'known_degraded'):
        ([], ['rel:r1', 'view:v']),
    ('single', 'immediate', 'refresh_now'):
        (['rel:r1', 'view:v'], []),
    ('single', 'immediate', 'fresh'):
        (['rel:r1', 'view:v'], []),
    ('single', 'immediate', 'known_degraded'):
        ([], ['rel:r1', 'view:v']),
    ('single', 'qm_clustered', 'refresh_now'):
        ([], ['rel:r1', 'view:sib', 'view:v']),
    ('single', 'qm_clustered', 'fresh'):
        ([], ['rel:r1', 'view:sib', 'view:v']),
    ('single', 'qm_clustered', 'known_degraded'):
        ([], ['rel:r1', 'view:v']),
    ('single', 'qm_sequential', 'refresh_now'):
        ([], ['rel:r1', 'view:sib', 'view:v']),
    ('single', 'qm_sequential', 'fresh'):
        ([], ['rel:r1', 'view:sib', 'view:v']),
    ('single', 'qm_sequential', 'known_degraded'):
        ([], ['rel:r1', 'view:v']),
    ('single', 'snapshot', 'refresh_now'):
        (['rel:r1', 'view:v'], []),
    ('single', 'snapshot', 'fresh'):
        (['rel:r1', 'view:v'], []),
    ('single', 'snapshot', 'known_degraded'):
        ([], ['rel:r1', 'view:v']),
    ('single', 'bc_recompute', 'refresh_now'):
        (['rel:r1', 'view:v'], []),
    ('single', 'bc_recompute', 'fresh'):
        (['rel:r1', 'view:v'], []),
    ('single', 'bc_recompute', 'known_degraded'):
        ([], ['rel:r1', 'view:v']),
    ('join', 'deferred', 'refresh_now'):
        (['rel:r1', 'rel:r2', 'view:v'], ['rel:r1', 'rel:r2', 'view:sib', 'view:v']),
    ('join', 'deferred', 'fresh'):
        (['rel:r1', 'rel:r2', 'view:v'], []),
    ('join', 'deferred', 'known_degraded'):
        ([], ['rel:r1', 'rel:r2', 'view:v']),
    ('join', 'immediate', 'refresh_now'):
        (['rel:r1', 'rel:r2', 'view:v'], []),
    ('join', 'immediate', 'fresh'):
        (['rel:r1', 'rel:r2', 'view:v'], []),
    ('join', 'immediate', 'known_degraded'):
        ([], ['rel:r1', 'rel:r2', 'view:v']),
    ('join', 'qm_loopjoin', 'refresh_now'):
        ([], ['rel:r1', 'rel:r2', 'view:sib', 'view:v']),
    ('join', 'qm_loopjoin', 'fresh'):
        ([], ['rel:r1', 'rel:r2', 'view:sib', 'view:v']),
    ('join', 'qm_loopjoin', 'known_degraded'):
        ([], ['rel:r1', 'rel:r2', 'view:v']),
}

#: The same queries with nothing pending in ``r1``: every non-degraded
#: query reads under shared locks on the view and its sources — no fold
#: epoch, no query-modification settle, so no ``view:sib``.
EMPTY_BACKLOG = {
    ('single', 'deferred', 'refresh_now'):
        (['rel:r1', 'view:v'], []),
    ('single', 'deferred', 'fresh'):
        (['rel:r1', 'view:v'], []),
    ('single', 'deferred', 'known_degraded'):
        ([], ['rel:r1', 'view:v']),
    ('single', 'immediate', 'refresh_now'):
        (['rel:r1', 'view:v'], []),
    ('single', 'immediate', 'fresh'):
        (['rel:r1', 'view:v'], []),
    ('single', 'immediate', 'known_degraded'):
        ([], ['rel:r1', 'view:v']),
    ('single', 'qm_clustered', 'refresh_now'):
        (['rel:r1', 'view:v'], []),
    ('single', 'qm_clustered', 'fresh'):
        (['rel:r1', 'view:v'], []),
    ('single', 'qm_clustered', 'known_degraded'):
        ([], ['rel:r1', 'view:v']),
    ('single', 'qm_sequential', 'refresh_now'):
        (['rel:r1', 'view:v'], []),
    ('single', 'qm_sequential', 'fresh'):
        (['rel:r1', 'view:v'], []),
    ('single', 'qm_sequential', 'known_degraded'):
        ([], ['rel:r1', 'view:v']),
    ('single', 'snapshot', 'refresh_now'):
        (['rel:r1', 'view:v'], []),
    ('single', 'snapshot', 'fresh'):
        (['rel:r1', 'view:v'], []),
    ('single', 'snapshot', 'known_degraded'):
        ([], ['rel:r1', 'view:v']),
    ('single', 'bc_recompute', 'refresh_now'):
        (['rel:r1', 'view:v'], []),
    ('single', 'bc_recompute', 'fresh'):
        (['rel:r1', 'view:v'], []),
    ('single', 'bc_recompute', 'known_degraded'):
        ([], ['rel:r1', 'view:v']),
    ('join', 'deferred', 'refresh_now'):
        (['rel:r1', 'rel:r2', 'view:v'], []),
    ('join', 'deferred', 'fresh'):
        (['rel:r1', 'rel:r2', 'view:v'], []),
    ('join', 'deferred', 'known_degraded'):
        ([], ['rel:r1', 'rel:r2', 'view:v']),
    ('join', 'immediate', 'refresh_now'):
        (['rel:r1', 'rel:r2', 'view:v'], []),
    ('join', 'immediate', 'fresh'):
        (['rel:r1', 'rel:r2', 'view:v'], []),
    ('join', 'immediate', 'known_degraded'):
        ([], ['rel:r1', 'rel:r2', 'view:v']),
    ('join', 'qm_loopjoin', 'refresh_now'):
        (['rel:r1', 'rel:r2', 'view:v'], []),
    ('join', 'qm_loopjoin', 'fresh'):
        (['rel:r1', 'rel:r2', 'view:v'], []),
    ('join', 'qm_loopjoin', 'known_degraded'):
        ([], ['rel:r1', 'rel:r2', 'view:v']),
}

#: The update left pending in ``r1`` for ``TABLE``'s rows.  ``sib`` is
#: deferred, so no strategy folds it at update time.
PENDING = Transaction.of("r1", [Update(5, {"v": 55})])


def build(shape, strategy):
    db = Database(buffer_pages=64, resilience=ResilienceConfig(repair=False))
    rng = random.Random(3)
    db.create_relation(
        R1, "a", kind="hypothetical", ad_buckets=2,
        records=[R1.new_record(id=i, a=rng.randrange(40), j=i % 8, v=i)
                 for i in range(80)],
    )
    db.create_relation(
        R2, "j", kind="hashed",
        records=[R2.new_record(j=j, c=j * 10) for j in range(8)],
    )
    server = ViewServer(db)
    # periodic(2): the first query folds before it serves
    # ("refresh_now"), the second serves the stored copy as it stands.
    server.register_view(SHAPES[shape], Strategy(strategy), adaptive=False,
                         policy=RefreshPolicy.periodic(2))
    server.register_view(SIBLING, Strategy.DEFERRED, adaptive=False)
    return server


def degrade(server):
    server.health.fail("v", "query", PageChecksumError(PageId("view.v.leaf", 0)))


class _Recorder:
    def __init__(self):
        self.reads, self.writes = set(), set()

    def on_acquire(self, name, mode):
        if name != "world":
            (self.reads if mode == "read" else self.writes).add(name)

    def on_release(self, name, mode):
        pass


def _observed(action):
    recorder = _Recorder()
    previous = locks.get_lock_observer()
    locks.set_lock_observer(recorder)
    try:
        action()
    finally:
        locks.set_lock_observer(previous)
    return sorted(recorder.reads), sorted(recorder.writes)


def observe(server, state, pending=True):
    """The striped locks one ``query("v")`` takes in the given state,
    with ``PENDING`` left in ``r1`` before it (or nothing pending)."""
    if state == "fresh":
        server.query("v")
    if pending:
        server.apply_update(PENDING)
    if state == "known_degraded":
        degrade(server)
    return _observed(lambda: server.query("v"))


def plan_of(server, shape, strategy, state):
    from repro.service.lockplan import lock_plan

    return lock_plan(
        server.database, SHAPES[shape],
        None if state == "known_degraded" else Strategy(strategy),
        refresh_now=state == "refresh_now",
    )


ROWS = [(shape, strategy, state)
        for shape in SHAPES for strategy in STRATEGIES[shape] for state in STATES]


def test_table_covers_every_row():
    assert sorted(TABLE) == sorted(ROWS)
    assert sorted(EMPTY_BACKLOG) == sorted(ROWS)


@pytest.mark.parametrize("shape,strategy,state", ROWS)
def test_plan_matches_the_recorded_table(shape, strategy, state):
    server = build(shape, strategy)
    server.apply_update(PENDING)
    plan = plan_of(server, shape, strategy, state)
    reads, writes = TABLE[shape, strategy, state]
    assert sorted(plan.reads) == reads
    assert sorted(set(plan.fold) | set(plan.writes)) == writes
    # A request never holds a read and a write side together.
    assert not plan.reads or not plan.writes


@pytest.mark.parametrize("shape,strategy,state", ROWS)
def test_server_acquires_exactly_the_recorded_locks(shape, strategy, state):
    reads, writes = TABLE[shape, strategy, state]
    assert observe(build(shape, strategy), state) == (reads, writes)


@pytest.mark.parametrize("shape,strategy,state", ROWS)
def test_empty_backlog_plan_matches_the_recorded_table(shape, strategy, state):
    server = build(shape, strategy)
    plan = plan_of(server, shape, strategy, state)
    reads, writes = EMPTY_BACKLOG[shape, strategy, state]
    assert sorted(plan.reads) == reads
    assert sorted(set(plan.fold) | set(plan.writes)) == writes
    # The skipped fold is kept: with a backlog it would be TABLE's row.
    if plan.due is not None:
        due = plan.due
        assert (sorted(due.reads), sorted(set(due.fold) | set(due.writes))) == (
            TABLE[shape, strategy, state])


@pytest.mark.parametrize("shape,strategy,state", ROWS)
def test_server_acquires_exactly_the_empty_backlog_locks(shape, strategy, state):
    reads, writes = EMPTY_BACKLOG[shape, strategy, state]
    assert observe(build(shape, strategy), state, pending=False) == (reads, writes)


@pytest.mark.parametrize("strategy", ["deferred", "qm_clustered"])
def test_an_update_between_plan_and_locks_is_folded(strategy):
    """Planned with nothing pending; an update commits before the shared
    locks are taken: the query sees the backlog under them and folds."""
    server = build("single", strategy)
    acquire = server._locks.acquire
    # Moves tuple 7 across the view's predicate, whichever side it is on.
    a = server.database.logical_record("r1", 7)["a"]
    late = Transaction.of("r1", [Update(7, {"a": 20 if a <= 9 else 3})])
    fired = []

    def acquire_after_an_update(writes=(), reads=(), timeout=None):
        if "view:v" in reads and not fired:
            fired.append(True)
            server.apply_update(late)
        return acquire(writes=writes, reads=reads, timeout=timeout)

    server._locks.acquire = acquire_after_an_update
    answer = server.query("v")
    assert fired
    assert server.database.relations["r1"].pending == 0
    truth = SHAPES["single"].evaluate(server.database.logical_records("r1"))
    assert Counter(answer) == Counter(truth)
    if strategy == "deferred":
        assert server.planner.epochs == 1


def test_update_locks_the_relation_and_every_view_on_it():
    """Also recorded before the plan existed, like ``TABLE``."""
    from repro.engine.transaction import Transaction, Update

    server = build("join", "immediate")
    outer = Transaction.of("r1", [Update(1, {"v": 5})])
    inner = Transaction.of("r2", [Update(1, {"c": 5})])
    assert _observed(lambda: server.apply_update(outer)) == (
        [], ["rel:r1", "view:sib", "view:v"])
    assert _observed(lambda: server.apply_update(inner)) == ([], ["rel:r2", "view:v"])


def test_cache_hit_reads_only_the_source_relations():
    from repro.service.cache import QueryResultCache

    server = build("join", "immediate")
    server.cache = QueryResultCache()
    server.query("v", 0, 5)
    assert _observed(lambda: server.query("v", 0, 5)) == (["rel:r1", "rel:r2"], [])
    assert server.metrics.counter("cache_hits_total", view="v").value == 1


# ----------------------------------------------------------------------
# compiled plans: a request reuses lock_plan's outcome until the catalog
# (or the engine) changes, and recompiles exactly then
# ----------------------------------------------------------------------

#: A second deferred sibling, registered and dropped between queries.
SIBLING_2 = SelectProjectView("sib2", "r1", IN_VIEW, ("id", "a", "v"), "a")
CHANGES = ("register", "drop", "migrate")


def change_catalog(server, change):
    if change == "register":
        server.register_view(SIBLING_2, Strategy.DEFERRED, adaptive=False)
    elif change == "drop":
        server.database.drop_view("sib2")
    else:
        server.migrate("v", Strategy.QM_CLUSTERED)


def planned(server):
    """(reads, writes) ``lock_plan`` gives the next ``query("v")`` (an
    on-demand verdict) on the server's catalog as it stands now."""
    from repro.service.lockplan import lock_plan

    database = server.database
    plan = lock_plan(database, SHAPES["single"], database.views["v"].strategy, True)
    return sorted(plan.reads), sorted(set(plan.fold) | set(plan.writes))


def test_a_catalog_change_between_two_queries_replans():
    """Between two queries the catalog changes: a deferred sibling comes
    and goes, the view migrates, the engine is swapped for a recovered
    twin.  Each next query takes exactly the locks ``lock_plan`` gives
    for the new catalog, and answers from it."""
    server = build("single", "deferred")
    server.scheduler.set_policy("v", RefreshPolicy.on_demand())

    def next_query():
        server.apply_update(PENDING)
        expected = planned(server)
        assert _observed(lambda: server.query("v")) == expected
        return expected

    seen = [next_query()]
    for change in CHANGES:
        change_catalog(server, change)
        seen.append(next_query())
    assert seen == [
        (["rel:r1", "view:v"], ["rel:r1", "view:sib", "view:v"]),
        (["rel:r1", "view:v"], ["rel:r1", "view:sib", "view:sib2", "view:v"]),
        (["rel:r1", "view:v"], ["rel:r1", "view:sib", "view:v"]),
        ([], ["rel:r1", "view:sib", "view:v"]),
    ]
    # The swap recovery makes: a twin engine with the same catalog
    # history, hence the same epoch, but relations of its own — and an
    # update pending only there.
    twin = build("single", "deferred")
    for change in CHANGES:
        change_catalog(twin, change)
    assert twin.database.catalog_epoch == server.database.catalog_epoch
    twin.apply_update(PENDING)
    server._bind(twin.database)
    expected = planned(server)
    assert expected == ([], ["rel:r1", "view:sib", "view:v"])
    answers = []
    assert _observed(lambda: answers.append(server.query("v"))) == expected
    truth = SHAPES["single"].evaluate(twin.database.logical_records("r1"))
    assert Counter(answers[0]) == Counter(truth)


@pytest.mark.parametrize("shape,strategy", [
    (shape, strategy) for shape in SHAPES for strategy in STRATEGIES[shape]
])
def test_a_plan_is_compiled_once_per_catalog_state(monkeypatch, shape, strategy):
    """200 queries with updates in between compile each (view, strategy,
    refresh verdict) once, and each relation's update locks once; one
    catalog change then recompiles every view queried, once."""
    from repro.service import lockplan

    compiled = Counter()
    from repro.service import server as server_module

    real_plan, real_update = lockplan.lock_plan, server_module.update_locks

    def counted_plan(database, definition, strategy, refresh_now=False):
        compiled[definition.name, strategy, refresh_now] += 1
        return real_plan(database, definition, strategy, refresh_now)

    def counted_update(database, relation):
        compiled["update", relation] += 1
        return real_update(database, relation)

    monkeypatch.setattr(lockplan, "lock_plan", counted_plan)
    monkeypatch.setattr(server_module, "update_locks", counted_update)
    server = build(shape, strategy)
    plans = {"v": [], "sib": []}

    def run(n):
        for i in range(n):
            if i % 5 == 4:
                server.apply_update(Transaction.of("r1", [Update(i % 80, {"v": i})]))
            name = "v" if i % 2 == 0 else "sib"
            server.query(name)
            plans[name].append(server._catalog.entry(name).plan)

    # v is periodic(2), so both verdicts; sib is on demand.
    once = Counter({("v", Strategy(strategy), True): 1, ("v", Strategy(strategy), False): 1,
                    ("sib", Strategy.DEFERRED, True): 1, ("update", "r1"): 1})
    run(200)
    assert compiled == once
    assert all(len({id(p) for p in seen}) == 1 for seen in plans.values())
    compiled.clear()
    change_catalog(server, "register")
    run(20)
    assert compiled == once
    assert all(len({id(p) for p in seen}) == 2 for seen in plans.values())
    assert all(seen[-1].epoch == server.database.catalog_epoch for seen in plans.values())
