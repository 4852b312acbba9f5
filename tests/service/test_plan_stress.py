"""Compiled serving plans under queries, updates and migrations at once.

Eight query threads, one updater and one migrator — which moves a view
back and forth between deferred and immediate maintenance — share one
server while the interpreter switches threads every microsecond.  Every
catalog change runs under the world write lock and every plan is
compiled and used under the world read lock, so no request serves from
a plan compiled against another catalog: each plan a request uses
carries the engine's current catalog epoch.  Lock timeouts turn a
deadlock into a failure instead of a hang.
"""

import random
import sys
import threading
from collections import Counter

from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.engine.transaction import Transaction, Update
from repro.service.server import ViewServer
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import IntervalPredicate

R1 = Schema("r1", ("id", "a", "j", "v"), "id", tuple_bytes=100)
R2 = Schema("r2", ("j", "c"), "j", tuple_bytes=100)
IN_VIEW = IntervalPredicate("a", 0, 19)
VIEWS = (
    (SelectProjectView("moving", "r1", IN_VIEW, ("id", "a", "v"), "a"), Strategy.DEFERRED),
    (AggregateView("sibling", "r1", IN_VIEW, "sum", "v"), Strategy.DEFERRED),
    (SelectProjectView("qm", "r1", IN_VIEW, ("id", "a"), "a"), Strategy.QM_CLUSTERED),
    (JoinView("joined", "r1", "r2", "j", IN_VIEW, ("id", "a"), ("j", "c"), "a"),
     Strategy.IMMEDIATE),
    (AggregateView("total", "r1", IN_VIEW, "sum", "v"), Strategy.IMMEDIATE),
)
QUERY_THREADS = 8
QUERIES = 30  # per query thread
UPDATES = 60
MIGRATIONS = 12
TIMEOUT = 30.0


def build():
    db = Database(buffer_pages=64)
    rng = random.Random(5)
    db.create_relation(
        R1, "a", kind="hypothetical", ad_buckets=2,
        records=[R1.new_record(id=i, a=rng.randrange(40), j=i % 8, v=i)
                 for i in range(80)],
    )
    db.create_relation(
        R2, "j", kind="hashed", records=[R2.new_record(j=j, c=j) for j in range(8)],
    )
    server = ViewServer(db, lock_timeout=TIMEOUT)
    for definition, strategy in VIEWS:
        server.register_view(definition, strategy, adaptive=False)
    return server


def watch_plans(server):
    """Record every plan a request uses that is not the current one."""
    stale = []
    view_plan, relation_plans = server._plan, server._relations

    def current(plan):
        database = server.database
        return plan.database is database and plan.epoch == database.catalog_epoch

    def checked_view_plan(entry):
        plan = view_plan(entry)
        if not current(plan):
            stale.append(entry.definition.name)
        return plan

    def checked_relation_plans():
        plans = relation_plans()
        if not current(plans):
            stale.append("relations")
        return plans

    server._plan, server._relations = checked_view_plan, checked_relation_plans
    return stale


def test_plans_stay_current_under_queries_updates_and_migrations():
    server = build()
    stale = watch_plans(server)
    errors = []
    names = [definition.name for definition, _ in VIEWS]

    def guarded(body):
        def run():
            try:
                body()
            except Exception as exc:  # every failure is reported below
                errors.append(repr(exc))
        return run

    def queries(seed):
        rng = random.Random(seed)
        for _ in range(QUERIES):
            lo = rng.randrange(20)
            server.query(rng.choice(names), lo, lo + rng.randrange(1, 20))

    def updates():
        rng = random.Random(99)
        for _ in range(UPDATES):
            if rng.random() < 0.8:
                txn = Transaction.of("r1", [Update(rng.randrange(80), {
                    "a": rng.randrange(40), "v": rng.randrange(1000)})])
            else:
                txn = Transaction.of("r2", [Update(rng.randrange(8), {
                    "c": rng.randrange(100)})])
            server.apply_update(txn)

    def migrations():
        for i in range(MIGRATIONS):
            server.migrate("moving", (Strategy.IMMEDIATE, Strategy.DEFERRED)[i % 2])

    threads = [threading.Thread(target=guarded(lambda s=s: queries(s)))
               for s in range(QUERY_THREADS)]
    threads += [threading.Thread(target=guarded(updates)),
                threading.Thread(target=guarded(migrations))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT * 2)
    finally:
        sys.setswitchinterval(interval)
    assert not [thread for thread in threads if thread.is_alive()]
    assert errors == []
    assert stale == []
    assert server.strategy_of("moving") is Strategy.DEFERRED

    database = server.database
    r1, r2 = database.logical_records("r1"), database.logical_records("r2")
    for definition, _ in VIEWS:
        answer = server.query(definition.name)
        if isinstance(definition, JoinView):
            truth = definition.evaluate(r1, r2)
        else:
            truth = definition.evaluate(r1)
        if isinstance(definition, AggregateView):
            assert answer == truth, definition.name
        else:
            assert Counter(answer) == Counter(truth), definition.name
        plan = server._catalog.entry(definition.name).plan
        assert plan.database is database
        assert plan.epoch == database.catalog_epoch
