"""A refresh epoch that finds ``AD`` empty charges nothing.

The paper prices a deferred refresh over an empty differential file at
zero I/O, and the serving layer relies on it: a query whose fold set
has nothing pending skips the epoch instead of running it.  These tests
pin the precondition — ``fold_relation`` on an empty backlog leaves
every ``CostMeter`` counter where it was and writes no page — and check
that skipping therefore changes no metered total: one seeded stream
costs the same through ``ViewServer`` as through ``Database`` with an
unconditional refresh per query.
"""

import random
from collections import Counter

import pytest

from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.engine.transaction import Transaction, Update
from repro.service.server import ViewServer
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import IntervalPredicate

R1 = Schema("r1", ("id", "a", "j", "v"), "id", tuple_bytes=100)
R2 = Schema("r2", ("j", "c"), "j", tuple_bytes=100)
IN_VIEW = IntervalPredicate("a", 0, 9)
VIEWS = {
    "select_project": SelectProjectView("sp", "r1", IN_VIEW, ("id", "a"), "a"),
    "aggregate": AggregateView("agg", "r1", IN_VIEW, "sum", "v"),
    "join": JoinView("join", "r1", "r2", "j", IN_VIEW, ("id", "a"), ("j", "c"), "a"),
    "qm_settle": SelectProjectView("qm", "r1", IN_VIEW, ("id", "a", "v"), "a"),
}


def build(views, strategy=Strategy.DEFERRED, seed=4):
    db = Database(buffer_pages=64)
    rng = random.Random(seed)
    db.create_relation(
        R1, "a", kind="hypothetical", ad_buckets=2,
        records=[R1.new_record(id=i, a=rng.randrange(30), j=i % 6, v=i)
                 for i in range(90)],
    )
    db.create_relation(
        R2, "j", kind="hashed_hypothetical", ad_buckets=2,
        records=[R2.new_record(j=j, c=j * 10) for j in range(6)],
    )
    for view in views:
        db.define_view(view, strategy)
    db.reset_meter()
    return db


def updates(rng, n, inner=True):
    """``n`` seeded single-tuple updates to ``r1`` or (``inner``) ``r2``."""
    for _ in range(n):
        if not inner or rng.random() < 0.7:
            field = rng.choice(("a", "v"))
            yield Transaction.of("r1", [Update(rng.randrange(90),
                                               {field: rng.randrange(30)})])
        else:
            yield Transaction.of("r2", [Update(rng.randrange(6),
                                               {"c": rng.randrange(100)})])


class _DiskWrites:
    def __init__(self, disk):
        self.count, self._write = 0, disk.write
        disk.write = self

    def __call__(self, page):
        self.count += 1
        return self._write(page)


@pytest.mark.parametrize("shape", sorted(VIEWS))
def test_an_empty_fold_charges_nothing(shape):
    qm = shape == "qm_settle"
    db = build([VIEWS[shape]], Strategy.QM_CLUSTERED if qm else Strategy.DEFERRED)
    # Only the join reads (and folds) the inner relation's AD.
    for txn in updates(random.Random(9), 12, inner=shape == "join"):
        db.apply_transaction(txn)
    assert db.relations["r1"].pending
    db.fold_relation("r1")
    for name in ("r1", "r2"):
        assert db.relations[name].pending == 0
    before = db.meter.snapshot()
    writes = _DiskWrites(db.pool.disk)
    db.fold_relation("r1")
    if qm:
        db.settle_relation("r1")
    assert db.meter == before
    assert writes.count == 0


def test_skipped_epochs_cost_what_unconditional_ones_do():
    """One mixed stream, two paths: the server skips epochs with
    nothing to fold, ``Database.query_view(refresh=True)`` runs one per
    query.  Answers and metered totals are equal."""
    views = [VIEWS["select_project"], VIEWS["aggregate"], VIEWS["join"]]
    direct = build(views)
    server = ViewServer(build([]))
    for view in views:
        server.register_view(view, Strategy.DEFERRED, adaptive=False)
    server.database.reset_meter()
    rng = random.Random(21)
    queries = 0
    for step in range(240):
        if rng.random() < 0.25:
            txn = next(updates(rng, 1))
            server.apply_update(txn)
            direct.apply_transaction(txn)
            direct.settle_unless_batched(txn.relation)
            continue
        view = rng.choice(views)
        lo = rng.randrange(10)
        hi = lo + rng.randrange(10)
        queries += 1
        served = server.query(view.name, lo, hi)
        read = direct.query_view(view.name, lo, hi)
        if isinstance(read, list):
            assert Counter(served) == Counter(read), step
        else:
            assert served == read, step
    assert 0 < server.planner.epochs < queries
    assert server.database.meter == direct.meter
