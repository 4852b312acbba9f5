"""A transaction some view cannot be maintained under is refused whole.

A deferred join over a plain ``kind='hashed'`` inner relation cannot
absorb inner updates (the refresh joins outer deltas against the
*pre-batch* inner state, which in-place hashed storage does not keep).
The refusal must come before the engine journals or touches anything:
the relation unchanged, the view still equal to recomputation, the WAL
without the record, and the state directory still openable.
"""

from collections import Counter

import pytest

from repro.core.strategies import Strategy
from repro.durability.manager import DurabilityManager
from repro.engine.database import (
    CatalogError,
    Database,
    UnsupportedTransactionError,
)
from repro.engine.transaction import Transaction, Update
from repro.service.server import ViewServer
from repro.storage.tuples import Schema
from repro.views.definition import JoinView
from repro.views.predicate import IntervalPredicate

R1 = Schema("r1", ("id", "a", "j"), "id", tuple_bytes=100)
R2 = Schema("r2", ("j", "c"), "j", tuple_bytes=100)
VIEW = JoinView("v", "r1", "r2", "j", IntervalPredicate("a", 0, 9),
                ("id", "a"), ("j", "c"), "a")
INNER_UPDATE = Transaction.of("r2", [Update(3, {"c": 4242})])


def build(manager=None):
    db = Database(buffer_pages=64)
    if manager is not None:
        manager.attach(db)
    db.create_relation(
        R1, "a", kind="hypothetical", ad_buckets=4,
        records=[R1.new_record(id=i, a=i % 20, j=i % 6) for i in range(60)],
    )
    db.create_relation(
        R2, "j", kind="hashed",
        records=[R2.new_record(j=j, c=j * 10) for j in range(6)],
    )
    db.define_view(VIEW, Strategy.DEFERRED)
    return db


def recomputed(db):
    return Counter(VIEW.evaluate(db.logical_records("r1"), db.logical_records("r2")))


def test_refused_before_anything_is_applied():
    db = build()
    inner_before = sorted(db.logical_records("r2"), key=repr)
    applied = db.transactions_applied
    with pytest.raises(UnsupportedTransactionError, match="hashed_hypothetical") as info:
        db.apply_transaction(INNER_UPDATE)
    assert sorted(db.logical_records("r2"), key=repr) == inner_before
    assert db.transactions_applied == applied
    assert Counter(db.query_view("v")) == recomputed(db)
    # Catalog-family (the update names a relation/view pair the catalog
    # cannot maintain), and still the NotImplementedError it used to be.
    assert isinstance(info.value, CatalogError)
    assert isinstance(info.value, NotImplementedError)
    assert "IMMEDIATE" in str(info.value)


def test_refusal_is_not_journaled_and_the_state_dir_reopens(tmp_path):
    manager = DurabilityManager(tmp_path)
    manager.save_config({"buffer_pages": 64})
    db = build(manager)
    db.apply_transaction(Transaction.of("r1", [Update(5, {"a": 3})]))
    journaled = manager.wal.records_appended
    with pytest.raises(CatalogError):
        db.apply_transaction(INNER_UPDATE)
    assert manager.wal.records_appended == journaled
    expected = Counter(db.query_view("v"))
    assert expected == recomputed(db)
    manager.close()

    server = ViewServer.open(tmp_path)  # replays the WAL: nothing in it may raise
    try:
        assert Counter(server.database.query_view("v")) == expected
    finally:
        server.shutdown()
