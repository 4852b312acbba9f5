"""Row blocks: how a checkpoint and a ``create_relation`` event carry a
list of records (docs/durability.md, "Row blocks").

A block states each layout once, the keys as one column and every row as
it is; only a column holding a non-atom goes through the value codec.
Decoding gives each record the layout the live record had, and what was
written before blocks still decodes as it did.
"""

import json
import shutil

import pytest

from repro.core.strategies import Strategy
from repro.durability.codec import (
    decode_event,
    decode_records,
    decode_rows,
    encode_event,
    encode_record,
    encode_rows,
)
from repro.durability.faults import ENGINE_CONFIG
from repro.durability.manager import DurabilityManager
from repro.engine.database import Database
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.storage.tuples import Layout, Record, Schema
from repro.views.definition import SelectProjectView
from repro.views.predicate import IntervalPredicate

S = Schema("s", ("id", "a", "v"), "id", tuple_bytes=40)


def through_json(doc):
    return json.loads(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def round_trip(records):
    return decode_rows(through_json(encode_rows(records)))


def same(got, want):
    """Equal records, in order, each over the very layout it had."""
    assert got == want
    assert [r.layout for r in got] == [r.layout for r in want]
    assert all(g.layout is w.layout for g, w in zip(got, want))
    assert list(map(repr, got)) == list(map(repr, want))


class TestRoundTrip:
    def test_mixed_layouts_keep_their_order_and_layouts(self):
        records = [
            S.new_record(id=1, a=1, v="x"),
            S.new_record(v="y", a=2, id=2),
            Record(3, {"a": 3, "id": 3, "v": "z"}),
            S.new_record(id=4, a=4, v="w"),
            Record(5, {"id": 5, "extra": 0.5}),
        ]
        block = encode_rows(records)
        assert len(block["layouts"]) == 4
        assert block["of"] == [0, 1, 2, 0, 3]
        assert "tagged" not in block and "tagged_keys" not in block
        same(round_trip(records), records)

    def test_tuple_keys_and_values_round_trip_exactly(self):
        records = [
            S.new_record(id=(1, "a"), a=(2, (3, "b")), v=["l", ("t",)]),
            S.new_record(id=(2, "b"), a=7, v="plain"),
        ]
        block = encode_rows(records)
        assert block["tagged_keys"] is True and block["tagged"] == [0, 1, 2]
        got = round_trip(records)
        same(got, records)
        assert got[0].key == (1, "a") and isinstance(got[0].key, tuple)
        assert got[0]["a"] == (2, (3, "b")) and isinstance(got[0]["a"][1], tuple)
        assert got[0]["v"] == ["l", ("t",)] and isinstance(got[0]["v"], list)
        assert records[0].row == (got[0].row[0], got[0].row[1], got[0].row[2])

    def test_an_atom_column_is_not_tagged(self):
        records = [S.new_record(id=i, a=(i, i), v=f"v{i}") for i in range(3)]
        block = through_json(encode_rows(records))
        assert block["tagged"] == [1] and "tagged_keys" not in block
        assert [row[0] for row in block["rows"]] == [0, 1, 2]
        assert [row[2] for row in block["rows"]] == ["v0", "v1", "v2"]

    def test_an_empty_relation(self):
        block = through_json(encode_rows([]))
        assert block == {"layouts": [], "keys": [], "rows": []}
        assert decode_rows(block) == []

    def test_a_none_cell_and_other_atoms(self):
        records = [
            S.new_record(id=0, a=None, v=True),
            S.new_record(id=1, a=1.5, v=None),
            S.new_record(id=-2, a=2**70, v=""),
        ]
        assert "tagged" not in encode_rows(records)
        got = round_trip(records)
        same(got, records)
        assert got[0]["a"] is None and got[0]["v"] is True and got[1]["v"] is None

    def test_rows_of_different_widths(self):
        records = [Record(1, {"a": (1,)}), S.new_record(id=2, a=2, v=(3,))]
        block = encode_rows(records)
        assert block["tagged"] == [0, 2]
        same(round_trip(records), records)


class TestOlderDocuments:
    def test_a_list_of_record_documents_decodes_as_it_did(self):
        records = [S.new_record(v="y", a=2, id=(2, "k")), S.new_record(id=1, a=1, v="x")]
        docs = through_json([encode_record(r) for r in records])
        got = decode_records(docs)
        assert got == records
        # Image order is the order the (sorted) document spells the fields.
        assert all(r.layout is Layout.of(("a", "id", "v")) for r in got)

    def test_an_old_create_relation_event_decodes_as_it_did(self):
        records = [S.new_record(id=i, a=i % 3, v=f"v{i}") for i in range(4)]
        event = through_json(encode_event("create_relation", {
            "schema": S, "clustered_on": "a", "kind": "plain", "records": records,
            "ad_buckets": 4, "hash_buckets": None,
        }))
        assert isinstance(event["records"], dict)
        _, payload = decode_event(event)
        same(payload["records"], records)
        event["records"] = [encode_record(r) for r in records]
        _, payload = decode_event(through_json(event))
        assert payload["records"] == records
        # Rows in the schema's order, imaged as the (sorted) document spells them.
        assert {r.layout for r in payload["records"]} == {Layout.of(S.fields, ("a", "id", "v"))}
        event["records"] = None
        assert decode_event(event)[1]["records"] is None


# ----------------------------------------------------------------------
# through a state directory
# ----------------------------------------------------------------------
VIEW = SelectProjectView("sv", "s", IntervalPredicate("a", 0, 2, 0.5), ("id", "a", "v"), "a")


def _load(db):
    db.create_relation(S, "a", kind="hypothetical", ad_buckets=4, records=[
        S.new_record(v=(i, "t"), a=i % 3, id=(i % 4, f"k{i}")) if i % 2
        else S.new_record(id=(i % 4, f"k{i}"), a=i % 3, v=None)
        for i in range(40)
    ])
    db.define_view(VIEW, Strategy.DEFERRED)


def _churn(db, base):
    db.apply_transaction(Transaction.of("s", [
        Insert(S.new_record(a=1, v=("n", base), id=(9, base))),
        Update((1, "k1"), {"a": 2}),
        Delete((2, f"k{2 + 4 * base}")),
    ]))


def _reopen(state, scratch):
    copy = scratch / "copy"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(state, copy)
    manager = DurabilityManager(copy)
    try:
        db, report, _ = manager.open()
        db.attach_journal(None)
    finally:
        manager.close()
    return db, report


def _base(db):
    return db.relations["s"].base.records_snapshot()


@pytest.fixture
def live(tmp_path):
    manager = DurabilityManager(tmp_path / "state")
    manager.save_config(ENGINE_CONFIG)
    db = Database(**ENGINE_CONFIG)
    manager.attach(db)
    _load(db)
    yield manager, db
    manager.close()


def test_a_create_relation_event_replays_each_record_over_its_layout(live, tmp_path):
    manager, db = live
    manager.wal.sync()
    (frame,) = [d for d in manager.wal.replay() if d["event"] == "create_relation"]
    assert set(frame["records"]) >= {"layouts", "keys", "rows"}
    recovered, report = _reopen(manager.state_dir, tmp_path)
    assert report.checkpoint is None
    same(_base(recovered), _base(db))


def test_a_restored_record_has_the_live_records_layout(live, tmp_path):
    manager, db = live
    assert manager.checkpoint(db).kind == "full"
    recovered, report = _reopen(manager.state_dir, tmp_path)
    assert report.replay_records == 0
    same(_base(recovered), _base(db))
    assert len({r.layout for r in _base(db)}) == 2


def test_the_differential_restore_is_the_full_restore(live, tmp_path):
    manager, db = live
    manager.checkpoint(db)
    for i in range(3):
        _churn(db, i)
    db.fold_relation("s")
    _churn(db, 3)  # pending AD entries and deferred markers
    assert manager.checkpoint(db).kind == "differential"
    differential, _ = _reopen(manager.state_dir, tmp_path)
    manager.checkpoints._image = None  # forget the image: the next tick is a full one
    assert manager.checkpoint(db).kind == "full"
    full, _ = _reopen(manager.state_dir, tmp_path)
    for got in (differential, full):
        same(_base(got), _base(db))
        assert got.relations["s"].pending == db.relations["s"].pending > 0
        assert got.relations["s"].state_doc() == db.relations["s"].state_doc()
    want = sorted(map(repr, db.query_view("sv", None, None)))  # folds the backlog
    for got in (differential, full):
        assert sorted(map(repr, got.query_view("sv", None, None))) == want
