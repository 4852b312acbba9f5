"""A state directory written before base records became rows opens to
the same engine, and the same history writes the same bytes.

``fixtures/state_760ec5f`` was written by :func:`row_history` at commit
760ec5f, where a ``Record`` was a key plus a field dict: a hypothetical
relation loaded in a field order that is not its schema's (so images
keep the build order), a plain relation with tuple-valued keys, a full
checkpoint, a differential one taken while ``AD`` entries were pending,
and a WAL tail after it.  ``fixtures/rekey_760ec5f`` (by
:func:`rekey_history`) is a log holding updates that name the key field.
To regenerate either, run its function in a ``git archive`` of 760ec5f,
never with the current code.  ``fixtures/row_history_v3`` is what
:func:`row_history` writes with row blocks (``ROWS_VERSION``): generated
by running it into that directory with the current code, and regenerated
the same way only when what the writer writes changes on purpose (last:
a checkpointed or folded tuple keeps the image it was given).
``fixtures/row_history_7009a3d`` is what it wrote at 7009a3d, where a
pending ``AD`` tuple was checkpointed imaged by field name.
"""

import hashlib
import json
import shutil
from pathlib import Path

from repro.core.strategies import Strategy
from repro.durability.faults import ENGINE_CONFIG
from repro.durability.manager import DurabilityManager
from repro.durability.wal import WriteAheadLog
from repro.engine.database import Database
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.storage.tuples import Record, Schema
from repro.views.definition import AggregateView, SelectProjectView
from repro.views.predicate import IntervalPredicate

FIXTURE = Path(__file__).parent / "fixtures" / "state_760ec5f"
ROWS_FIXTURE = Path(__file__).parent / "fixtures" / "row_history_v3"
PARENT_ROWS_FIXTURE = Path(__file__).parent / "fixtures" / "row_history_7009a3d"
#: ``_state(recovered, repr)`` of the fixture reopened at 760ec5f.
PARENT_REOPENED = "15cd9107ed5e028f"

R = Schema("r", ("id", "a", "v"), "id", tuple_bytes=40)
P = Schema("p", ("k", "b"), "k", tuple_bytes=40)
VIEWS = {
    "rv": (SelectProjectView("rv", "r", IntervalPredicate("a", 2, 6, 0.5),
                             ("v", "id", "a"), "a"), Strategy.DEFERRED),
    "rsum": (AggregateView("rsum", "r", IntervalPredicate("a", 0, 4, 0.5), "sum", "a"),
             Strategy.DEFERRED),
    "pv": (SelectProjectView("pv", "p", IntervalPredicate("b", 1, 3, 0.6),
                             ("k", "b"), "b"), Strategy.IMMEDIATE),
}


REKEY_FIXTURE = Path(__file__).parent / "fixtures" / "rekey_760ec5f"
#: relation, kind, its view's strategy (see :func:`rekey_history`)
REKEYED = (("q", "plain", Strategy.IMMEDIATE), ("s", "separate", Strategy.DEFERRED))
#: ``_state(recovered, repr)`` and ``rekey_answers`` digests of the
#: rekey fixture reopened at 760ec5f.
PARENT_REKEYED = ("a3ded898d5c491b0", "759567772d55274c")


def _pkey(i):
    return (i % 3, f"t{i}")


def _step(db, i):
    """One transaction per relation; ``i`` picks the keys."""
    db.apply_transaction(Transaction.of("r", [
        Insert(R.new_record(a=(i * 5) % 9, id=100 + i, v=f"n{i}")),
        Update(i, {"v": f"u{i}", "a": (i * 7) % 9}),
        Delete(30 + i),
    ]))
    db.apply_transaction(Transaction.of("p", [
        Insert(Record(_pkey(100 + i), {"b": i % 5, "k": _pkey(100 + i)})),
        Update(_pkey(i), {"b": (i + 2) % 5}),
    ]))


def answers(db):
    return {
        name: (sorted(map(repr, answer)) if isinstance(answer, list) else answer)
        for name in VIEWS
        for answer in [db.query_view(name, None, None)]
    }


def row_history(state_dir):
    """The history behind ``fixtures/state_760ec5f``."""
    manager = DurabilityManager(state_dir)
    manager.save_config(ENGINE_CONFIG)
    db = Database(**ENGINE_CONFIG)
    manager.attach(db)
    db.create_relation(R, "a", kind="hypothetical", ad_buckets=4, records=[
        R.new_record(v=f"v{i}", a=i % 9, id=i) for i in range(60)])
    db.create_relation(P, "b", kind="plain", records=[
        Record(_pkey(i), {"b": i % 5, "k": _pkey(i)}) for i in range(30)])
    for spec in VIEWS.values():
        db.define_view(*spec)
    for i in range(6):
        _step(db, i)
    answers(db)  # folds the AD backlog
    assert manager.checkpoint(db).kind == "full"
    for i in range(6, 9):
        _step(db, i)
    assert db.relations["r"].pending  # the differential carries AD entries
    assert manager.checkpoint(db).kind == "differential"
    for i in range(9, 12):
        _step(db, i)
    manager.close()
    db.attach_journal(None)
    return db


def rekey_history(state_dir):
    """The history behind ``fixtures/rekey_760ec5f``: updates that name
    the key field, which 760ec5f journaled and applied (and this version
    refuses), on a plain and a separate relation; the log is all there is."""
    manager = DurabilityManager(state_dir)
    manager.save_config(ENGINE_CONFIG)
    db = Database(**ENGINE_CONFIG)
    manager.attach(db)
    for name, kind, strategy in REKEYED:
        schema = Schema(name, ("id", "a", "v"), "id", tuple_bytes=40)
        db.create_relation(schema, "a", kind=kind, ad_buckets=4, records=[
            schema.new_record(id=i, a=i % 7, v=i) for i in range(20)])
        db.define_view(SelectProjectView(f"{name}v", name, IntervalPredicate("a", 1, 4, 0.5),
                                         ("id", "a", "v"), "a"), strategy)
        for ops in (
            [Update(1, {"id": 101})],
            [Update(2, {"id": 102, "a": 3}), Update(102, {"v": -2})],
            [Insert(schema.new_record(id=50, a=2, v=50)), Update(50, {"id": 150}), Delete(3)],
            [Update(4, {"v": -4}), Update(4, {"id": 104}), Delete(5)],
        ):
            db.apply_transaction(Transaction.of(name, ops))
    manager.close()
    db.attach_journal(None)
    return db


def rekey_answers(db):
    return {name: sorted(map(repr, db.query_view(f"{name}v", None, None)))
            for name, _, _ in REKEYED}


def _files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


def _state(db, show=lambda record: record):
    """Base file in order, logical content, and pending ``AD`` entries;
    records as ``show`` renders them (a record compares by value)."""
    out = {}
    for name, relation in db.relations.items():
        out[name] = {
            "base": list(map(show, relation.base.records_snapshot())),
            "logical": sorted(map(show, relation.logical_snapshot()), key=repr),
            "pending": relation.pending,
        }
        if relation.differential:
            # Sequence numbers restart at a fold on one side only.
            out[name]["ad"] = [
                (show(record), role) for record, role, _ in relation.state_doc()["entries"]
            ]
    return out


def reopen(tmp_path, state_dir=FIXTURE):
    """Recover a copy of ``state_dir``, with nothing journaled after."""
    copy = tmp_path / f"copy-{state_dir.name}"
    shutil.copytree(state_dir, copy)
    manager = DurabilityManager(copy)
    try:
        recovered, report, _ = manager.open()
        recovered.attach_journal(None)
    finally:
        manager.close()
    assert report.replay_records > 0 and recovered.relations["r"].pending
    return recovered


def test_the_parent_directory_opens_to_the_same_engine(tmp_path):
    recovered = reopen(tmp_path)
    live = row_history(tmp_path / "again")
    assert _state(recovered) == _state(live)
    assert answers(recovered) == answers(live)
    assert _state(recovered) == _state(live)


def test_the_reopened_images_are_the_parents(tmp_path):
    """What the parent's own recovery of the directory held, every
    record's image included (a restored record lists its fields in the
    order the checkpoint and WAL documents spell them)."""
    recovered = reopen(tmp_path)
    digest = hashlib.sha256(repr(_state(recovered, repr)).encode()).hexdigest()[:16]
    assert digest == PARENT_REOPENED


def test_a_parent_logged_key_changing_update_replays(tmp_path):
    """Such an update is refused before it is journaled now; replaying
    one from an older log re-keys the tuple as a delete and an insert,
    to the content, images and answers 760ec5f's recovery held."""
    copy = tmp_path / "copy"
    shutil.copytree(REKEY_FIXTURE, copy)
    manager = DurabilityManager(copy)
    try:
        recovered, report, _ = manager.open()
        recovered.attach_journal(None)
    finally:
        manager.close()
    assert report.replay_records == 12
    state = hashlib.sha256(repr(_state(recovered, repr)).encode()).hexdigest()[:16]
    answers = hashlib.sha256(repr(rekey_answers(recovered)).encode()).hexdigest()[:16]
    assert (state, answers) == PARENT_REKEYED


def _wal_files(root):
    return {name: data for name, data in _files(root).items() if name.startswith("wal/")}


def _wal_frames(root):
    """Every WAL frame under ``root`` but the ``create_relation`` ones
    (which carry a row block now), as the bytes that were written."""
    return {
        str(path.relative_to(root)): [
            json.dumps(doc, sort_keys=True, separators=(",", ":"))
            for doc in WriteAheadLog.read_segment(path)
            if doc["event"] != "create_relation"
        ]
        for path in sorted(Path(root).rglob("wal-*.log"))
    }


def test_the_same_history_writes_the_parents_bytes(tmp_path):
    """The WAL frames are the parent's, byte for byte; the checkpoints
    carry their records as row blocks, pinned by ``ROWS_FIXTURE``."""
    row_history(tmp_path / "again")
    assert _wal_frames(tmp_path / "again") == _wal_frames(FIXTURE)
    assert _files(FIXTURE)["wal/wal-00000003.log"] == _files(ROWS_FIXTURE)[
        "wal/wal-00000003.log"
    ]
    assert _files(tmp_path / "again") == _files(ROWS_FIXTURE)


def test_the_row_block_directory_restores_what_the_parents_held(tmp_path):
    """The same history written with row blocks reopens to the engine the
    parent's directory reopens to, each restored base record and pending
    AD tuple over the layout the live record had (the parent's restore
    images them by name)."""
    live = row_history(tmp_path / "again")
    recovered = reopen(tmp_path, ROWS_FIXTURE)
    assert _state(recovered) == _state(reopen(tmp_path)) == _state(live)
    for name in ("r", "p"):
        shown, want = _state(recovered, repr)[name], _state(live, repr)[name]
        assert shown["base"] == want["base"] and shown.get("ad") == want.get("ad")
    assert answers(recovered) == answers(live)


def test_a_pending_ad_key_reopens_as_the_live_engine_holds_it(tmp_path):
    """Keys whose latest change was checkpointed in the AD file, and not
    touched after, read back over the live record's layout and image."""
    live = row_history(tmp_path / "live")
    recovered = reopen(tmp_path, tmp_path / "live")
    for key in (6, 7, 8, 106, 107, 108):
        want = live.relations["r"].logical_by_key(key)
        got = recovered.relations["r"].logical_by_key(key)
        assert (got.layout, repr(got)) == (want.layout, repr(want))
    assert repr(live.relations["r"].logical_by_key(6)) == "Record(key=6, v='u6', a=6, id=6)"


def test_the_directory_written_at_7009a3d_opens(tmp_path):
    """The row-block directory written where a pending AD tuple was
    checkpointed imaged by name: the same WAL bytes, and it reopens to an
    engine equal by value to the live one, with the same answers."""
    live = row_history(tmp_path / "again")
    assert _wal_files(PARENT_ROWS_FIXTURE) == _wal_files(tmp_path / "again")
    recovered = reopen(tmp_path, PARENT_ROWS_FIXTURE)
    assert _state(recovered) == _state(live)
    assert answers(recovered) == answers(live)


def test_a_reopened_relation_holds_its_rows_in_schema_order(tmp_path):
    """Every record recovery rebuilds of ``r`` (from a row block, a list
    written before blocks, a pending AD entry or a replayed insert) is a
    row in the schema's order, as the live engine holds all 60, imaged
    as before (the reprs of the reopened ``FIXTURE`` are pinned above)."""
    live = row_history(tmp_path / "again").relations["r"]
    assert {r.layout.fields for r in live.logical_snapshot()} == {R.fields}
    for state_dir in (ROWS_FIXTURE, FIXTURE):
        relation = reopen(tmp_path, state_dir).relations["r"]
        logical = relation.logical_snapshot()
        pending = [record for record, _, _ in relation.state_doc()["entries"]]
        assert len(logical) == 60
        assert {
            r.layout.fields for r in [*logical, *relation.base.records_snapshot(), *pending]
        } == {R.fields}
        if state_dir == ROWS_FIXTURE:
            assert sorted(map(repr, logical)) == sorted(map(repr, live.logical_snapshot()))
