"""Differential checkpoints: a restore from image + differential is
indistinguishable from a restore of a full image of the same instant.

The property drives random histories over all five relation kinds and,
at every tick, reopens a copy of the directory: the record list handed
to ``create_relation`` equals — in order — what a full capture would
have written (``records_snapshot()`` of the live base file), and the
reopened engine equals a twin that never had a journal.  The examples
pin what a property cannot reach: failed ticks, engine swaps, the
publish order on disk, the parent commit's directories and bytes, and
hash-seed independence of what is written.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.parameters import PAPER_DEFAULTS
from repro.core.strategies import Strategy
from repro.durability import checkpoint as checkpoint_module
from repro.durability.checkpoint import (
    DIFFERENTIAL_VERSION,
    FOLD_FRACTION,
    VERSION,
    CheckpointError,
    CheckpointManager,
)
from repro.durability.faults import (
    ENGINE_CONFIG,
    _QUERY_RANGE,
    _view_names,
    build_database,
    make_workload,
)
from repro.durability.journal import ServiceJournal
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import RecoveryError
from repro.engine.database import KINDS, Database
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.service.metrics import MetricsRegistry
from repro.storage.tuples import Schema

FIXTURE = Path(__file__).parent / "fixtures" / "state_7d513cb"


# ----------------------------------------------------------------------
# comparing engines
# ----------------------------------------------------------------------
def reopen(state_dir, scratch, spy=None):
    """Recover a *copy* of ``state_dir`` (the live manager keeps its own)."""
    copy = Path(scratch) / "reopened"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(state_dir, copy)
    assert len(list((copy / "checkpoints").iterdir())) <= 2
    manager = DurabilityManager(copy)
    factory = None
    if spy is not None:

        class Spy(Database):
            def create_relation(self, schema, clustered_on, records=None, **spec):
                spy[schema.name] = list(records)
                return super().create_relation(
                    schema, clustered_on, records=spy[schema.name], **spec
                )

        factory = lambda config: Spy(**config)  # noqa: E731
    try:
        db, report, _ = manager.open(database_factory=factory)
        db.attach_journal(None)  # a copy: what is asked of it is off the record
    finally:
        manager.close()
    return db, report


def assert_same_engine(got, want):
    assert list(got.relations) == list(want.relations)
    assert got.transactions_applied == want.transactions_applied
    for name, relation in want.relations.items():
        other = got.relations[name]
        # In order: page layout, restore meter and fingerprints follow.
        assert other.base.records_snapshot() == relation.base.records_snapshot()
        assert other.logical_snapshot() == relation.logical_snapshot()
        assert other.pending == relation.pending
        if relation.differential:
            # Sequence numbers restart at a fold on one side only.
            ours, theirs = other.state_doc(), relation.state_doc()
            assert [e[:2] for e in ours["entries"]] == [e[:2] for e in theirs["entries"]]
            assert ours["bloom"] == theirs["bloom"]


def view_answers(db, strategy=Strategy.DEFERRED):
    out = {}
    for view in _view_names(strategy):
        answer = db.query_view(view, *_QUERY_RANGE)
        out[view] = sorted(answer, key=repr) if isinstance(answer, list) else answer
    return out


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
KEY_SHAPES = {
    "int": lambda i: i,
    "str": lambda i: f"k{i}",
    "tuple": lambda i: (i % 3, f"t{i}"),
}
KIND_NAMES = sorted(KINDS)

#: Key indices: the even ones are loaded, so a draw hits or misses evenly.
_KEYS = 64

_op = st.tuples(
    st.sampled_from(["put", "put", "delete", "rekey", "recluster"]),
    st.integers(0, _KEYS - 1),
    st.integers(0, _KEYS - 1),
)
_step = st.one_of(
    st.tuples(st.just("txn"), st.integers(0, 5), st.lists(_op, min_size=1, max_size=6)),
    st.tuples(st.just("txn"), st.integers(0, 5), st.lists(_op, min_size=1, max_size=6)),
    st.tuples(st.just("fold"), st.integers(0, 5)),
    st.tuples(st.just("create"), st.sampled_from(KIND_NAMES), st.sampled_from(sorted(KEY_SHAPES))),
    st.tuples(st.just("tick")),
)


class History:
    """Applies the same steps to a journaled engine and to its twin."""

    def __init__(self, state_dir):
        self.manager = DurabilityManager(state_dir)
        self.manager.save_config(ENGINE_CONFIG)
        self.live = Database(**ENGINE_CONFIG)
        self.manager.attach(self.live)
        self.twin = Database(**ENGINE_CONFIG)
        self.relations = []  # (schema, key shape, {key index: a}, kind)
        self.kinds = []

    def create(self, kind, shape):
        name = f"r{len(self.relations)}"
        schema = Schema(name, ("id", "a", "v"), "id", tuple_bytes=100)
        # A hashed hypothetical relation must be hashed on its key.
        on = "id" if kind == "hashed_hypothetical" else "a"
        state = {i: i % 4 for i in range(0, _KEYS, 2)}
        for db in (self.live, self.twin):
            db.create_relation(
                schema, on, kind=kind, ad_buckets=4, hash_buckets=4,
                records=[
                    schema.new_record(id=KEY_SHAPES[shape](i), a=a, v="loaded")
                    for i, a in state.items()
                ],
            )
        self.relations.append((schema, KEY_SHAPES[shape], state, kind))

    def txn(self, which, ops):
        schema, key_of, state, kind = self.relations[which % len(self.relations)]
        built = []
        for verb, i, j in ops:
            if i not in state:
                built.append(Insert(schema.new_record(id=key_of(i), a=j, v="new")))
                state[i] = j
            elif verb == "delete":
                built.append(Delete(key_of(i)))
                del state[i]
            elif verb == "rekey" and j not in state:
                # An update may not name the key field: a key is
                # rewritten as a delete and an insert.
                built.append(Delete(key_of(i)))
                built.append(Insert(schema.new_record(id=key_of(j), a=state[i], v="moved")))
                state[j] = state.pop(i)
            elif verb == "recluster":
                built.append(Update(key_of(i), {"a": j}))
                state[i] = j
            else:
                built.append(Update(key_of(i), {"v": f"v{j}"}))
        for db in (self.live, self.twin):
            db.apply_transaction(Transaction(schema.name, tuple(built)))

    def fold(self, which):
        schema = self.relations[which % len(self.relations)][0]
        if self.live.relations[schema.name].differential:
            for db in (self.live, self.twin):
                db.fold_relation(schema.name)

    def tick(self, scratch):
        info = self.manager.checkpoint(self.live)
        self.kinds.append(info.kind)
        handed = {}
        recovered, report = reopen(self.manager.state_dir, scratch, spy=handed)
        assert report.checkpoint == info.name and report.replay_records == 0
        for name, relation in self.live.relations.items():
            assert handed[name] == relation.base.records_snapshot()
        assert_same_engine(recovered, self.twin)


class TestDifferentialRestoreIsAFullRestore:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        first=st.tuples(st.sampled_from(KIND_NAMES), st.sampled_from(sorted(KEY_SHAPES))),
        steps=st.lists(_step, max_size=24),
    )
    def test_any_history_any_tick(self, tmp_path_factory, first, steps):
        tmp = tmp_path_factory.mktemp("history")
        history = History(tmp / "state")
        try:
            history.create(*first)
            history.tick(tmp)  # the image everything below rests on
            for step in steps:
                verb, *args = step
                if verb == "tick":
                    history.tick(tmp)
                else:
                    getattr(history, verb)(*args)
            history.tick(tmp)
            # And with a WAL tail behind the last checkpoint.
            history.txn(0, [("put", 3, 1), ("delete", 4, 0), ("rekey", 8, 5)])
        finally:
            history.manager.close()
        recovered, _ = reopen(history.manager.state_dir, tmp)
        assert_same_engine(recovered, history.twin)

    def test_the_property_sees_both_kinds_and_every_relation_kind(self, tmp_path):
        """A pinned history: every relation kind, key rewrites, folds, a
        relation created between ticks (the next tick is full), and
        enough churn afterwards to fold the differentials into an image."""
        history = History(tmp_path / "state")
        try:
            for kind, shape in zip(KIND_NAMES, ("int", "str", "tuple", "str", "tuple")):
                history.create(kind, shape)
            history.tick(tmp_path)
            for which in range(5):
                history.txn(which, [("rekey", 2, 7), ("put", 9, 1)])
                history.fold(which)
            history.tick(tmp_path)
            history.txn(1, [("recluster", 0, 3), ("delete", 7, 0)])
            history.tick(tmp_path)
            history.create("plain", "int")
            history.tick(tmp_path)
            history.txn(5, [("put", 1, 1)])
            history.tick(tmp_path)
            for which in range(6):
                history.txn(which, [("put", i, which) for i in range(12)])
                history.fold(which)
            base = history.live.relations["r0"].base
            assert len(base.touched) > FOLD_FRACTION * len(base)
            history.tick(tmp_path)
        finally:
            history.manager.close()
        assert history.kinds == [
            "full", "differential", "differential", "full", "differential", "full"
        ]


# ----------------------------------------------------------------------
# failed ticks, engine swaps
# ----------------------------------------------------------------------
class Boom(RuntimeError):
    pass


def _fail_once(manager, phase):
    def hook(seen):
        if seen == phase:
            manager.checkpoints.fault_hook = None
            raise Boom(phase)

    manager.checkpoints.fault_hook = hook


def _churn(db, seed, count, start_key):
    for i, txn in enumerate(make_workload(seed, count, start_key=start_key)):
        db.apply_transaction(txn)
        if i % 5 == 0:
            view_answers(db)  # a deferred query folds the AD file


class TestFailedTickLosesNothing:
    @pytest.mark.parametrize("phase", ["capture", "pre_publish", "post_publish"])
    def test_failed_differential_tick(self, tmp_path, phase):
        manager = DurabilityManager(tmp_path / "state")
        manager.save_config(ENGINE_CONFIG)
        db = build_database(Strategy.DEFERRED, manager)
        image = manager.checkpoint(db)
        _churn(db, 3, 6, 100)
        _fail_once(manager, phase)
        with pytest.raises(Boom):
            manager.checkpoint(db)
        _churn(db, 4, 4, 200)  # the process is still running
        info = manager.checkpoint(db)
        assert (info.kind, info.image) == ("differential", image.name)
        manager.close()
        db.attach_journal(None)  # the answers below fold, off the record
        recovered, report = reopen(manager.state_dir, tmp_path)
        assert report.checkpoint == info.name
        assert_same_engine(recovered, db)
        assert view_answers(recovered) == view_answers(db)

    @pytest.mark.parametrize("phase", ["capture", "pre_publish", "post_publish"])
    def test_failed_full_image_after_differentials(self, tmp_path, phase):
        manager = DurabilityManager(tmp_path / "state")
        manager.save_config(ENGINE_CONFIG)
        db = build_database(Strategy.DEFERRED, manager)
        image = manager.checkpoint(db)
        _churn(db, 3, 6, 100)
        assert manager.checkpoint(db).kind == "differential"
        _churn(db, 5, 80, 300)
        base = db.relations["r"].base
        assert len(base.touched) > FOLD_FRACTION * len(base)
        _fail_once(manager, phase)
        with pytest.raises(Boom):
            manager.checkpoint(db)  # this one was to be the new image
        _churn(db, 4, 4, 2000)
        info = manager.checkpoint(db)
        if phase == "post_publish":
            # CURRENT had been rewritten: the new image stands, and the
            # notes restarted with it, so this tick rests on it.
            assert info.kind == "differential" and info.image != image.name
        else:
            assert info.kind == "full"
        manager.close()
        db.attach_journal(None)  # the answers below fold, off the record
        recovered, report = reopen(manager.state_dir, tmp_path)
        assert report.checkpoint == info.name
        assert_same_engine(recovered, db)
        assert view_answers(recovered) == view_answers(db)


def test_an_engine_swap_makes_the_next_checkpoint_full(tmp_path):
    manager = DurabilityManager(tmp_path / "state")
    manager.save_config(ENGINE_CONFIG)
    journal = ServiceJournal(MetricsRegistry(), manager)
    db = build_database(Strategy.DEFERRED, manager)
    journal.checkpoint(db, {})
    _churn(db, 3, 6, 100)
    assert journal.checkpoint(db, {}).kind == "differential"
    twin = journal.recover_twin(db, PAPER_DEFAULTS)
    assert all(r.base.touched is None for r in twin.relations.values())
    _churn(twin, 4, 2, 200)
    info = journal.checkpoint(twin, {})
    assert info.kind == "full" and info.image == info.name
    assert journal.checkpoint(twin, {}).kind == "differential"
    count = journal.metrics.counter
    assert count("checkpoints_total", kind="full").value == 2
    assert count("checkpoints_total", kind="differential").value == 2
    manager.close()
    recovered, _ = reopen(manager.state_dir, tmp_path)
    assert_same_engine(recovered, twin)


def test_a_missing_image_refuses_recovery_and_forces_a_full_tick(tmp_path):
    manager = DurabilityManager(tmp_path / "state")
    manager.save_config(ENGINE_CONFIG)
    db = build_database(Strategy.DEFERRED, manager)
    image = manager.checkpoint(db)
    _churn(db, 3, 6, 100)
    assert manager.checkpoint(db).image == image.name
    shutil.rmtree(image.path)
    with pytest.raises(RecoveryError, match=image.name):
        reopen(manager.state_dir, tmp_path)
    info = manager.checkpoint(db)  # the live process heals the directory
    assert info.kind == "full"
    manager.close()
    recovered, _ = reopen(manager.state_dir, tmp_path)
    assert_same_engine(recovered, db)


def test_a_leftover_tmp_directory_is_not_published(tmp_path):
    manager = DurabilityManager(tmp_path / "state")
    manager.save_config(ENGINE_CONFIG)
    db = build_database(Strategy.DEFERRED, manager)
    stray = manager.checkpoints.checkpoint_dir / "ckpt-00000001.tmp"
    stray.mkdir()
    (stray / "stray.jsonl").write_text("a crashed attempt's file\n")
    info = manager.checkpoint(db)
    manager.close()
    assert not (info.path / "stray.jsonl").exists()


def test_inspect_lists_kind_image_bytes_and_record_counts(tmp_path, capsys):
    from repro.durability.cli import main as recover_main

    manager = DurabilityManager(tmp_path / "state")
    manager.save_config(ENGINE_CONFIG)
    db = build_database(Strategy.DEFERRED, manager)
    image = manager.checkpoint(db)
    schema = db.relations["r"].schema
    db.apply_transaction(Transaction("r", (Delete(0), Insert(schema.new_record(k=900, a=1)))))
    db.fold_relation("r")
    info = manager.checkpoint(db)
    manager.close()
    assert recover_main([str(tmp_path / "state"), "--inspect", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["current_checkpoint"] == info.name
    full, differential = doc["checkpoints"]
    assert full == {
        "name": image.name, "kind": "full", "image": image.name,
        "bytes": image.bytes_written,
        "records": {"r": {"records": 40}},
    }
    assert differential == {
        "name": info.name, "kind": "differential", "image": image.name,
        "bytes": info.bytes_written,
        "records": {"r": {"upserts": 1, "deleted": 1}},
    }


# ----------------------------------------------------------------------
# publish order on disk
# ----------------------------------------------------------------------
def test_publish_is_on_disk_before_anything_is_deleted(tmp_path, monkeypatch):
    """rename -> fsync(checkpoints/) -> replace(CURRENT) -> fsync(state
    dir), all before the first unlink/rmtree of GC; a rotated WAL
    segment's name is synced too.  A directory entry is durable only
    once its directory is."""
    manager = DurabilityManager(tmp_path / "state")
    manager.save_config(ENGINE_CONFIG)
    db = build_database(Strategy.DEFERRED, manager)
    manager.checkpoint(db)
    _churn(db, 3, 6, 100)
    manager.checkpoint(db)  # a differential for the next tick's GC to remove
    _churn(db, 4, 3, 200)

    dirs = {
        os.stat(path).st_ino: label
        for label, path in [
            ("state", manager.state_dir),
            ("checkpoints", manager.checkpoints.checkpoint_dir),
            ("wal", manager.wal.directory),
        ]
    }
    events = []

    def recording(module, name, describe):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            events.append((name, describe(*args)))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    recording(os, "fsync", lambda fd: dirs.get(os.fstat(fd).st_ino, "file"))
    recording(os, "rename", lambda src, dst: Path(dst).name)
    recording(os, "replace", lambda src, dst: Path(dst).name)
    recording(os, "unlink", lambda path, **_: Path(path).name)
    recording(shutil, "rmtree", lambda path, **_: Path(path).name)
    info = manager.checkpoint(db)
    monkeypatch.undo()
    manager.close()

    published = [
        ("rename", info.name),
        ("fsync", "checkpoints"),
        ("replace", "CURRENT"),
        ("fsync", "state"),
    ]
    at = [events.index(event) for event in published]
    assert at == sorted(at), events
    deletions = [i for i, (name, _) in enumerate(events) if name in ("unlink", "rmtree")]
    assert deletions and min(deletions) > at[-1], events
    assert {events[i] for i in deletions} >= {
        ("rmtree", "ckpt-00000002"), ("unlink", "wal-00000003.log")
    }
    # The rotation made a segment: its name is synced before the capture.
    assert events.index(("fsync", "wal")) < at[0]


# ----------------------------------------------------------------------
# the parent commit's directories and bytes
# ----------------------------------------------------------------------
def parent_history(state_dir):
    """What wrote ``fixtures/state_7d513cb`` when run at 7d513cb (the
    commit before differential checkpoints): folds, a backlog, one
    checkpoint — a full image at either commit — and a WAL tail."""
    manager = DurabilityManager(state_dir)
    manager.save_config(ENGINE_CONFIG)
    db = build_database(Strategy.DEFERRED, manager)
    txns = make_workload(21, 16)
    for i, txn in enumerate(txns):
        if i == 10:
            manager.checkpoint(db)
        db.apply_transaction(txn)
        if i % 4 == 0:
            view_answers(db)
    manager.close()
    db.attach_journal(None)
    return db


def _files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


class TestParentCommit:
    def test_a_parent_written_directory_opens(self, tmp_path):
        recovered, report = reopen(FIXTURE, tmp_path)
        assert report.checkpoint == "ckpt-00000001" and report.replay_records > 0
        live = parent_history(tmp_path / "again")
        assert_same_engine(recovered, live)
        assert view_answers(recovered) == view_answers(live)

    def test_full_image_and_wal_bytes_are_the_parents(self, tmp_path):
        parent_history(tmp_path / "again")
        assert _files(tmp_path / "again") == _files(FIXTURE)

    def test_a_parent_style_reader_refuses_a_differential(self, tmp_path, monkeypatch):
        """The parent's reader accepts exactly ``VERSION`` on the
        manifest and on every line; a differential carries another tag
        on both, so it is refused instead of restored as a whole base."""
        manager = DurabilityManager(tmp_path / "state")
        db = build_database(Strategy.DEFERRED, manager)
        full = manager.checkpoint(db)
        _churn(db, 3, 6, 100)
        info = manager.checkpoint(db)
        manager.close()
        assert VERSION == "repro.durability/v1" != DIFFERENTIAL_VERSION
        assert json.loads((full.path / "MANIFEST.json").read_text())["version"] == VERSION
        manifest = json.loads((info.path / "MANIFEST.json").read_text())
        assert manifest["version"] == DIFFERENTIAL_VERSION
        assert manifest["image"] == full.name
        lines = (info.path / "relations.jsonl").read_text().splitlines()
        assert lines and all(
            json.loads(line)["version"] == DIFFERENTIAL_VERSION for line in lines
        )
        # A reader that knows the first tag only, as at 7d513cb.
        monkeypatch.setattr(checkpoint_module, "_VERSIONS", (VERSION,))
        reader = CheckpointManager(tmp_path / "state")
        assert reader.load_manifest(full.name)["version"] == VERSION
        assert list(reader.read_lines(full.name, "relations.jsonl"))
        with pytest.raises(CheckpointError, match="v2"):
            reader.load_manifest(info.name)
        with pytest.raises(CheckpointError, match="v2"):
            list(reader.read_lines(info.name, "relations.jsonl"))


# ----------------------------------------------------------------------
# hash-seed independence of what is written
# ----------------------------------------------------------------------
_SEEDED = """
import hashlib, sys
from repro.durability.manager import DurabilityManager
from repro.engine.database import Database
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.storage.tuples import Schema

manager = DurabilityManager(sys.argv[1])
db = Database(block_bytes=400, buffer_pages=64, fanout=8)
manager.attach(db)
shapes = {"s": lambda i: f"key-{i}", "t": lambda i: (f"part-{i % 5}", i)}
for name, key in shapes.items():
    schema = Schema(name, ("id", "a"), "id", tuple_bytes=40)
    db.create_relation(schema, "a", kind="hypothetical", ad_buckets=4,
                       records=[schema.new_record(id=key(i), a=i % 7) for i in range(300)])
manager.checkpoint(db)
for name, key in shapes.items():
    schema = db.relations[name].schema
    db.apply_transaction(Transaction(name, tuple(
        [Insert(schema.new_record(id=key(i), a=i % 7)) for i in range(300, 315)]
        + [Delete(key(i)) for i in range(0, 20, 3)]
        + [Update(key(i), {"a": 6 - i % 7}) for i in range(21, 40, 2)]
        + [Delete(key(41)), Insert(schema.new_record(id=key(999), a=3))])))
    db.fold_relation(name)
info = manager.checkpoint(db)
manager.close()
assert info.kind == "differential"
print(info.bytes_written, hashlib.sha256((info.path / "relations.jsonl").read_bytes()).hexdigest())
"""


def test_differential_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """The touched keys are a dict, in edit order; a set of str or
    tuple keys would be written in a different order per hash seed."""
    src = str(Path(repro.__file__).resolve().parents[1])
    seen = set()
    for seed in ("0", "1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", _SEEDED, str(tmp_path / seed)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        seen.add(out.stdout.strip())
    assert len(seen) == 1, seen
