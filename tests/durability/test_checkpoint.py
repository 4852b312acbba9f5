"""Checkpoint manager: atomic publish, GC, version validation."""

import json

import pytest

from repro.core.strategies import Strategy
from repro.durability.checkpoint import ROWS_VERSION, CheckpointError, CheckpointManager
from repro.durability.faults import build_database, make_workload
from repro.durability.recovery import RecoveryError, recover
from repro.durability.wal import WriteAheadLog


@pytest.fixture
def state(tmp_path):
    db = build_database(Strategy.DEFERRED)
    wal = WriteAheadLog(tmp_path / "wal")
    manager = CheckpointManager(tmp_path)
    yield db, wal, manager
    wal.close()


class TestPublish:
    def test_checkpoint_becomes_current(self, state):
        db, wal, manager = state
        info = manager.checkpoint(db, wal)
        assert manager.latest() == info.name == "ckpt-00000001"
        assert info.path.is_dir()
        assert info.bytes_written > 0
        for file in ("MANIFEST.json", "catalog.jsonl", "relations.jsonl",
                     "differential.jsonl", "views.jsonl"):
            assert (info.path / file).exists()

    def test_manifest_records_epoch_and_config(self, state):
        db, wal, manager = state
        info = manager.checkpoint(db, wal)
        manifest = manager.load_manifest(info.name)
        assert manifest["version"] == ROWS_VERSION
        assert manifest["wal_epoch"] == info.wal_epoch == wal.epoch
        assert manifest["config"]["block_bytes"] == db.block_bytes
        assert manifest["transactions_applied"] == db.transactions_applied

    def test_second_checkpoint_gcs_the_first(self, state):
        """GC keeps what ``CURRENT`` names and the image its manifest
        names, nothing else: a differential spares its image and
        replaces the differential before it; a new image replaces both."""
        db, wal, manager = state
        first = manager.checkpoint(db, wal)
        for txn in make_workload(3, 4):
            db.apply_transaction(txn)
        second = manager.checkpoint(db, wal)
        assert (second.kind, second.image) == ("differential", first.name)
        assert second.checkpoints_removed == 0
        assert second.wal_segments_removed >= 1
        assert manager.checkpoint_names() == [first.name, second.name]
        third = manager.checkpoint(db, wal)
        assert (third.kind, third.checkpoints_removed) == ("differential", 1)
        assert manager.checkpoint_names() == [first.name, third.name]
        for txn in make_workload(4, 80, start_key=1000):
            db.apply_transaction(txn)
        db.fold_relation("r")  # most of the base has now been touched
        fourth = manager.checkpoint(db, wal)
        assert (fourth.kind, fourth.checkpoints_removed) == ("full", 2)
        assert not first.path.exists()
        assert manager.checkpoint_names() == [fourth.name]

    def test_capture_is_unmetered(self, state):
        db, wal, manager = state
        db.reset_meter()
        before = db.meter.snapshot()
        manager.checkpoint(db, wal)
        delta = db.meter.delta_since(before)
        assert delta.page_ios == 0
        assert delta.screens == 0
        assert delta.ad_ops == 0

    def test_service_state_round_trips(self, state):
        db, wal, manager = state
        info = manager.checkpoint(db, wal, service_state={"views": {"v": {}}})
        (line,) = manager.read_lines(info.name, "service.jsonl")
        assert line["state"] == {"views": {"v": {}}}

    def test_differential_snapshot_lists_ad_entries(self, state):
        db, wal, manager = state
        for txn in make_workload(5, 3):
            db.apply_transaction(txn)
        pending = db.relations["r"].ad_entry_count()
        info = manager.checkpoint(db, wal)
        (line,) = manager.read_lines(info.name, "differential.jsonl")
        assert line["relation"] == "r"
        assert len(line["entries"]["keys"]) == len(line["entries"]["roles"]) == pending > 0
        assert line["bloom"]["items_added"] >= 0


class TestValidation:
    def test_missing_manifest_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(CheckpointError):
            manager.load_manifest("ckpt-00000099")

    def test_wrong_manifest_version_raises(self, state):
        db, wal, manager = state
        info = manager.checkpoint(db, wal)
        path = info.path / "MANIFEST.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = "repro.durability/v0"
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            manager.load_manifest(info.name)

    def test_wrong_line_version_raises(self, state):
        db, wal, manager = state
        info = manager.checkpoint(db, wal)
        path = info.path / "catalog.jsonl"
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        lines[0]["version"] = "bogus"
        path.write_text("\n".join(json.dumps(l) for l in lines))
        with pytest.raises(CheckpointError):
            list(manager.read_lines(info.name, "catalog.jsonl"))

    def test_dangling_current_refuses_recovery(self, state, tmp_path):
        """``CURRENT`` naming a checkpoint that is gone is a damaged
        directory, not a fresh one: the log before it was deleted."""
        db, wal, manager = state
        info = manager.checkpoint(db, wal)
        manager.current_path.write_text("ckpt-00000042\n")
        assert manager.latest() == "ckpt-00000042"
        with pytest.raises(RecoveryError, match=f"{tmp_path}.*ckpt-00000042"):
            recover(manager, wal)
        manager.current_path.write_text(info.name + "\n")
        recovered, report, _ = recover(manager, wal)
        assert report.checkpoint == info.name and "r" in recovered.relations
        manager.current_path.unlink()  # never published: still a bootstrap
        assert recover(manager, wal)[1].checkpoint is None
