"""``repro-recover --inspect`` reads a state directory and changes nothing.

Opening a :class:`~repro.durability.wal.WriteAheadLog` cuts a torn tail
off the last segment and creates ``wal/``; inspecting goes round it and
scans the segments as they are, so a crash image can be looked at
before anything recovers it.
"""

import json
from pathlib import Path

from repro.core.strategies import Strategy
from repro.durability.cli import main as recover_main
from repro.durability.faults import ENGINE_CONFIG, build_database, make_workload
from repro.durability.manager import DurabilityManager

#: A frame header promising more payload than follows: a crashed append.
TORN = b"\x40\x00\x00\x00\x00\x00"


def _tree(root):
    """Every path under ``root``, directories included, with file bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
        for path in sorted(Path(root).rglob("*"))
    }


def _inspect(state_dir, capsys):
    assert recover_main([str(state_dir), "--inspect", "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_inspecting_a_torn_tail_leaves_every_byte(tmp_path, capsys):
    state = tmp_path / "state"
    manager = DurabilityManager(state)
    manager.save_config(ENGINE_CONFIG)
    db = build_database(Strategy.DEFERRED, manager)
    manager.checkpoint(db)
    for txn in make_workload(3, 4):
        db.apply_transaction(txn)
    manager.close()
    segment = state / "wal" / f"wal-{manager.wal.epoch:08d}.log"
    intact = segment.stat().st_size
    with open(segment, "ab") as fh:
        fh.write(TORN)
    before = _tree(state)

    doc = _inspect(state, capsys)

    assert _tree(state) == before
    assert doc["wal_records"] == 4
    assert doc["wal_bytes"] == intact + len(TORN)
    assert doc["torn_tails"] == {segment.stem: {"offset": intact, "bytes": len(TORN)}}


def test_inspecting_an_empty_directory_creates_nothing(tmp_path, capsys):
    state = tmp_path / "state"
    state.mkdir()
    doc = _inspect(state, capsys)
    assert _tree(state) == {}
    assert doc["checkpoints"] == [] and doc["wal_segments"] == {}
    assert doc["torn_tails"] == {}
