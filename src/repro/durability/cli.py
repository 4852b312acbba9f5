"""``repro-recover`` — inspect and recover a durability state directory.

Default action recovers the directory (checkpoint restore + WAL
replay) and prints the recovery report in the paper's cost units;
``--inspect`` only lists what the directory holds.  Inspecting reads
and changes nothing: a torn WAL tail left by a crash is reported (its
segment, the offset of its first bad byte and its length), not cut —
recovery cuts it, when it opens the log.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.parameters import Parameters

from .checkpoint import CheckpointManager
from .manager import DurabilityManager
from .wal import WriteAheadLog, frames, segments

__all__ = ["main"]


def _inspect(state_dir: Path) -> dict:
    checkpoints = CheckpointManager(state_dir)
    records, torn, wal_bytes = {}, {}, 0
    for _number, path in sorted(segments(state_dir / "wal").items()):
        data = path.read_bytes()
        records[path.stem] = sum(1 for _ in WriteAheadLog.read_segment(path))
        wal_bytes += len(data)
        intact = max((end for end, _payload in frames(data)), default=0)
        if intact < len(data):
            torn[path.stem] = {"offset": intact, "bytes": len(data) - intact}
    return {
        "state_dir": str(state_dir),
        "current_checkpoint": checkpoints.latest(),
        "checkpoints": [checkpoints.describe(name) for name in checkpoints.checkpoint_names()],
        "wal_segments": records,
        "wal_records": sum(records.values()),
        "wal_bytes": wal_bytes,
        "torn_tails": torn,
    }


def _recover(state_dir: Path, params: Parameters) -> dict:
    manager = DurabilityManager(state_dir)
    try:
        db, report, service_state = manager.open()
    finally:
        manager.close()
    return {
        "state_dir": str(state_dir),
        "checkpoint": report.checkpoint,
        "wal_epoch": report.wal_epoch,
        "replay_records": report.replay_records,
        "torn_tail_truncations": report.torn_tail_truncations,
        "full_recomputes_during_replay": report.full_recomputes_during_replay,
        "relations": sorted(db.relations),
        "views": sorted(db.views),
        "transactions_applied": db.transactions_applied,
        "restore_ms": round(report.restore_milliseconds(params), 3),
        "replay_ms": round(report.replay_milliseconds(params), 3),
        "recovery_ms": round(report.milliseconds(params), 3),
        "service_state": service_state is not None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-recover",
        description="Recover (or inspect) a repro.durability state directory",
    )
    parser.add_argument("state_dir", help="durability state directory")
    parser.add_argument(
        "--inspect",
        action="store_true",
        help="list checkpoints and WAL segments without replaying",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)

    state_dir = Path(args.state_dir)
    if not state_dir.is_dir():
        parser.error(f"state directory {state_dir} does not exist")

    params = Parameters()
    doc = _inspect(state_dir) if args.inspect else _recover(state_dir, params)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key, value in doc.items():
            print(f"{key:>30}: {value}")
    return 0


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    sys.exit(main())
