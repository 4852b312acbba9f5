"""One handle over a state directory: WAL + checkpoints + recovery.

Layout of a durability state directory::

    <state_dir>/
      CONFIG.json      # engine construction args (bootstrap-only opens)
      CURRENT          # name of the published checkpoint
      checkpoints/     # ckpt-XXXXXXXX/ snapshot directories
      wal/             # wal-XXXXXXXX.log segments

:class:`DurabilityManager` is what the serving layer (and the
``repro-recover`` CLI) talks to: ``open()`` recovers whatever state the
directory holds and arms journaling; ``checkpoint()`` snapshots and
truncates the log; ``close()`` seals the WAL for a graceful shutdown.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.engine.database import Database

from .checkpoint import CheckpointInfo, CheckpointManager
from .recovery import RecoveryReport, recover
from .wal import WriteAheadLog

__all__ = ["DurabilityManager"]


class DurabilityManager:
    """Owns the WAL and checkpoint store under one state directory."""

    def __init__(self, state_dir: str | Path, fsync_every: int = 1) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(self.state_dir / "wal", fsync_every=fsync_every)
        self.checkpoints = CheckpointManager(self.state_dir)
        self.checkpoints.checkpoint_dir.mkdir(exist_ok=True)
        self.config_path = self.state_dir / "CONFIG.json"
        self.checkpoints_taken = 0
        self.last_checkpoint: CheckpointInfo | None = None
        self.last_recovery: RecoveryReport | None = None

    # ------------------------------------------------------------------
    # engine config persistence (for opens with no checkpoint yet)
    # ------------------------------------------------------------------
    def save_config(self, config: Mapping[str, Any]) -> None:
        self.config_path.write_text(json.dumps(dict(config), sort_keys=True, indent=2))

    def load_config(self) -> dict[str, Any] | None:
        try:
            return json.loads(self.config_path.read_text())
        except FileNotFoundError:
            return None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(
        self,
        default_config: Mapping[str, Any] | None = None,
        database_factory: Any = None,
    ) -> tuple[Database, RecoveryReport, dict[str, Any] | None]:
        """Recover the directory's state and arm write-ahead journaling.

        ``default_config`` supplies :class:`Database` constructor args
        for a bootstrap open (no checkpoint yet); a previously saved
        ``CONFIG.json`` is used otherwise.  Once a checkpoint exists its
        manifest config wins.  ``database_factory`` (config -> empty
        :class:`Database`) lets callers install a custom disk stack on
        the recovered engine (see :func:`repro.durability.recovery.recover`).
        """
        if default_config is not None:
            config: dict[str, Any] | None = dict(default_config)
            self.save_config(config)
        else:
            config = self.load_config()
        db, report, service_state = recover(
            self.checkpoints, self.wal, config, database_factory=database_factory
        )
        db.attach_journal(self.wal)
        self.last_recovery = report
        return db, report, service_state

    def attach(self, database: Database) -> None:
        """Arm journaling on an externally built database (bootstrap)."""
        database.attach_journal(self.wal)

    def checkpoint(
        self, database: Database, service_state: Mapping[str, Any] | None = None
    ) -> CheckpointInfo:
        """Snapshot the database and truncate the WAL behind it."""
        info = self.checkpoints.checkpoint(database, self.wal, service_state)
        self.checkpoints_taken += 1
        self.last_checkpoint = info
        return info

    def close(self) -> None:
        """Seal the WAL (graceful shutdown: everything fsynced)."""
        self.wal.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Durability counters for the serving layer's metrics export."""
        return {
            "wal_bytes": self.wal.wal_bytes(),
            "wal_records": self.wal.records_appended,
            "wal_fsyncs": self.wal.fsyncs,
            "wal_epoch": self.wal.epoch,
            "checkpoints_taken": self.checkpoints_taken,
            "latest_checkpoint": self.checkpoints.latest(),
        }
