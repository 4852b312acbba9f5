"""The serving layer's side of durability: cadence, metrics, recovery.

:class:`ServiceJournal` sits between a server and its
:class:`~repro.durability.manager.DurabilityManager`: it counts served
requests toward the checkpoint cadence, exports the checkpoint / WAL /
recovery metrics, and is the one place a recovered engine is produced
(:meth:`ServiceJournal.recover_engine`) — for a start-up open and a
fault-triggered recovery alike.  With no manager armed it is inert.

The journal only says *when* a checkpoint is due
(:meth:`ServiceJournal.tick`).  The server runs repairs first and skips
the snapshot while anything is unhealthy, because a checkpoint of an
engine waiting for recovery is poison: a fold interrupted by base
damage leaves the base partly folded with the AD file still full, and
a snapshot taken then truncates the very log recovery must replay.
The counter is kept, so the tick fires once the engine is whole again.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping

from repro.core.parameters import Parameters
from repro.engine.database import Database
from repro.resilience.faults import FaultProfile
from repro.resilience.policy import ResilienceConfig

from .checkpoint import CheckpointInfo
from .manager import DurabilityManager

__all__ = ["ServiceJournal"]


class ServiceJournal:
    """Checkpoint cadence + durability metrics around one manager."""

    def __init__(self, metrics: Any, manager: DurabilityManager | None = None) -> None:
        self.metrics = metrics
        #: The armed manager (WAL + checkpoints), or ``None``.
        self.manager = manager
        #: Checkpoint after every this-many served requests (None = never).
        self.checkpoint_every: int | None = None
        self._ops_since_checkpoint = 0
        self._mutex = threading.Lock()
        self.export_gauges()

    def set_cadence(self, every: int | None) -> None:
        """Checkpoint after every ``every`` served requests (None = never)."""
        if every is not None and every < 1:
            raise ValueError(f"checkpoint period must be >= 1, got {every}")
        with self._mutex:
            self.checkpoint_every = every
            self._ops_since_checkpoint = 0

    def recover_engine(
        self,
        config: Mapping[str, Any] | None,
        fault_profile: FaultProfile | None,
        resilience: ResilienceConfig | None,
        params: Parameters,
    ) -> tuple[Database, dict[str, Any]]:
        """Checkpoint restore + WAL replay into a fresh, journaled engine.

        ``fault_profile``/``resilience`` rebuild the engine with the
        same injection and retry/breaker disk stack the live instance
        uses (faults come back *disarmed*).  Returns the engine and the
        serving-layer document of the checkpoint it restored (empty for
        a bootstrap open), and exports the recovery metrics.
        """
        assert self.manager is not None

        def factory(engine_config: dict[str, Any]) -> Database:
            return Database(
                fault_profile=fault_profile, resilience=resilience, **engine_config
            )

        start = time.perf_counter()
        db, report, state = self.manager.open(config, database_factory=factory)
        wall_ms = (time.perf_counter() - start) * 1000.0
        self.metrics.counter("recoveries_total").inc()
        self.metrics.gauge("recovery_replay_records").set(report.replay_records)
        self.metrics.gauge("recovery_ms").set(report.milliseconds(params))
        self.metrics.gauge("recovery_wall_ms").set(wall_ms)
        self.metrics.gauge("recovery_full_recomputes").set(
            report.full_recomputes_during_replay
        )
        self.export_gauges()
        state = state or {}
        if self.checkpoint_every is None:
            # The cadence rides in every checkpoint, so a reopened
            # server resumes it unless told otherwise.
            self.set_cadence(state.get("checkpoint_every"))
        return db, state

    def recover_twin(self, live: Database, params: Parameters) -> Database | None:
        """A recovered replacement for a live engine, or ``None`` unarmed.

        Same sizing and disk stack as ``live``; journaling moves to the
        twin, and its fault injector is re-armed if ``live``'s was.
        """
        if self.manager is None:
            return None
        twin, _saved = self.recover_engine(
            live.engine_config(), live.fault_profile, live.resilience_config, params
        )
        live.attach_journal(None)
        if live.faults is not None and live.faults.armed and twin.faults is not None:
            twin.faults.arm()
        return twin

    def tick(self) -> bool:
        """Count one served request; True when a cadence checkpoint is due."""
        if self.manager is None:
            return False
        with self._mutex:
            self._ops_since_checkpoint += 1
            due = (
                self.checkpoint_every is not None
                and self._ops_since_checkpoint >= self.checkpoint_every
            )
        self.export_gauges()
        return due

    def checkpoint(
        self, database: Database, views: Mapping[str, Any]
    ) -> CheckpointInfo:
        """Snapshot engine + serving state, truncating the WAL behind it.

        ``views`` is the server's per-view catalog document; the
        cadence rides along so a reopened server resumes it.
        """
        if self.manager is None:
            raise RuntimeError(
                "no durability manager attached; use ViewServer.open() or "
                "attach_durability()"
            )
        state = {"views": views, "checkpoint_every": self.checkpoint_every}
        start = time.perf_counter()
        info = self.manager.checkpoint(database, state)
        duration_ms = (time.perf_counter() - start) * 1000.0
        self.metrics.counter("checkpoints_total", kind=info.kind).inc()
        self.metrics.histogram("checkpoint_duration_ms").observe(duration_ms)
        self.metrics.gauge("checkpoint_bytes").set(info.bytes_written)
        with self._mutex:
            self._ops_since_checkpoint = 0
        self.export_gauges()
        return info

    def close(self, database: Database) -> None:
        """Detach journaling and seal the WAL (graceful shutdown)."""
        manager, self.manager = self.manager, None
        if manager is not None:
            database.attach_journal(None)
            manager.close()

    def export_gauges(self) -> None:
        if self.manager is None:
            return
        # Runs after every request: the WAL's own append counters, not
        # DurabilityManager.stats(), which lists and stats the state
        # directory.
        wal = self.manager.wal
        self.metrics.gauge("wal_bytes").set(wal.bytes_appended)
        self.metrics.gauge("wal_records").set(wal.records_appended)
        self.metrics.gauge("wal_fsyncs").set(wal.fsyncs)
