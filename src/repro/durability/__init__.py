"""Durability for views and differential files: WAL + checkpoints.

The paper's deferred strategy leans on a *persistent* differential
file (Severance & Lohman 1976; Woodfill & Stonebraker's hypothetical
relations) — yet everything in the reproduction's engine is volatile.
This subsystem adds the missing persistence spine:

* :mod:`repro.durability.wal` — a record-oriented write-ahead log
  (CRC-framed JSON records, fsync batching, torn-tail truncation).
* :mod:`repro.durability.checkpoint` — versioned JSON-lines snapshots
  of base relations, materialized-view catalogs, AD differential
  files, Bloom-filter state and the service catalog, published with
  atomic renames.
* :mod:`repro.durability.recovery` — restore the latest checkpoint and
  replay the WAL through the normal engine paths; deferred views
  recover by re-installing net A/D sets through the differential
  refresh (never a full recompute), and all replay work is metered in
  :class:`~repro.storage.pager.CostMeter` units.
* :mod:`repro.durability.faults` — a crash-injection harness that
  kills the engine at seeded WAL/checkpoint offsets and proves the
  recovered database equivalent to an uncrashed twin.
* :mod:`repro.durability.manager` — :class:`DurabilityManager`, the
  one object the serving layer and CLIs hold.
* :mod:`repro.durability.journal` — :class:`ServiceJournal`, the
  serving layer's checkpoint cadence, durability metrics and the one
  routine that produces a recovered engine.
"""

from .checkpoint import CheckpointError, CheckpointInfo, CheckpointManager
from .codec import CodecError, decode_event, encode_event
from .faults import FaultOutcome, FaultScenario, KillPoint, SimulatedCrash, run_scenario
from .journal import ServiceJournal
from .manager import DurabilityManager
from .recovery import RecoveryError, RecoveryReport, recover
from .wal import WalError, WriteAheadLog

__all__ = [
    "CheckpointError",
    "CheckpointInfo",
    "CheckpointManager",
    "CodecError",
    "DurabilityManager",
    "FaultOutcome",
    "FaultScenario",
    "KillPoint",
    "RecoveryError",
    "RecoveryReport",
    "ServiceJournal",
    "SimulatedCrash",
    "WalError",
    "WriteAheadLog",
    "decode_event",
    "encode_event",
    "recover",
]
