"""Storage fault injection, integrity checking and graceful degradation.

The paper's strategy space doubles as a degradation ladder: query
modification needs no materialized state, so a view whose stored
machinery is damaged can always be served from base relations at
advisor-priced cost; Severance & Lohman's differential-file design
likewise keeps the main copy consistent while the volatile
differential absorbs risk.  This package makes the serving stack
exploit that structure end to end:

* :mod:`repro.resilience.faults` — seeded, deterministic fault
  injection at the disk (:class:`FaultyDisk`): transient read/write
  errors, torn writes and at-rest bit-rot, under named
  :class:`FaultProfile` presets.
* :mod:`repro.resilience.policy` — detection and containment between
  the buffer pool and the disk (:class:`ResilientDisk`): checksum
  verification on every read, retry with exponential (modelled)
  backoff, and a per-file ``closed → open → half_open`` circuit
  breaker with observable transitions.
* :mod:`repro.resilience.scrub` — an on-demand integrity scrubber that
  walks base files, indexes, AD files and materialized views, classifies
  damage by owner, and applies local repairs (view rebuilds).
* :mod:`repro.resilience.degradation` — the caller-visible
  :class:`DegradedResult` and the query-modification / stale-read
  fallback evaluators the server degrades through.
* :mod:`repro.resilience.health` — :class:`ViewHealth`, the degraded-
  view state machine, the ladder and the repair queue (imported from
  its module: it needs the engine, which imports this package).
"""

from .degradation import DegradedResult, describe_failure, qm_fallback_answer
from .faults import (
    FaultProfile,
    FaultRates,
    FaultyDisk,
    TransientIOError,
    TransientReadError,
    TransientWriteError,
    fault_profile,
    profile_names,
)
from .policy import (
    RESILIENCE_ERRORS,
    CircuitBreaker,
    CircuitOpenError,
    ResilienceConfig,
    ResilientDisk,
    RetryPolicy,
)
from .scrub import (
    PageDamage,
    RepairOutcome,
    ScrubReport,
    classify_file,
    repair_database,
    scrub_database,
    scrub_disk,
    view_files,
)

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "DegradedResult",
    "FaultProfile",
    "FaultRates",
    "FaultyDisk",
    "PageDamage",
    "RESILIENCE_ERRORS",
    "RepairOutcome",
    "ResilienceConfig",
    "ResilientDisk",
    "RetryPolicy",
    "ScrubReport",
    "TransientIOError",
    "TransientReadError",
    "TransientWriteError",
    "classify_file",
    "describe_failure",
    "fault_profile",
    "profile_names",
    "qm_fallback_answer",
    "repair_database",
    "scrub_database",
    "scrub_disk",
    "view_files",
]
