"""Static and dynamic correctness tooling for the repro stack.

The serving stack rests on conventions that code review alone cannot
police: multi-lock acquisition must go through ``LockManager.acquire``
in canonical order, deadlines must be threaded through every
gateway → router → shard hop, chaos and experiment code must draw from
seeded ``random.Random`` instances, the asyncio gateway must never run
blocking engine work on its event loop, and dict attributes shared
across threads must be snapshotted before iteration.  ``repro.analysis``
turns each convention into a machine-checked invariant:

* :mod:`repro.analysis.framework` — an AST lint framework (stdlib
  ``ast`` only) with per-line ``# repro-lint: disable=<rule>`` pragmas
  and a committed-findings baseline;
* :mod:`repro.analysis.rules` — the project rule catalog
  (``async-blocking``, ``lock-discipline``, ``deadline-threading``,
  ``seeded-determinism``, ``snapshot-iteration``, ``batch-hot-path``,
  ``page-edit``);
* :mod:`repro.analysis.lockorder` — a dynamic lock-order recorder that
  instruments :class:`~repro.concurrency.locks.RWLock` acquisitions
  into a global lock-order graph and reports cycles (potential
  deadlocks) with both acquisition stacks;
* :mod:`repro.analysis.cli` — the ``repro-lint`` command.

See ``docs/analysis.md`` for the rule catalog and pragma syntax.
"""

from .framework import (
    Finding,
    LintContext,
    Rule,
    collect_pragmas,
    lint_file,
    lint_paths,
    module_name_for,
)
from .lockorder import LockOrderRecorder, recording
from .rules import ALL_RULES, default_rules

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "collect_pragmas",
    "lint_file",
    "lint_paths",
    "module_name_for",
    "LockOrderRecorder",
    "recording",
    "ALL_RULES",
    "default_rules",
]
