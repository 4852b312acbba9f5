"""Tuple-at-a-time reference implementations of the batch hot paths.

A deferred refresh runs three kernels on the engine path: the net
change of the AD entries (``repro.hr.differential._net_from_entries``),
the two-stage screen (``TwoStageScreen.screen_batch``) and the
differential apply of the stored copy (``MaterializedView.apply_changes``,
called by ``Model.apply``).  This module keeps each one's original
record-at-a-time formulation as its *executable specification*, built
on the per-record ``TwoStageScreen.screen`` (with ``breaks_lock`` and
``Predicate.matches``) and ``MaterializedView.insert_tuple`` /
``delete_tuple``:

* the hypothesis property suites assert that each batch kernel, and a
  whole Model 1 refresh, produces identical results, identical
  cost-meter totals and (for the stored view) byte-identical page
  layouts;
* the engine microbenchmark (``benchmarks/test_bench_engine.py``)
  times these against the batch kernels to report the speedup.

None of these functions sit on a production code path, and none of
them touch bookkeeping counters beyond what their storage calls charge
(`net_from_entries_serial` in particular does **not** bump an HR's
``net_reads`` — it is fed raw entries, not a relation).
"""

from __future__ import annotations

from typing import Iterable

from repro.hr.differential import ROLE_APPENDED, ADEntry
from repro.storage.tuples import Record
from repro.views.delta import ChangeSet, DeltaSet
from repro.views.matview import MaterializedView
from .screening import TwoStageScreen

__all__ = [
    "screen_serial",
    "net_from_entries_serial",
    "apply_changes_serial",
]


def screen_serial(screen: TwoStageScreen, records: Iterable[Record]) -> list[Record]:
    """Per-record two-stage screening (what ``screen_batch`` vectorizes)."""
    return [r for r in records if screen.screen(r)]


def net_from_entries_serial(relation: str, entries: Iterable[ADEntry]) -> DeltaSet:
    """Per-entry net-change toggling over sequence-sorted AD entries.

    The spec for ``repro.hr.differential._net_from_entries``: feed every
    entry's record to the delta set's insert/delete toggling in arrival
    order.
    """
    delta = DeltaSet(relation)
    for entry in sorted(entries, key=lambda e: e.seq):
        if entry.role == ROLE_APPENDED:
            delta.add_insert(entry.record)
        else:
            delta.add_delete(entry.record)
    return delta


def apply_changes_serial(matview: MaterializedView, changes: ChangeSet) -> tuple[int, int]:
    """Apply a change set one tuple at a time (find + delete + reinsert).

    The spec for the batch ``MaterializedView.apply_changes``: same
    iteration order, same duplicate-count arithmetic, via the
    per-tuple ``insert_tuple`` / ``delete_tuple`` operations.
    """
    inserted = deleted = 0
    for vt, signed in changes.items():
        if signed > 0:
            matview.insert_tuple(vt, signed)
            inserted += signed
        else:
            matview.delete_tuple(vt, -signed)
            deleted += -signed
    return inserted, deleted
