"""Tuple-at-a-time reference implementations of the batch hot paths.

The engine's hot loops are vectorized (`repro.storage.columnar`): the
screens, net-change builds, delta algebra and differential apply all
consume columnar batches.  This module keeps the original
record-at-a-time formulations as the *executable specification*:

* the hypothesis property suites assert that each batch kernel
  produces identical results, identical cost-meter totals and (for
  the stored view) byte-identical page layouts;
* the engine microbenchmark (``benchmarks/test_bench_engine.py``)
  times these against the batch kernels to report the speedup.

None of these functions sit on a production code path, and none of
them touch bookkeeping counters beyond what their storage calls charge
(`net_from_entries_serial` in particular does **not** bump an HR's
``net_reads`` — it is fed raw entries, not a relation).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.hr.differential import ROLE_APPENDED, ADEntry
from repro.storage.tuples import Record
from repro.views.definition import AggregateView, SelectProjectView
from repro.views.delta import ChangeSet, DeltaSet
from repro.views.matview import MaterializedView
from .screening import TwoStageScreen

__all__ = [
    "screen_serial",
    "net_from_entries_serial",
    "apply_changes_serial",
    "select_project_changes_serial",
    "aggregate_changes_serial",
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


def select_project_changes_serial(
    view: SelectProjectView, delta: DeltaSet
) -> ChangeSet:
    """Per-record Model 1 delta projection (spec for the batch version)."""
    changes = ChangeSet()
    for record in delta.inserted:
        if view.predicate.matches(record):
            changes.insert(view.project(record))
    for record in delta.deleted:
        if view.predicate.matches(record):
            changes.delete(view.project(record))
    return changes


def aggregate_changes_serial(
    view: AggregateView, delta: DeltaSet
) -> tuple[list[Any], list[Any]]:
    """Per-record Model 3 entering/leaving values (spec for the batch one)."""
    entering = [r[view.field] for r in delta.inserted if view.predicate.matches(r)]
    leaving = [r[view.field] for r in delta.deleted if view.predicate.matches(r)]
    return entering, leaving
