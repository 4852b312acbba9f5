"""Single-thread engine kernel throughput: batch vs tuple-at-a-time.

Times the four vectorized hot paths — stage-2 screening, net-change
build, differential apply, and the end-to-end deferred refresh — each
against its record-at-a-time executable spec
(``repro.maintenance.reference``), with pacing off: these numbers are
raw Python throughput, the thing the columnar refactor exists to buy.
Every timed run also cross-checks the two formulations' outputs;
``engine_equivalence_violations`` counts disagreements and must be 0.

Results land in ``benchmarks/BENCH_engine.json`` as one qps series per
kernel (single point, label ``"1"`` — one thread), with the serial
throughput and the speedup alongside:

* ``qps`` — tuples/sec through the batch kernel (what the regression
  gate floors against ``BENCH_engine.baseline.json``);
* ``tuple_qps`` — the serial spec on the identical workload;
* ``speedup_vs_tuple`` — their ratio.  The screen kernel asserts
  >= 5x in-bench; the storage-bound kernels assert smaller floors
  (their work is dominated by shared B+-tree descents).

CI's perf-smoke job runs this at reduced scale
(``REPRO_ENGINE_SCALE``) and gates regressions >20% via
``check_parallel_regression.py``.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from repro.hr.differential import (
    ADEntry,
    ClusteredRelation,
    HypotheticalRelation,
    _net_from_entries,
)
from repro.maintenance.reference import (
    apply_changes_serial,
    net_from_entries_serial,
    screen_serial,
    select_project_changes_serial,
)
from repro.maintenance.screening import TwoStageScreen
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.storage.tuples import Record, Schema
from repro.views.definition import SelectProjectView, ViewTuple
from repro.views.delta import ChangeSet, select_project_changes
from repro.views.matview import MaterializedView
from repro.views.predicate import AndPredicate, ComparisonPredicate, IntervalPredicate

OUT_PATH = Path(__file__).parent / "BENCH_engine.json"
SCALE = float(os.environ.get("REPRO_ENGINE_SCALE", "1.0"))

# The screen kernel is the headline (>=5x asserted) and costs only a
# few ms per run, so it never scales down: small batches would measure
# fixed overheads, not the kernel.
SCREEN_TUPLES = max(20_000, int(20_000 * SCALE))
NET_ENTRIES = max(1000, int(8_000 * SCALE))
APPLY_TUPLES = max(400, int(2_000 * SCALE))
REFRESH_TUPLES = max(400, int(1_500 * SCALE))
REPS = 5

SCHEMA = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
PREDICATE = AndPredicate((
    IntervalPredicate("a", 100, 899),
    ComparisonPredicate("v", ">=", 250),
))
VIEW = SelectProjectView("v", "r", PREDICATE, ("a",), "a")


def _records(n: int, seed: int = 11) -> list[Record]:
    rng = random.Random(seed)
    return [
        SCHEMA.new_record(id=i, a=rng.randrange(1000), v=rng.randrange(1000))
        for i in range(n)
    ]


def _best(run, reps: int = REPS) -> float:
    """Best-of-``reps`` wall seconds (min damps scheduler noise)."""
    times = []
    for _ in range(reps):
        began = time.perf_counter()
        run()
        times.append(time.perf_counter() - began)
    return min(times)


def _point(n_tuples: int, batch_s: float, tuple_s: float) -> dict:
    qps = n_tuples / batch_s
    tuple_qps = n_tuples / tuple_s
    return {
        "tuples": n_tuples,
        "qps": round(qps, 1),
        "tuple_qps": round(tuple_qps, 1),
        "speedup_vs_tuple": round(qps / tuple_qps, 2),
    }


def bench_screen(violations: list[int]) -> dict:
    records = _records(SCREEN_TUPLES)
    batch_screen = TwoStageScreen(PREDICATE, CostMeter())
    serial_screen = TwoStageScreen(PREDICATE, CostMeter())
    if batch_screen.screen_batch(records) != screen_serial(serial_screen, records):
        violations[0] += 1
    batch_s = _best(lambda: batch_screen.screen_batch(records))
    tuple_s = _best(lambda: screen_serial(serial_screen, records))
    return _point(SCREEN_TUPLES, batch_s, tuple_s)


def _ad_entries(n: int, seed: int = 23) -> list[ADEntry]:
    """Synthetic AD-file contents following the real update protocol:
    an update writes ``D(current value)`` + ``A(new value)``, so a hot
    key's intermediate pairs cancel during netting — the workload the
    toggling kernel actually sees."""
    rng = random.Random(seed)
    keys = max(1, n // 6)  # hot keys: ~3 updates per key on average
    current: dict[int, Record] = {}
    entries: list[ADEntry] = []
    seq = 0

    def emit(key: int, role: str, record: Record) -> None:
        nonlocal seq
        entries.append(ADEntry(seq, role, key, record))
        seq += 1

    def fresh(key: int) -> Record:
        return SCHEMA.new_record(id=key, a=rng.randrange(1000), v=rng.randrange(1000))

    while len(entries) < n:
        key = rng.randrange(keys)
        live = current.get(key)
        if live is None:
            current[key] = record = fresh(key)
            emit(key, "A", record)
        elif rng.random() < 0.1:
            emit(key, "D", live)  # plain delete
            del current[key]
        else:
            emit(key, "D", live)  # the 3-I/O update's entry pair
            current[key] = record = fresh(key)
            emit(key, "A", record)
    rng.shuffle(entries)  # hash-file scan order, not arrival order
    return entries


def bench_net_change(violations: list[int]) -> dict:
    entries = _ad_entries(NET_ENTRIES)
    batch_net = _net_from_entries("r", entries)
    serial_net = net_from_entries_serial("r", entries)
    if (list(batch_net.inserted) != list(serial_net.inserted)
            or list(batch_net.deleted) != list(serial_net.deleted)):
        violations[0] += 1
    batch_s = _best(lambda: _net_from_entries("r", entries))
    tuple_s = _best(lambda: net_from_entries_serial("r", entries))
    return _point(NET_ENTRIES, batch_s, tuple_s)


def _dup_count(i: int) -> int:
    return (i % 3) + 1


def _fresh_view() -> MaterializedView:
    pool = BufferPool(SimulatedDisk(CostMeter()), capacity=64)
    view = MaterializedView("v", pool, "a", records_per_page=10)
    tuples: list[ViewTuple] = []
    for i in range(APPLY_TUPLES):
        tuples.extend([ViewTuple({"id": i, "a": i % 500})] * _dup_count(i))
    view.bulk_load(tuples)
    return view


def _apply_changeset() -> ChangeSet:
    """A duplicate-count-heavy change set: projections collapse many
    base tuples onto shared view tuples, so most differential changes
    patch a stored count rather than insert or remove an entry."""
    rng = random.Random(31)
    changes = ChangeSet()
    for i in range(APPLY_TUPLES):
        vt = ViewTuple({"id": i, "a": i % 500})
        roll = rng.random()
        if roll < 0.35:
            changes.insert(vt, rng.randrange(1, 3))  # patch the count up
        elif roll < 0.70:
            changes.delete(vt, max(1, _dup_count(i) - 1))  # patch it down
        elif roll < 0.85:
            changes.delete(vt, _dup_count(i))  # drop to zero
        else:
            changes.insert(ViewTuple({"id": i + APPLY_TUPLES, "a": i % 500}))
    return changes


def bench_apply(violations: list[int]) -> dict:
    changes = _apply_changeset()
    check_batch, check_serial = _fresh_view(), _fresh_view()
    check_batch.apply_changes(changes)
    apply_changes_serial(check_serial, changes)
    if list(check_batch.scan_all()) != list(check_serial.scan_all()):
        violations[0] += 1
    # Apply mutates the view, so every timed run gets a fresh copy;
    # construction happens outside the timed region.
    batch_views = [_fresh_view() for _ in range(REPS)]
    serial_views = [_fresh_view() for _ in range(REPS)]
    batch_s = _best(lambda: batch_views.pop().apply_changes(changes))
    tuple_s = _best(lambda: apply_changes_serial(serial_views.pop(), changes))
    return _point(APPLY_TUPLES, batch_s, tuple_s)


def bench_refresh(violations: list[int]) -> dict:
    """End-to-end deferred refresh: AD scan -> net -> screen/project
    -> differential apply, batch pipeline vs serial pipeline."""
    pool = BufferPool(SimulatedDisk(CostMeter()), capacity=512)
    base = ClusteredRelation(SCHEMA, pool, "a")
    relation = HypotheticalRelation(base, ad_buckets=16)
    rng = random.Random(47)
    initial = _records(REFRESH_TUPLES, seed=43)
    base.bulk_load(initial)
    for key in rng.sample(range(REFRESH_TUPLES), REFRESH_TUPLES // 2):
        relation.update_by_key(key, a=rng.randrange(1000), v=rng.randrange(1000))
    materialized = VIEW.evaluate(initial)

    def fresh_view() -> MaterializedView:
        view_pool = BufferPool(SimulatedDisk(CostMeter()), capacity=64)
        view = MaterializedView("v", view_pool, "a", records_per_page=10)
        view.bulk_load(materialized)
        return view

    def batch_refresh():
        view = fresh_view()
        delta = relation.net_changes()
        view.apply_changes(select_project_changes(VIEW, delta))
        return view

    def serial_refresh():
        view = fresh_view()
        delta = net_from_entries_serial("r", relation.ad.scan_all())
        apply_changes_serial(view, select_project_changes_serial(VIEW, delta))
        return view

    if list(batch_refresh().scan_all()) != list(serial_refresh().scan_all()):
        violations[0] += 1
    batch_s = _best(batch_refresh)
    tuple_s = _best(serial_refresh)
    # The refreshed tuple count: every AD entry is read and netted.
    return _point(relation.ad_entry_count(), batch_s, tuple_s)


def test_engine_kernels_beat_the_tuple_path():
    violations = [0]
    series = {
        "engine_screen": bench_screen(violations),
        "engine_net_change": bench_net_change(violations),
        "engine_apply": bench_apply(violations),
        "engine_refresh": bench_refresh(violations),
    }

    report = {
        "scale": SCALE,
        **{name: {"1": point} for name, point in series.items()},
        "engine_equivalence_violations": violations[0],
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print("\n" + json.dumps(report, indent=2))

    assert violations[0] == 0
    speedups = {n: p["speedup_vs_tuple"] for n, p in series.items()}
    # The CPU-bound kernel is the headline: the columnar screen must
    # beat per-record screening >= 5x.  The storage-bound kernels share
    # their B+-tree descents with the serial path, so their floors are
    # what the in-place patching and token toggling alone can buy.
    assert speedups["engine_screen"] >= 5.0, speedups
    assert speedups["engine_net_change"] >= 1.5, speedups
    assert speedups["engine_apply"] >= 1.15, speedups
    assert speedups["engine_refresh"] >= 1.2, speedups
