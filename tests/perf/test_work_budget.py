"""Work budget: Python calls per operation, a count the machine cannot move.

Wall-clock gains on a small shared machine often cannot be told from
noise; the number of Python calls an operation makes can.  This module
counts, with ``sys.setprofile``, every ``call`` event of a function
whose code lives under ``src/repro`` while one operation runs, and
asserts the median per kind of operation against ``work_budget.json``:

* the in-process stack (a ``ViewServer`` over a ``Database``): a query of
  an immediate aggregate, an immediate join, a deferred view and a
  query-modification view, and an update;
* the durable stack (``ViewServer.open`` over a state directory): an
  update, the bootstrap (``create_relation`` plus the first checkpoint),
  a full checkpoint, a differential checkpoint and a reopen;
* one deferred fold.

Comprehension and generator frames are not counted: Python 3.12 inlines
comprehensions (PEP 709), and a generator reports a ``call`` at each
resumption, so neither is a call the code asked for in the same way on
every version.  The cyclic collector is off while counting.  The counts
do not depend on the hash seed.

The budget is a ratchet.  A change that raises a count past its entry
(beyond ``SLACK``) fails here: raise the entry and say why in
CHANGES.md.  A change that lowers a count more than ``SLACK`` below its
entry fails too: lower the entry.  Regenerate every entry with
``PYTHONPATH=src python tests/perf/test_work_budget.py --write``.
"""

from __future__ import annotations

import gc
import inspect
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.core.strategies import Strategy
from repro.durability import checkpoint as checkpoint_module
from repro.engine.database import Database
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.service.server import ViewServer
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import IntervalPredicate

BUDGET = Path(__file__).with_name("work_budget.json")
#: Share of an entry a count may move either way before the test asks
#: for the entry to move with it.
SLACK = 0.02
SEED = 12

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_NOT_CALLS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR
_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


class CallCounter:
    """Counts the calls of ``src/repro`` functions made inside :meth:`run`."""

    def __init__(self) -> None:
        self.calls = 0
        self._counted: dict[object, bool] = {}

    def _counts(self, code) -> bool:
        counted = self._counted.get(code)
        if counted is None:
            counted = self._counted[code] = (
                os.path.abspath(code.co_filename).startswith(_SRC)
                and not code.co_flags & _NOT_CALLS
                and code.co_name not in _COMPREHENSIONS
            )
        return counted

    def _profile(self, frame, event, _arg) -> None:
        if event == "call" and self._counts(frame.f_code):
            self.calls += 1

    def run(self, fn, *args, **kwargs):
        """``(calls, result)`` of one call of ``fn``."""
        self.calls = 0
        enabled = gc.isenabled()
        gc.disable()
        sys.setprofile(self._profile)
        try:
            result = fn(*args, **kwargs)
        finally:
            sys.setprofile(None)
            if enabled:
                gc.enable()
        return self.calls, result


# ----------------------------------------------------------------------
# the seeded data and streams
# ----------------------------------------------------------------------
R = Schema("r", ("id", "a", "j", "v"), "id", tuple_bytes=100)
S = Schema("s", ("j", "w"), "j", tuple_bytes=100)
N, N_INNER, DOMAIN = 2_000, 200, 1_000
WHERE = IntervalPredicate("a", 0, 199)
VIEWS = {
    "v_total": (AggregateView("v_total", "r", WHERE, "sum", "v"), Strategy.IMMEDIATE),
    "v_join": (JoinView("v_join", "r", "s", "j", WHERE, ("id", "a"), ("j", "w"), "a"),
               Strategy.IMMEDIATE),
    "v_tuples": (SelectProjectView("v_tuples", "r", WHERE, ("id", "a", "v"), "a"),
                 Strategy.DEFERRED),
    "v_qm": (SelectProjectView("v_qm", "r", WHERE, ("id", "a", "j"), "a"),
             Strategy.QM_CLUSTERED),
}


def _row(rng, key):
    return R.new_record(id=key, a=rng.randrange(DOMAIN), j=rng.randrange(N_INNER),
                        v=rng.randrange(100))


def _load(database, rng, inner=True):
    database.create_relation(R, "a", kind="hypothetical", ad_buckets=4,
                             records=[_row(rng, key) for key in range(N)])
    if inner:
        database.create_relation(S, "j", kind="hashed", records=[
            S.new_record(j=j, w=rng.randrange(100)) for j in range(N_INNER)])


class Stream:
    """Seeded update transactions over the live keys of ``r``."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self.live = list(range(N))
        self.next_key = N

    def update(self, size=5) -> Transaction:
        rng, ops, used = self.rng, [], set()
        for _ in range(size):
            kind = rng.choice(("update", "update", "update", "insert", "delete"))
            if kind == "insert":
                ops.append(Insert(_row(rng, self.next_key)))
                self.live.append(self.next_key)
                self.next_key += 1
                continue
            key = rng.choice(self.live)
            if key in used:
                continue
            used.add(key)
            if kind == "delete":
                ops.append(Delete(key))
                self.live.remove(key)
            else:
                ops.append(Update(key, {"v": rng.randrange(100), "a": rng.randrange(DOMAIN)}
                                  if rng.random() < 0.1 else {"v": rng.randrange(100)}))
        return Transaction.of("r", ops)


def _median(counts) -> int:
    return int(statistics.median(counts))


def in_process(counter) -> dict[str, int]:
    """Calls per query of each view and per update, then one fold."""
    rng = random.Random(SEED)
    server = ViewServer(Database(buffer_pages=1024, cold_operations=False))
    try:
        _load(server.database, rng)
        for definition, strategy in VIEWS.values():
            server.register_view(definition, strategy, adaptive=False)
        stream = Stream(rng)
        seen: dict[str, list[int]] = {}
        for _ in range(400):
            if rng.random() < 0.2:
                name, (calls, _) = "update", counter.run(server.apply_update, stream.update())
            else:
                view = rng.choice(sorted(VIEWS))
                lo = rng.randrange(0, 180)
                name = f"query {view}"
                calls, _ = counter.run(server.query, view, lo, lo + 20, client="c")
            seen.setdefault(name, []).append(calls)
        counts = {f"in_process {name}": _median(calls) for name, calls in seen.items()}
        for _ in range(40):
            server.apply_update(stream.update())
        assert server.database.relations["r"].pending
        counts["fold"], _ = counter.run(server.database.fold_relation, "r")
        return counts
    finally:
        server.shutdown()


def durable(counter, state_dir) -> dict[str, int]:
    """Calls per update, bootstrap, checkpoint of each kind and reopen."""
    rng = random.Random(SEED + 1)
    config = {"buffer_pages": 50, "cold_operations": False}
    server = ViewServer.open(state_dir, default_config=config, fsync_every=8)
    counts = {}
    try:
        created, _ = counter.run(_load, server.database, rng, inner=False)
        for name in ("v_tuples", "v_total"):
            server.register_view(*VIEWS[name], adaptive=False)
        first, info = counter.run(server.checkpoint)
        assert info.kind == "full"
        counts["durable bootstrap"] = created + first
        stream = Stream(rng)
        updates = [counter.run(server.apply_update, stream.update())[0] for _ in range(60)]
        counts["durable update"] = _median(updates)
        counts["durable differential checkpoint"], info = counter.run(server.checkpoint)
        assert info.kind == "differential"
        with mock.patch.object(checkpoint_module, "FOLD_FRACTION", -1.0):
            counts["durable full checkpoint"], info = counter.run(server.checkpoint)
        assert info.kind == "full"
        for _ in range(20):
            server.apply_update(stream.update())
    finally:
        server.shutdown()
    counts["durable reopen"], server = counter.run(ViewServer.open, state_dir)
    server.shutdown()
    return counts


def measure() -> dict[str, int]:
    counter = CallCounter()
    scratch = tempfile.mkdtemp(prefix="work-budget-")
    try:
        return {**in_process(counter), **durable(counter, Path(scratch) / "state")}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def measured():
    return measure()


def _budget() -> dict[str, int]:
    return json.loads(BUDGET.read_text())["calls"]


def test_every_operation_kind_is_budgeted(measured):
    assert sorted(measured) == sorted(_budget())


@pytest.mark.parametrize("row", sorted(_budget()))
def test_calls_stay_within_the_budget(measured, row):
    entry, got = _budget()[row], measured[row]
    assert got <= entry * (1 + SLACK), (
        f"{row}: {got} calls, budget {entry}; raise the entry and say why in CHANGES.md")
    assert got >= entry * (1 - SLACK), (
        f"{row}: {got} calls, budget {entry}; lower the entry (the budget is a ratchet)")


def test_the_counter_sees_only_repro_calls():
    counter = CallCounter()

    def outside():
        return sorted([3, 1, 2], key=lambda x: -x)

    assert counter.run(outside)[0] == 0
    assert counter.run(Schema, "x", ("k",), "k")[0] == 1  # __post_init__
    assert counter.run(R.new_record, id=1, a=2, j=3, v=4)[0] >= 2


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    doc = {"python": sys.version.split()[0], "seed": SEED, "calls": measure()}
    BUDGET.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps(doc, indent=2, sort_keys=True))
