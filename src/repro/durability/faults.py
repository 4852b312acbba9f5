"""Fault-injection harness: kill the engine, recover, prove equivalence.

Each :class:`FaultScenario` runs the same deterministic play three
times over one state directory:

1. **Victim** — bootstrap a relation + views with journaling armed,
   checkpoint once, then drive a seeded transaction/query mix with a
   :class:`KillPoint` armed on the WAL or the checkpoint manager.  The
   kill raises :class:`SimulatedCrash` out of the engine mid-operation;
   whatever the directory holds at that instant is the crash image.
2. **Recovery** — reopen the directory cold (torn-tail truncation, the
   checkpoint restore, WAL replay) and collect the
   :class:`~repro.durability.recovery.RecoveryReport`.
3. **Twin** — bootstrap an identical database with *no* durability and
   apply exactly the transactions the recovered instance reports
   applied.  Every view answer and the relation's logical content must
   match; for deferred views the report must show **zero** matview
   bulk-loads/rebuilds during replay — recovery went through the
   differential-refresh algorithm, not a recompute.

``python -m repro.durability.faults`` runs the full scenario matrix
(qm / immediate / deferred × :data:`KILL_POINTS`) and exits non-zero on
any failure — the CI crash-recovery smoke job.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.strategies import Strategy
from repro.engine.database import Database
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.maintenance.catalog import relation_kind_for
from repro.storage.tuples import Record, Schema
from repro.views.definition import AggregateView, SelectProjectView
from repro.views.predicate import IntervalPredicate

from .manager import DurabilityManager
from .wal import FRAME_HEADER

__all__ = [
    "SimulatedCrash",
    "KillPoint",
    "FaultScenario",
    "FaultOutcome",
    "run_scenario",
    "run_suite",
    "default_scenarios",
    "main",
]

#: Engine config small enough that every structure spans several pages.
ENGINE_CONFIG = {
    "block_bytes": 400,
    "buffer_pages": 64,
    "fanout": 8,
    "cold_operations": False,
}

_INITIAL_TUPLES = 40
_QUERY_RANGE = (-1, 10**9)


class SimulatedCrash(RuntimeError):
    """Raised by an armed kill point: the process 'dies' here."""


@dataclass(frozen=True)
class KillPoint:
    """Where the simulated crash fires.

    ``target="wal"`` kills at WAL record ``index`` with ``stage`` one of
    ``before_append`` (record lost), ``after_append`` (record durable,
    engine never applied it), or ``torn`` (a partial frame reaches the
    disk — exercises tail truncation).  ``target="checkpoint"`` kills
    the ``index``-th armed checkpoint at phase ``capture``,
    ``pre_publish`` or ``post_publish``.
    """

    target: str
    stage: str
    index: int = 0

    def describe(self) -> str:
        return f"{self.target}:{self.stage}@{self.index}"


@dataclass(frozen=True)
class FaultScenario:
    name: str
    strategy: Strategy
    kill: KillPoint
    transactions: int = 60
    seed: int = 7
    #: Transaction indices at which a mid-workload checkpoint is taken
    #: (the bootstrap checkpoint, a full image, always happens before
    #: transaction 0): with the default seed two differentials over that
    #: image, then — enough of the base touched — a new full image.
    checkpoint_at: tuple[int, ...] = (2, 4, 24)
    query_every: int = 7


@dataclass
class FaultOutcome:
    scenario: FaultScenario
    crashed: bool
    recovered_checkpoint: str | None
    recovered_transactions: int
    replay_records: int
    full_recomputes_during_replay: int
    torn_tail_truncations: int
    mismatches: list[str] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    @property
    def ok(self) -> bool:
        """Crash fired, state matched the twin, no recompute shortcut."""
        return self.crashed and self.equivalent and self.full_recomputes_during_replay == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.name,
            "strategy": self.scenario.strategy.value,
            "kill_point": self.scenario.kill.describe(),
            "crashed": self.crashed,
            "recovered_checkpoint": self.recovered_checkpoint,
            "recovered_transactions": self.recovered_transactions,
            "replay_records": self.replay_records,
            "full_recomputes_during_replay": self.full_recomputes_during_replay,
            "torn_tail_truncations": self.torn_tail_truncations,
            "equivalent": self.equivalent,
            "mismatches": self.mismatches,
            "ok": self.ok,
        }


# ----------------------------------------------------------------------
# deterministic fixture
# ----------------------------------------------------------------------
def _schema() -> Schema:
    return Schema(name="r", fields=("k", "a"), key_field="k", tuple_bytes=40)


def _initial_records() -> list[Record]:
    return [Record(k, {"k": k, "a": k % 10}) for k in range(_INITIAL_TUPLES)]


def _view_names(strategy: Strategy) -> list[str]:
    return ["v", "v_sum"] if strategy is Strategy.DEFERRED else ["v"]


def build_database(strategy: Strategy, manager: DurabilityManager | None = None) -> Database:
    """The scenario's fixed catalog: relation ``r`` plus its views."""
    db = Database(**ENGINE_CONFIG)
    if manager is not None:
        manager.attach(db)  # journal armed before bootstrap: it replays too
    db.create_relation(
        _schema(), "k", kind=relation_kind_for(strategy),
        records=_initial_records(), ad_buckets=8,
    )
    db.define_view(
        SelectProjectView(
            name="v",
            relation="r",
            predicate=IntervalPredicate(field="a", lo=2, hi=7, selectivity=0.6),
            projection=("k", "a"),
            view_key="k",
        ),
        strategy,
    )
    if strategy is Strategy.DEFERRED:
        db.define_view(
            AggregateView(
                name="v_sum",
                relation="r",
                predicate=IntervalPredicate(field="a", lo=2, hi=7, selectivity=0.6),
                aggregate="sum",
                field="a",
            ),
            Strategy.DEFERRED,
        )
    return db


def make_workload(
    seed: int, count: int, start_key: int | None = None
) -> list[Transaction]:
    """A seeded insert/delete/update mix over the fixture relation.

    With the default ``start_key`` the mix targets the fixture's
    initial tuples and allocates new keys from ``_INITIAL_TUPLES``
    upward.  A continuation workload (applied after another workload
    already ran) must pass a disjoint ``start_key``: it then touches
    only keys it inserted itself, so it composes with any prior state.
    """
    import random

    rng = random.Random(seed)
    if start_key is None:
        live = list(range(_INITIAL_TUPLES))
        next_key = _INITIAL_TUPLES
    else:
        live = []
        next_key = start_key
    txns = []
    for _ in range(count):
        ops: list[Any] = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.5 or not live:
                ops.append(Insert(Record(next_key, {"k": next_key, "a": next_key % 10})))
                live.append(next_key)
                next_key += 1
            elif roll < 0.75:
                key = live.pop(rng.randrange(len(live)))
                ops.append(Delete(key))
            else:
                key = live[rng.randrange(len(live))]
                ops.append(Update(key, {"a": rng.randint(0, 9)}))
        txns.append(Transaction("r", tuple(ops)))
    return txns


# ----------------------------------------------------------------------
# kill-point arming
# ----------------------------------------------------------------------
def _arm(manager: DurabilityManager, kill: KillPoint) -> None:
    if kill.target == "wal":

        def wal_hook(stage: str, index: int) -> None:
            if index != kill.index:
                return
            if kill.stage == "torn" and stage == "before_append":
                # A frame header pointing past the data that follows —
                # exactly what an interrupted write leaves behind.
                fh = manager.wal._fh
                fh.write(FRAME_HEADER.pack(4096, 0) + b"torn")
                fh.flush()
                os.fsync(fh.fileno())
                raise SimulatedCrash(f"torn write at wal record {index}")
            if stage == kill.stage:
                raise SimulatedCrash(f"killed at wal {stage} record {index}")

        manager.wal.fault_hook = wal_hook
    elif kill.target == "checkpoint":
        seen = {"count": 0}

        def ckpt_hook(phase: str) -> None:
            if phase != kill.stage:
                return
            hit = seen["count"]
            seen["count"] += 1
            if hit == kill.index:
                raise SimulatedCrash(f"killed at checkpoint {phase} #{hit}")

        manager.checkpoints.fault_hook = ckpt_hook
    else:
        raise ValueError(f"unknown kill target {kill.target!r}")


# ----------------------------------------------------------------------
# the three-phase play
# ----------------------------------------------------------------------
def run_scenario(scenario: FaultScenario, state_dir: str | Path) -> FaultOutcome:
    state_dir = Path(state_dir)
    txns = make_workload(scenario.seed, scenario.transactions)
    views = _view_names(scenario.strategy)

    # Phase 1: victim.  Bootstrap, checkpoint, then crash mid-workload.
    manager = DurabilityManager(state_dir)
    manager.save_config(ENGINE_CONFIG)
    db = build_database(scenario.strategy, manager)
    manager.checkpoint(db)
    _arm(manager, scenario.kill)
    crashed = False
    try:
        for i, txn in enumerate(txns):
            if i in scenario.checkpoint_at:
                manager.checkpoint(db)
            db.apply_transaction(txn)
            if scenario.query_every and i % scenario.query_every == 0:
                for view in views:
                    db.query_view(view, *_QUERY_RANGE)
    except SimulatedCrash:
        crashed = True
    # The 'machine' is gone: drop the handle without a graceful close.
    try:
        manager.wal._fh.close()
    except OSError:  # pragma: no cover - defensive
        pass

    # Phase 2: recovery from the crash image.
    recovered_manager = DurabilityManager(state_dir)
    recovered, report, _ = recovered_manager.open()

    # Phase 3: uncrashed twin, replaying exactly what recovery kept.
    twin = build_database(scenario.strategy)
    for txn in txns[: recovered.transactions_applied]:
        twin.apply_transaction(txn)

    mismatches = _compare(recovered, twin, views)
    recovered_manager.close()
    return FaultOutcome(
        scenario=scenario,
        crashed=crashed,
        recovered_checkpoint=report.checkpoint,
        recovered_transactions=recovered.transactions_applied,
        replay_records=report.replay_records,
        full_recomputes_during_replay=report.full_recomputes_during_replay,
        torn_tail_truncations=report.torn_tail_truncations,
        mismatches=mismatches,
    )


def _compare(recovered: Database, twin: Database, views: list[str]) -> list[str]:
    mismatches = []
    for view in views:
        got = recovered.query_view(view, *_QUERY_RANGE)
        want = twin.query_view(view, *_QUERY_RANGE)
        if isinstance(got, list):
            got, want = sorted(got, key=repr), sorted(want, key=repr)
        if got != want:
            mismatches.append(
                f"view {view!r}: recovered answer != twin "
                f"({len(got) if isinstance(got, list) else got} vs "
                f"{len(want) if isinstance(want, list) else want})"
            )
    got_rel = set(recovered.logical_records("r"))
    want_rel = set(twin.logical_records("r"))
    if got_rel != want_rel:
        mismatches.append(
            f"relation 'r': logical content differs "
            f"({len(got_rel)} vs {len(want_rel)} tuples)"
        )
    return mismatches


# ----------------------------------------------------------------------
# the CI matrix
# ----------------------------------------------------------------------
#: The seeded kill points of the CI smoke job.  The torn write recovers
#: from image + second differential + WAL tail; the checkpoint kills hit
#: both differentials and the full image that replaces them, before the
#: publish and after it (``CURRENT`` rewritten, garbage still in place).
KILL_POINTS = (
    KillPoint("wal", "before_append", index=12),
    KillPoint("wal", "torn", index=25),
    KillPoint("checkpoint", "pre_publish", index=0),
    KillPoint("checkpoint", "pre_publish", index=1),
    KillPoint("checkpoint", "pre_publish", index=2),
    KillPoint("checkpoint", "post_publish", index=1),
    KillPoint("checkpoint", "post_publish", index=2),
)

_STRATEGIES = (Strategy.QM_CLUSTERED, Strategy.IMMEDIATE, Strategy.DEFERRED)


def default_scenarios() -> list[FaultScenario]:
    scenarios = []
    for strategy in _STRATEGIES:
        for kill in KILL_POINTS:
            scenarios.append(
                FaultScenario(
                    name=f"{strategy.value}-{kill.describe()}",
                    strategy=strategy,
                    kill=kill,
                )
            )
    return scenarios


def run_suite(base_dir: str | Path) -> list[FaultOutcome]:
    base_dir = Path(base_dir)
    outcomes = []
    for scenario in default_scenarios():
        outcomes.append(run_scenario(scenario, base_dir / scenario.name))
    return outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Crash-recovery fault matrix (CI smoke job)"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the outcome matrix as JSON"
    )
    parser.add_argument(
        "--work-dir", metavar="DIR", help="state directories (default: a temp dir)"
    )
    args = parser.parse_args(argv)

    if args.work_dir:
        outcomes = run_suite(args.work_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
            outcomes = run_suite(tmp)

    rows = [o.to_dict() for o in outcomes]
    for row in rows:
        status = "ok" if row["ok"] else "FAIL"
        print(
            f"[{status}] {row['scenario']:<40} crashed={row['crashed']} "
            f"replayed={row['replay_records']} recomputes="
            f"{row['full_recomputes_during_replay']} "
            f"mismatches={len(row['mismatches'])}"
        )
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=2))
        print(f"wrote {args.json}")
    failures = [r for r in rows if not r["ok"]]
    print(f"{len(rows) - len(failures)}/{len(rows)} scenarios passed")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())
