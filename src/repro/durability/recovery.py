"""Crash recovery: restore the latest checkpoint, replay the WAL.

The recovery path deliberately runs through the *normal engine
surface* — ``create_relation``, ``define_view``, ``apply_transaction``,
``settle_relation`` — so recovered in-memory state (screening markers,
pending deltas, coordinator wiring, join indexes) is produced by the
same code that produced it before the crash, and every page touched is
metered in :class:`~repro.storage.pager.CostMeter` units.  Durability
overhead therefore shows up in the paper's own cost vocabulary.

Deferred views recover exactly the way the paper refreshes them:
checkpointed AD entries are re-installed into the differential file
(with their original roles and sequence numbers), markers are restored,
and replayed ``net_install`` events fold the backlog through
``DeferredCoordinator.refresh_all`` — the differential-refresh
algorithm, never a from-scratch recompute.  The
``full_recomputes_during_replay`` counter in the report (fed by
:class:`~repro.views.matview.MaterializedView` bulk-load/rebuild
counters) is the fault harness's proof of that claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.parameters import Parameters
from repro.engine.database import Database
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.storage.pager import CostMeter
from repro.storage.tuples import Record

from . import codec
from .checkpoint import CheckpointManager
from .wal import WriteAheadLog

__all__ = ["RecoveryError", "RecoveryReport", "recover", "apply_event"]


class RecoveryError(RuntimeError):
    """The persistent state could not be restored."""


@dataclass
class RecoveryReport:
    """What one recovery pass did, in metered units."""

    checkpoint: str | None
    wal_epoch: int
    #: WAL records applied after the checkpoint image.
    replay_records: int
    #: Cost of rebuilding the checkpoint image (setup-bucket charged).
    restore_meter: CostMeter
    #: Cost of replaying the WAL through the engine.
    replay_meter: CostMeter
    #: Matview bulk-loads/rebuilds that happened while replaying
    #: (excludes checkpoint-image restoration; replayed catalog events
    #: such as ``define_view`` legitimately count here).
    full_recomputes_during_replay: int
    #: Torn frames truncated from the WAL tail on open.
    torn_tail_truncations: int

    def restore_milliseconds(self, params: Parameters) -> float:
        return self.restore_meter.setup_milliseconds(
            params
        ) + self.restore_meter.milliseconds(params)

    def replay_milliseconds(self, params: Parameters) -> float:
        return self.replay_meter.setup_milliseconds(
            params
        ) + self.replay_meter.milliseconds(params)

    def milliseconds(self, params: Parameters) -> float:
        """Total modelled recovery cost."""
        return self.restore_milliseconds(params) + self.replay_milliseconds(params)


def apply_event(db: Database, event: str, payload: dict[str, Any]) -> None:
    """Re-execute one decoded journal event against the engine."""
    if event == "txn":
        db.apply_transaction(_rekeyed(db, payload["txn"]))
    elif event == "net_install":
        db.settle_relation(payload["relation"])
    elif event == "create_relation":
        db.create_relation(
            payload["schema"],
            payload["clustered_on"],
            kind=payload["kind"],
            records=payload["records"],
            ad_buckets=payload["ad_buckets"],
            hash_buckets=payload["hash_buckets"],
        )
    elif event == "define_view":
        db.define_view(payload["spec"])
    elif event == "drop_view":
        db.drop_view(payload["view"])
    elif event == "rebuild_view":
        db.rebuild_view(payload["view"])
    elif event == "migrate":
        db.migrate_view(**payload)
    else:
        raise RecoveryError(f"cannot replay unknown event {event!r}")


def _rekeyed(db: Database, txn: Transaction) -> Transaction:
    """``txn`` with each ``Update`` naming the key field spelled as the
    ``Delete`` and ``Insert`` it amounts to.  Such an update is refused
    before it is journaled now; a log written before that refusal may
    hold one, and its replay re-keys the tuple as it did then."""
    relation = db.relations.get(txn.relation)
    key_field = None if relation is None else relation.schema.key_field
    if not any(isinstance(op, Update) and key_field in op.changes for op in txn.operations):
        return txn
    now: dict[Any, Record | None] = {}  # key -> its tuple after the ops so far
    ops: list[Any] = []
    for op in txn.operations:
        if isinstance(op, Insert):
            now[op.record.key] = op.record
        elif isinstance(op, Delete):
            now[op.key] = None
        else:
            old = now[op.key] if op.key in now else relation.logical_by_key(op.key)
            new = None if old is None else relation.schema.updated(old, **op.changes)
            if new is not None and key_field in op.changes:
                ops += [Delete(op.key), Insert(new)]
                now[op.key], now[new.key] = None, new
                continue
            now[op.key] = new
        ops.append(op)
    return Transaction.of(txn.relation, ops)


def recover(
    checkpoints: CheckpointManager,
    wal: WriteAheadLog,
    default_config: dict[str, Any] | None = None,
    database_factory: Any = None,
) -> tuple[Database, RecoveryReport, dict[str, Any] | None]:
    """Restore the latest checkpoint and replay the WAL behind it.

    Returns ``(database, report, service_state)``; the database's
    journal is left *detached* (the caller re-attaches the WAL once it
    decides the instance is live).  ``service_state`` is whatever the
    serving layer stored at checkpoint time, or ``None``.

    ``database_factory``, when given, is called with the sizing config
    (the manifest's, or ``default_config``) and must return the empty
    :class:`Database` to restore into — the resilience layer uses it to
    rebuild the recovered engine with the same fault-injection and
    retry/breaker disk stack as the instance it replaces.
    """
    if database_factory is None:
        database_factory = lambda config: Database(**config)  # noqa: E731
    name = checkpoints.latest()
    service_state: dict[str, Any] | None = None
    if name is not None:
        _require(checkpoints, name)
        manifest = checkpoints.load_manifest(name)
        image = manifest.get("image", name)
        _require(checkpoints, image)
        config = manifest["config"]
        db = database_factory(
            {
                "block_bytes": config["block_bytes"],
                "buffer_pages": config["buffer_pages"],
                "fanout": config["fanout"],
                "cold_operations": config["cold_operations"],
            }
        )
        restore_start = db.meter.snapshot()
        _restore_checkpoint(db, checkpoints, name, image)
        db.transactions_applied = manifest["transactions_applied"]
        db.queries_answered = manifest["queries_answered"]
        wal_epoch = manifest["wal_epoch"]
        service_state = _read_service_state(checkpoints, name)
    else:
        db = database_factory(dict(default_config or {}))
        restore_start = db.meter.snapshot()
        wal_epoch = 1
    restore_meter = db.meter.diff(restore_start)

    replay_start = db.meter.snapshot()
    recomputes_before = _full_recompute_ops(db)
    replayed = 0
    for doc in wal.replay(from_epoch=wal_epoch):
        event, payload = codec.decode_event(doc)
        apply_event(db, event, payload)
        replayed += 1
    report = RecoveryReport(
        checkpoint=name,
        wal_epoch=wal_epoch,
        replay_records=replayed,
        restore_meter=restore_meter,
        replay_meter=db.meter.diff(replay_start),
        full_recomputes_during_replay=_full_recompute_ops(db) - recomputes_before,
        torn_tail_truncations=wal.torn_tail_truncations,
    )
    return db, report, service_state


# ----------------------------------------------------------------------
# checkpoint-image restoration
# ----------------------------------------------------------------------
def _require(ckpt: CheckpointManager, needed: str) -> None:
    """``CURRENT`` promises a checkpoint, and the log before it is gone:
    starting empty would let the next tick delete what is left."""
    if not (ckpt.checkpoint_dir / needed).is_dir():
        raise RecoveryError(
            f"{ckpt.state_dir}: CURRENT relies on {ckpt.checkpoint_dir / needed}, "
            "which is missing; not recovering as empty"
        )


def _restore_checkpoint(
    db: Database, ckpt: CheckpointManager, name: str, image: str
) -> None:
    """Rebuild the engine ``name`` captured: base records from the full
    ``image`` (``name`` itself unless differential), net change folded in."""
    changes = {}
    if image != name:
        changes = {doc["relation"]: doc for doc in ckpt.read_lines(name, "relations.jsonl")}
    base_records: dict[str, list[Record]] = {}
    for doc in ckpt.read_lines(image, "relations.jsonl"):
        kept, change = codec.decode_records(doc["records"]), changes.get(doc["relation"])
        if change is not None:
            # Image order less the edited keys, then the upserts in edit order:
            # the live directory's order.
            upserts = codec.decode_records(change["upserts"])
            edited = {codec.decode_value(key) for key in change["deleted"]}
            edited.update(r.key for r in upserts)
            kept = [r for r in kept if r.key not in edited] + upserts
        base_records[doc["relation"]] = kept

    for doc in ckpt.read_lines(name, "catalog.jsonl"):
        kind = doc["kind"]
        if kind == "relation":
            spec = doc["spec"]
            db.create_relation(
                codec.decode_schema(doc["schema"]),
                spec["clustered_on"],
                kind=spec["kind"],
                records=base_records.get(doc["name"], []),
                ad_buckets=spec["ad_buckets"],
                hash_buckets=spec["hash_buckets"],
            )
        elif kind == "view":
            db.define_view(codec.decode_spec(doc))
        elif kind == "secondary_index":
            if (doc["relation"], doc["field"]) not in db.secondary_indexes:
                db.create_secondary_index(doc["relation"], doc["field"])
        else:
            raise RecoveryError(f"unknown catalog line kind {kind!r} in {name}")

    for doc in ckpt.read_lines(name, "differential.jsonl"):
        _restore_differential(db, doc)
    for doc in ckpt.read_lines(name, "views.jsonl"):
        impl = db.views.get(doc["view"])
        if impl is not None:
            impl.restore_state({**doc, "markers": codec.decode_records(doc["markers"])})


def _restore_differential(db: Database, doc: dict[str, Any]) -> None:
    """Rebuild one relation's AD file, Bloom filter and pending delta."""
    relation = db.relations.get(doc["relation"])
    if relation is None or not relation.differential:
        raise RecoveryError(
            f"checkpoint AD state for unknown/non-hypothetical relation "
            f"{doc['relation']!r}"
        )
    entries = doc["entries"]
    if isinstance(entries, dict):  # a row block with its roles and seqs
        entries = list(zip(codec.decode_rows(entries), entries["roles"], entries["seqs"]))
    else:
        entries = [(codec.decode_record(e["record"]), e["role"], e["seq"]) for e in entries]
    with db.meter.setup_phase():
        relation.restore_state({"entries": entries, "bloom": doc["bloom"]})
        db.pool.flush_all()


def _read_service_state(
    ckpt: CheckpointManager, name: str
) -> dict[str, Any] | None:
    for doc in ckpt.read_lines(name, "service.jsonl"):
        if doc["kind"] == "service":
            return doc["state"]
    return None


def _full_recompute_ops(db: Database) -> int:
    return sum(impl.model.full_recomputes for impl in db.views.values())
