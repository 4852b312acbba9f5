"""Checkpoints: versioned JSON-lines snapshots with atomic publish.

A checkpoint directory under ``<state_dir>/checkpoints/`` holds::

    ckpt-00000042/
      MANIFEST.json       # version, wal_epoch, engine config, counters
      catalog.jsonl       # relation specs, view specs, secondary indexes
      relations.jsonl     # base-file contents, one line per relation
      differential.jsonl  # AD entries + Bloom state per hypothetical HR
      views.jsonl         # deferred per-view markers
      service.jsonl       # serving-layer catalog (policies, flags)

Publish protocol (each step atomic, any crash point recoverable):

1. ``wal.rotate()`` — the manifest's ``wal_epoch`` is the fresh
   segment; every event journaled after the captured state lands there.
2. Write all files into ``ckpt-N.tmp/``, fsyncing each.
3. ``os.rename(tmp, final)`` — the checkpoint now exists atomically.
4. Rewrite the ``CURRENT`` pointer via write-temp + ``os.replace``.
5. Garbage-collect older checkpoints and WAL segments ``< wal_epoch``.

A crash before (4) leaves ``CURRENT`` at the previous checkpoint whose
WAL segments still exist (GC runs last); a crash after (4) leaves at
worst stale files that the next GC removes.

Snapshot reads go through the normal engine accessors but are
*unmetered* (counters restored afterwards): checkpoint I/O is host-file
work priced in wall-clock by the server's ``checkpoint_duration_ms``
histogram, not part of the paper's modelled cost.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.engine.database import Database
from repro.storage.pager import CostMeter

from . import codec
from .wal import WriteAheadLog

__all__ = [
    "VERSION",
    "CheckpointError",
    "CheckpointInfo",
    "CheckpointManager",
]

#: Version tag stamped into the manifest and every JSON line.
VERSION = "repro.durability/v1"

_CKPT_PREFIX = "ckpt-"


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or read."""


@dataclass(frozen=True)
class CheckpointInfo:
    """What one checkpoint pass produced."""

    name: str
    path: Path
    wal_epoch: int
    bytes_written: int
    checkpoints_removed: int
    wal_segments_removed: int


@contextmanager
def _unmetered(meter: CostMeter) -> Iterator[None]:
    """Run snapshot reads without disturbing the modelled cost counters."""
    before = meter.snapshot()
    try:
        yield
    finally:
        meter.page_reads = before.page_reads
        meter.page_writes = before.page_writes
        meter.screens = before.screens
        meter.ad_ops = before.ad_ops
        meter.setup_page_reads = before.setup_page_reads
        meter.setup_page_writes = before.setup_page_writes
        meter.setup_screens = before.setup_screens
        meter.setup_ad_ops = before.setup_ad_ops


def _line(kind: str, **fields: Any) -> dict[str, Any]:
    return {"version": VERSION, "kind": kind, **fields}


class CheckpointManager:
    """Writes and enumerates checkpoints under one state directory."""

    def __init__(self, state_dir: str | Path) -> None:
        self.state_dir = Path(state_dir)
        self.checkpoint_dir = self.state_dir / "checkpoints"
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.current_path = self.state_dir / "CURRENT"
        #: Crash-injection seam: ``hook(phase)`` with phase in
        #: {"capture", "pre_publish", "post_publish"}; may raise.
        self.fault_hook: Callable[[str], None] | None = None

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def latest(self) -> str | None:
        """Name of the published checkpoint, or None if none exists."""
        try:
            name = self.current_path.read_text().strip()
        except FileNotFoundError:
            return None
        return name if (self.checkpoint_dir / name).is_dir() else None

    def checkpoint_names(self) -> list[str]:
        """Every fully-published checkpoint directory, ascending."""
        return sorted(
            p.name
            for p in self.checkpoint_dir.iterdir()
            if p.is_dir() and p.name.startswith(_CKPT_PREFIX) and not p.name.endswith(".tmp")
        )

    def load_manifest(self, name: str) -> dict[str, Any]:
        path = self.checkpoint_dir / name / "MANIFEST.json"
        try:
            manifest = json.loads(path.read_text())
        except (FileNotFoundError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint manifest {path}: {exc}") from exc
        if manifest.get("version") != VERSION:
            raise CheckpointError(
                f"checkpoint {name} has version {manifest.get('version')!r}, "
                f"expected {VERSION!r}"
            )
        return manifest

    def read_lines(self, name: str, file: str) -> Iterator[dict[str, Any]]:
        """Yield the JSON-lines records of one checkpoint file."""
        path = self.checkpoint_dir / name / file
        if not path.exists():
            return
        with open(path) as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                doc = json.loads(raw)
                if doc.get("version") != VERSION:
                    raise CheckpointError(
                        f"{path}: line version {doc.get('version')!r} != {VERSION!r}"
                    )
                yield doc

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def checkpoint(
        self,
        database: Database,
        wal: WriteAheadLog,
        service_state: Mapping[str, Any] | None = None,
    ) -> CheckpointInfo:
        """Capture the database (and optional service state) durably."""
        epoch = wal.rotate()
        number = self._next_number()
        name = f"{_CKPT_PREFIX}{number:08d}"
        final = self.checkpoint_dir / name
        tmp = self.checkpoint_dir / f"{name}.tmp"

        if self.fault_hook is not None:
            self.fault_hook("capture")
        with _unmetered(database.meter):
            sections = self._capture(database, service_state)
        manifest = {
            "version": VERSION,
            "checkpoint": name,
            "wal_epoch": epoch,
            "transactions_applied": database.transactions_applied,
            "queries_answered": database.queries_answered,
            "config": {
                "block_bytes": database.block_bytes,
                "buffer_pages": database.pool.capacity,
                "fanout": database.fanout,
                "cold_operations": database.cold_operations,
            },
        }

        tmp.mkdir(parents=True, exist_ok=True)
        bytes_written = self._write_json(tmp / "MANIFEST.json", manifest)
        for file, lines in sections.items():
            bytes_written += self._write_jsonl(tmp / file, lines)

        if self.fault_hook is not None:
            self.fault_hook("pre_publish")
        os.rename(tmp, final)
        self._set_current(name)
        if self.fault_hook is not None:
            self.fault_hook("post_publish")

        ckpts_removed = self._gc_checkpoints(keep=name)
        segments_removed = wal.truncate_through(epoch)
        return CheckpointInfo(
            name=name,
            path=final,
            wal_epoch=epoch,
            bytes_written=bytes_written,
            checkpoints_removed=ckpts_removed,
            wal_segments_removed=segments_removed,
        )

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def _capture(
        self, db: Database, service_state: Mapping[str, Any] | None
    ) -> dict[str, list[dict[str, Any]]]:
        specs = db.catalog_specs()
        catalog: list[dict[str, Any]] = []
        for name, spec in specs["relations"].items():
            catalog.append(
                _line(
                    "relation",
                    name=name,
                    spec=spec,
                    schema=codec.encode_schema(db.relations[name].schema),
                )
            )
        for name, spec in specs["views"].items():
            catalog.append(_line("view", name=name, **codec.encode_spec(spec)))
        for relation, field in specs["secondary_indexes"]:
            catalog.append(_line("secondary_index", relation=relation, field=field))

        relations: list[dict[str, Any]] = []
        differential: list[dict[str, Any]] = []
        for name, relation in db.relations.items():
            base = relation.base
            relations.append(
                _line(
                    "base",
                    relation=name,
                    records=[codec.encode_record(r) for r in base.records_snapshot()],
                )
            )
            if relation.differential:
                differential.append(self._capture_differential(name, relation))

        views: list[dict[str, Any]] = []
        for name, impl in db.views.items():
            state = impl.state_doc()
            if state is None:
                continue
            state["markers"] = [codec.encode_record(r) for r in state["markers"]]
            views.append(_line("deferred_state", view=name, **state))

        service: list[dict[str, Any]] = []
        if service_state is not None:
            service.append(_line("service", state=dict(service_state)))

        return {
            "catalog.jsonl": catalog,
            "relations.jsonl": relations,
            "differential.jsonl": differential,
            "views.jsonl": views,
            "service.jsonl": service,
        }

    @staticmethod
    def _capture_differential(name: str, relation: Any) -> dict[str, Any]:
        state = relation.state_doc()
        entries = [
            {"record": codec.encode_record(record), "role": role, "seq": seq}
            for record, role, seq in state["entries"]
        ]
        return _line("ad_state", relation=name, entries=entries, bloom=state["bloom"])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _next_number(self) -> int:
        names = self.checkpoint_names()
        if not names:
            return 1
        return int(names[-1][len(_CKPT_PREFIX) :]) + 1

    @staticmethod
    def _write_json(path: Path, doc: Mapping[str, Any]) -> int:
        data = json.dumps(doc, sort_keys=True, indent=2).encode()
        with open(path, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        return len(data)

    @staticmethod
    def _write_jsonl(path: Path, lines: list[dict[str, Any]]) -> int:
        written = 0
        with open(path, "wb") as fh:
            for line in lines:
                data = json.dumps(line, sort_keys=True, separators=(",", ":")).encode()
                fh.write(data + b"\n")
                written += len(data) + 1
            fh.flush()
            os.fsync(fh.fileno())
        return written

    def _set_current(self, name: str) -> None:
        tmp = self.state_dir / "CURRENT.tmp"
        with open(tmp, "w") as fh:
            fh.write(name + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.current_path)

    def _gc_checkpoints(self, keep: str) -> int:
        import shutil

        removed = 0
        for path in self.checkpoint_dir.iterdir():
            if path.name == keep or not path.name.startswith(_CKPT_PREFIX):
                continue
            shutil.rmtree(path, ignore_errors=True)
            removed += 1
        return removed
