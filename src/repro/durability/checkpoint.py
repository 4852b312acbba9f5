"""Checkpoints: versioned JSON-lines snapshots with atomic publish.

A checkpoint directory under ``<state_dir>/checkpoints/`` holds::

    ckpt-00000042/
      MANIFEST.json       # version, wal_epoch, engine config, counters
      catalog.jsonl       # relation specs, view specs, secondary indexes
      relations.jsonl     # base-file contents, one line per relation
      differential.jsonl  # AD entries + Bloom state per hypothetical HR
      views.jsonl         # deferred per-view markers
      service.jsonl       # serving-layer catalog (policies, flags)

A **full image** carries every base record.  A **differential
checkpoint** names the full ``image`` it rests on in its manifest, and
its ``relations.jsonl``
carries per relation only the base file's net change since that image:
the records now filed under the keys edited since (``upserts``) and the
edited keys that are gone (``deleted``), both in edit order.  Each is
cumulative over the one image, never chained: a state directory holds
at most two checkpoints.  The base file notes its edited keys itself
(``_KeyedFile.touched``); ``_image_under`` picks a tick's kind.
Every list of records (a base, the upserts, the AD entries, a deferred
view's markers) is one row block, and every manifest and line is tagged
:data:`ROWS_VERSION`.  Directories written before blocks (:data:`VERSION`
images, :data:`DIFFERENTIAL_VERSION` differentials) are still read.

Publish protocol (each step atomic, any crash point recoverable):

1. ``wal.rotate()`` — the manifest's ``wal_epoch`` is the fresh
   segment; every event journaled after the captured state lands there.
2. Write all files into ``ckpt-N.tmp/``, fsyncing each, then it.
3. ``os.rename(tmp, final)`` and fsync ``checkpoints/`` — the
   checkpoint now exists, atomically and durably.
4. Rewrite ``CURRENT`` via write-temp + ``os.replace``; fsync its directory.
5. Garbage-collect every checkpoint but the one ``CURRENT`` names and
   the image its manifest names, and WAL segments ``< wal_epoch``.

A crash before (4) leaves ``CURRENT`` at the previous checkpoint, whose
image and WAL segments still exist (GC runs last, once the new pointer
is on disk); after (4), at worst stale files the next GC removes.

Snapshot reads go through the normal engine accessors but are
*unmetered* (counters restored afterwards): checkpoint I/O is host-file
work priced in wall-clock by the server's ``checkpoint_duration_ms``
histogram, not part of the paper's modelled cost.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.engine.database import Database
from repro.storage.pager import CostMeter

from . import codec
from .wal import WriteAheadLog, fsync_dir

__all__ = [
    "VERSION",
    "DIFFERENTIAL_VERSION",
    "ROWS_VERSION",
    "FOLD_FRACTION",
    "CheckpointError",
    "CheckpointInfo",
    "CheckpointManager",
]

#: Version tag of a full image written before row blocks.
VERSION = "repro.durability/v1"
#: Tag of a differential's manifest and base-change lines written before
#: row blocks: a reader of :data:`VERSION` alone refuses it instead of
#: restoring a partial base.
DIFFERENTIAL_VERSION = "repro.durability/v2"
#: Tag of every manifest and line written now, which carry their records
#: as row blocks (:func:`~repro.durability.codec.encode_rows`): a reader
#: of the two tags above refuses them instead of misreading a block.
ROWS_VERSION = "repro.durability/v3"
_VERSIONS = (VERSION, DIFFERENTIAL_VERSION, ROWS_VERSION)

#: A tick writes a new full image once the keys touched since the last
#: one outnumber this share of the base records: a reopen reads image
#: *and* differential, measured 6% / 9% / 16% / 24% slower than from a
#: full image at 0.1 / 0.25 / 0.5 / 1.0 (docs/durability.md, "Folding").
FOLD_FRACTION = 0.25

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
    #: The full image it rests on: its own name unless differential.
    image: str

    @property
    def kind(self) -> str:
        return "full" if self.image == self.name else "differential"


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
    return {"version": ROWS_VERSION, "kind": kind, **fields}


class CheckpointManager:
    """Writes and enumerates checkpoints under one state directory."""

    def __init__(self, state_dir: str | Path) -> None:
        self.state_dir = Path(state_dir)
        #: A writer's (``DurabilityManager``'s) to make: a reader makes nothing.
        self.checkpoint_dir = self.state_dir / "checkpoints"
        self.current_path = self.state_dir / "CURRENT"
        #: Crash-injection seam: ``hook(phase)`` with phase in
        #: {"capture", "pre_publish", "post_publish"}; may raise.
        self.fault_hook: Callable[[str], None] | None = None
        #: The last full image published from here and the ``touched``
        #: dict then installed on each base file: a file carrying any
        #: other is not described by that image.
        self._image: str | None = None
        self._tracked: dict[str, dict[Any, None]] = {}

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def latest(self) -> str | None:
        """The checkpoint ``CURRENT`` names, or None if none was published."""
        try:
            return self.current_path.read_text().strip()
        except FileNotFoundError:
            return None

    def checkpoint_names(self) -> list[str]:
        """Every fully-published checkpoint directory, ascending."""
        if not self.checkpoint_dir.is_dir():
            return []
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
        if manifest.get("version") not in _VERSIONS:
            raise CheckpointError(
                f"checkpoint {name} has version {manifest.get('version')!r}, "
                f"expected one of {_VERSIONS}"
            )
        return manifest

    def describe(self, name: str) -> dict[str, Any]:
        """One checkpoint as ``repro-recover --inspect`` lists it."""
        image = self.load_manifest(name).get("image", name)
        return {
            "name": name,
            "kind": "full" if image == name else "differential",
            "image": image,
            "bytes": sum(f.stat().st_size for f in (self.checkpoint_dir / name).iterdir()),
            "records": {
                doc["relation"]: {f: len(v["keys"] if isinstance(v, dict) else v)
                                  for f, v in doc.items() if isinstance(v, (dict, list))}
                for doc in self.read_lines(name, "relations.jsonl")
            },
        }

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
                if doc.get("version") not in _VERSIONS:
                    raise CheckpointError(
                        f"{path}: line version {doc.get('version')!r} not in {_VERSIONS}"
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
        image = self._image_under(database)

        if self.fault_hook is not None:
            self.fault_hook("capture")
        with _unmetered(database.meter):
            sections = self._capture(database, service_state, image is not None)
        manifest = {
            "version": ROWS_VERSION,
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
        if image is not None:
            manifest["image"] = image

        if tmp.exists():  # a crashed attempt's files are not this one's
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        bytes_written = self._write_json(tmp / "MANIFEST.json", manifest)
        for file, lines in sections.items():
            bytes_written += self._write_jsonl(tmp / file, lines)
        fsync_dir(tmp)

        if self.fault_hook is not None:
            self.fault_hook("pre_publish")
        os.rename(tmp, final)
        fsync_dir(self.checkpoint_dir)
        self._set_current(name)
        if image is None:
            # Only now: a full image that failed before this line left
            # the notes taken against the previous one standing.
            self._image, self._tracked = name, {}
            for relation_name, relation in database.relations.items():
                relation.base.touched = self._tracked[relation_name] = {}
        if self.fault_hook is not None:
            self.fault_hook("post_publish")

        ckpts_removed = self._gc_checkpoints(keep={name, image})
        segments_removed = wal.truncate_through(epoch)
        return CheckpointInfo(
            name=name,
            path=final,
            wal_epoch=epoch,
            bytes_written=bytes_written,
            checkpoints_removed=ckpts_removed,
            wal_segments_removed=segments_removed,
            image=image or name,
        )

    def _image_under(self, db: Database) -> str | None:
        """The full image a differential of ``db`` can rest on, or None
        when this tick must write one: none published from here, the
        image gone from disk, a base file not noted against it (created
        or bulk-loaded since, another engine's), or too many keys touched."""
        if self._image is None or not (self.checkpoint_dir / self._image).is_dir():
            return None
        touched = records = 0
        for name, relation in db.relations.items():
            base = relation.base
            if base.touched is None or base.touched is not self._tracked.get(name):
                return None
            touched += len(base.touched)
            records += len(base)
        return self._image if touched <= FOLD_FRACTION * records else None

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def _capture(
        self, db: Database, service_state: Mapping[str, Any] | None, changes_only: bool
    ) -> dict[str, list[dict[str, Any]]]:
        """Every file of a checkpoint as its JSON lines; ``changes_only``
        writes each base file as its net change since the full image."""
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
            if changes_only:
                # Both lists in edit order, which is the order the live
                # key directory keeps these keys in (behind the rest).
                now = [(key, base.peek_by_key(key)) for key in base.touched]
                line = _line(
                    "base_change",
                    relation=name,
                    upserts=codec.encode_rows([r for _, r in now if r is not None]),
                    deleted=[codec.encode_value(key) for key, r in now if r is None],
                )
            else:
                records = codec.encode_rows(base.records_snapshot())
                line = _line("base", relation=name, records=records)
            relations.append(line)
            if relation.differential:
                differential.append(self._capture_differential(name, relation))

        views: list[dict[str, Any]] = []
        for name, impl in db.views.items():
            state = impl.state_doc()
            if state is None:
                continue
            state["markers"] = codec.encode_rows(state["markers"])
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
        records, roles, seqs = zip(*state["entries"]) if state["entries"] else ((), (), ())
        return _line(
            "ad_state",
            relation=name,
            entries={**codec.encode_rows(records), "roles": roles, "seqs": seqs},
            bloom=state["bloom"],
        )

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
        fsync_dir(self.state_dir)

    def _gc_checkpoints(self, keep: set[str | None]) -> int:
        removed = 0
        for path in self.checkpoint_dir.iterdir():
            if path.name in keep or not path.name.startswith(_CKPT_PREFIX):
                continue
            shutil.rmtree(path, ignore_errors=True)
            removed += 1
        return removed
