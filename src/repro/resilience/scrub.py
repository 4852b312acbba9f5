"""On-demand integrity scrubbing: walk every file, verify, classify, repair.

The scrubber reads the disk's file listing and verifies each page's
at-rest checksum (one metered read per page — a scrub pass has an
honest I/O bill).  Damage is classified by the repo's file-naming
conventions so a repair knows which recovery primitive applies:

* ``view.<name>.leaf`` / ``view.<name>.int`` — a materialized view's
  B+-tree; repairable locally via :meth:`Database.rebuild_view`.
* ``agg.<name>`` — an aggregate view's state page; same repair.
* ``<rel>.ad.hash`` / ``<rel>.a.hash`` / ``<rel>.d.hash`` — a
  differential (AD) file; *not* locally repairable (its content is the
  not-yet-folded truth), needs checkpoint+WAL recovery.
* ``<rel>.leaf`` / ``<rel>.int`` / ``<rel>.hash`` — a base relation;
  likewise needs checkpoint+WAL recovery.

:func:`repair_database` applies every local repair and reports what it
could not fix, so the caller (the serving layer, or an operator via the
CLI) can escalate to :func:`repro.durability.recovery.recover`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.resilience.policy import RESILIENCE_ERRORS

__all__ = [
    "PageDamage",
    "RepairOutcome",
    "ScrubReport",
    "classify_file",
    "rebuild_verified",
    "repair_database",
    "scrub_database",
    "scrub_disk",
    "view_files",
]


@dataclass(frozen=True)
class PageDamage:
    """One damaged page found by a scrub pass."""

    page: str
    file: str
    error: str
    #: ``("view", name)``, ``("differential", relation)``,
    #: ``("relation", name)`` or ``("unknown", file)``.
    owner: tuple[str, str]

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form for reports and artifacts."""
        return {
            "page": self.page,
            "file": self.file,
            "error": self.error,
            "owner_kind": self.owner[0],
            "owner": self.owner[1],
        }


@dataclass
class ScrubReport:
    """What one scrub pass walked and what it found."""

    files_scanned: int = 0
    pages_scanned: int = 0
    damage: list[PageDamage] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no page failed verification."""
        return not self.damage

    @property
    def damaged_files(self) -> list[str]:
        """Distinct files containing at least one damaged page."""
        return sorted({d.file for d in self.damage})

    def damaged_views(self) -> list[str]:
        """View names whose stored copies have damage (locally repairable)."""
        return sorted({d.owner[1] for d in self.damage if d.owner[0] == "view"})

    def damaged_relations(self) -> list[str]:
        """Relations with base or differential damage (need recovery)."""
        return sorted(
            {d.owner[1] for d in self.damage if d.owner[0] in ("relation", "differential")}
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form for reports and artifacts."""
        return {
            "files_scanned": self.files_scanned,
            "pages_scanned": self.pages_scanned,
            "ok": self.ok,
            "damage": [d.to_dict() for d in self.damage],
        }


def classify_file(db: Any, file: str) -> tuple[str, str]:
    """Map a disk file name to its logical owner via naming conventions."""
    if file.startswith("view."):
        stem = file[len("view.") :]
        name = stem.rsplit(".", 1)[0] if stem.endswith((".leaf", ".int")) else stem
        return ("view", name)
    if file.startswith("agg."):
        return ("view", file[len("agg.") :])
    for suffix in (".ad.hash", ".a.hash", ".d.hash"):
        if file.endswith(suffix):
            return ("differential", file[: -len(suffix)])
    for suffix in (".leaf", ".int", ".hash"):
        if file.endswith(suffix):
            name = file[: -len(suffix)]
            if name in getattr(db, "relations", {}):
                return ("relation", name)
    return ("unknown", file)


def view_files(definition: Any) -> tuple[str, ...]:
    """The disk files a view's stored copy lives in; its model knows."""
    # Imported here: the maintenance package imports the engine, which
    # imports this package.
    from repro.maintenance.catalog import model_class

    return model_class(definition).stored_files(definition.name)


def scrub_disk(disk: Any, files: list[str] | None = None, db: Any = None) -> ScrubReport:
    """Verify every page of the given files (default: all files).

    Works on any disk exposing ``files()``/``file_pages()``/``verify()``
    — including the resilient wrapper, whose ``verify`` deliberately
    bypasses retries and breakers so the scrub sees raw at-rest truth.
    """
    report = ScrubReport()
    for file in files if files is not None else disk.files():
        report.files_scanned += 1
        for page_id in disk.file_pages(file):
            report.pages_scanned += 1
            error = disk.verify(page_id)
            if error is not None:
                report.damage.append(
                    PageDamage(
                        page=str(page_id),
                        file=file,
                        error=error,
                        owner=classify_file(db, file),
                    )
                )
    return report


def scrub_database(db: Any, files: list[str] | None = None) -> ScrubReport:
    """Scrub a database's disk with owner classification from its catalog."""
    db.pool.flush_all()
    return scrub_disk(db.disk, files=files, db=db)


@dataclass
class RepairOutcome:
    """What :func:`repair_database` fixed and what it could not."""

    rebuilt_views: list[str] = field(default_factory=list)
    #: Views whose rebuild itself failed (left for the next attempt).
    failed_views: list[str] = field(default_factory=list)
    #: Files whose damage needs checkpoint+WAL recovery.
    unrepaired_files: list[str] = field(default_factory=list)

    @property
    def fully_repaired(self) -> bool:
        """True when nothing is left damaged or unrepairable locally."""
        return not self.failed_views and not self.unrepaired_files

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form for reports and artifacts."""
        return {
            "rebuilt_views": list(self.rebuilt_views),
            "failed_views": list(self.failed_views),
            "unrepaired_files": list(self.unrepaired_files),
        }


def rebuild_verified(
    db: Any,
    name: str,
    rebuild: Callable[[], Any] | None = None,
    definition: Any = None,
) -> bool:
    """Rebuild one view's stored copy and re-verify it; True when whole.

    ``rebuild`` defaults to :meth:`Database.rebuild_view`; pass the
    view's ``definition`` along when the view is missing from the
    catalog and ``rebuild`` re-creates it.  Open breakers on the view's
    files are probed to half-open first (a repair is deliberate, it
    does not wait out the cool-down); a verified rebuild snaps them
    closed — the breaker-close shows up in the disk's transition events
    like any other.
    """
    files = view_files(definition or db.view_definition(name))
    resilient = getattr(db, "resilient_disk", None)
    if resilient is not None:
        resilient.probe_open_breakers(list(files))
    try:
        if rebuild is None:
            db.rebuild_view(name)
        else:
            rebuild()
        present = [f for f in files if f in db.disk.files()]
        verified = scrub_database(db, files=present).ok
    except RESILIENCE_ERRORS:
        return False
    if verified and resilient is not None:
        for file in files:
            resilient.reset_file(file)
    return verified


def repair_database(db: Any, report: ScrubReport | None = None) -> RepairOutcome:
    """Apply every local repair a scrub report calls for.

    Damaged views are rebuilt from their (settled) base relations and
    re-verified; base-relation and differential damage is beyond local
    repair and is returned in ``unrepaired_files`` for escalation to
    the durability layer.
    """
    if report is None:
        report = scrub_database(db)
    outcome = RepairOutcome()
    for name in report.damaged_views():
        if name in db.views:
            fixed = rebuild_verified(db, name)
            (outcome.rebuilt_views if fixed else outcome.failed_views).append(name)
    outcome.unrepaired_files = sorted(
        {damage.file for damage in report.damage if damage.owner[0] != "view"}
    )
    return outcome
