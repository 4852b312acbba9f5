"""The hosted-view catalog: what the server keeps per view it serves.

One :class:`ServedView` per registered view, plus the document form a
checkpoint carries and a reopened server restores.  Views defined
straight on the engine are not hosted: they never appear here, and the
server neither degrades nor routes them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.engine.database import CatalogError, ViewDefinition
from .scheduler import RefreshPolicy

__all__ = ["ServedView", "ViewCatalog", "ViewDefinition"]


@dataclass
class ServedView:
    """Catalog entry the server keeps per hosted view."""

    definition: ViewDefinition
    #: Whether the adaptive router may migrate this view.
    adaptive: bool
    queries: int = 0
    updates_seen: int = 0
    #: Compiled against the catalog the last request saw; replaced
    #: whole once that catalog changes (see ``ViewServer._plan``).
    plan: Any = None


class ViewCatalog:
    """Hosted views by name; request counters guarded by one mutex."""

    def __init__(self) -> None:
        self._entries: dict[str, ServedView] = {}
        self._mutex = threading.Lock()

    def host(
        self,
        definition: ViewDefinition,
        adaptive: bool = True,
        doc: Mapping[str, Any] | None = None,
    ) -> None:
        """Add a view; ``doc`` restores a checkpointed entry's state."""
        doc = doc or {}
        self._entries[definition.name] = ServedView(
            definition, doc.get("adaptive", adaptive),
            doc.get("queries", 0), doc.get("updates_seen", 0),
        )

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def get(self, name: str) -> ServedView | None:
        return self._entries.get(name)

    def entry(self, name: str) -> ServedView:
        entry = self._entries.get(name)
        if entry is None:
            raise CatalogError(f"view {name!r} is not registered with this server")
        return entry

    def definition(self, name: str) -> ViewDefinition | None:
        """A hosted view's definition; ``None`` for any other name."""
        entry = self._entries.get(name)
        return entry.definition if entry is not None else None

    def count_query(self, entry: ServedView) -> None:
        with self._mutex:
            entry.queries += 1

    def count_update(self, entry: ServedView) -> None:
        with self._mutex:
            entry.updates_seen += 1

    def to_doc(self, policy_of: Callable[[str], RefreshPolicy]) -> dict[str, Any]:
        """The per-view documents a checkpoint carries."""
        # list(): checkpoints run under the server's world write lock,
        # but this stays consistent for a caller outside it too.
        return {
            name: {
                "adaptive": entry.adaptive,
                "policy": policy_of(name).to_doc(),
                "queries": entry.queries,
                "updates_seen": entry.updates_seen,
            }
            for name, entry in list(self._entries.items())
        }
