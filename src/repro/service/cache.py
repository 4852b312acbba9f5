"""A versioned query-result cache for the materialized-view read path.

Repeated queries over an unchanged view are common in the paper's
workloads (``q`` consecutive queries between update batches), yet each
one re-scans the stored copy.  :class:`QueryResultCache` short-circuits
them: answers are keyed by ``(view, lo, hi)`` and stamped with the
*update epochs* of every base relation the view draws from.  An update
to a relation bumps its epoch, so every cached answer that depended on
it silently misses from then on — no scanning, no invalidation lists.

The invalidation rule, precisely:

    a hit requires the stored epoch vector to equal the current one,
    and an entry is only ever stored for a *fresh* answer (one that
    reflects all updates applied so far).

Freshness is what makes a hit safe to serve without touching the
engine: epochs unchanged ⇒ no update since the answer was computed ⇒
the answer is still the view's current logical content (and a deferred
view's backlog is still empty, so the skipped refresh was a no-op).

Every hit is its own answer: a tuple answer is kept as an immutable
copy and each hit gets a new list over the shared (immutable) view
tuples, so what one client does to its list no other client sees.

The cache is **opt-in**: :class:`~repro.service.server.ViewServer`
only consults it when one is passed in, so the paper-faithful cost
accounting of the default configuration is untouched.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterable

__all__ = ["QueryResultCache"]

Key = tuple[str, Any, Any]
Token = tuple[tuple[str, int], ...]


class QueryResultCache:
    """LRU cache of fresh view answers, invalidated by relation epochs."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._mutex = threading.Lock()
        #: key -> (token, answer, listed); a ``listed`` answer is kept
        #: as a tuple and handed out as a new list per hit.
        self._entries: "OrderedDict[Key, tuple[Token, Any, bool]]" = OrderedDict()
        self._epochs: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def epoch_token(self, relations: Iterable[str]) -> Token:
        """The current epoch vector of a view's source relations.

        Sample it while holding the relations' striped locks (any
        mode): updates bump epochs under the write side, so the token
        is consistent with the answer read under the same locks.
        """
        with self._mutex:
            return tuple(
                (name, self._epochs.get(name, 0)) for name in sorted(set(relations))
            )

    def bump(self, relation: str) -> None:
        """Record one committed update batch against a relation."""
        with self._mutex:
            self._epochs[relation] = self._epochs.get(relation, 0) + 1

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(self, view: str, lo: Any, hi: Any, token: Token) -> tuple[bool, Any]:
        """``(hit, answer)``; a stale entry is dropped on the way out."""
        key = (view, lo, hi)
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return False, None
            stored_token, answer, listed = entry
            if stored_token != token:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
        return True, list(answer) if listed else answer

    def put(self, view: str, lo: Any, hi: Any, token: Token, answer: Any) -> None:
        """Keep a fresh answer; a list is copied, the caller keeps its own."""
        key = (view, lo, hi)
        listed = isinstance(answer, list)
        if listed:
            answer = tuple(answer)
        with self._mutex:
            self._entries[key] = (token, answer, listed)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def drop_view(self, view: str) -> None:
        """Forget every range cached for one view (repair/recovery)."""
        with self._mutex:
            for key in [k for k in self._entries if k[0] == view]:
                del self._entries[key]
                self.invalidations += 1

    def clear(self) -> None:
        with self._mutex:
            self.invalidations += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)
