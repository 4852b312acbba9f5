"""Refresh scheduling: when deferred views fold their backlog.

The paper's deferred strategy refreshes *on demand*, just before a
query reads the view.  Its Section 4 future work sketches two more
policies, which :mod:`repro.core.policies` prices analytically and
this scheduler executes:

* ``on_demand`` — the paper's policy: every query refreshes first.
* ``periodic(every=j)`` — refresh only every *j*-th query; the other
  queries serve the stale stored copy (Adiba & Lindsay snapshots'
  read side, staleness exposed per view).
* ``async_refresh`` — refresh in the background after updates, so
  query-time latency only pays the (usually empty) residual backlog.

Policies only change behaviour for views that *have* a refresh step
(deferred maintenance); other strategies ignore them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.parameters import Parameters
from repro.core.policies import (
    AsyncRefreshPoint,
    SnapshotAnalysis,
    analyze_async_refresh,
    analyze_snapshot,
)

__all__ = ["RefreshPolicy", "RefreshScheduler", "StalenessReport"]


@dataclass(frozen=True)
class RefreshPolicy:
    """One view's refresh-timing policy."""

    kind: str  # "on_demand" | "periodic" | "async"
    #: Refresh every this-many queries (periodic only).
    every: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("on_demand", "periodic", "async"):
            raise ValueError(f"unknown refresh policy kind {self.kind!r}")
        if self.every < 1:
            raise ValueError(f"refresh period must be >= 1, got {self.every}")

    @classmethod
    def on_demand(cls) -> "RefreshPolicy":
        return cls("on_demand")

    @classmethod
    def periodic(cls, every: int) -> "RefreshPolicy":
        return cls("periodic", every=every)

    @classmethod
    def async_refresh(cls) -> "RefreshPolicy":
        return cls("async")

    def to_doc(self) -> dict[str, Any]:
        """The JSON form checkpoints and stack specs carry."""
        return {"kind": self.kind, "every": self.every}

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any] | None) -> "RefreshPolicy":
        """Inverse of :meth:`to_doc`; no document means on-demand."""
        if not doc:
            return cls.on_demand()
        return cls(doc["kind"], every=int(doc.get("every", 1)))


#: The policy of a view nobody set one for (one instance, not one per call).
_ON_DEMAND = RefreshPolicy.on_demand()


@dataclass(frozen=True)
class StalenessReport:
    """How far behind the true relation a view's stored copy may be."""

    view: str
    policy: str
    #: AD entries not yet folded into the base/view.
    pending_ad_entries: int
    #: Queries answered since the last refresh actually ran.
    queries_since_refresh: int

    @property
    def is_fresh(self) -> bool:
        return self.pending_ad_entries == 0


class RefreshScheduler:
    """Per-view refresh policies plus the bookkeeping to apply them."""

    def __init__(self) -> None:
        self._policies: dict[str, RefreshPolicy] = {}
        self._queries_seen: dict[str, int] = {}
        self._queries_since_refresh: dict[str, int] = {}
        #: Serializes the counting decisions so concurrent request
        #: threads never double-count a periodic cycle position.
        self._mutex = threading.RLock()

    def set_policy(self, view: str, policy: RefreshPolicy) -> None:
        with self._mutex:
            self._policies[view] = policy
            self._queries_seen.setdefault(view, 0)
            self._queries_since_refresh.setdefault(view, 0)

    def policy_of(self, view: str) -> RefreshPolicy:
        return self._policies.get(view, _ON_DEMAND)

    # ------------------------------------------------------------------
    # decision points (called by the server)
    # ------------------------------------------------------------------
    def should_refresh_on_query(self, view: str) -> bool:
        """Whether this query must fold the backlog before answering.

        Counts the query either way, so periodic views hit their cycle
        deterministically (query 1 refreshes, then every ``every``-th).
        """
        policy = self._policies.get(view, _ON_DEMAND)
        with self._mutex:
            seen = self._queries_seen.get(view, 0)
            self._queries_seen[view] = seen + 1
        # On demand refreshes every query; async too (background
        # refreshes keep the backlog near zero, a query still folds any
        # residue so answers stay correct).
        return policy.kind != "periodic" or seen % policy.every == 0

    def wants_background_refresh(self, view: str) -> bool:
        """Whether updates to this view's relation trigger idle-time work."""
        return self.policy_of(view).kind == "async"

    def note_refreshed(self, view: str) -> None:
        with self._mutex:
            self._queries_since_refresh[view] = 0

    def note_stale_answer(self, view: str) -> None:
        with self._mutex:
            self._queries_since_refresh[view] = (
                self._queries_since_refresh.get(view, 0) + 1
            )

    def queries_since_refresh(self, view: str) -> int:
        return self._queries_since_refresh.get(view, 0)

    # ------------------------------------------------------------------
    # pricing (Section 4 analyses)
    # ------------------------------------------------------------------
    @staticmethod
    def price_policy(
        params: Parameters, policy: RefreshPolicy, extra_refreshes: int = 1
    ) -> AsyncRefreshPoint | SnapshotAnalysis | None:
        """Analytic cost profile of a policy under the given workload.

        ``on_demand`` is the paper's baseline (priced by the ``TOTAL_*``
        formulas themselves) so it returns ``None``; ``periodic`` maps
        to the snapshot analysis, ``async`` to the async-refresh trade.
        """
        if policy.kind == "periodic":
            return analyze_snapshot(params, policy.every)
        if policy.kind == "async":
            return analyze_async_refresh(params, extra_refreshes)
        return None
