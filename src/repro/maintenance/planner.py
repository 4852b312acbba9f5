"""Shared-delta refresh planning: one net-change read per epoch.

Section 4 of the paper observes that when several materialized views
draw from one hypothetical relation, the refresh should read the AD
file *once* and feed every view from that single net change set.  The
:class:`~repro.maintenance.deferred.DeferredCoordinator` implements
the per-relation mechanics (``compute_net`` / ``install``); this
module adds the serving-layer planning around it:

* **grouping** — :meth:`SharedDeltaPlanner.groups` maps each source
  relation to the deferred views it feeds, so a refresh epoch touches
  each relation exactly once however many views (or concurrent
  requests) want it fresh;
* **coalescing** — concurrent queries hitting the same stale relation
  wait on the one in-flight refresh instead of stacking duplicate
  AD reads behind it.  A follower re-checks staleness after the leader
  finishes and becomes the new leader if the leader failed, so a
  faulted refresh never strands waiters on a stale copy;
* **epoch accounting** — ``epochs``, ``coalesced_waits`` and the
  coordinator's ``net_computes`` make the once-per-epoch invariant
  observable (and testable).

The planner performs engine work only through a caller-supplied
``run`` callable, so the server can wrap each refresh in its striped
locks, engine mutex, per-request cost metering and pacing without the
maintenance layer knowing any of those exist.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.concurrency import Coalescer

__all__ = ["SharedDeltaPlanner"]

Runner = Callable[[Callable[[], None]], None]


def _run_inline(work: Callable[[], None]) -> None:
    work()


class SharedDeltaPlanner:
    """Group deferred views by relation; refresh each net once per epoch."""

    def __init__(self, database: Any) -> None:
        self.database = database
        #: One in-flight refresh per relation name.
        self._runs = Coalescer()
        #: Refresh epochs actually executed (leader runs).
        self.epochs = 0

    @property
    def coalesced_waits(self) -> int:
        """Requests that waited on another request's in-flight refresh
        instead of starting their own."""
        return self._runs.waits

    # ------------------------------------------------------------------
    # planning surface
    # ------------------------------------------------------------------
    def groups(self) -> dict[str, tuple[str, ...]]:
        """Source relation -> names of the deferred views it feeds."""
        grouped: dict[str, tuple[str, ...]] = {}
        for relation in self.database.deferred_relations():
            coordinator = self.database.deferred_coordinator(relation)
            if coordinator is not None and coordinator.views:
                grouped[relation] = tuple(v.view_name for v in coordinator.views)
        return grouped

    def pending(self, relation_name: str) -> int:
        """AD entries awaiting the next refresh epoch (no I/O)."""
        relation = self.database.relations.get(relation_name)
        return 0 if relation is None else relation.pending

    # ------------------------------------------------------------------
    # refresh epochs
    # ------------------------------------------------------------------
    def refresh(self, relation_name: str, run: Runner | None = None) -> bool:
        """Bring one relation's deferred views current; returns whether
        this caller led a refresh epoch (False = coalesced or no-op).

        The leader computes the net change set once and installs it in
        every dependent view through the shared coordinator; followers
        arriving while that runs wait on the leader's completion, then
        re-check the backlog — if the leader failed (its exception
        propagates to *its* caller only), a follower takes over as the
        new leader rather than serving stale silently.
        """
        runner = run or _run_inline
        # A follower's rule: fresh once the leader finished (or failed)?
        # Then its epoch covered this request too; otherwise it leads.
        return self._runs.run(
            relation_name,
            lambda: runner(lambda: self._refresh_now(relation_name)),
            lambda: self.pending(relation_name) == 0,
        )

    def _refresh_now(self, relation_name: str) -> None:
        """The actual epoch: one net compute fanned out to all views."""
        self.database.fold_relation(relation_name)
        self.epochs += 1
