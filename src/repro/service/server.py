"""The view server: many views, one database, live traffic.

:class:`ViewServer` is the request pipeline over
:class:`~repro.engine.database.Database` — lock plan, cache probe,
serve, degrade, post-request, each stage written once — and nothing
else: view health (the degradation ladder, the repair queue) is
:class:`~repro.resilience.health.ViewHealth`, journal bookkeeping (the
checkpoint cadence, recovery) is
:class:`~repro.durability.journal.ServiceJournal`, lock names come from
:mod:`repro.service.lockplan`.  ``docs/service.md`` walks the five
stages (what each reads, which lock it holds, which collaborator it
calls); ``docs/performance.md`` has the locking discipline: a world
reader-writer lock (requests read, admin operations write), striped
per-relation/per-view locks taken in sorted order, one engine mutex.
Every request's CostMeter delta lands in per-view / per-strategy /
per-client metrics in modelled milliseconds, so measurements line up
with the paper's formulas.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.concurrency import CostBox, EngineMutex, LockManager, RWLock
from repro.core.parameters import PAPER_DEFAULTS, Parameters
from repro.core.strategies import Strategy
from repro.durability.checkpoint import CheckpointInfo
from repro.durability.journal import ServiceJournal
from repro.durability.manager import DurabilityManager
from repro.engine.database import CatalogError, Database, ViewMaintenanceError
from repro.engine.transaction import Transaction
from repro.maintenance.planner import SharedDeltaPlanner
from repro.resilience.degradation import DegradedResult, qm_fallback_answer
from repro.resilience.faults import FaultProfile
from repro.resilience.health import DEGRADABLE_ERRORS, ViewHealth
from repro.resilience.policy import ResilienceConfig
from repro.resilience.scrub import ScrubReport
from .cache import QueryResultCache
from .catalog import ServedView, ViewCatalog, ViewDefinition
from .lockplan import Compiled, ServingPlan, fold_locks, lock_plan, update_locks
from .metrics import Counter, MetricsRegistry
from .router import AdaptiveRouter, query_width
from .scheduler import RefreshPolicy, RefreshScheduler, StalenessReport

__all__ = ["ViewServer", "ServedView", "DEGRADABLE_ERRORS"]

_MISS = object()


class ViewServer:
    """Serve interleaved update/query traffic over many views."""

    def __init__(
        self,
        database: Database,
        params: Parameters | None = None,
        router: AdaptiveRouter | None = None,
        scheduler: RefreshScheduler | None = None,
        registry: MetricsRegistry | None = None,
        resilience: ResilienceConfig | None = None,
        cache: QueryResultCache | None = None,
        pacing: float = 0.0,
        lock_timeout: float | None = None,
    ) -> None:
        #: Cost constants used to convert meter deltas to milliseconds.
        self.params = params or PAPER_DEFAULTS
        self.router = router
        self.scheduler = scheduler or RefreshScheduler()
        self.metrics = registry or MetricsRegistry()
        #: The views this server hosts (a subset of the engine's).
        self._catalog = ViewCatalog()
        #: World lock: request paths read, admin operations write.
        self._world = RWLock("world")
        #: Striped per-relation and per-view locks (see lockplan).
        self._locks = LockManager()
        #: ``queries_total`` per client, looked up once each.
        self._queries_total: dict[str, Counter] = {}
        #: Serializes engine sections (shared buffer pool + cost meter);
        #: ``pacing`` is wall seconds per modelled millisecond (0 = off).
        self._engine = EngineMutex(
            lambda: self.database.meter,
            lambda cost: cost.milliseconds(self.params),
            pacing,
        )
        self._lock_timeout = lock_timeout
        #: Optional versioned query-result cache (None = disabled, the
        #: paper-faithful default: every query pays its metered I/O).
        self.cache = cache
        #: Checkpoint cadence + durability metrics; inert until a
        #: manager is armed by :meth:`attach_durability` or :meth:`open`.
        self.journal = ServiceJournal(self.metrics)
        #: Degraded views, the degradation ladder and the repair queue.
        #: The policy defaults to whatever the engine was built with,
        #: so one config object drives the whole stack.
        self.health = ViewHealth(
            resilience if resilience is not None else database.resilience_config,
            self.metrics, self.params, self._catalog.definition, self._recover,
        )
        self._bind(database)

    def _bind(self, database: Database) -> None:
        """Serve from this engine (at start-up, and after recovery)."""
        self.database = database
        #: Per-relation lock sets compiled against this engine's catalog.
        self._relation_plans = Compiled(database)
        #: Shared-delta refresh planning (grouping + coalescing).
        self.planner = SharedDeltaPlanner(database)
        self.health.watch(database)

    @property
    def durability(self) -> DurabilityManager | None:
        """The armed durability manager (WAL + checkpoints), if any."""
        return self.journal.manager

    @property
    def resilience(self) -> ResilienceConfig | None:
        """The degradation policy (``None``: failures propagate)."""
        return self.health.config

    @resilience.setter
    def resilience(self, config: ResilienceConfig | None) -> None:
        self.health.config = config

    @classmethod
    def open(
        cls,
        state_dir: Any,
        params: Parameters | None = None,
        router: AdaptiveRouter | None = None,
        scheduler: RefreshScheduler | None = None,
        registry: MetricsRegistry | None = None,
        default_config: dict[str, Any] | None = None,
        fsync_every: int = 1,
        checkpoint_every: int | None = None,
        fault_profile: FaultProfile | None = None,
        resilience: ResilienceConfig | None = None,
        cache: QueryResultCache | None = None,
        pacing: float = 0.0,
    ) -> "ViewServer":
        """Open a server over a durability state directory.

        Recovers whatever the directory holds (checkpoint restore + WAL
        replay), re-registers every recovered view with its saved policy
        and counters, arms write-ahead journaling, and exports recovery
        metrics (``recovery_replay_records``, ``recovery_ms``).  A fresh
        directory yields an empty server — register views as usual and
        they are journaled from the first operation.

        ``fault_profile``/``resilience`` give the recovered engine the
        live instance's disk stack; faults come back *disarmed*.
        """
        registry = registry or MetricsRegistry()
        journal = ServiceJournal(
            registry, DurabilityManager(state_dir, fsync_every=fsync_every)
        )
        journal.set_cadence(checkpoint_every)
        db, saved = journal.recover_engine(
            default_config, fault_profile, resilience, params or PAPER_DEFAULTS
        )
        server = cls(
            db, params=params, router=router, scheduler=scheduler,
            registry=registry, resilience=resilience, cache=cache, pacing=pacing,
        )
        server.journal = journal
        docs = saved.get("views", {})
        for name, impl in db.views.items():
            doc = docs.get(name, {})
            server._catalog.host(impl.definition, doc=doc)
            server.scheduler.set_policy(name, RefreshPolicy.from_doc(doc.get("policy")))
            server._set_strategy_gauge(name, impl.strategy)
        return server

    # ------------------------------------------------------------------
    # durability surface
    # ------------------------------------------------------------------
    def attach_durability(
        self, manager: DurabilityManager, checkpoint_every: int | None = None
    ) -> None:
        """Arm write-ahead journaling on a live server.

        Operations from here on are journaled; take a :meth:`checkpoint`
        right after attaching so recovery never has to replay the
        pre-durability bootstrap (which is not in the log).
        """
        with self._world.write():
            self.journal = ServiceJournal(self.metrics, manager)
            self.journal.set_cadence(checkpoint_every)
            manager.attach(self.database)

    def checkpoint(self) -> CheckpointInfo:
        """Snapshot engine + serving state, truncating the WAL behind it."""
        with self._world.write():
            return self.journal.checkpoint(
                self.database, self._catalog.to_doc(self.scheduler.policy_of)
            )

    def shutdown(self) -> None:
        """Graceful stop: final checkpoint, then seal the WAL.

        Idempotent — a second call is a no-op — and the durability
        resources are released (WAL sealed, journaling detached) even
        when the final checkpoint raises; the error still propagates so
        the caller knows the last snapshot is missing, but recovery can
        replay the sealed WAL regardless.
        """
        with self._world.write():
            if self.journal.manager is None:
                return
            try:
                self.checkpoint()
            finally:
                self.journal.close(self.database)

    # ------------------------------------------------------------------
    # catalog surface
    # ------------------------------------------------------------------
    def register_view(
        self,
        definition: ViewDefinition,
        strategy: Strategy,
        adaptive: bool = True,
        policy: RefreshPolicy | None = None,
        **options: Any,
    ) -> None:
        """Host a view under a strategy and (optionally) a refresh policy
        (``options``: :class:`~repro.engine.database.ViewSpec`'s).

        Setup I/O (materializing the initial copy) is reported in the
        ``view_setup_ms`` metric; ``define_view`` charges it to the
        meter's setup bucket, not the workload counters, mirroring the
        paper's practice of excluding initial materialization from
        per-query costs.
        """
        with self._world.write():
            meter = self.database.meter
            before = meter.snapshot()
            self.database.define_view(definition, strategy, **options)
            self._catalog.host(definition, adaptive)
            self.scheduler.set_policy(definition.name, policy or RefreshPolicy.on_demand())
            self.metrics.gauge("view_setup_ms", view=definition.name).set(
                meter.diff(before).setup_milliseconds(self.params)
            )
            self._set_strategy_gauge(definition.name, strategy)

    def migrate(self, name: str, strategy: Strategy) -> None:
        """Move a view to another strategy, pricing the migration.  One
        the catalog refuses raises and leaves the view as it was."""
        with self._world.write():
            old = self.strategy_of(name)
            if old is strategy:
                return
            meter = self.database.meter
            before = meter.snapshot()
            try:
                self.database.migrate_view(name, strategy)
            except DEGRADABLE_ERRORS as exc:
                # A fault between the migration's drop and its re-define
                # leaves the view out of the catalog; the repair restores
                # it under the *target* strategy.
                self.health.fail(name, "migrate", exc, target=strategy)
                self.metrics.counter("migration_failures_total", view=name).inc()
                self._run_repairs()
                return
            ms = meter.diff(before).milliseconds(self.params)
            self.metrics.counter(
                "strategy_switches_total",
                view=name, from_strategy=old.value, to_strategy=strategy.value,
            ).inc()
            self.metrics.histogram("migration_ms", view=name).observe(ms)
            self._set_strategy_gauge(name, strategy)

    def views(self) -> tuple[str, ...]:
        return self._catalog.names()

    def definition_of(self, name: str) -> ViewDefinition:
        return self._catalog.entry(name).definition

    def strategy_of(self, name: str) -> Strategy:
        impl = self.database.views.get(name)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        return impl.strategy

    def _set_strategy_gauge(self, name: str, strategy: Strategy) -> None:
        # One-hot over the strategies this view has ever run under.
        self.metrics.set_one_hot("view_strategy", "strategy", strategy.value, view=name)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply_update(self, txn: Transaction, client: str = "anon") -> None:
        """Apply one update transaction and run the post-update hooks.

        The transaction's own cost lands in ``update_ms``.  A base-path
        failure escalates to checkpoint+WAL recovery under the exclusive
        world lock.
        """
        box = CostBox()
        with self._world.read(self._lock_timeout):
            failure = self._apply(txn, box)
        if failure is not None:
            with self._world.write(self._lock_timeout):
                recovered = self._recover("update")
            if not recovered:
                raise failure
        with self._world.read(self._lock_timeout):
            # Post-commit accounting, on the (possibly recovered) engine.
            affected = self.database.views_on(txn.relation)
            self.health.note_commit(affected)
            self.metrics.counter("updates_total", client=client).inc()
            self.metrics.histogram("update_ms", relation=txn.relation).observe(box.ms)
            routed: list[str] = []
            for name in affected:
                entry = self._catalog.get(name)
                if entry is None:
                    continue
                self._catalog.count_update(entry)
                if self.router is not None and entry.adaptive:
                    self.router.observe_update(name, len(txn))
                    routed.append(name)
            self._run_background_refreshes(affected)
            self.health.export_relation_gauges(txn.relation)
        self._post_request(routed_views=tuple(routed))

    def _apply(self, txn: Transaction, box: CostBox) -> Exception | None:
        """Apply under the update's write locks; returns the base-path
        failure that needs recovery, if any."""
        with self._locks.acquire(
            writes=self._relations().memo(update_locks, txn.relation),
            timeout=self._lock_timeout,
        ):
            try:
                with self._engine.section(box):
                    self.database.apply_transaction(txn)
                    self.database.settle_unless_batched(txn.relation)
            except ViewMaintenanceError as exc:
                # The base mutation committed; only the named views'
                # stored copies are suspect.  Degrade them and move on.
                for view_name, view_exc in exc.failures:
                    self.health.fail(view_name, "update", view_exc)
                self.metrics.counter(
                    "update_maintenance_failures_total", relation=txn.relation
                ).inc()
            except DEGRADABLE_ERRORS as exc:
                # Base-path failure.  The transaction was journaled
                # *before* any page was touched, so checkpoint+WAL
                # recovery replays it in full — the update is not lost.
                if not self.health.enabled:
                    raise
                self.metrics.counter(
                    "update_base_failures_total", relation=txn.relation
                ).inc()
                return exc
            if self.cache is not None:
                self.cache.bump(txn.relation)
        return None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, name: str, lo: Any = None, hi: Any = None, client: str = "anon") -> Any:
        """Answer a view query under the view's strategy and policy.

        A repeat query of unchanged relations is served from the cache
        (when one is installed).  With a resilience config installed, a
        failure of the normal path (checksum mismatch, exhausted
        retries, open breaker) degrades instead of raising: the answer
        is a :class:`~repro.resilience.degradation.DegradedResult`
        naming the rung, the reason and the staleness bound, and a
        repair is queued.  Only when every rung fails does it raise.
        """
        entry = self._catalog.entry(name)
        answer = self._cache_probe(name, entry, lo, hi, client) if self.cache is not None else _MISS
        if answer is _MISS:
            with self._world.read(self._lock_timeout):
                answer, token = self._serve(name, entry, lo, hi, client)
            if isinstance(answer, DegradedResult):
                self._post_request()
                return answer
            if token is not None:
                self.cache.put(name, lo, hi, token, answer)
        self._post_request(observe_query=(name, lo, hi))
        return answer

    def _plan(self, entry: ServedView) -> ServingPlan:
        """The view's compiled plan; called under the world read lock,
        which every catalog change excludes, and compiled afresh when
        the engine or its catalog epoch has moved since."""
        plan, database = entry.plan, self.database
        if plan is None or not plan.current(database):
            name = entry.definition.name
            impl = database.views.get(name)
            strategy = impl.strategy if impl is not None else None
            label = strategy.value if strategy is not None else "unavailable"
            query_ms = self.metrics.histogram("query_ms", view=name, strategy=label)
            plan = entry.plan = ServingPlan(database, entry.definition, strategy, query_ms)
        return plan

    def _count_query(
        self, entry: ServedView, plan: ServingPlan, client: str, ms: float
    ) -> None:
        self._catalog.count_query(entry)
        counter = self._queries_total.get(client)
        if counter is None:
            counter = self.metrics.counter("queries_total", client=client)
            self._queries_total[client] = counter
        counter.inc()
        plan.query_ms.observe(ms)

    def _cache_probe(
        self, name: str, entry: ServedView, lo: Any, hi: Any, client: str
    ) -> Any:
        """Serve from the cache when possible; ``_MISS`` otherwise."""
        cache = self.cache
        with self._world.read(self._lock_timeout):
            if name not in self.database.views or self.health.reason(name) is not None:
                return _MISS
            plan = self._plan(entry)
            with self._locks.acquire(reads=plan.probe, timeout=self._lock_timeout):
                hit, answer = cache.get(name, lo, hi, cache.epoch_token(plan.sources))
        if not hit:
            return _MISS
        self.metrics.counter("cache_hits_total", view=name).inc()
        self._count_query(entry, plan, client, 0.0)
        return answer

    def _serve(
        self, name: str, entry: ServedView, lo: Any, hi: Any, client: str
    ) -> tuple[Any, Any]:
        """Plan, serve and (on failure) degrade one query, under the
        world read lock.  Returns ``(answer, token)``; the cache token
        is non-None only when the answer is *fresh* (reflects every
        update applied so far), the precondition for caching it."""
        impl = self.database.views.get(name)
        reason = self.health.reason(name)
        if impl is None and reason is None:
            # Only a degraded, repair-pending view may be missing
            # its engine-side impl (vanished mid-composite-op).
            raise CatalogError(f"unknown view {name!r}")
        plan = self._plan(entry)
        definition = entry.definition
        box = CostBox()
        try:
            if reason is None:
                try:
                    return self._serve_healthy(name, plan, lo, hi, box)
                except DEGRADABLE_ERRORS as exc:
                    reason = self.health.fail(name, "query", exc)
            # A known-bad view skips straight here: don't poke the
            # broken machinery (and its breakers) until repair clears it.
            with self._locks.acquire(
                writes=plan.memo(lock_plan, definition, None).writes,
                timeout=self._lock_timeout,
            ):
                degraded = self.health.answer(
                    name, impl, reason,
                    fresh=lambda: self._engine.run(
                        box, qm_fallback_answer, self.database, definition, lo, hi
                    ),
                    stored=lambda: self._engine.run(
                        box, self.database.query_view, name, lo, hi, False
                    ),
                )
            return degraded, None
        finally:
            self._count_query(entry, plan, client, box.ms)

    def _serve_healthy(
        self, name: str, compiled: ServingPlan, lo: Any, hi: Any, box: CostBox
    ) -> tuple[Any, Any]:
        """The healthy serving path: fold if due, then one locked read.

        A plan that skipped its fold (nothing was pending) checks the
        backlog again under its locks; an update that committed since
        planning sends it round once more with the folding plan."""
        sources = compiled.sources
        deferred = compiled.strategy is Strategy.DEFERRED
        plan = compiled.plan(self.scheduler.should_refresh_on_query(name))
        while True:
            if plan.fold:
                # Fold first (one shared-delta epoch, coalesced with any
                # concurrent request on the same relation), then serve
                # the freshly installed copy under read locks.
                self._refresh(sources[0], box, plan.fold)
            with self._locks.acquire(
                writes=plan.writes, reads=plan.reads, timeout=self._lock_timeout
            ):
                if plan.due is not None and compiled.pending():
                    plan = plan.due
                    continue
                with self._engine.section(box):
                    if plan.writes:
                        # A query-modification plan with a backlog: QM
                        # reads base files, so fold the pending AD first.
                        self.database.settle_relation(sources[0])
                    # A deferred copy is read as it stands: it is current
                    # (folded above, or nothing to fold), or the policy
                    # says to serve stale.
                    answer = self.database.query_view(name, lo, hi, refresh=not deferred)
                token = None
                if self.cache is not None and self._fresh(compiled):
                    token = self.cache.epoch_token(sources)
            break
        if deferred and (plan.fold or plan.due is not None):
            self.scheduler.note_refreshed(name)
        elif deferred:
            self.scheduler.note_stale_answer(name)
        return answer, token

    def _fresh(self, plan: ServingPlan) -> bool:
        """Whether an answer just read reflects every update so far — the
        precondition for caching it.  Immediate maintenance and
        recomputation always do; snapshot and hybrid copies may serve
        stale; a deferred copy does once its fold set has nothing
        pending (a join's inner backlog included)."""
        if plan.strategy is Strategy.DEFERRED:
            return not plan.pending()
        return plan.strategy is Strategy.IMMEDIATE or plan.strategy.is_query_modification()

    # ------------------------------------------------------------------
    # refresh epochs
    # ------------------------------------------------------------------
    def _refresh(
        self, relation: str, box: CostBox, writes: tuple[str, ...] = ()
    ) -> bool:
        """One shared-delta refresh epoch; True when this caller led it.
        The planner coalesces concurrent callers; the leader folds under
        the fold's write locks (``writes``, when the caller has planned
        them already) and an engine section."""

        def run(work: Callable[[], None]) -> None:
            with self._locks.acquire(
                writes=writes or self._relations().memo(fold_locks, relation),
                timeout=self._lock_timeout,
            ):
                with self._engine.section(box):
                    work()

        return self.planner.refresh(relation, run=run)

    def _relations(self) -> Compiled:
        """Per-relation lock sets, compiled afresh when the catalog moved."""
        plans = self._relation_plans
        if not plans.current(self.database):
            plans = self._relation_plans = Compiled(self.database)
        return plans

    def _run_background_refreshes(self, affected: tuple[str, ...]) -> None:
        """Async-policy views fold their backlog right after the update.

        The work is real and metered (``background_refresh_ms``), but
        kept out of ``update_ms``/``query_ms`` — it models the idle-CPU
        refresh of the paper's Section 4.  Each relation folds once per
        update (the planner's shared-delta epoch covers every sibling).
        """
        refreshed_relations: set[str] = set()
        for name in affected:
            if not self.scheduler.wants_background_refresh(name):
                continue
            impl = self.database.views.get(name)
            if impl is None or impl.strategy is not Strategy.DEFERRED:
                continue
            rel = impl.relation.schema.name
            if rel in refreshed_relations:
                continue  # the shared epoch already refreshed the siblings
            bg_box = CostBox()
            try:
                self._refresh(rel, bg_box)
            except DEGRADABLE_ERRORS as exc:
                self.health.fail(name, "refresh", exc)
                continue
            self.metrics.histogram("background_refresh_ms", view=name).observe(
                bg_box.ms
            )
            self.scheduler.note_refreshed(name)
            refreshed_relations.add(rel)

    def refresh_all_stale(self) -> tuple[str, ...]:
        """One shared-delta epoch over every relation with a backlog.

        The entry point cluster-wide refresh coordination drives: each
        stale relation folds its net change exactly once, and the names
        of the relations this caller refreshed are returned so it can
        account epochs.  Relations with an empty backlog cost nothing.
        """
        refreshed: list[str] = []
        with self._world.read(self._lock_timeout):
            for relation, views in sorted(self.planner.groups().items()):
                if self.planner.pending(relation) == 0:
                    continue
                box = CostBox()
                if self._refresh(relation, box):
                    refreshed.append(relation)
                    self.metrics.histogram(
                        "refresh_epoch_ms", relation=relation
                    ).observe(box.ms)
                    for name in views:
                        self.scheduler.note_refreshed(name)
        return tuple(refreshed)

    # ------------------------------------------------------------------
    # observability surface
    # ------------------------------------------------------------------
    def staleness(self, name: str) -> StalenessReport:
        """How far behind the live relation a view's answers may be."""
        with self._world.read(self._lock_timeout):
            relation = self._catalog.entry(name).definition.sources[0]
            # Recomputation always sees the true relation.
            recomputed = self.strategy_of(name).is_query_modification()
            return StalenessReport(
                view=name,
                policy=self.scheduler.policy_of(name).kind,
                pending_ad_entries=0 if recomputed else self.planner.pending(relation),
                queries_since_refresh=self.scheduler.queries_since_refresh(name),
            )

    def metrics_dict(self) -> dict[str, Any]:
        return self.metrics.to_dict()

    def metrics_json(self, indent: int | None = 2) -> str:
        return self.metrics.to_json(indent=indent)

    def dashboard(self) -> str:
        return self.metrics.render_dashboard()

    def degraded_views(self) -> dict[str, str]:
        """Views currently serving degraded, with the triggering reason."""
        return self.health.degraded_views()

    def scrub(self) -> ScrubReport:
        """Verify every page on disk (see :meth:`ViewHealth.scrub`)."""
        with self._world.write():
            return self.health.scrub()

    def repair(self) -> dict[str, Any]:
        """Run every queued repair now instead of waiting for traffic."""
        with self._world.write():
            return {
                "restored": self._run_repairs(),
                "still_degraded": self.health.degraded_views(),
                "needs_recovery": self.health.needs_recovery,
            }

    # ------------------------------------------------------------------
    # post-request
    # ------------------------------------------------------------------
    def _post_request(
        self,
        routed_views: tuple[str, ...] = (),
        observe_query: tuple[str, Any, Any] | None = None,
    ) -> None:
        """Tail-of-request hooks, run after the world read lock drops.

        Router decisions, queued repairs and cadence checkpoints all
        mutate shared state, so they escalate to the world *write* lock
        — but only when actually due, so the hot path almost never pays
        the exclusive lock.  The order matters: repairs (and the WAL
        recovery they may escalate to) run *before* the cadence tick,
        and the tick is deferred while anything is still unhealthy —
        a checkpoint of a half-folded engine would truncate the very
        log its recovery needs.
        """
        if self.router is not None:
            if observe_query is not None:
                name, lo, hi = observe_query
                entry = self._catalog.get(name)
                if entry is not None and entry.adaptive:
                    self.router.observe_query(name, query_width(lo, hi))
                    routed_views = (name,)
            for name in routed_views:
                if self.router.decision_due(name):
                    with self._world.write():
                        self.router.maybe_switch(self, name)
        self.health.export_gauges()
        self._tail_repairs()
        if self.journal.tick() and self.health.healthy:
            try:
                self.checkpoint()
            except DEGRADABLE_ERRORS:
                if not self.health.enabled:
                    raise
                # A checkpoint reads base and AD pages only (never the
                # matviews), so a failure here means damage local view
                # rebuilds cannot reach — escalate to WAL recovery.
                self.metrics.counter("checkpoint_failures_total").inc()
                self.health.needs_recovery = True
                self._tail_repairs()

    def _tail_repairs(self) -> None:
        """Run queued repairs at the tail of a request, exclusively."""
        if self.health.repairs_due():
            with self._world.write():
                self._run_repairs()

    def _run_repairs(self) -> list[str]:
        """Drain the repair queue (under the world write lock)."""
        restored = self.health.run_repairs()
        for name in restored:
            if self.cache is not None:
                self.cache.drop_view(name)
            impl = self.database.views.get(name)
            if impl is not None:
                self._set_strategy_gauge(name, impl.strategy)
        return restored

    def _recover(self, trigger: str) -> bool:
        """Rebuild the whole engine from checkpoint + WAL, then swap it in.

        The repair of last resort, for damage local view rebuilds cannot
        reach (base relations, differential files).  The WAL journals
        every transaction *before* it touches a page, so the twin holds
        every committed update — including one whose base apply failed
        halfway.  False (state untouched) when unarmed or it fails.
        """
        try:
            db = self.journal.recover_twin(self.database, self.params)
        except Exception:
            self.metrics.counter("recovery_failures_total", trigger=trigger).inc()
            return False
        if db is None:
            return False
        self._bind(db)
        if self.cache is not None:
            self.cache.clear()
        for name, impl in db.views.items():
            self._set_strategy_gauge(name, impl.strategy)
        self.metrics.counter("fault_recoveries_total", trigger=trigger).inc()
        return True
