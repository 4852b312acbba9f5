"""The database engine: catalog, transactions, views, strategies.

:class:`Database` owns the simulated disk and buffer pool, the base
relations (plain clustered, hash-clustered, or hypothetical), any
secondary indexes, and the views with their maintenance strategies.
Transactions applied through :meth:`Database.apply_transaction` update
the base storage and notify every affected view's strategy;
:meth:`Database.query_view` answers a view query under whatever
strategy the view was defined with.

The shared :class:`~repro.storage.pager.CostMeter` prices everything;
``snapshot``/``delta_since`` let harnesses cost individual operations.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.parameters import Parameters
from repro.core.strategies import Strategy
from repro.hr.differential import (
    ClusteredRelation,
    HashedRelation,
    HypotheticalRelation,
    SeparateFilesHR,
)
from repro.hr.hashed import HashedHypotheticalRelation
from repro.resilience.faults import FaultProfile, FaultyDisk
from repro.resilience.policy import RESILIENCE_ERRORS, ResilienceConfig, ResilientDisk
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.storage.tuples import Record, Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.delta import DeltaSet
from .executor import SecondaryIndex
from .transaction import (
    CatalogError, Delete, Insert, Transaction, UnsupportedTransactionError, Update, route,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.maintenance.base import MaintenanceStrategy

__all__ = [
    "KINDS",
    "Database",
    "CatalogError",
    "UnsupportedTransactionError",
    "ViewMaintenanceError",
    "ViewSpec",
]

#: Relation kind -> (organisation of the plain file, differential
#: design over it or ``None``): Section 3.1's two organisations, each
#: plain or under one of Section 2.2's differential designs.
KINDS: dict[str, tuple[type, type | None]] = {
    "plain": (ClusteredRelation, None),  # query modification, immediate
    "hypothetical": (ClusteredRelation, HypotheticalRelation),  # deferred
    "separate": (ClusteredRelation, SeparateFilesHR),  # A, D apart: ablation
    "hashed": (HashedRelation, None),  # the join inner R2
    # ... under deferred join views that take inner-side updates:
    "hashed_hypothetical": (HashedRelation, HashedHypotheticalRelation),
}

ViewDefinition = SelectProjectView | JoinView | AggregateView


@dataclass(frozen=True)
class ViewSpec:
    """A view's catalog entry, everything ``define_view`` was asked: the
    one value catalog operations, journal, checkpoints and repairs pass
    around.  ``plan`` and ``index_field`` pick a Model 1 view's
    query-modification plan, ``refresh_every`` a snapshot's period.
    """

    definition: ViewDefinition
    strategy: Strategy
    plan: str | None = None
    index_field: str | None = None
    refresh_every: int = 10

    @property
    def name(self) -> str:
        """The view's name."""
        return self.definition.name


class ViewMaintenanceError(RuntimeError):
    """One or more views failed to absorb a committed transaction.

    Raised *after* the base relation mutation, index maintenance and
    write-back completed, so the transaction itself is durable; only
    the named views' stored copies are suspect.  The serving layer
    catches this to degrade the affected views and queue repairs.
    Only raised when :attr:`Database.isolate_view_faults` is on —
    without the resilience layer a view fault propagates immediately.
    """

    def __init__(self, failures: list[tuple[str, Exception]]) -> None:
        names = ", ".join(name for name, _ in failures)
        super().__init__(f"view maintenance failed for: {names}")
        self.failures = failures

    @property
    def view_names(self) -> list[str]:
        """The views whose maintenance raised."""
        return [name for name, _ in self.failures]


class Database:
    """A single-user simulated database instance."""

    def __init__(
        self,
        block_bytes: int = 4000,
        buffer_pages: int = 256,
        fanout: int = 200,
        cold_operations: bool = False,
        fault_profile: FaultProfile | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        self.block_bytes = block_bytes
        self.fanout = fanout
        self.meter = CostMeter()
        #: The raw page store (faulty when a profile is installed).
        #: Faults start disarmed — callers arm after clean bootstrap.
        if fault_profile is not None and fault_profile.name != "none":
            self.storage_disk: SimulatedDisk = FaultyDisk(self.meter, fault_profile)
        else:
            self.storage_disk = SimulatedDisk(self.meter)
        self.fault_profile = fault_profile
        self.resilience_config = resilience
        if resilience is not None:
            # Detection is a prerequisite for the retry/breaker layer:
            # checksums must be verified on every read.
            self.storage_disk.verify_reads = True
            self.disk: Any = ResilientDisk(
                self.storage_disk,
                retry=resilience.retry,
                failure_threshold=resilience.failure_threshold,
                cooldown_ops=resilience.cooldown_ops,
                half_open_probes=resilience.half_open_probes,
            )
        else:
            self.disk = self.storage_disk
        self.pool = BufferPool(self.disk, capacity=buffer_pages)
        #: When True (set whenever a resilience config is installed),
        #: view-maintenance faults during apply_transaction are
        #: collected into :class:`ViewMaintenanceError` *after* the base
        #: mutation and write-back, instead of aborting mid-loop.
        self.isolate_view_faults = resilience is not None
        #: When True, the buffer pool is emptied before each
        #: transaction and each view query — matching the cost model's
        #: cold-cache assumption (every formula charges full I/O).
        self.cold_operations = cold_operations
        self.relations: dict[str, Any] = {}
        self.secondary_indexes: dict[tuple[str, str], SecondaryIndex] = {}
        self.views: dict[str, "MaintenanceStrategy"] = {}
        self._views_by_relation: dict[str, list[str]] = {}
        self._deferred_coordinators: dict[str, Any] = {}
        #: Goes up on every change to what a lock plan reads — a
        #: relation created, a view hosted or dropped (so a define,
        #: migrate, rebuild or restore) — and at no other time; the
        #: serving layer recompiles its plans when it moves.
        self.catalog_epoch = 0
        self.transactions_applied = 0
        self.queries_answered = 0
        #: Catalog specs captured for checkpointing (repro.durability):
        #: the create_relation / define_view arguments needed to rebuild
        #: this catalog from persistent state.
        self._relation_specs: dict[str, dict[str, Any]] = {}
        self._view_specs: dict[str, ViewSpec] = {}
        #: Write-ahead journal hook.  When set (and not suppressed), the
        #: engine calls ``journal.log(event, payload)`` *before* applying
        #: each state-changing operation.  ``repro.durability`` owns the
        #: serialization; the engine only names the events.
        self.journal: Any = None
        self._journal_suppressed = 0

    @classmethod
    def from_parameters(cls, params: Parameters, **kwargs: Any) -> "Database":
        """Build a database whose block size matches a parameter set."""
        kwargs.setdefault("block_bytes", params.B)
        kwargs.setdefault("fanout", max(3, int(params.fanout)))
        return cls(**kwargs)

    @property
    def faults(self) -> FaultyDisk | None:
        """The fault injector, when one is installed."""
        disk = self.storage_disk
        return disk if isinstance(disk, FaultyDisk) else None

    @property
    def resilient_disk(self) -> ResilientDisk | None:
        """The retry/breaker wrapper, when one is installed."""
        disk = self.disk
        return disk if isinstance(disk, ResilientDisk) else None

    def engine_config(self) -> dict[str, Any]:
        """The sizing arguments this engine was built with.

        What a recovery twin (or the durability manifest) needs to
        rebuild an identically-shaped engine; the fault/resilience
        stack is passed separately since it is runtime policy, not
        persistent state.
        """
        return {
            "block_bytes": self.block_bytes,
            "buffer_pages": self.pool.capacity,
            "fanout": self.fanout,
            "cold_operations": self.cold_operations,
        }

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def create_relation(
        self,
        schema: Schema,
        clustered_on: str,
        kind: str = "plain",
        records: Iterable[Record] | None = None,
        ad_buckets: int = 64,
        hash_buckets: int | None = None,
    ) -> Any:
        """Create (and optionally load) a base relation; ``kind``
        names the storage, a row of :data:`KINDS`."""
        if schema.name in self.relations:
            raise CatalogError(f"relation {schema.name!r} already exists")
        if kind not in KINDS:
            raise CatalogError(
                f"unknown relation kind {kind!r}; expected plain, "
                "hypothetical, separate or hashed"
            )
        plain, differential = KINDS[kind]
        sizing = {"btree": {"fanout": self.fanout}, "hash": {"buckets": hash_buckets}}
        # Structure creation and the initial load are setup, not
        # workload: charge the setup bucket so the first query's
        # metered cost stays clean (the root-page flush of a fresh
        # B+-tree or hash directory is not workload I/O either).
        with self.meter.setup_phase():
            relation = plain(
                schema, self.pool, clustered_on,
                block_bytes=self.block_bytes, **sizing[plain.organisation],
            )
            if differential is not None:
                relation = differential(relation, ad_buckets=ad_buckets)
            self.relations[schema.name] = relation
            self.catalog_epoch += 1
            loaded: list[Record] | None = None
            if records is not None:
                loaded = list(records)
                relation.base.bulk_load(loaded)
            self.pool.flush_all()
        spec = {
            "clustered_on": clustered_on,
            "kind": kind,
            "ad_buckets": ad_buckets,
            "hash_buckets": hash_buckets,
        }
        self._relation_specs[schema.name] = spec
        self._journal("create_relation", schema=schema, records=loaded, **spec)
        return relation

    def create_secondary_index(self, relation_name: str, field: str) -> SecondaryIndex:
        """Build an in-memory secondary index on a plain relation."""
        relation = self.base_of(relation_name)
        self._catalog().check_indexable(relation)
        index = SecondaryIndex(relation, field)
        self.secondary_indexes[(relation_name, field)] = index
        return index

    def define_view(
        self,
        view: ViewSpec | ViewDefinition,
        strategy: Strategy | None = None,
        setup_bucket: bool = True,
        **options: Any,
    ) -> "MaintenanceStrategy":
        """Register a view under one maintenance strategy: a
        :class:`ViewSpec`, or a definition followed by the strategy and,
        by keyword, the spec's options.  The catalog is asked first
        (:func:`repro.maintenance.catalog.check_hosting`): a refused
        definition changes nothing.

        For materialized strategies the stored copy is built now from
        the current base content.  That materialization is charged to
        the meter's *setup bucket* (not workload counters) unless
        ``setup_bucket=False`` — migrations pass False because a
        rebuild there *is* workload cost the router must weigh.
        """
        spec = view if strategy is None else ViewSpec(view, strategy, **options)
        impl = self._host(self._check(spec, new=True), setup_bucket)
        self._journal("define_view", spec=spec)
        return impl

    def _check(self, spec: ViewSpec, new: bool = False) -> ViewSpec:
        """Ask the catalog's hosting table; every catalog operation
        does, before it journals, drops or builds anything."""
        if new and spec.name in self.views:
            raise CatalogError(f"view {spec.name!r} already exists")
        self._catalog().check_hosting(spec, self.relations, self._view_specs.values())
        return spec

    def can_host(self, spec: ViewSpec) -> bool:
        """Whether the catalog would accept ``spec`` as things stand
        (in place of the view of that name, if there is one)."""
        try:
            self._check(spec)
        except CatalogError:
            return False
        return True

    @staticmethod
    def _catalog() -> Any:
        # Imported here: the maintenance package imports the engine.
        from repro.maintenance import catalog

        return catalog

    def _host(self, spec: ViewSpec, setup_bucket: bool) -> "MaintenanceStrategy":
        """Build a checked spec's view and enter it in the catalog."""
        definition, strategy = spec.definition, spec.strategy
        builder = self.meter.setup_phase if setup_bucket else nullcontext
        with builder():
            impl = self._build_view(spec)
            if setup_bucket:
                self.pool.flush_all()
        self.views[spec.name] = impl
        self.catalog_epoch += 1
        # A join is listed under its inner relation too: inner updates
        # also affect it (an extension beyond the paper's
        # R2-is-never-updated simplification).
        for source in definition.sources:
            self._views_by_relation.setdefault(source, []).append(spec.name)
        if strategy is Strategy.DEFERRED:
            # All deferred views on one relation share a refresh
            # coordinator: one view's refresh folds the AD file down, so
            # siblings must be refreshed from the same AD read (Section
            # 4's shared-refresh optimization — and a correctness
            # requirement here).
            shared = self._deferred_coordinators.setdefault(
                definition.sources[0], impl.coordinator
            )
            if shared is not impl.coordinator:
                impl.join_coordinator(shared)
            self._hook_coordinator(shared)
        self._view_specs[spec.name] = spec
        return impl

    def _build_view(self, spec: ViewSpec) -> "MaintenanceStrategy":
        """Pair the definition's model with the strategy's class (the
        catalog has checked the pair exists, and can live on these
        relations); the strategy class names the spec options it takes.
        """
        catalog = self._catalog()
        definition, strategy = spec.definition, spec.strategy
        strategy_cls = catalog.SUPPORTED[strategy][0]
        source, *others = definition.sources
        # Deferred maintenance reads its relation through the pending
        # changes; every other strategy reads the base file.
        relation = self.base_of(source)
        screened = relation if strategy is Strategy.DEFERRED else relation.base
        model = catalog.model_class(definition)(
            definition, screened, *(self.base_of(name) for name in others),
            pool=self.pool, block_bytes=self.block_bytes, fanout=self.fanout,
        )
        model.current = relation
        offered = {
            **vars(spec),
            "index_for": lambda field: self.secondary_indexes.get((source, field))
            or self.create_secondary_index(source, field),
        }
        impl = strategy_cls(
            model, strategy, **{name: offered[name] for name in strategy_cls.options}
        )
        if strategy.is_materialized():
            model.bootstrap()
        return impl

    # ------------------------------------------------------------------
    # workload surface
    # ------------------------------------------------------------------
    def apply_transaction(self, txn: Transaction) -> DeltaSet:
        """Execute a transaction and notify affected views.

        Returns the net delta (useful for assertions in tests).
        """
        relation = self.base_of(txn.relation)
        # A view that cannot be maintained under this transaction, or a
        # transaction that would fail part-way, is refused now, before
        # it is journaled or applied.
        for view_name in self._views_by_relation.get(txn.relation, ()):
            self.views[view_name].check_transaction(txn)
        route(relation.schema, txn.operations, relation.logical_by_key)
        # Write-ahead: journal before touching any page, so a crash
        # mid-transaction replays the whole batch from the log.
        self._journal("txn", txn=txn)
        if self.cold_operations:
            self.pool.invalidate_all()
        delta = DeltaSet(txn.relation)
        for op in txn.operations:
            if isinstance(op, Insert):
                relation.insert(op.record)
                delta.add_insert(op.record)
                self._index_event(txn.relation, inserted=op.record)
            elif isinstance(op, Delete):
                old = relation.delete_by_key(op.key)
                delta.add_delete(old)
                self._index_event(txn.relation, deleted=old)
            elif isinstance(op, Update):
                old, new = relation.update_by_key(op.key, **op.changes)
                delta.add_update(old, new)
                self._index_event(txn.relation, deleted=old, inserted=new)
            else:  # pragma: no cover - exhaustive over Operation
                raise CatalogError(f"unknown operation {op!r}")
        view_failures: list[tuple[str, Exception]] = []
        for view_name in self._views_by_relation.get(txn.relation, ()):
            if self.isolate_view_faults:
                try:
                    self.views[view_name].on_transaction(txn, delta)
                except RESILIENCE_ERRORS as exc:
                    view_failures.append((view_name, exc))
            else:
                self.views[view_name].on_transaction(txn, delta)
        # Write-back: dirty pages accumulated by this transaction are
        # flushed once each, so a page touched several times in one
        # operation costs one write (the cost model's accounting).
        self.pool.flush_all()
        self.transactions_applied += 1
        if view_failures:
            # The base mutation is committed (journaled, applied,
            # flushed); only the named views' copies are suspect.
            raise ViewMaintenanceError(view_failures)
        return delta

    def query_view(
        self, name: str, lo: Any = None, hi: Any = None, refresh: bool = True
    ) -> Any:
        """Answer a view query under the view's strategy.

        ``refresh=False`` reads the stored copy as it stands instead
        (:meth:`MaintenanceStrategy.read_stored`): a periodic policy's
        off-cycle queries, a fold already run by the caller, and the
        degradation ladder's stale-read rung.
        """
        impl = self.views.get(name)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        if self.cold_operations:
            self.pool.invalidate_all()
        answer = impl.query(lo, hi) if refresh else impl.read_stored(lo, hi)
        self.pool.flush_all()
        self.queries_answered += 1
        return answer

    def logical_records(self, relation_name: str) -> list[Record]:
        """A relation's true current content: its base file plus the
        changes still pending in its differential file.  Charges no
        I/O (baselines, snapshots and the degraded-read fallback; a
        costed client pays ``scan_logical``)."""
        return self.base_of(relation_name).logical_snapshot()

    def logical_record(self, relation_name: str, key: Any) -> Record | None:
        """The tuple ``key`` names in that content, or ``None``: the
        keyed form of :meth:`logical_records`, as free of I/O."""
        return self.base_of(relation_name).logical_by_key(key)

    def reset_meter(self) -> None:
        """Zero the cost counters (typically after setup/bulk load)."""
        self.pool.flush_all()
        self.meter.reset()

    # ------------------------------------------------------------------
    # catalog changes after definition (the serving layer's surface)
    # ------------------------------------------------------------------
    def views_on(self, relation_name: str) -> tuple[str, ...]:
        """Names of the views sourced from one relation."""
        return tuple(self._views_by_relation.get(relation_name, ()))

    def view_spec(self, name: str) -> ViewSpec | None:
        """A view's catalog entry, or ``None`` for a view not in it."""
        return self._view_specs.get(name)

    def view_definition(self, name: str) -> Any:
        """The declarative definition a view was registered with."""
        impl = self.views.get(name)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        return impl.definition

    def deferred_coordinator(self, relation_name: str) -> Any:
        """The refresh coordinator that folds one relation: that of
        the deferred views reading it, as outer or as differential
        inner, or ``None``.  The planner's public handle."""
        coordinators = self._deferred_coordinators
        return coordinators.get(relation_name) or next(
            (c for c in coordinators.values() if relation_name in c.inners()), None
        )

    def deferred_relations(self) -> tuple[str, ...]:
        """Relations that currently have at least one deferred view."""
        return tuple(
            name
            for name, coordinator in self._deferred_coordinators.items()
            if coordinator.views
        )

    def settle_relation(self, relation_name: str) -> None:
        """Fold a differential relation's pending AD changes into its base.

        Query-modification plans read the *base* file, which lags the
        true relation while updates sit in the AD file — so a strategy
        migration (or any base-level read) must settle first.  Nothing
        pending (always, for a plain relation) costs nothing; otherwise
        this is one :meth:`fold_relation`.
        """
        if self.base_of(relation_name).pending:
            self.fold_relation(relation_name)

    def settle_unless_batched(self, relation_name: str) -> None:
        """Fold a hypothetical relation eagerly when nothing defers.

        Keeping relations hypothetical is what lets a view migrate back
        to deferred later, but someone must eventually fold the AD
        backlog.  The timing follows the strategies present:

        * a deferred view exists — its refresh folds (batched, the
          paper's scheme); leave the backlog alone.
        * only query-modification views — fold lazily at query time
          (the reader settles first), which batches the fold exactly
          like a deferred refresh would.
        * an immediate/snapshot-style materialized view exists (or no
          view at all) — fold now, per transaction: write-through
          semantics, the substrate the immediate cost model assumes.
        """
        strategies = {
            self.views[name].strategy
            for name in self._views_by_relation.get(relation_name, ())
        }
        if Strategy.DEFERRED in strategies:
            return
        if strategies and all(s.is_query_modification() for s in strategies):
            return
        self.settle_relation(relation_name)

    def fold_relation(self, relation_name: str) -> None:
        """One refresh epoch of a differential relation, unconditionally.

        The paper's on-demand refresh: the AD file is read even when it
        turns out to hold nothing.  When deferred views read the
        relation (as outer or inner) the fold goes through their shared
        coordinator so every one of them is refreshed from the same AD
        read (dropping the batch would corrupt them); otherwise the
        relation folds directly.  Nothing else folds a differential
        file.  Charges the normal refresh I/O.
        """
        coordinator = self.deferred_coordinator(relation_name)
        if coordinator is not None and coordinator.views:
            coordinator.refresh_all()
        else:
            self._journal("net_install", relation=relation_name)
            self.base_of(relation_name).reset()
        self.pool.flush_all()

    def drop_view(self, name: str) -> None:
        """Remove a view and free its stored copy's pages.

        Deferred views are simply deregistered from their coordinator —
        the relation's AD backlog stays for the remaining siblings (or
        for :meth:`settle_relation`).  Page deallocation is a catalog
        operation and charges no I/O, like the paper's file drops.
        """
        impl = self.views.pop(name, None)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        self._view_specs.pop(name, None)
        self.catalog_epoch += 1
        self._journal("drop_view", view=name)
        for view_names in self._views_by_relation.values():
            while name in view_names:
                view_names.remove(name)
        if impl.strategy is Strategy.DEFERRED:
            coordinator = impl.coordinator
            coordinator.deregister(impl)
            for rel_name, shared in list(self._deferred_coordinators.items()):
                if shared is coordinator and not coordinator.views:
                    del self._deferred_coordinators[rel_name]
        impl.model.free()

    def migrate_view(
        self, name: str, strategy: Strategy, **options: Any
    ) -> "MaintenanceStrategy":
        """Re-register a view under a different maintenance strategy
        (``options`` as for :meth:`define_view`).

        The old implementation is dropped, the source relations settled
        (so a rebuild reads current data), and the view defined afresh.
        All I/O this incurs — the settle plus, for materialized
        targets, the bulk load of the new stored copy — stays on the
        meter: it *is* the migration's cost, which the adaptive router
        weighs against the steady-state win.  A migration the catalog
        refuses changes nothing: the view stays as it is.
        """
        impl = self.views.get(name)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        if impl.strategy is strategy:
            return impl
        spec = self._check(ViewSpec(impl.definition, strategy, **options))
        # One composite journal record; the drop/settle/define inside
        # are replayed as a unit by re-running migrate_view.
        self._journal("migrate", spec=spec)
        return self._redefine(spec)

    def rebuild_view(self, name: str) -> "MaintenanceStrategy":
        """Rebuild one view's stored state from its base relation(s).

        The repair primitive for a damaged materialized copy: drop the
        view (page deallocation never *reads* the damaged pages), settle
        the source relations so the base files reflect every pending
        change, and re-define the view under its own spec.
        All I/O stays on the meter — repair cost is workload cost.

        Journaled as one composite ``rebuild_view`` event (like
        ``migrate``), so replaying the log reproduces the repair
        deterministically.
        """
        if name not in self.views:
            raise CatalogError(f"unknown view {name!r}")
        spec = self._check(self._view_specs[name])
        self._journal("rebuild_view", view=name)
        return self._redefine(spec)

    def restore_view(
        self,
        view: ViewSpec | ViewDefinition,
        strategy: Strategy | None = None,
        **options: Any,
    ) -> "MaintenanceStrategy":
        """Re-create a view lost mid-composite-operation (repair path;
        arguments as for :meth:`define_view`).

        A fault between a composite operation's drop and its re-define
        (e.g. mid-``migrate``) can leave the view absent from the
        catalog.  The composite journal record is already in the WAL and
        replays the whole operation, so this restore is deliberately
        *not* journaled — journaling it again would double-apply on
        replay.
        """
        spec = view if strategy is None else ViewSpec(view, strategy, **options)
        return self._redefine(self._check(spec, new=True))

    def _redefine(self, spec: ViewSpec) -> "MaintenanceStrategy":
        """Drop (if present) -> settle the sources -> define -> flush.

        The body of every composite catalog operation; the caller has
        asked the catalog and journaled (or deliberately not journaled)
        the composite record, so nothing inside is journaled again.
        The settle comes before the define because a freshly defined
        deferred view has no screening markers: AD entries still pending
        at that point — in any source — would never reach it, so the
        bulk load must read base files that already contain them.  The
        rebuild charges workload counters, not the setup bucket.
        """
        with self._journal_paused():
            if spec.name in self.views:
                self.drop_view(spec.name)
            for source in spec.definition.sources:
                self.settle_relation(source)
            impl = self._host(spec, setup_bucket=False)
        self.pool.flush_all()
        return impl

    # ------------------------------------------------------------------
    # durability hooks (repro.durability)
    # ------------------------------------------------------------------
    def attach_journal(self, journal: Any) -> None:
        """Arm write-ahead journaling: ``journal.log(event, payload)``
        is called before every state-changing operation.  Pass ``None``
        to detach (recovery replays with the journal detached)."""
        self.journal = journal
        if journal is not None:
            for coordinator in self._deferred_coordinators.values():
                self._hook_coordinator(coordinator)

    def catalog_specs(self) -> dict[str, Any]:
        """The create_relation/define_view arguments of the live catalog
        (what a checkpoint needs to rebuild it)."""
        return {
            "relations": {
                name: dict(spec) for name, spec in self._relation_specs.items()
            },
            "views": dict(self._view_specs),
            "secondary_indexes": sorted(self.secondary_indexes),
        }

    def _journal(self, event: str, **payload: Any) -> None:
        if self.journal is not None and not self._journal_suppressed:
            self.journal.log(event, payload)

    @contextmanager
    def _journal_paused(self) -> Any:
        self._journal_suppressed += 1
        try:
            yield
        finally:
            self._journal_suppressed -= 1

    def _hook_coordinator(self, coordinator: Any) -> None:
        """Journal coordinator folds (query-triggered deferred refresh)."""
        coordinator.on_refresh = partial(
            self._journal, "net_install", relation=coordinator.relation.schema.name
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def base_of(self, relation_name: str) -> Any:
        """The base relation of that name; ``CatalogError`` if none."""
        relation = self.relations.get(relation_name)
        if relation is None:
            raise CatalogError(f"unknown relation {relation_name!r}")
        return relation

    def _index_event(
        self,
        relation_name: str,
        inserted: Record | None = None,
        deleted: Record | None = None,
    ) -> None:
        for (rel, _), index in self.secondary_indexes.items():
            if rel != relation_name:
                continue
            if deleted is not None:
                index.on_delete(deleted)
            if inserted is not None:
                index.on_insert(inserted)

