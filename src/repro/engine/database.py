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
from functools import partial
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.core.parameters import Parameters
from repro.core.strategies import Strategy
from repro.hr.differential import (
    ClusteredRelation,
    DifferentialRelation,
    HypotheticalRelation,
    SeparateFilesHR,
)
from repro.resilience.faults import FaultProfile, FaultyDisk
from repro.resilience.policy import RESILIENCE_ERRORS, ResilienceConfig, ResilientDisk
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.storage.tuples import Record, Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.delta import DeltaSet
from .executor import SecondaryIndex
from .relations import HashedRelation
from .transaction import Delete, Insert, Transaction, Update

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.maintenance.base import MaintenanceStrategy

__all__ = [
    "Database",
    "CatalogError",
    "UnsupportedTransactionError",
    "ViewMaintenanceError",
]

BaseRelation = ClusteredRelation | HashedRelation


class CatalogError(ValueError):
    """Invalid catalog operation (unknown names, bad combinations)."""


class UnsupportedTransactionError(CatalogError, NotImplementedError):
    """A transaction some affected view cannot be maintained under.

    Raised by :meth:`Database.apply_transaction` *before* the
    transaction is journaled or any page is touched, so refusing it
    leaves no trace.  Also a ``NotImplementedError``: the catalog knows
    the relation and the view, it has no way to maintain the pair.
    """


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
        self.relations: dict[str, BaseRelation | HypotheticalRelation] = {}
        self.secondary_indexes: dict[tuple[str, str], SecondaryIndex] = {}
        self.views: dict[str, "MaintenanceStrategy"] = {}
        self._views_by_relation: dict[str, list[str]] = {}
        self._deferred_coordinators: dict[str, Any] = {}
        self.transactions_applied = 0
        self.queries_answered = 0
        #: Catalog specs captured for checkpointing (repro.durability):
        #: the create_relation / define_view arguments needed to rebuild
        #: this catalog from persistent state.
        self._relation_specs: dict[str, dict[str, Any]] = {}
        self._view_specs: dict[str, dict[str, Any]] = {}
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
    ) -> BaseRelation | HypotheticalRelation:
        """Create (and optionally load) a base relation.

        ``kind`` selects the storage wrapper:

        * ``"plain"`` — clustered B+-tree (query modification, immediate)
        * ``"hypothetical"`` — B+-tree + combined AD file (deferred)
        * ``"separate"`` — B+-tree + separate A/D files (ablation)
        * ``"hashed"`` — clustered hash file (the join inner ``R2``)
        * ``"hashed_hypothetical"`` — hash file + AD file (deferred
          join views with inner-side updates)
        """
        if schema.name in self.relations:
            raise CatalogError(f"relation {schema.name!r} already exists")
        # Structure creation and the initial load are setup, not
        # workload: charge the setup bucket so the first query's
        # metered cost stays clean (the root-page flush of a fresh
        # B+-tree or hash directory is not workload I/O either).
        with self.meter.setup_phase():
            relation = self._build_relation(
                schema, clustered_on, kind, ad_buckets, hash_buckets
            )
            self.relations[schema.name] = relation
            loaded: list[Record] | None = None
            if records is not None:
                loaded = list(records)
                loader = relation.base if hasattr(relation, "base") else relation
                loader.bulk_load(loaded)
            self.pool.flush_all()
        self._relation_specs[schema.name] = {
            "clustered_on": clustered_on,
            "kind": kind,
            "ad_buckets": ad_buckets,
            "hash_buckets": hash_buckets,
        }
        self._journal(
            "create_relation",
            schema=schema,
            clustered_on=clustered_on,
            kind=kind,
            ad_buckets=ad_buckets,
            hash_buckets=hash_buckets,
            records=loaded,
        )
        return relation

    def _build_relation(
        self,
        schema: Schema,
        clustered_on: str,
        kind: str,
        ad_buckets: int,
        hash_buckets: int | None,
    ) -> BaseRelation | HypotheticalRelation:
        if kind in ("hashed", "hashed_hypothetical"):
            hashed = HashedRelation(
                schema, self.pool, clustered_on,
                block_bytes=self.block_bytes, buckets=hash_buckets,
            )
            if kind == "hashed_hypothetical":
                from repro.hr.hashed import HashedHypotheticalRelation

                relation: Any = HashedHypotheticalRelation(
                    hashed, ad_buckets=ad_buckets
                )
            else:
                relation = hashed
        else:
            base = ClusteredRelation(
                schema, self.pool, clustered_on,
                block_bytes=self.block_bytes, fanout=self.fanout,
            )
            if kind == "plain":
                relation = base
            elif kind == "hypothetical":
                relation = HypotheticalRelation(base, ad_buckets=ad_buckets)
            elif kind == "separate":
                relation = SeparateFilesHR(base, ad_buckets=ad_buckets)
            else:
                raise CatalogError(
                    f"unknown relation kind {kind!r}; expected plain, "
                    "hypothetical, separate or hashed"
                )
        return relation

    def create_secondary_index(self, relation_name: str, field: str) -> SecondaryIndex:
        """Build an in-memory secondary index on a plain relation."""
        base = self._base_of(relation_name)
        if not isinstance(base, ClusteredRelation):
            raise CatalogError("secondary indexes require a tree-clustered relation")
        index = SecondaryIndex(base, field)
        self.secondary_indexes[(relation_name, field)] = index
        return index

    def define_view(
        self,
        definition: SelectProjectView | JoinView | AggregateView,
        strategy: Strategy,
        plan: str | None = None,
        index_field: str | None = None,
        refresh_every: int = 10,
        setup_bucket: bool = True,
    ) -> "MaintenanceStrategy":
        """Register a view under one maintenance strategy.

        For materialized strategies the stored copy is built now from
        the current base content.  That materialization is charged to
        the meter's *setup bucket* (not workload counters) unless
        ``setup_bucket=False`` — migrations pass False because a
        rebuild there *is* workload cost the router must weigh.
        """
        if definition.name in self.views:
            raise CatalogError(f"view {definition.name!r} already exists")
        builder = self.meter.setup_phase if setup_bucket else nullcontext
        with builder():
            impl = self._build_view(
                definition, strategy,
                plan=plan, index_field=index_field, refresh_every=refresh_every,
            )
            if setup_bucket:
                self.pool.flush_all()
        self.views[definition.name] = impl
        # A join is listed under its inner relation too: inner updates
        # also affect it (an extension beyond the paper's
        # R2-is-never-updated simplification).
        for source in definition.sources:
            self._views_by_relation.setdefault(source, []).append(definition.name)
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
        spec = {
            "definition": definition,
            "strategy": strategy,
            "plan": plan,
            "index_field": index_field,
            "refresh_every": refresh_every,
        }
        self._view_specs[definition.name] = spec
        self._journal("define_view", **{**spec, "strategy": strategy.value})
        return impl

    def _build_view(
        self,
        definition: SelectProjectView | JoinView | AggregateView,
        strategy: Strategy,
        **options: Any,
    ) -> "MaintenanceStrategy":
        """Pair the definition's model with the strategy's class.

        Which pairs exist is :data:`repro.maintenance.catalog.SUPPORTED`;
        the strategy class names the ``define_view`` options it takes.
        """
        # Imported here: the maintenance package imports the engine.
        from repro.maintenance.catalog import model_class, strategy_class

        model_cls = model_class(definition)
        strategy_cls = strategy_class(strategy, model_cls)
        source, *others = definition.sources
        # Deferred maintenance reads its relation through the pending
        # changes; every other strategy reads the base file.
        screened = (
            self._base_of(source)
            if strategy is Strategy.DEFERRED
            else self._plain_base(source)
        )
        model = model_cls(
            definition, screened, *(self._base_of(name) for name in others),
            pool=self.pool, block_bytes=self.block_bytes, fanout=self.fanout,
        )
        options["index_for"] = lambda field: self.secondary_indexes.get(
            (source, field)
        ) or self.create_secondary_index(source, field)
        impl = strategy_cls(
            model, strategy, **{name: options[name] for name in strategy_cls.options}
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
        relation = self.relations.get(txn.relation)
        if relation is None:
            raise CatalogError(f"unknown relation {txn.relation!r}")
        # A view that cannot be maintained under this transaction
        # refuses it now, before it is journaled or applied.
        for view_name in self._views_by_relation.get(txn.relation, ()):
            self.views[view_name].check_transaction(txn)
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
        relation = self._base_of(relation_name)
        if isinstance(relation, DifferentialRelation):
            return relation.logical_snapshot()
        return relation.records_snapshot()

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

    def view_definition(self, name: str) -> Any:
        """The declarative definition a view was registered with."""
        impl = self.views.get(name)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        return impl.definition

    def deferred_coordinator(self, relation_name: str) -> Any:
        """The shared refresh coordinator of one relation's deferred
        views, or ``None`` when the relation has none.  The planner's
        public handle (:mod:`repro.maintenance.planner`)."""
        return self._deferred_coordinators.get(relation_name)

    def deferred_relations(self) -> tuple[str, ...]:
        """Relations that currently have at least one deferred view."""
        return tuple(
            name
            for name, coordinator in self._deferred_coordinators.items()
            if coordinator.views
        )

    def settle_relation(self, relation_name: str) -> None:
        """Fold a hypothetical relation's pending AD changes into its base.

        Query-modification plans read the *base* file, which lags the
        true relation while updates sit in the AD file — so a strategy
        migration (or any base-level read) must settle first.  Nothing
        pending (or not a hypothetical relation) costs nothing;
        otherwise this is one :meth:`fold_relation`.
        """
        relation = self._base_of(relation_name)
        if isinstance(relation, HypotheticalRelation) and relation.ad_entry_count():
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
        """One refresh epoch of a hypothetical relation, unconditionally.

        The paper's on-demand refresh: the AD file is read even when it
        turns out to hold nothing.  When deferred views exist the fold
        goes through their shared coordinator so every sibling is
        refreshed from the same AD read (dropping the batch would
        corrupt them); otherwise the relation folds directly.  Charges
        the normal refresh I/O.
        """
        coordinator = self._deferred_coordinators.get(relation_name)
        if coordinator is not None and coordinator.views:
            coordinator.refresh_all()
        else:
            self._journal("net_install", relation=relation_name)
            self._base_of(relation_name).reset()
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
        self,
        name: str,
        strategy: Strategy,
        plan: str | None = None,
        index_field: str | None = None,
        refresh_every: int = 10,
    ) -> "MaintenanceStrategy":
        """Re-register a view under a different maintenance strategy.

        The old implementation is dropped, the source relation settled
        (so a rebuild reads current data), and the view defined afresh.
        All I/O this incurs — the settle plus, for materialized
        targets, the bulk load of the new stored copy — stays on the
        meter: it *is* the migration's cost, which the adaptive router
        weighs against the steady-state win.
        """
        impl = self.views.get(name)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        if impl.strategy is strategy:
            return impl
        # One composite journal record; the drop/settle/define inside
        # are replayed as a unit by re-running migrate_view.
        options = {
            "plan": plan, "index_field": index_field, "refresh_every": refresh_every
        }
        self._journal("migrate", view=name, strategy=strategy.value, **options)
        return self._redefine(impl.definition, strategy, **options)

    def rebuild_view(self, name: str) -> "MaintenanceStrategy":
        """Rebuild one view's stored state from its base relation(s).

        The repair primitive for a damaged materialized copy: drop the
        view (page deallocation never *reads* the damaged pages), settle
        the source relation so the base reflects every pending change,
        and re-define the view under its original strategy and options.
        All I/O stays on the meter — repair cost is workload cost.

        Journaled as one composite ``rebuild_view`` event (like
        ``migrate``), so replaying the log reproduces the repair
        deterministically.
        """
        if name not in self.views:
            raise CatalogError(f"unknown view {name!r}")
        spec = dict(self._view_specs[name])
        self._journal("rebuild_view", view=name)
        return self._redefine(spec.pop("definition"), spec.pop("strategy"), **spec)

    def restore_view(
        self,
        definition: SelectProjectView | JoinView | AggregateView,
        strategy: Strategy,
    ) -> "MaintenanceStrategy":
        """Re-create a view lost mid-composite-operation (repair path).

        A fault between a composite operation's drop and its re-define
        (e.g. mid-``migrate``) can leave the view absent from the
        catalog.  The composite journal record is already in the WAL and
        replays the whole operation, so this restore is deliberately
        *not* journaled — journaling it again would double-apply on
        replay.
        """
        if definition.name in self.views:
            raise CatalogError(f"view {definition.name!r} already exists")
        return self._redefine(definition, strategy)

    def _redefine(
        self,
        definition: SelectProjectView | JoinView | AggregateView,
        strategy: Strategy,
        **options: Any,
    ) -> "MaintenanceStrategy":
        """Drop (if present) -> settle the source -> define -> flush.

        The body of every composite catalog operation; the caller has
        already journaled (or deliberately not journaled) the composite
        record, so nothing inside is journaled again.  The settle comes
        before the define because a freshly defined deferred view has
        no screening markers: AD entries still pending at that point
        would never reach it, so the bulk load must read a base that
        already contains them.  The rebuild charges workload counters,
        not the setup bucket.
        """
        with self._journal_paused():
            if definition.name in self.views:
                self.drop_view(definition.name)
            self.settle_relation(definition.sources[0])
            impl = self.define_view(
                definition, strategy, setup_bucket=False, **options
            )
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
            "views": {name: dict(spec) for name, spec in self._view_specs.items()},
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
    def _base_of(self, relation_name: str) -> Any:
        relation = self.relations.get(relation_name)
        if relation is None:
            raise CatalogError(f"unknown relation {relation_name!r}")
        return relation

    def _plain_base(self, relation_name: str) -> ClusteredRelation:
        relation = self._base_of(relation_name)
        if isinstance(relation, HypotheticalRelation):
            return relation.base
        if isinstance(relation, ClusteredRelation):
            return relation
        raise CatalogError(
            f"relation {relation_name!r} is not tree-clustered"
        )

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
