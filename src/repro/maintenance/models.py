"""The three view models of Section 3.1: what is stored, and how it changes.

A model owns everything that depends on the *shape* of the view and
nothing that depends on *when* maintenance runs:

* ``bootstrap`` — build the stored copy from the base file's content;
* ``apply`` — the differential update: already-screened ("marked")
  inserted and deleted base tuples become changes to the stored copy;
* ``read`` — answer from the stored copy as it stands;
* ``recompute`` — answer from the base relations (the paper's query
  modification plans; also what a snapshot rebuilds from);
* ``stored_files`` / ``free`` / ``full_recomputes`` — the disk files
  the copy lives in, dropping them, and how often the copy was rebuilt
  wholesale;
* ``check_transaction`` — refuse a transaction the copy could not be
  maintained under, *before* the engine journals or applies it;
* ``state_doc`` / ``restore_state`` — durable state for checkpoints.

The strategies of this package (immediate, deferred, query
modification, snapshot, hybrid) hold one model each and decide only
when to screen and when to call ``apply``, ``read`` or ``recompute``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence

from repro.core.strategies import Strategy, ViewModel
from repro.engine import executor
from repro.engine.database import UnsupportedTransactionError
from repro.engine.transaction import Transaction
from repro.storage.pager import BufferPool
from repro.storage.tuples import Record
from repro.views.definition import ViewTuple
from repro.views.delta import ChangeSet, DeltaSet
from repro.views.matview import AggregateStateStore, MaterializedView

__all__ = ["PLANS", "Model", "SelectProjectModel", "JoinModel", "AggregateModel"]

#: Model 1's recompute plans, and the curve each is plotted under.
PLANS = {
    "clustered": Strategy.QM_CLUSTERED,
    "unclustered": Strategy.QM_UNCLUSTERED,
    "sequential": Strategy.QM_SEQUENTIAL,
}
_STRATEGY_PLANS = {strategy: plan for plan, strategy in PLANS.items()}


#: Already-screened base tuples, as a strategy hands them to ``apply``.
Marked = Sequence[Record]


def _bounds(lo: Any, hi: Any) -> tuple[Any, Any]:
    """A view query's range; ``None`` bounds mean unbounded."""
    return (-math.inf if lo is None else lo, math.inf if hi is None else hi)


def _signed(inserted: Iterable[Record], deleted: Iterable[Record]):
    return [(r, +1) for r in inserted] + [(r, -1) for r in deleted]


def _change(changes: ChangeSet, vt: ViewTuple, sign: int) -> None:
    if sign > 0:
        changes.insert(vt)
    else:
        changes.delete(vt)


class Model:
    """What a strategy may ask of its view model (see the module doc)."""

    #: Which of the paper's three structures this is.
    number: ViewModel
    label: str

    def __init__(
        self,
        definition: Any,
        relation: Any,
        *,
        pool: BufferPool,
        block_bytes: int,
        fanout: int,
    ) -> None:
        self.definition = definition
        #: The relation whose deltas are screened and whose tuples are
        #: read: plain clustered storage, or the hypothetical relation
        #: itself (reads then see pending changes) when maintenance is
        #: deferred.
        self.relation = relation
        #: The same relation as it stands, pending changes included: the
        #: differential relation whose base file ``relation`` is, when
        #: maintenance reads the base (the engine sets it).
        self.current = relation
        self.pool = pool
        self.block_bytes = block_bytes
        self.fanout = fanout
        #: The duplicate-counted stored copy of a tuple view (Models 1
        #: and 2); ``None`` until :meth:`bootstrap`, and for aggregates.
        self.matview: MaterializedView | None = None

    #: A join's inner relation; ``None`` for single-relation models.
    inner: Any = None

    @property
    def base(self) -> Any:
        """The base file of :attr:`relation` (pending changes excluded)."""
        return self.relation.base

    # -- recomputation -------------------------------------------------
    def plan_recompute(self, strategy: Strategy, **options: Any) -> Strategy:
        """Adopt this model's query-modification plan (the catalog has
        validated it) and name the paper's curve it is plotted under."""
        raise NotImplementedError

    def recompute(self, lo: Any = None, hi: Any = None) -> Any:
        """Answer from the base relations."""
        raise NotImplementedError

    # -- the stored copy -----------------------------------------------
    def bootstrap(self) -> None:
        """Build the stored copy from the base file's current content."""
        raise NotImplementedError

    def apply(self, marked_inserted: Marked, marked_deleted: Marked) -> None:
        """The differential update of the stored copy."""
        raise NotImplementedError

    def read(self, lo: Any = None, hi: Any = None) -> Any:
        """Range-read the stored tuple copy at ``c1`` per tuple read."""
        result = self.matview.read_range(*_bounds(lo, hi))
        self.relation.meter.record_screen(len(result))
        return result

    @staticmethod
    def stored_files(name: str) -> tuple[str, ...]:
        """Disk files the stored copy of a view called ``name`` lives in."""
        return (f"view.{name}.leaf", f"view.{name}.int")

    def free(self) -> None:
        """Deallocate the stored copy's pages (catalog drop; no I/O)."""
        if self.matview is not None:
            self.matview.tree.reset()

    @property
    def full_recomputes(self) -> int:
        """Times the stored copy was (re)built from scratch."""
        matview = self.matview
        return 0 if matview is None else matview.bulk_loads + matview.rebuilds

    def _new_matview(self, tuple_bytes: int) -> MaterializedView:
        definition = self.definition
        return MaterializedView(
            definition.name, self.pool, definition.view_key,
            records_per_page=max(1, self.block_bytes // max(1, tuple_bytes)),
            fanout=self.fanout,
        )

    # -- transactions ---------------------------------------------------
    def check_transaction(self, txn: Transaction) -> None:
        """Raise when the stored copy cannot be maintained under ``txn``."""

    def track(self, delta: DeltaSet) -> None:
        """Note a committed delta of :attr:`relation` (before screening)."""

    # -- durability -----------------------------------------------------
    def state_doc(self) -> dict[str, Any]:
        """Model state a checkpoint must carry (beyond the stored pages)."""
        return {}

    def restore_state(self, doc: dict[str, Any]) -> None:
        """Adopt checkpointed state once base and AD files are restored."""


class SelectProjectModel(Model):
    """Model 1: ``V = pi(sigma(R))`` as a duplicate-counted B+-tree."""

    number = ViewModel.SELECT_PROJECT
    label = "select-project"

    #: The access plan :meth:`recompute` is pinned to; ``None`` picks
    #: clustered when the queried field allows it, else sequential.
    plan: str | None = None
    secondary_index: executor.SecondaryIndex | None = None

    @staticmethod
    def plan_for(strategy: Strategy, plan: str | None) -> str:
        """The plan a view asked for, or its strategy's default one."""
        return plan or _STRATEGY_PLANS.get(strategy, "clustered")

    def plan_recompute(
        self,
        strategy: Strategy,
        plan: str | None,
        index_field: str | None,
        index_for: Callable[[str], executor.SecondaryIndex],
    ) -> Strategy:
        self.plan = self.plan_for(strategy, plan)
        if self.plan == "unclustered":
            self.secondary_index = index_for(index_field or self.definition.view_key)
        return PLANS[self.plan]

    def recompute(
        self, lo: Any = None, hi: Any = None, field: str | None = None
    ) -> list[ViewTuple]:
        """Range query on ``field`` (default: the view key) over ``R``."""
        lo, hi = _bounds(lo, hi)
        field = field or self.definition.view_key
        relation, predicate = self.relation, self.definition.predicate
        meter = relation.meter
        if self.plan == "unclustered":
            records = executor.unclustered_scan(
                relation, self.secondary_index, lo, hi, predicate, meter
            )
        elif self.plan != "sequential" and field == relation.clustered_on:
            records = executor.clustered_scan(relation, lo, hi, predicate, meter)
        else:
            records = [
                r
                for r in executor.sequential_scan(relation, predicate, meter)
                if lo <= r[field] <= hi
            ]
        return [self.definition.project(r) for r in records]

    def bootstrap(self) -> None:
        # Half the attributes are projected: view tuples are half the
        # base tuple size, doubling the blocking factor (the paper's
        # fb/2 view size).
        self.matview = self._new_matview(max(1, self.base.schema.tuple_bytes // 2))
        self.matview.bulk_load(self.definition.evaluate(self.base.records_snapshot()))

    def rebuild(self) -> None:
        """Replace the copy wholesale from one scan of the selected set."""
        records = executor.selection_scan(
            self.relation, self.definition.predicate, self.relation.meter
        )
        self.matview.rebuild([self.definition.project(r) for r in records])

    def apply(self, marked_inserted: Marked, marked_deleted: Marked) -> None:
        if not (marked_inserted or marked_deleted):
            return
        changes = ChangeSet()
        for record, sign in _signed(marked_inserted, marked_deleted):
            _change(changes, self.definition.project(record), sign)
        self.matview.apply_changes(changes)

    def read(
        self, lo: Any = None, hi: Any = None, field: str | None = None
    ) -> list[ViewTuple]:
        """Range query on a projected ``field`` over the stored copy:
        a range read on the view key, a full view scan on any other."""
        if field is None or field == self.definition.view_key:
            return super().read(lo, hi)
        lo, hi = _bounds(lo, hi)
        candidates = list(self.matview.scan_all())
        self.relation.meter.record_screen(len(candidates))
        return [vt for vt in candidates if lo <= vt[field] <= hi]


class JoinModel(Model):
    """Model 2: natural join of ``R1`` (outer) and ``R2`` (hashed inner).

    The paper's Model 2 never updates ``R2``; this model also takes
    inner-side deltas.  One transaction or one deferred batch changes
    the view by the telescoped two-sided differential update

        ΔV = Δ1 × R2_old  +  R1_new × Δ2

    — marked outer deltas probe the *pre-change* inner state, inner
    deltas fetch their joining outer tuples from the *post-change*
    outer state through an in-memory join index.  Under immediate
    maintenance each transaction touches one side, so one term is
    empty; a deferred batch over a ``hashed_hypothetical`` inner
    relation evaluates both, from the refresh epoch's one read of the
    inner AD file.
    """

    number = ViewModel.JOIN
    label = "join"

    def __init__(
        self, definition: Any, relation: Any, inner: Any, **storage: Any
    ) -> None:
        super().__init__(definition, relation, **storage)
        #: The hashed inner relation; when it is differential, inner
        #: updates wait in an AD file of their own.
        self.inner = inner
        #: join value -> outer keys, kept current with every outer
        #: transaction (in-memory, like a resident secondary index; no
        #: I/O charged).
        self._outer_by_join: dict[Any, set] = {}

    def plan_recompute(self, strategy: Strategy, **options: Any) -> Strategy:
        return Strategy.QM_LOOPJOIN

    def recompute(self, lo: Any = None, hi: Any = None) -> list[ViewTuple]:
        """Nested loops over the clustered outer and the hashed inner."""
        lo, hi = _bounds(lo, hi)
        return executor.nested_loop_join(
            self.definition, self.relation, self.inner.file, lo, hi, self.relation.meter
        )

    def bootstrap(self) -> None:
        # Half of each side's attributes are projected: result tuples
        # are the same S bytes as base tuples (the paper's fb view size).
        base, inner = self.base, self.inner
        self.matview = self._new_matview(
            max(1, (base.schema.tuple_bytes + inner.schema.tuple_bytes) // 2)
        )
        outer_records = base.records_snapshot()
        self.matview.bulk_load(
            self.definition.evaluate(outer_records, inner.base.records_snapshot())
        )
        self._outer_by_join.clear()
        self._index_outer(outer_records)

    def check_transaction(self, txn: Transaction) -> None:
        if (
            txn.relation == self.definition.inner
            and self.relation.differential
            and not self.inner.differential
        ):
            raise UnsupportedTransactionError(
                f"deferred join view {self.definition.name!r}: its inner relation "
                f"{txn.relation!r} is plain hashed storage; create it with "
                "kind='hashed_hypothetical' to defer inner updates, or use "
                "Strategy.IMMEDIATE"
            )

    def track(self, delta: DeltaSet) -> None:
        self._index_outer(delta.inserted, delta.deleted)

    def _index_outer(
        self, inserted: Iterable[Record], deleted: Iterable[Record] = ()
    ) -> None:
        field = self.definition.join_field
        index = self._outer_by_join
        for record in deleted:
            keys = index.get(record[field])
            if keys is not None:
                keys.discard(record.key)
                if not keys:
                    del index[record[field]]
        for record in inserted:
            index.setdefault(record[field], set()).add(record.key)

    def restore_state(self, doc: dict[str, Any]) -> None:
        # Only deferred maintenance has state to restore, so the outer
        # relation is hypothetical.  The index covers its *logical*
        # content: bootstrap saw the base file only, and the changes
        # restored into the AD file were tracked as they arrived.
        self._outer_by_join.clear()
        self._index_outer(self.relation.logical_snapshot())

    def apply(
        self, marked_inserted: Marked, marked_deleted: Marked, inner: Any = None
    ) -> None:
        """``inner``: the refresh epoch's read of a differential inner
        relation, which the epoch folds (``InnerBatch``), not the model."""
        changes = ChangeSet()
        self._outer_term(changes, marked_inserted, marked_deleted)
        if inner is not None:
            self._inner_term(changes, inner.read())
            inner.done()
        if changes:
            self.matview.apply_changes(changes)

    def apply_inner(self, delta: DeltaSet) -> bool:
        """Apply one inner-side transaction's delta now (immediate
        maintenance); returns whether any outer tuple joined it."""
        changes = ChangeSet()
        touched = self._inner_term(changes, delta)
        if changes:
            self.matview.apply_changes(changes)
        return touched

    def _outer_term(
        self, changes: ChangeSet, inserted: Marked, deleted: Marked
    ) -> None:
        """``Δ1 × R2_old``: each marked outer tuple probes the inner
        hash file (``c2`` I/O, shared across the batch via pinning — the
        paper's "pages read for the first join stay in the buffer pool
        for the second") and each joining pair costs ``c1`` to match.
        A deferred inner is probed in its base file, the pre-batch state.
        """
        definition, meter = self.definition, self.relation.meter
        inner = self.inner
        probe = inner.probe_base if inner.differential else inner.probe_pinned
        try:
            for record, sign in _signed(inserted, deleted):
                for inner_record in probe(record[definition.join_field]):
                    meter.record_screen()
                    _change(changes, definition.combine(record, inner_record), sign)
        finally:
            if not inner.differential:
                inner.pool.unpin_all()

    def _inner_term(self, changes: ChangeSet, delta: DeltaSet) -> bool:
        """``R1_new × Δ2``: each changed inner tuple fetches its joining
        outer tuples at one I/O apiece (mirroring the outer side's hash
        probes) and tests the view predicate on each at ``c1``."""
        definition, meter = self.definition, self.relation.meter
        touched = False
        for inner_record, sign in _signed(delta.inserted, delta.deleted):
            join_value = inner_record[definition.join_field]
            for outer_key in sorted(self._outer_by_join.get(join_value, ())):
                # The index is of the outer's current content, and so is
                # the tuple read: a base file behind an AD backlog is not.
                outer = self.current.read_by_key(outer_key)
                if outer is None:
                    continue
                meter.record_screen()
                if definition.predicate.matches(outer):
                    _change(changes, definition.combine(outer, inner_record), sign)
                    touched = True
        return touched


class AggregateModel(Model):
    """Model 3: an aggregate over a Model-1 selection, in one state page."""

    number = ViewModel.AGGREGATE
    label = "aggregate"

    store: AggregateStateStore | None = None

    def plan_recompute(self, strategy: Strategy, **options: Any) -> Strategy:
        return Strategy.QM_CLUSTERED

    def recompute(self, lo: Any = None, hi: Any = None) -> Any:
        """Recompute the scalar from one scan of the selected set
        (aggregates ignore the query range)."""
        return self.definition.evaluate(
            executor.selection_scan(
                self.relation, self.definition.predicate, self.relation.meter
            )
        )

    def bootstrap(self) -> None:
        definition = self.definition
        function = definition.function()
        self.store = AggregateStateStore(definition.name, self.pool, function)
        state = function.initial_state()
        for record in self.base.records_snapshot():
            if definition.predicate.matches(record):
                function.insert(state, record[definition.field])
        self.store.write_state(state)

    def apply(self, marked_inserted: Marked, marked_deleted: Marked) -> None:
        field = self.definition.field
        self.store.apply(
            [r[field] for r in marked_inserted], [r[field] for r in marked_deleted]
        )

    def read(self, lo: Any = None, hi: Any = None) -> Any:
        """One state-page read."""
        return self.store.value()

    @staticmethod
    def stored_files(name: str) -> tuple[str, ...]:
        return (f"agg.{name}",)

    def free(self) -> None:
        if self.store is not None:
            self.store.free()
