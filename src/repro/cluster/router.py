"""The front-end router: one address for an N-shard cluster.

:class:`ClusterRouter` owns the shard worker processes and presents
the same traffic surface as a single :class:`ViewServer` — ``query``,
``apply_update``, ``refresh_epoch``, metrics — while underneath:

* **routing** — a query whose range lies inside one shard's partition
  (range scheme, view keyed on the partition field) goes straight to
  that worker; everything else scatters to the owning shards and the
  answers are gathered and merged (tuples concatenated in view-key
  order, ``sum``/``count`` aggregates summed, ``min``/``max`` folded);
* **keys** — updates address tuples by primary key, but placement is
  by partition field, so the router keeps a key directory
  ``(relation, key) -> shard``.  An update that moves a tuple across
  the partition boundary becomes an explicit cross-shard *move*
  (insert on the new owner first, then delete on the old — a failure
  mid-move can duplicate a tuple transiently but never lose one), each
  half a normal maintained transaction on its shard; directory entries
  commit only after the owning shard acknowledges the write;
* **partial failure** — scatter legs run under per-shard deadlines; a
  missing or degraded leg turns the merged answer into a
  :class:`~repro.resilience.degradation.DegradedResult` whose mode,
  reason and staleness bound *compose* the per-shard labels (the
  worst rung wins, bounds add across failed legs) instead of hiding
  them;
* **cluster refresh epochs** — concurrent ``refresh_epoch`` callers
  coalesce onto one in-flight cluster-wide scatter through the same
  :class:`~repro.concurrency.Coalescer` as the per-shard
  SharedDeltaPlanner: each shard still computes its partition's net
  change exactly once per epoch, now cluster-wide;
* **merged-result caching** — an optional
  :class:`~repro.service.cache.QueryResultCache` holds merged
  cross-shard answers under relation epoch tokens bumped *after*
  updates commit; a merge is only cached if the token is unchanged
  across the whole scatter, so a concurrent update can waste a cache
  fill but never poison it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Mapping

from repro.concurrency import Coalescer
from repro.durability.codec import decode_value
from repro.engine.transaction import CatalogError, Delete, Insert, Transaction, route
from repro.resilience.degradation import DegradedResult
from repro.service.cache import QueryResultCache
from repro.service.catalog import ViewDefinition
from repro.service.metrics import MetricsRegistry
from repro.service.spec import definition_of, schema_of
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, SelectProjectView
from .metrics import aggregate_metrics
from .replication import ReplicaSet, ReplicationConfig, ReplicationError
from .rpc import Leg, RpcError, ShardTimeout, gather
from .shardmap import ShardMap
from .worker import answer_rows, decode_answer, decode_operation, encode_operation

__all__ = ["ClusterRouter", "ClusterError", "ClusterClosedError"]

#: What ends one shard's leg of a scatter without ending the others.
_LEG_FAILURES = (RpcError, ReplicationError)

#: Aggregate merge functions the scatter layer knows how to fold.  A
#: shard whose partition selects nothing answers ``None`` for min/max.
_SCALAR_MERGES = {
    "sum": sum,
    "count": sum,
    "min": lambda legs: min((x for x in legs if x is not None), default=None),
    "max": lambda legs: max((x for x in legs if x is not None), default=None),
}


class ClusterError(RuntimeError):
    """A cluster-level routing or configuration failure."""


class ClusterClosedError(ClusterError):
    """The router was shut down; no further requests are accepted."""


class ClusterRouter:
    """Scatter–gather front end over N forked shard workers."""

    def __init__(
        self,
        shard_map: ShardMap,
        shards: list[ReplicaSet],
        views: Iterable[ViewDefinition],
        directory: dict[tuple[str, Any], int],
        cache: QueryResultCache | None = None,
        rpc_timeout: float = 30.0,
        schemas: Iterable[Schema] = (),
    ) -> None:
        self.shard_map = shard_map
        #: One :class:`ReplicaSet` per shard id, in shard order.
        self.shards = shards
        #: Set by the harness when a ClusterSupervisor watches this
        #: router; close() stops it before reaping workers.
        self.supervisor: Any = None
        self.metrics = MetricsRegistry()
        self.cache = cache
        self.rpc_timeout = rpc_timeout
        self._views = {definition.name: definition for definition in views}
        for definition in self._views.values():
            if (
                isinstance(definition, AggregateView)
                and definition.aggregate not in _SCALAR_MERGES
            ):
                raise ClusterError(
                    f"view {definition.name!r}: aggregate "
                    f"{definition.aggregate!r} does not merge across shards "
                    f"(supported: {', '.join(sorted(_SCALAR_MERGES))})"
                )
        #: Views whose ranged queries reach only the shards owning the
        #: range: a select-project keyed on the range partition field.
        self._prunable = frozenset(
            name for name, definition in self._views.items()
            if shard_map.scheme == "range"
            and isinstance(definition, SelectProjectView)
            and definition.view_key == shard_map.partition_field
        )
        #: (relation, primary key) -> owning shard.  Guarded by
        #: ``_directory_lock``; cross-shard moves mutate it.
        self._directory = directory
        self._directory_lock = threading.Lock()
        #: relation -> schema: what a write document is read against.
        self._schemas = {schema.name: schema for schema in schemas}
        #: Cluster refresh epochs: completed ones, and the leader /
        #: follower coalescing the per-shard planner uses too.
        self.epochs = 0
        self._epoch_runs = Coalescer()
        #: In-flight request accounting for drain-before-close.
        self._flight_lock = threading.Lock()
        self._flight_cond = threading.Condition(self._flight_lock)
        self._inflight = 0
        self._closing = False
        self._closed = False
        #: Per-caller-thread flag: the last query on this thread was
        #: answered by a replica retry.  The gateway pops it to label
        #: the outcome ``ok_retry`` in its per-outcome histograms.
        self._retry_local = threading.local()

    def views(self) -> tuple[str, ...]:
        """Names of the views this router can answer, sorted."""
        return tuple(sorted(self._views))

    @property
    def clients(self) -> list[Any]:
        """The current primary client per shard (failover-aware)."""
        return [
            (rs.primary or rs.members[0]).client for rs in self.shards
        ]

    @property
    def processes(self) -> list[Any]:
        """Every worker process ever spawned, in shard-major order.

        With no replicas this is exactly the one-process-per-shard list
        the original launch produced; with replicas and respawns it is
        the full reap list — dead and replaced members included — so
        nothing the cluster forked can be orphaned.
        """
        return [
            member.process for rs in self.shards for member in rs.members
        ]

    @property
    def coalesced_waits(self) -> int:
        """Refresh calls that waited on another caller's epoch."""
        return self._epoch_runs.waits

    def pop_retried(self) -> bool:
        """Consume this thread's replica-retry flag (set by query())."""
        flag = getattr(self._retry_local, "flag", False)
        self._retry_local.flag = False
        return bool(flag)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def launch(
        cls,
        spec: Mapping[str, Any],
        shard_map: ShardMap,
        cache: QueryResultCache | None = None,
        rpc_timeout: float = 30.0,
        replication: ReplicationConfig | None = None,
    ) -> "ClusterRouter":
        """Partition a cluster spec and launch one replica set per shard.

        ``spec`` is a stack spec (see :mod:`repro.service.spec`)
        whose relation ``records`` hold the *whole* data set; this
        splits every relation by the shard map's partition field,
        builds per-shard specs (with per-shard ``state_dir``
        subdirectories when durability is requested) and launches each
        shard's 1+N workers over TCP listeners on the loopback
        interface — a listening socket per worker is what lets a
        poisoned client reconnect to the *same living process* instead
        of writing the shard off.
        """
        replication = replication or ReplicationConfig()
        field = shard_map.partition_field
        # Read as each shard's worker reads them, so both agree on a view.
        views = [definition_of(doc) for doc in spec.get("views", ())]

        directory: dict[tuple[str, Any], int] = {}
        shard_records: dict[str, list[list[dict[str, Any]]]] = {}
        for rel in spec.get("relations", ()):
            if field not in rel["fields"]:
                raise ClusterError(
                    f"relation {rel['name']!r} has no partition field {field!r}"
                )
            buckets: list[list[dict[str, Any]]] = [
                [] for _ in range(shard_map.n_shards)
            ]
            for values in rel.get("records", ()):
                shard = shard_map.shard_of(values[field])
                buckets[shard].append(values)
                directory[(rel["name"], values[rel["key_field"]])] = shard
            shard_records[rel["name"]] = buckets

        router = cls(
            shard_map, [], views, directory,
            cache=cache, rpc_timeout=rpc_timeout,
            schemas=[schema_of(rel) for rel in spec.get("relations", ())],
        )
        try:
            for shard in range(shard_map.n_shards):
                shard_spec = dict(spec)
                shard_spec["shard_id"] = shard
                shard_spec["relations"] = [
                    {**rel, "records": shard_records[rel["name"]][shard]}
                    for rel in spec.get("relations", ())
                ]
                state_dir = None
                if spec.get("state_dir") is not None:
                    state_dir = f"{spec['state_dir']}/shard-{shard:03d}"
                router.shards.append(ReplicaSet.launch(
                    shard, shard_spec, replication,
                    rpc_timeout=rpc_timeout, state_dir=state_dir,
                    metrics=router.metrics,
                ))
        except BaseException:
            for replica_set in router.shards:
                replica_set.close(rpc_timeout=2.0)
            raise
        return router

    # ------------------------------------------------------------------
    # request accounting (drain-before-close)
    # ------------------------------------------------------------------
    @contextmanager
    def _in_flight(self) -> Iterator[None]:
        """Count one request in; ``close`` drains the count to zero."""
        with self._flight_lock:
            if self._closing or self._closed:
                raise ClusterClosedError("router is shut down")
            self._inflight += 1
        try:
            yield
        finally:
            with self._flight_cond:
                self._inflight -= 1
                if self._inflight == 0:
                    self._flight_cond.notify_all()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self,
        name: str,
        lo: Any = None,
        hi: Any = None,
        client: str = "anon",
        timeout: float | None = None,
        allow_partial: bool = True,
    ) -> Any:
        """Answer a view query across the cluster.

        Single-shard ranges are routed directly; everything else
        scatters to the owning shards under per-shard deadlines.  With
        ``allow_partial`` (the default), missing or degraded legs
        produce a labelled :class:`DegradedResult` instead of an
        exception; only a query with *no* surviving leg raises.
        """
        definition = self._views.get(name)
        if definition is None:
            raise ClusterError(f"view {name!r} is not served by this cluster")
        with self._in_flight():
            if name in self._prunable and (lo is not None or hi is not None):
                shards = self.shard_map.shards_for_range(lo, hi)
            else:
                shards = self.shard_map.all_shards()
            self.metrics.counter("router_queries_total", view=name).inc()
            token = self._cache_token(definition)
            if token is not None:
                hit, answer = self.cache.get(name, lo, hi, token)
                if hit:
                    self.metrics.counter("router_cache_hits_total", view=name).inc()
                    return answer
            if len(shards) == 1:
                self.metrics.counter("single_shard_queries_total", view=name).inc()
            else:
                self.metrics.counter("scatter_queries_total", view=name).inc()
            results, failures, retried = self._scatter_query(
                shards, name, lo, hi, client, timeout
            )
            if retried:
                self._retry_local.flag = True
            answer = self._merge(
                definition, shards, results, failures, allow_partial
            )
            if (
                token is not None
                and not failures
                and not isinstance(answer, DegradedResult)
                and self._cache_token(definition) == token
            ):
                # The epoch vector is unchanged across the whole
                # scatter: no update committed meanwhile, so the merge
                # is fresh and safe to serve from cache.
                self.cache.put(name, lo, hi, token, answer)
            return answer

    def _scatter_query(
        self,
        shards: Iterable[int],
        name: str,
        lo: Any,
        hi: Any,
        client: str,
        timeout: float | None,
    ) -> tuple[dict[int, Any], dict[int, Exception], bool]:
        """Scatter one query, retrying each leg on replicas.

        Each leg goes through its shard's :meth:`ReplicaSet.query`:
        primary first, then the most-caught-up live replicas within
        the remaining deadline.  A leg served by a *lagging* replica is
        labelled ``stale_read`` with the replica's lag in operations as
        the staleness bound — a caught-up replica's answer is simply
        correct and carries no label.  Degraded labels only appear when
        every member of a shard is unreachable, the honest last resort.
        """
        retried_legs: set[int] = set()

        def leg(shard: int) -> Leg:
            doc, info = yield from self.shards[shard].query_leg(
                timeout=timeout, view=name, lo=lo, hi=hi, client=client,
            )
            if info.get("retried"):
                retried_legs.add(shard)
                self.metrics.counter(
                    "replica_served_total", shard=str(shard)
                ).inc()
                lag = int(info.get("lag", 0))
                if lag > 0 and doc.get("degraded") is None:
                    doc = dict(doc)
                    doc["degraded"] = {
                        "view": name,
                        "mode": "stale_read",
                        "reason": (
                            f"served by shard {shard} replica "
                            f"m{info.get('member')} lagging {lag} ops"
                        ),
                        "staleness_bound": lag,
                        "strategy": "replica",
                    }
            return doc

        results, failures = gather(
            {shard: leg(shard) for shard in shards}, _LEG_FAILURES
        )
        return results, failures, bool(retried_legs)

    def _cache_token(self, definition: ViewDefinition) -> Any:
        if self.cache is None:
            return None
        return self.cache.epoch_token(definition.sources)

    def _merge(
        self,
        definition: ViewDefinition,
        shards: Iterable[int],
        results: Mapping[int, Any],
        failures: Mapping[int, Exception],
        allow_partial: bool,
    ) -> Any:
        if failures:
            for shard in failures:
                self.metrics.counter(
                    "scatter_leg_failures_total", view=definition.name,
                    shard=str(shard),
                ).inc()
            if not allow_partial or not results:
                shard, exc = next(iter(failures.items()))
                raise exc
        degraded_legs = {
            shard: doc["degraded"] for shard, doc in results.items()
            if doc.get("degraded") is not None
        }
        if isinstance(definition, AggregateView):
            merged: Any = _SCALAR_MERGES[definition.aggregate](
                decode_answer(results[shard])[0] for shard in sorted(results)
            )
        else:
            # A worker sends the view key first and the other fields by
            # name, so list order on rows is (view key, identity) order
            # on tuples.  Always sorted: legs arrive sorted and range
            # shards are disjoint, which Timsort takes in one pass, and
            # a degraded leg in base-scan order comes out canonical too.
            docs = [results[shard] for shard in sorted(results)]
            rows = [row for doc in docs for row in answer_rows(doc)]
            rows.sort()
            fields = next((doc["fields"] for doc in docs if doc["rows"]), [])
            merged, _ = decode_answer(
                {"kind": "rows", "fields": fields, "rows": rows}
            )
        if not failures and not degraded_legs:
            return merged
        return self._compose_degraded(
            definition.name, merged, degraded_legs, failures
        )

    def _compose_degraded(
        self,
        view: str,
        merged: Any,
        degraded_legs: Mapping[int, Mapping[str, Any]],
        failures: Mapping[int, Exception],
    ) -> DegradedResult:
        """Fold per-shard degraded labels into one honest cluster label.

        Mode severity: a lost leg (``partial_scatter``) outranks a
        stale leg, which outranks a fresh QM fallback.  The staleness
        bound is the max over degraded legs plus, for each lost leg,
        every update ever routed to it — the merge is missing that
        partition outright, so nothing tighter is defensible.
        """
        reasons = []
        bound = max(
            (int(leg.get("staleness_bound", 0)) for leg in degraded_legs.values()),
            default=0,
        )
        mode = "qm_fallback"
        for shard in sorted(degraded_legs):
            leg = degraded_legs[shard]
            reasons.append(f"shard {shard}: {leg.get('reason', 'degraded')}")
            if leg.get("mode") == "stale_read":
                mode = "stale_read"
        for shard in sorted(failures):
            exc = failures[shard]
            kind = "timeout" if isinstance(exc, ShardTimeout) else "unavailable"
            reasons.append(f"shard {shard}: {kind}")
            mode = "partial_scatter"
            bound += int(
                self.metrics.counter(
                    "shard_updates_total", shard=str(shard)
                ).value
            )
        self.metrics.counter("degraded_merges_total", view=view).inc()
        strategies = {
            str(leg.get("strategy")) for leg in degraded_legs.values()
        } or {"unavailable"}
        return DegradedResult(
            answer=merged,
            view=view,
            mode=mode,
            reason="; ".join(reasons),
            staleness_bound=bound,
            strategy=sorted(strategies)[0],
        )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply_update(
        self, txn: Transaction, client: str = "anon", timeout: float | None = None,
    ) -> None:
        """Route one transaction's operations to their owning shards.

        Encodes the operations and hands them to
        :meth:`apply_documents`, which is where the routing happens.
        """
        self.apply_documents(
            txn.relation, (encode_operation(op) for op in txn.operations),
            client=client, timeout=timeout,
        )

    def apply_documents(
        self,
        relation: str,
        ops: Iterable[dict[str, Any]],
        client: str = "anon",
        timeout: float | None = None,
    ) -> None:
        """Route one transaction, given as wire operation documents.

        The write entry for callers that already hold documents (the
        gateway).  The documents are read as a shard reads them and
        every operation's shard is resolved before any leg is sent, by
        the engine's own refusal rule (:func:`~repro.engine.transaction
        .route`) over the key directory: a transaction that would fail
        part-way is refused whole, with the error it gets in-process.
        The documents are forwarded as they came.  Operations that stay
        within a shard are batched per shard and applied as one
        transaction there (concurrently across shards).  An update that
        changes the partition field across a boundary is executed as a
        fetch + insert + delete move; pending batches for the involved
        shards are flushed first so per-key operation order is
        preserved.

        ``timeout`` is the caller's remaining deadline budget (the
        gateway passes what is left of ``deadline_ms``); it bounds
        every shard RPC the transaction fans out into.  ``None`` falls
        back to each shard client's construction-time default.
        """
        docs, schema = list(ops), self._schemas.get(relation)
        if schema is None:
            raise CatalogError(f"unknown relation {relation!r}")
        txn = Transaction.of(relation, [decode_operation(schema, doc) for doc in docs])
        field, shard_of = self.shard_map.partition_field, self.shard_map.shard_of
        with self._in_flight():
            with self._directory_lock:
                routes = route(
                    schema, txn.operations,
                    lambda key: self._directory.get((relation, key)),
                    lambda values: shard_of(values[field]) if field in values else None,
                )
            pending: dict[int, list[dict[str, Any]]] = {}
            # Directory mutations are *staged*, not applied: ``staged``
            # commits to the real directory per shard only once that
            # shard has acknowledged its batch (in _flush).  A failed
            # flush therefore cannot leave phantom entries that misroute
            # later updates.
            staged: dict[int, list[tuple[Any, int | None]]] = {}
            try:
                for doc, op, (shard, target) in zip(docs, txn.operations, routes):
                    if target is not None:
                        self._flush(relation, pending, staged, client,
                                    only={shard, target}, timeout=timeout)
                        self._move(relation, doc["key"], doc["changes"],
                                   shard, target, client, timeout=timeout)
                        continue
                    pending.setdefault(shard, []).append(doc)
                    if isinstance(op, Insert):
                        staged.setdefault(shard, []).append((op.record.key, shard))
                    elif isinstance(op, Delete):
                        staged.setdefault(shard, []).append((op.key, None))
                self._flush(relation, pending, staged, client, timeout=timeout)
            finally:
                if self.cache is not None:
                    # Bump *after* the shards answered, and also when a
                    # leg failed: another leg may have committed.  A
                    # reader that sampled the old token mid-update
                    # re-validates before caching, so the old answer
                    # can be served (that read serializes before the
                    # update) but never re-cached under the new epoch.
                    # An extra bump only wastes cache entries.
                    self.cache.bump(relation)
            self.metrics.counter("router_updates_total", client=client).inc()

    def _flush(
        self,
        relation: str,
        pending: dict[int, list[dict[str, Any]]],
        staged: dict[int, list[tuple[Any, int | None]]],
        client: str,
        only: set[int] | None = None,
        timeout: float | None = None,
    ) -> None:
        shards = [
            shard for shard in pending
            if pending[shard] and (only is None or shard in only)
        ]
        if not shards:
            return
        # Through the replica sets: each batch gets its epoch, lands on
        # the (possibly just-promoted) primary, and is shipped to
        # replicas before the ack comes back.
        results, failures = gather(
            {
                shard: self.shards[shard].update_leg(
                    relation, pending[shard], client=client, timeout=timeout,
                )
                for shard in shards
            },
            _LEG_FAILURES,
        )
        for shard in shards:
            if shard in results:
                self.metrics.counter(
                    "shard_updates_total", shard=str(shard)
                ).inc(len(pending[shard]))
                # The shard acknowledged its batch: its staged
                # directory entries are now true and safe to commit
                # (in operation order — an insert/delete pair on one
                # key nets out correctly).
                entries = staged.pop(shard, ())
                if entries:
                    with self._directory_lock:
                        for key, owner in entries:
                            if owner is None:
                                self._directory.pop((relation, key), None)
                            else:
                                self._directory[(relation, key)] = owner
            else:
                staged.pop(shard, None)
            pending[shard] = []
        if failures:
            shard, exc = next(iter(failures.items()))
            raise exc

    def _move(
        self,
        relation: str,
        key: Any,
        changes: Mapping[str, Any],
        source: int,
        target: int,
        client: str,
        timeout: float | None = None,
    ) -> None:
        """Move one tuple across a partition boundary.

        ``key`` and ``changes`` are in wire form and stay so: fetch the
        current values from the owner, insert the changed tuple on the
        new owner, then delete the original — each half a
        normal maintained transaction on its shard, so both shards'
        views see the move as the insert/delete pair it logically is.
        Insert-first ordering is deliberate: if the target insert fails
        the tuple is still intact on the source and the directory is
        untouched; a failure *after* the insert leaves a transient
        duplicate (recoverable — the directory already points at the
        authoritative new copy) rather than a lost tuple.
        """
        fetched = self.shards[source].call_primary(
            "fetch", relation=relation, key=key, timeout=timeout,
        )
        values = fetched.get("values")
        if values is None:
            raise ClusterError(
                f"move of {relation!r} key {key!r}: tuple missing on shard "
                f"{source} (directory out of sync)"
            )
        values = dict(values)
        values.update(changes)
        # Both halves go through the replica sets so the move is
        # shipped to replicas like any other committed batch.
        self.shards[target].apply_update(
            relation, [{"kind": "insert", "values": values}], client=client,
            timeout=timeout,
        )
        with self._directory_lock:
            self._directory[(relation, decode_value(key))] = target
        self.shards[source].apply_update(
            relation, [{"kind": "delete", "key": key}], client=client,
            timeout=timeout,
        )
        self.metrics.counter("cross_shard_moves_total", relation=relation).inc()
        self.metrics.counter("shard_updates_total", shard=str(source)).inc()
        self.metrics.counter("shard_updates_total", shard=str(target)).inc()

    # ------------------------------------------------------------------
    # cluster refresh epochs
    # ------------------------------------------------------------------
    def refresh_epoch(self, timeout: float | None = None) -> bool:
        """One cluster-wide deferred-refresh epoch, coalesced.

        The leader scatters ``refresh`` to every shard's replica set
        (each shard's SharedDeltaPlanner folds its partition's net
        change exactly once; a poisoned primary is repaired and a dead
        one failed over first); concurrent callers wait on the
        in-flight epoch instead of stacking duplicate scatters, then
        return ``False``.

        Two failure rules keep the epoch honest under crashes:

        * a shard whose *every* member is gone does not veto the
          epoch — the survivors converge and the lost legs are counted
          in ``refresh_leg_failures_total``; only a scatter with *no*
          surviving leg raises;
        * a follower returns only once the epoch count has advanced
          since its call began: one that wakes to find it unchanged
          knows its leader died mid-epoch and takes over the leadership
          instead of reporting an epoch that never happened.
        """
        with self._in_flight():
            seen = self.epochs

            def covered() -> bool:
                self.metrics.counter("cluster_refresh_coalesced_total").inc()
                return self.epochs > seen

            return self._epoch_runs.run(
                None, lambda: self._lead_epoch(timeout), covered
            )

    def _lead_epoch(self, timeout: float | None) -> None:
        results, failures = gather(
            {
                shard: replica_set.refresh_leg(timeout=timeout)
                for shard, replica_set in enumerate(self.shards)
            },
            _LEG_FAILURES,
        )
        if not results:
            raise next(iter(failures.values()))
        for shard in failures:
            self.metrics.counter(
                "refresh_leg_failures_total", shard=str(shard)
            ).inc()
        self.epochs += 1
        self.metrics.counter("cluster_refresh_epochs_total").inc()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Cluster + per-shard planner counters (epoch accounting)."""
        with self._in_flight():
            results, failures = gather(
                {
                    shard: replica_set.primary_leg("stats", timeout=self.rpc_timeout)
                    for shard, replica_set in enumerate(self.shards)
                },
                _LEG_FAILURES,
            )
            return {
                "epochs": self.epochs,
                "coalesced_waits": self.coalesced_waits,
                "shards": {
                    shard: results.get(shard, {"error": str(failures.get(shard))})
                    for shard in range(len(self.shards))
                },
            }

    def shard_metrics(self) -> dict[int, dict[str, Any]]:
        """The raw per-shard exports, keyed by shard id."""
        with self._in_flight():
            results, failures = gather(
                {
                    shard: replica_set.primary_leg("metrics", timeout=self.rpc_timeout)
                    for shard, replica_set in enumerate(self.shards)
                },
                _LEG_FAILURES,
            )
            if failures:
                raise next(iter(failures.values()))
            return dict(sorted(results.items()))

    def cluster_metrics(self) -> dict[str, Any]:
        """One v1 export: every shard registry merged, plus the router's.

        Counters sum, gauges report their worst shard, histograms merge
        bucket-by-bucket — see :func:`repro.cluster.metrics
        .aggregate_metrics`.
        """
        exports = list(self.shard_metrics().values())
        return aggregate_metrics(exports + [self.metrics.to_dict()])

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self, drain_timeout: float = 30.0) -> None:
        """Drain, stop every worker, reap the processes.  Idempotent.

        New requests are refused immediately; in-flight requests get
        ``drain_timeout`` seconds to finish before the shutdown frames
        go out, so a worker is never killed mid-request.  Workers that
        ignore the protocol (wedged, already broken pipe) are
        terminated — nothing is left orphaned for the shell to reap.
        """
        with self._flight_cond:
            if self._closed:
                return
            self._closing = True
            self._flight_cond.wait_for(
                lambda: self._inflight == 0, timeout=drain_timeout
            )
            self._closed = True
        # The supervisor stops first so no respawn can race the reap:
        # after stop() returns, the member lists are final and every
        # process ever forked — original, promoted, respawned — is in
        # them.
        if self.supervisor is not None:
            self.supervisor.stop()
        for replica_set in self.shards:
            replica_set.close(rpc_timeout=min(self.rpc_timeout, 10.0))

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
