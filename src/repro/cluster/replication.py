"""Shard replication: write fan-out, delta shipping, and failover.

Each shard is served by a :class:`ReplicaSet` of 1+N worker processes:
one *primary* that takes every write, and N *replicas* that receive
committed update batches as epoch-tagged deltas (the same net-change
records the WAL codec frames) immediately after the primary
acknowledges them.  The set tracks each replica's applied epoch, so at
any moment it knows exactly how far behind a replica is — in epochs
and, via the retained delta log, in *operations*, which is the honest
staleness bound a replica-served read carries.

Failover is a pure function of observable state:
:func:`select_promotion_candidate` picks the most-caught-up live
replica (ties broken toward the oldest member), the set replays any
retained deltas the candidate is missing, and flips roles.  Because
every client-acknowledged write was appended to the delta log *before*
the ack path returned, promotion plus catch-up preserves acked writes
even when the primary dies mid-stream; whatever unacked partial state
died with the old primary was never promised to anyone.

Replacement workers bootstrap from a surviving member's ``snapshot``
(logical records plus the epoch they are consistent with) and then
replay shipped deltas past that epoch — a lagging or new replica
resyncs by replaying net changes, not by restarting the cluster.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Mapping

from repro.durability.codec import decode_value
from .rpc import (
    Leg,
    RemoteOpError,
    RpcError,
    ShardClient,
    ShardTimeout,
    ShardUnavailable,
    blocking,
)
from .worker import worker_main

__all__ = [
    "ReplicationConfig",
    "ReplicationError",
    "Member",
    "ReplicaSet",
    "select_promotion_candidate",
]


class ReplicationError(RuntimeError):
    """A replication invariant failed (catch-up gap, no candidate)."""


@dataclass(frozen=True)
class ReplicationConfig:
    """Tunables for one shard's replica set and its supervision.

    ``suspect_after`` / ``dead_after`` are *consecutive* heartbeat
    failures: one missed ping marks nothing, repeated misses walk the
    member healthy → suspect → dead.  ``delta_log_cap`` bounds the
    retained catch-up window in update batches; a replica that falls
    behind the window can no longer catch up by replay and must
    re-bootstrap from a snapshot.
    """

    replicas: int = 0
    heartbeat_interval_s: float = 0.15
    heartbeat_timeout_s: float = 0.5
    suspect_after: int = 2
    dead_after: int = 3
    respawn: bool = True
    delta_log_cap: int = 4096


class Member:
    """One worker process in a replica set, with its health record."""

    __slots__ = (
        "member_id", "role", "client", "process", "address",
        "applied_epoch", "health", "failures",
    )

    def __init__(
        self,
        member_id: int,
        role: str,
        client: ShardClient,
        process: Any,
        address: tuple[str, int],
    ) -> None:
        self.member_id = member_id
        self.role = role  # "primary" | "replica"
        self.client = client
        self.process = process
        self.address = address
        self.applied_epoch = 0
        self.health = "healthy"  # "healthy" | "suspect" | "dead"
        self.failures = 0

    @property
    def is_live(self) -> bool:
        return self.health != "dead" and self.process.is_alive()

    def note_ok(self) -> None:
        self.failures = 0
        if self.health != "dead":
            self.health = "healthy"

    def note_failure(self, suspect_after: int, dead_after: int) -> str:
        self.failures += 1
        if self.failures >= dead_after:
            self.health = "dead"
        elif self.failures >= suspect_after:
            self.health = "suspect"
        return self.health

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Member(m{self.member_id} {self.role} {self.health} "
            f"epoch={self.applied_epoch} pid={self.process.pid})"
        )


def select_promotion_candidate(members: list[Member]) -> Member | None:
    """The most-caught-up live replica, or ``None`` if there is none.

    Ties on applied epoch break toward the *oldest* member id: member
    age is a proxy for how long its health record has been observed, so
    the tiebreak is deterministic and never prefers a just-respawned
    worker over an equally caught-up veteran.
    """
    live = [
        m for m in members
        if m.role == "replica" and m.health != "dead" and m.process.is_alive()
    ]
    if not live:
        return None
    return max(live, key=lambda m: (m.applied_epoch, -m.member_id))


class ReplicaSet:
    """1 primary + N replicas behind one shard id.

    Writes and every other primary op are serialized per shard under
    ``_lock``, so every committed batch gets a unique, contiguous epoch;
    the epoch tag also makes a retried write idempotent on a worker that
    already applied it.  Reads never take the write lock — they go
    primary-first and fall back to the most-caught-up replica within the
    caller's deadline.
    """

    def __init__(
        self,
        shard_id: int,
        spec: Mapping[str, Any],
        config: ReplicationConfig,
        rpc_timeout: float = 30.0,
        state_dir: str | None = None,
        metrics: Any = None,
    ) -> None:
        self.shard_id = shard_id
        self.spec = {k: v for k, v in dict(spec).items() if k != "state_dir"}
        self.config = config
        self.rpc_timeout = rpc_timeout
        self.state_dir = state_dir
        self.metrics = metrics
        self.members: list[Member] = []
        self.write_epoch = 0
        #: Retained committed batches ``(epoch, relation, ops, n_ops)``
        #: — the catch-up window for lagging replicas and promotions.
        self.delta_log: deque = deque(maxlen=config.delta_log_cap)
        self.shipped_ops_total = 0
        self.promotions_total = 0
        self.respawns_total = 0
        self.repairs_total = 0
        #: A batch whose write timed out *after* the request was sent:
        #: the primary may or may not have committed it.  Resolved (by
        #: asking the primary for its epoch) before the next write is
        #: assigned an epoch, so an epoch number is never reused for
        #: different operations — the dedup on the worker side depends
        #: on that.
        self._in_doubt: tuple[int, str, list[dict[str, Any]]] | None = None
        self._lock = threading.RLock()
        self._next_member_id = 0
        self._context = multiprocessing.get_context("fork")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def launch(
        cls,
        shard_id: int,
        spec: Mapping[str, Any],
        config: ReplicationConfig,
        rpc_timeout: float = 30.0,
        state_dir: str | None = None,
        metrics: Any = None,
    ) -> "ReplicaSet":
        rs = cls(
            shard_id, spec, config,
            rpc_timeout=rpc_timeout, state_dir=state_dir, metrics=metrics,
        )
        try:
            rs._spawn("primary")
            for _ in range(config.replicas):
                rs._spawn("replica")
        except BaseException:
            rs.close(rpc_timeout=2.0)
            raise
        return rs

    def _member_state_dir(self, member_id: int) -> str | None:
        if self.state_dir is None:
            return None
        # Member 0 keeps the bare per-shard directory so single-member
        # clusters lay out durability state exactly as before.
        if member_id == 0:
            return self.state_dir
        return f"{self.state_dir}.m{member_id}"

    def _spawn(
        self,
        role: str,
        records: Mapping[str, list[dict[str, Any]]] | None = None,
        replica_epoch: int = 0,
    ) -> Member:
        member_id = self._next_member_id
        self._next_member_id += 1
        spec = dict(self.spec)
        if records is not None:
            spec["relations"] = [
                {**rel, "records": list(records.get(rel["name"], ()))}
                for rel in self.spec.get("relations", ())
            ]
        spec["replica_epoch"] = int(replica_epoch)
        member_dir = self._member_state_dir(member_id)
        if member_dir is not None:
            spec["state_dir"] = member_dir
        # The listener is created before the fork so the child inherits
        # it; the kernel queues the router's connect even if the child
        # has not reached accept() yet.  The parent's copy is closed —
        # the child's inherited descriptor keeps the socket listening.
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()
        process = self._context.Process(
            target=worker_main,
            args=(listener, spec, self.shard_id),
            name=f"repro-shard-{self.shard_id}-m{member_id}",
            daemon=True,
        )
        process.start()
        listener.close()
        try:
            sock = socket.create_connection(address, timeout=5.0)
        except OSError as exc:
            process.terminate()
            raise ShardUnavailable(
                self.shard_id, f"worker m{member_id} never came up: {exc}"
            ) from exc
        sock.settimeout(self.rpc_timeout)
        client = ShardClient(
            sock, self.shard_id, timeout=self.rpc_timeout,
            address=(address[0], address[1]),
        )
        member = Member(member_id, role, client, process, address)
        member.applied_epoch = int(replica_epoch)
        self.members.append(member)
        return member

    # ------------------------------------------------------------------
    # membership views
    # ------------------------------------------------------------------
    # The membership views below are read by router query threads and
    # the supervisor's heartbeat thread while _spawn (under self._lock)
    # appends replacements; list() snapshots the membership atomically
    # so an iteration never observes a half-grown list.
    @property
    def primary(self) -> Member | None:
        for member in list(self.members):
            if member.role == "primary":
                return member
        return None

    def live_members(self) -> list[Member]:
        return [m for m in list(self.members) if m.is_live]

    def live_replicas(self) -> list[Member]:
        return [
            m for m in list(self.members)
            if m.role == "replica" and m.is_live
        ]

    @property
    def processes(self) -> list[Any]:
        return [m.process for m in list(self.members)]

    def _count(self, name: str, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                name, shard=str(self.shard_id), **labels
            ).inc()

    def note_failure(self, member: Member) -> str:
        health = member.note_failure(
            self.config.suspect_after, self.config.dead_after
        )
        self._count("member_failures_total", member=str(member.member_id))
        return health

    # ------------------------------------------------------------------
    # reaching a member
    # ------------------------------------------------------------------
    def _repair(self, member: Member, attempts: int = 4) -> None:
        """The one step to a member: a poisoned client to a live worker
        is reconnected in place, in at most ``attempts`` tries.

        Raises :class:`ShardUnavailable` when the worker is gone or
        refuses the reconnect; what that means is the caller's rule —
        the primary is failed over (:meth:`_usable_primary`), a read
        tries the next member, the supervisor counts a failure.
        """
        if member.client.broken is None:
            return
        if not member.process.is_alive():
            raise ShardUnavailable(
                self.shard_id, f"worker m{member.member_id} exited"
            )
        member.client.reconnect(attempts=attempts)
        self.repairs_total += 1
        self._count("reconnect_repairs_total")

    def _usable_primary(self) -> Member:
        """The current primary, repaired in place if its client is
        poisoned; a primary that is gone or cannot be repaired is marked
        dead and the most-caught-up replica promoted."""
        for _ in range(len(self.members) + 2):
            primary = self.primary
            if primary is not None and primary.is_live:
                try:
                    self._repair(primary, attempts=2)
                    return primary
                except ShardUnavailable:
                    primary.health = "dead"
            self.promote()
        raise ShardUnavailable(self.shard_id, "no usable primary")

    def primary_leg(
        self, op: str, timeout: float | None = None, **params: Any
    ) -> Leg:
        """One op on the primary — a write, a refresh, fetch/stats/metrics.

        The primary is reached through :meth:`_usable_primary`; a
        connection lost under the call is repaired (or the primary
        failed over) and the op sent again, which a write's epoch tag
        makes idempotent.  :class:`RemoteOpError` and
        :class:`ShardTimeout` are re-raised as they are: the worker ran
        the op, or may have.

        The write lock is held from the leg's first step to its end, so
        a promotion after the frame went out re-enters a lock this leg
        already holds instead of waiting, inside a gather that holds
        other shards' connections, for a write that waits on them.
        """
        with self._lock:
            last: ShardUnavailable | None = None
            for _ in range(len(self.members) + 2):
                primary = self._usable_primary()
                try:
                    return (yield from primary.client.exchange(
                        op, timeout=timeout, **params
                    ))
                except ShardUnavailable as exc:
                    last = exc
            raise last if last is not None else ShardUnavailable(
                self.shard_id, "no usable primary"
            )

    call_primary = blocking(primary_leg)

    # ------------------------------------------------------------------
    # writes: primary fan-in, delta fan-out
    # ------------------------------------------------------------------
    def update_leg(
        self,
        relation: str,
        ops: list[dict[str, Any]],
        client: str = "router",
        timeout: float | None = None,
    ) -> Leg:
        """Commit one batch on the primary, then ship it to replicas.

        The batch is acknowledged to the caller only after the primary
        applied it *and* it was appended to the retained delta log, so
        a later promotion can always replay every acked write.  A
        replica that misses its shipment is merely marked lagging — it
        catches up later by replay; replica failures never fail an
        acked write.

        :class:`ShardTimeout` is re-raised without failover: a timed
        out write is *ambiguous* (the primary may have committed it),
        and retrying elsewhere could double-apply.  The epoch tag makes
        a retry on the *same* primary idempotent, so only the
        connection-level ``ShardUnavailable`` path retries
        (:meth:`primary_leg`).

        A leg, split at the primary's frame; the write lock is held
        from its first step to its end.
        """
        with self._lock:
            self._resolve_in_doubt()
            epoch = self.write_epoch + 1
            try:
                result = yield from self.primary_leg(
                    "update", relation=relation, ops=ops,
                    client=client, epoch=epoch, timeout=timeout,
                )
            except ShardTimeout:
                self._in_doubt = (epoch, relation, list(ops))
                raise
            self._commit(epoch, relation, list(ops))
            return result

    apply_update = blocking(update_leg)

    def _commit(self, epoch: int, relation: str, ops: list[dict[str, Any]]) -> None:
        """An acked batch: its epoch is the set's, and with replicas it
        joins the delta log and is shipped."""
        self.write_epoch = epoch
        if self.config.replicas or len(self.members) > 1:
            self.delta_log.append((epoch, relation, ops, len(ops)))
            self.shipped_ops_total += len(ops)
            self._ship(relation, ops, epoch)

    def _resolve_in_doubt(self) -> None:
        """Settle whether a timed-out batch committed before reusing its epoch.

        The primary's reported epoch is the ground truth: at or past the
        in-doubt epoch means the batch committed (so it is logged and
        shipped like any acked write); behind it means the batch never
        applied and its epoch number is free again.  If the old primary
        died, promotion already installed a primary whose epoch predates
        the in-doubt batch — the ambiguous write is gone with the crash,
        which is exactly what :class:`ShardTimeout` promised the caller.
        """
        if self._in_doubt is None:
            return
        epoch, relation, ops = self._in_doubt
        pong = self.call_primary("ping", timeout=self.rpc_timeout)
        if int(pong.get("epoch", 0)) >= epoch:
            self._commit(epoch, relation, ops)
        self._in_doubt = None

    def _ship(self, relation: str, ops: list[dict[str, Any]], epoch: int) -> None:
        # Shipments run on the ack path (under the write lock), so a
        # black-holed replica must not be allowed to stall acked writes
        # for a full rpc_timeout: shipment calls get the much shorter
        # heartbeat budget, and a replica that misses one is merely
        # marked lagging — it catches up by replay later.
        budget = self.config.heartbeat_timeout_s
        for member in list(self.members):
            if member.role != "replica" or not member.is_live:
                continue
            try:
                if member.applied_epoch < epoch - 1:
                    # The member missed earlier shipments; replay the
                    # whole gap (which includes this batch) in order.
                    self._catch_up(member, timeout=budget)
                else:
                    result = member.client.call(
                        "apply_delta", relation=relation, ops=ops,
                        epoch=epoch, client="replication", timeout=budget,
                    )
                    member.applied_epoch = int(result.get("epoch", epoch))
            except (RpcError, ReplicationError):
                self.note_failure(member)

    def _missing(self, member: Member) -> list[Any] | None:
        """The retained batches the member has not applied, oldest
        first; ``None`` once the window has rolled past its position."""
        # The supervisor reads this from its heartbeat thread while
        # update_leg appends on a router thread; iterating the live
        # deque dies with "deque mutated during iteration".
        entries = [e for e in list(self.delta_log) if e[0] > member.applied_epoch]
        if entries and entries[0][0] != member.applied_epoch + 1:
            return None
        return entries

    def _catch_up(self, member: Member, timeout: float | None = None) -> None:
        """Replay retained deltas the member has not applied yet."""
        entries = self._missing(member)
        if entries is None:
            raise ReplicationError(
                f"shard {self.shard_id} member m{member.member_id} is behind "
                f"the retained delta window (applied {member.applied_epoch}): "
                f"snapshot bootstrap required"
            )
        for epoch, relation, ops, _n_ops in entries:
            result = member.client.call(
                "apply_delta", relation=relation, ops=ops,
                epoch=epoch, client="replication", timeout=timeout,
            )
            member.applied_epoch = int(result.get("epoch", epoch))

    def lag_ops(self, member: Member) -> int:
        """How many committed operations the member has not applied.

        Exact while the gap is inside the retained delta window; once
        the window has rolled past the member's position the only
        defensible bound is every operation ever shipped.
        """
        if self.write_epoch <= member.applied_epoch:
            return 0
        entries = self._missing(member)
        if entries:
            return sum(e[3] for e in entries)
        return max(self.shipped_ops_total, self.write_epoch - member.applied_epoch)

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def promote(self) -> Member:
        """Flip the most-caught-up live replica to primary.

        The candidate is caught up from the retained delta log *before*
        the role flip, so the new primary starts with every acked write
        applied.  Raises :class:`ShardUnavailable` when no live replica
        exists — single-member shards keep their old "shard is gone"
        failure mode.
        """
        with self._lock:
            candidate = select_promotion_candidate(self.members)
            if candidate is None:
                raise ShardUnavailable(
                    self.shard_id, "primary lost and no live replica to promote"
                )
            old = self.primary
            if old is not None and old is not candidate:
                old.role = "replica"
                old.health = "dead"
            self._catch_up(candidate)
            candidate.role = "primary"
            candidate.note_ok()
            self.promotions_total += 1
            self._count("promotions_total")
            return candidate

    def respawn_replica(self) -> Member:
        """Fork a replacement replica from a healthy member's snapshot.

        Runs under the write lock: no batch can commit between the
        snapshot cut and the new member joining the shipment list, so
        the snapshot epoch plus replayed deltas is a complete history.
        """
        with self._lock:
            snap = self.call_primary("snapshot", timeout=self.rpc_timeout)
            member = self._spawn(
                "replica",
                records={
                    name: [{f: decode_value(v) for f, v in doc.items()} for doc in docs]
                    for name, docs in snap.get("relations", {}).items()
                },
                replica_epoch=int(snap.get("epoch", 0)),
            )
            try:
                self._catch_up(member)
            except (RpcError, ReplicationError):
                self.note_failure(member)
            self.respawns_total += 1
            self._count("respawns_total")
            return member

    def resync(self, member: Member) -> None:
        """Repair a poisoned connection and replay any missed deltas."""
        with self._lock:
            self._repair(member)
            pong = member.client.call(
                "ping", timeout=self.config.heartbeat_timeout_s
            )
            member.applied_epoch = int(
                pong.get("epoch", member.applied_epoch)
            )
            if member.role == "replica":
                self._catch_up(member)
            member.note_ok()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def query_leg(self, timeout: float | None = None, **params: Any) -> Leg:
        """Primary-first read with replica retry inside the deadline; a
        poisoned client is repaired in place first (one attempt), and
        nothing is promoted — reads never take the write lock.

        Returns ``(answer_doc, leg_info)`` where ``leg_info`` records
        who served the read (``served_by``/``member``), whether a
        retry happened, and the serving replica's lag in operations.
        A worker that *executed* the query and raised re-raises here —
        that is an application error, not a transport failure, and a
        replica would fail identically.  A leg, split at the primary's
        frame.
        """
        budget = self.rpc_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        errors: list[Exception] = []
        # Two passes: a concurrent inline promotion can move the only
        # survivor from the replica list to the primary slot *between*
        # this thread's primary attempt and its replica scan, leaving
        # the first pass empty-handed; the second pass sees the new
        # membership.
        for _ in range(2):
            served = yield from self._query_once(
                deadline, budget, timeout, params, errors
            )
            if served is not None:
                return served
            if time.monotonic() >= deadline:
                break
        if errors:
            raise errors[-1]
        raise ShardUnavailable(self.shard_id, "no live member to serve the query")

    def _query_once(
        self,
        deadline: float,
        budget: float,
        timeout: float | None,
        params: dict[str, Any],
        errors: list[Exception],
    ) -> Leg:
        primary = self.primary
        if primary is not None and primary.is_live:
            try:
                self._repair(primary, attempts=1)
                doc = yield from primary.client.exchange(
                    "query", timeout=timeout, **params
                )
            except RemoteOpError:
                raise
            except RpcError as exc:
                errors.append(exc)
            else:
                primary.note_ok()
                return doc, {
                    "served_by": "primary",
                    "member": primary.member_id,
                    "retried": False,
                    "lag": 0,
                }
        replicas = sorted(
            self.live_replicas(),
            key=lambda m: (-m.applied_epoch, m.member_id),
        )
        for member in replicas:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                self._repair(member, attempts=1)
                doc = member.client.call(
                    "query", timeout=min(remaining, budget), **params
                )
            except RemoteOpError:
                raise
            except RpcError as exc:
                errors.append(exc)
                self.note_failure(member)
                continue
            member.note_ok()
            return doc, {
                "served_by": "replica",
                "member": member.member_id,
                "retried": True,
                "lag": self.lag_ops(member),
            }
        return None

    # ------------------------------------------------------------------
    # refresh
    # ------------------------------------------------------------------
    def refresh_leg(self, timeout: float | None = None) -> Leg:
        """Refresh every live member's views, the primary first (through
        :meth:`primary_leg`: repaired or failed over like any primary op).

        Replica refresh failures only mark the member lagging: the
        primary's answer is the epoch's result, and a replica that
        missed a refresh recomputes on its next query anyway.  A leg,
        split at the primary's frame.
        """
        result = yield from self.primary_leg("refresh", timeout=timeout)
        for member in self.live_replicas():
            try:
                member.client.call("refresh", timeout=timeout)
            except RpcError:
                self.note_failure(member)
        return result

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self, rpc_timeout: float = 10.0) -> None:
        """Shut every member down and reap every process ever spawned.

        Dead and replaced members stay in ``members``, so the reap loop
        covers supervisor-respawned workers too — nothing this set ever
        forked can outlive it.
        """
        with self._lock:
            members = list(self.members)
        for member in members:
            if member.process.is_alive() and member.client.broken is None:
                try:
                    member.client.call("shutdown", timeout=rpc_timeout)
                except RpcError:
                    pass  # already gone; terminated below
            member.client.close()
        for member in members:
            member.process.join(timeout=10.0)
            if member.process.is_alive():
                member.process.terminate()
                member.process.join(timeout=5.0)
