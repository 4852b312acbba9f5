"""Health-checked supervision: heartbeats, failover, repair, respawn.

The :class:`ClusterSupervisor` is one background thread watching every
member of every shard's replica set:

* **heartbeats** — each live member is pinged over its existing framed
  RPC connection under ``heartbeat_timeout_s``; the reply refreshes the
  member's applied-epoch record.  Failures are *consecutive-counted*:
  ``suspect_after`` misses mark the member suspect, ``dead_after``
  mark it dead — one slow call never removes a worker from service.
* **promotion** — a shard whose primary is dead gets the most-caught-up
  live replica promoted (after delta-log catch-up, so no acked write
  is lost).  Every primary op (write, refresh, fetch/stats/metrics)
  also promotes inline on first contact with a dead primary; the
  supervisor is the backstop that catches shards with no traffic.
* **repair** — a poisoned :class:`~repro.cluster.rpc.ShardClient`
  whose worker process is still alive is reconnected (the worker's
  accept loop takes a fresh connection) and, for replicas, resynced by
  replaying missed deltas — a broken TCP stream is not a dead shard.
* **respawn** — a shard running below its configured 1+N membership
  gets a replacement replica forked from a healthy member's snapshot
  plus replayed deltas.  Replaced and dead members stay in the set's
  member list, so the router's close() reaps every process the
  supervisor ever created.

What it does is counted in the router's metrics registry
(``heartbeats_total``, ``member_failures_total``,
``supervisor_errors_total``; promotions, respawns and repairs by the
replica set).
"""

from __future__ import annotations

import threading
from typing import Any

from .replication import ReplicaSet, ReplicationError
from .rpc import RpcError

__all__ = ["ClusterSupervisor"]


class ClusterSupervisor:
    """Background health checker and failover driver for one router."""

    def __init__(self, router: Any, interval_s: float | None = None) -> None:
        self.router = router
        #: Sweep cadence; defaults to the tightest heartbeat interval
        #: any shard's replication config asks for.
        self.interval_s = interval_s if interval_s is not None else min(
            (rs.config.heartbeat_interval_s for rs in router.shards),
            default=0.15,
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ClusterSupervisor":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-cluster-supervisor", daemon=True,
        )
        self._thread.start()
        self.router.supervisor = self
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # the watch loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            for replica_set in self.router.shards:
                if self._stop.is_set():
                    return
                try:
                    self._check(replica_set)
                except Exception:
                    # Supervision must survive anything one shard's
                    # check throws; the error is counted, the next
                    # sweep retries.
                    self._count("supervisor_errors_total")

    def _count(self, name: str, **labels: str) -> None:
        self.router.metrics.counter(name, **labels).inc()

    def _check(self, rs: ReplicaSet) -> None:
        cfg = rs.config
        for member in list(rs.members):
            if self._stop.is_set():
                return
            if member.health == "dead":
                continue
            if not member.process.is_alive():
                member.health = "dead"
                self._count(
                    "member_failures_total",
                    shard=str(rs.shard_id), member=str(member.member_id),
                )
                continue
            if member.client.broken is not None:
                try:
                    rs.resync(member)
                except (RpcError, ReplicationError):
                    rs.note_failure(member)
                continue
            try:
                pong = member.client.call(
                    "ping", timeout=cfg.heartbeat_timeout_s
                )
            except RpcError:
                rs.note_failure(member)
                continue
            self._count("heartbeats_total", shard=str(rs.shard_id))
            member.applied_epoch = max(
                member.applied_epoch, int(pong.get("epoch", 0))
            )
            member.note_ok()
        # A promotion or respawn that fails is counted by _run, like
        # any other error of a sweep; the next sweep retries.
        primary = rs.primary
        if (primary is None or not primary.is_live) and rs.live_replicas():
            rs.promote()
        if cfg.respawn and cfg.replicas:
            target = 1 + cfg.replicas
            if len(rs.live_members()) < target and rs.live_members():
                rs.respawn_replica()
