"""The caller's deadline budget reaches every shard leg of a write.

Regression tests for the gap repro-lint's deadline-threading rule
found: ``ClusterRouter.apply_update`` (and the gateway's
``ClusterBackend.update`` above it) dropped the remaining deadline on
the floor, so a gateway write fan-out ran on each shard client's
30-second construction default no matter how little budget was left.
The fakes below record the ``timeout`` each replica-set call actually
received.
"""

import pytest

from repro.cluster.router import ClusterRouter
from repro.cluster.rpc import finish
from repro.cluster.shardmap import ShardMap
from repro.engine.transaction import Transaction, Update
from repro.gateway.server import ClusterBackend
from repro.service.spec import definition_of
from repro.storage.tuples import Schema


class FakeReplicaSet:
    """Duck-typed ReplicaSet that records every call's timeout."""

    def __init__(self, values=None):
        self.values = values or {}
        self.apply_calls = []
        self.rpc_calls = []

    def update_leg(self, relation, ops, client="anon", timeout=None):
        self.apply_calls.append(
            {"relation": relation, "ops": list(ops), "client": client,
             "timeout": timeout}
        )
        return {"applied": len(ops)}
        yield  # a leg that never has to wait

    def primary_leg(self, op, timeout=None, **kwargs):
        self.rpc_calls.append({"op": op, "timeout": timeout, **kwargs})
        return {"values": dict(self.values)} if op == "fetch" else {}
        yield

    def refresh_leg(self, timeout=None):
        self.rpc_calls.append({"op": "refresh", "timeout": timeout})
        return {"refreshed": []}
        yield

    def query_leg(self, timeout=None, **params):
        self.rpc_calls.append({"op": "query", "timeout": timeout, **params})
        answer = {"kind": "scalar", "value": 1, "degraded": None}
        return answer, {"retried": False}
        yield

    # The blocking forms, defined as the real ones are.
    def apply_update(self, relation, ops, client="anon", timeout=None):
        return finish(self.update_leg(relation, ops, client=client, timeout=timeout))

    def call_primary(self, op, timeout=None, **kwargs):
        return finish(self.primary_leg(op, timeout=timeout, **kwargs))


@pytest.fixture()
def router():
    shard_map = ShardMap("range", 2, "a", bounds=(100,))
    shards = [
        FakeReplicaSet(values={"id": 0, "a": 5, "v": 1}),
        FakeReplicaSet(),
    ]
    directory = {("r", 0): 0, ("r", 1): 1}
    total = definition_of(
        {"type": "aggregate", "name": "total", "aggregate": "sum",
         "relation": "r", "field": "v"}
    )
    router = ClusterRouter(shard_map, shards, [total], directory,
                           schemas=[Schema("r", ("id", "a", "v"), "id")])
    assert "total" not in router._prunable
    return router, shards


def test_update_timeout_reaches_the_shard(router):
    cluster, shards = router
    cluster.apply_update(
        Transaction.of("r", [Update(0, {"v": 5})]), client="c", timeout=1.5
    )
    assert [call["timeout"] for call in shards[0].apply_calls] == [1.5]


def test_scatter_carries_timeout_to_every_shard(router):
    cluster, shards = router
    cluster.apply_update(
        Transaction.of("r", [Update(0, {"v": 5}), Update(1, {"v": 6})]),
        timeout=0.25,
    )
    for shard in shards:
        assert [call["timeout"] for call in shard.apply_calls] == [0.25]


def test_cross_shard_move_bounds_all_three_legs(router):
    cluster, shards = router
    # a: 5 -> 150 crosses the range bound, so the update becomes
    # fetch(source) + insert(target) + delete(source).
    cluster.apply_update(
        Transaction.of("r", [Update(0, {"a": 150})]), timeout=2.0
    )
    fetches = [c for c in shards[0].rpc_calls if c["op"] == "fetch"]
    assert [c["timeout"] for c in fetches] == [2.0]
    assert [c["timeout"] for c in shards[1].apply_calls] == [2.0]  # insert
    assert [c["timeout"] for c in shards[0].apply_calls] == [2.0]  # delete
    assert shards[1].apply_calls[0]["ops"][0]["kind"] == "insert"
    assert shards[0].apply_calls[0]["ops"][0]["kind"] == "delete"


def test_scattered_query_and_refresh_legs_carry_the_timeout(router):
    cluster, shards = router
    assert cluster.query("total", timeout=0.4) == 2
    assert cluster.refresh_epoch(timeout=0.6) is True
    for shard in shards:
        assert [(c["op"], c["timeout"]) for c in shard.rpc_calls] == [
            ("query", 0.4), ("refresh", 0.6)]


def test_omitted_timeout_still_defaults_to_client_rpc_timeout(router):
    cluster, shards = router
    cluster.apply_update(Transaction.of("r", [Update(0, {"v": 5})]))
    assert [call["timeout"] for call in shards[0].apply_calls] == [None]


class FakeRouter:
    def __init__(self):
        self.calls = []

    def views(self):
        return ("v_total",)

    def apply_documents(self, relation, ops, client="anon", timeout=None):
        self.calls.append({"ops": ops, "client": client, "timeout": timeout})


def test_gateway_backend_forwards_remaining_budget():
    fake = FakeRouter()
    backend = ClusterBackend(fake)
    n = backend.update(
        "r", [{"kind": "update", "key": 0, "changes": {"v": 9}}],
        client="conn-1", timeout=0.7,
    )
    assert n == 1
    assert fake.calls[0]["timeout"] == 0.7
    assert fake.calls[0]["client"] == "conn-1"
