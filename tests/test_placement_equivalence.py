"""One spec, one request stream, every placement: the answers agree.

The cell the benchmark's four workloads never covered: the *same*
seeded stream — inserts, deletes, partition-field moves, range and
aggregate queries — replayed against the stack stood up from one
``demo_spec`` in-process, on two shards, and behind the gateway over
each.  Every answer along the way and the final logical content must
be equal; a difference is a bug in a placement, not in the workload.
"""

import asyncio
import random

import pytest

from repro.cluster.harness import DOMAIN, demo_shard_map, demo_spec, launch_demo
from repro.cluster.router import ClusterRouter
from repro.cluster.worker import encode_operation
from repro.durability.codec import CodecError
from repro.engine.database import CatalogError, UnsupportedTransactionError
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.gateway import (
    AsyncGatewayClient,
    ClusterBackend,
    GatewayHandle,
    ViewServerBackend,
)
from repro.service.spec import build_server
from repro.service.traffic import Request, run_traffic
from repro.storage.tuples import Record, Schema, SchemaError

N_RECORDS = 120
SCHEMA = Schema("r", ("id", "a", "v"), "id")
#: A second relation whose keys (and ``v`` cells) are tuples: what JSON
#: alone would hand a shard as lists.
T_SCHEMA = Schema("t", ("id", "a", "v"), "id")
T_RECORDS = [
    {"id": (i // 5, i % 5), "a": (i * 211) % DOMAIN, "v": ("v", i)}
    for i in range(20)
]


def make_stream(length: int = 90, seed: int = 41) -> list[Request]:
    """Churn on a few fresh keys, moves across the shard boundary, reads."""
    rng = random.Random(seed)
    live = list(range(N_RECORDS))
    next_key = 10_000
    stream: list[Request] = []

    def update(ops) -> None:
        stream.append(Request("c", "update", txn=Transaction.of("r", ops)))

    for step in range(length):
        roll = step % 6
        if roll == 0:
            record = SCHEMA.new_record(
                id=next_key, a=rng.randrange(DOMAIN), v=rng.randrange(100)
            )
            live.append(next_key)
            next_key += 1
            update([Insert(record)])
        elif roll == 1:
            # Insert and update the same fresh key inside one transaction.
            record = SCHEMA.new_record(id=next_key, a=rng.randrange(DOMAIN), v=0)
            live.append(next_key)
            update([Insert(record), Update(next_key, {"v": rng.randrange(100)})])
            next_key += 1
        elif roll == 2:
            # a is the partition field: about half of these change shard.
            update([Update(rng.choice(live), {"a": rng.randrange(DOMAIN),
                                             "v": rng.randrange(100)})])
        elif roll == 3:
            update([Delete(live.pop(rng.randrange(len(live))))])
        elif roll == 4:
            lo = rng.randrange(DOMAIN - 200)
            stream.append(Request("c", "query", view="by_a",
                                  lo=lo, hi=lo + rng.randrange(1, 400)))
        else:
            # "lowest" selects from one shard's partition only: the
            # other shard's leg of the scatter answers None.
            view = "lowest" if step % 12 == 11 else "total"
            stream.append(Request("c", "query", view=view))
    # The same kinds of write against the tuple-keyed relation: insert,
    # in-place change, moves across the shard boundary (both ways), an
    # insert-then-update of one fresh key, delete; its view projects the
    # tuple-valued fields.
    def update_t(ops) -> None:
        stream.append(Request("c", "update", txn=Transaction.of("t", ops)))

    whole = Request("c", "query", view="t_by_a", lo=0, hi=DOMAIN - 1)
    # A min over a tuple-valued field answers a tuple, not a list.
    t_lowest = Request("c", "query", view="t_lowest")
    update_t([Insert(T_SCHEMA.new_record(id=(9, 0), a=3, v=("new", 0)))])
    update_t([Update((0, 1), {"v": ("changed", (1, 2))})])
    stream.append(whole)
    stream.append(t_lowest)
    update_t([Update((9, 0), {"a": DOMAIN - 2}), Update((3, 4), {"a": 1})])
    update_t([Insert(T_SCHEMA.new_record(id=(9, 1), a=DOMAIN - 1, v=("new", 1))),
              Update((9, 1), {"v": ("new", (1, 1))})])
    stream.append(Request("c", "query", view="t_by_a", lo=0, hi=DOMAIN // 2 - 1))
    stream.append(t_lowest)
    update_t([Delete((0, 0)), Delete((9, 0))])
    stream.append(whole)
    stream.append(t_lowest)
    stream.append(Request("c", "query", view="lowest"))
    # The final logical content, as the last two answers.
    stream.append(Request("c", "query", view="by_a", lo=0, hi=DOMAIN - 1))
    stream.append(Request("c", "query", view="total"))
    return stream


def plain(answer):
    """Comparable across placements, order included: a tuple answer
    comes back in ``(view key, identity)`` order everywhere."""
    if isinstance(answer, list):
        return [dict(vt.values) for vt in answer]
    return answer


def replay_direct(target, stream) -> list:
    answers = []

    def on_result(request, answer, error):
        assert error is None, f"{request}: {error!r}"
        if request.kind == "query":
            answers.append(plain(answer))

    summary = run_traffic(target, stream, on_result=on_result)
    assert summary.degraded == 0
    return answers


def replay_over_the_wire(backend, stream) -> list:
    """The same requests as wire documents through a live gateway."""
    async def go(port: int) -> list:
        answers = []
        async with AsyncGatewayClient("127.0.0.1", port, client="c") as conn:
            for request in stream:
                if request.kind == "update":
                    ops = [encode_operation(op) for op in request.txn.operations]
                    reply = await conn.update(request.txn.relation, ops)
                    assert reply.ok, reply.doc
                    assert reply.result == {"applied": len(ops)}
                else:
                    reply = await conn.query(request.view, request.lo, request.hi)
                    assert reply.ok, reply.doc
                    payload, degraded = reply.answer()
                    assert degraded is None
                    answers.append(plain(payload))
        return answers

    with GatewayHandle.launch(backend) as handle:
        return asyncio.run(go(handle.port))


@pytest.fixture(scope="module")
def spec():
    spec = demo_spec(n_records=N_RECORDS, seed=5)
    spec["relations"].append({
        **spec["relations"][0], "name": "t", "records": T_RECORDS,
    })
    spec["views"].append({
        **spec["views"][0], "name": "t_by_a", "relation": "t",
    })
    spec["views"].append({
        "type": "aggregate", "name": "lowest", "aggregate": "min", "field": "v",
        "relation": "r", "strategy": "deferred", "policy": None,
        "predicate": {"field": "a", "lo": 0, "hi": 99, "selectivity": 100 / DOMAIN},
    })
    # min(v) over the tuple-valued relation.  It stops short of the
    # domain's last value, where (9, 1) takes a v, ("new", (1, 1)), that
    # does not compare with ("new", 0) on the same shard.
    spec["views"].append({
        **spec["views"][-1], "name": "t_lowest", "relation": "t",
        "predicate": {"field": "a", "lo": 0, "hi": DOMAIN - 2,
                      "selectivity": (DOMAIN - 1) / DOMAIN},
    })
    return spec


@pytest.fixture(scope="module")
def stream():
    return make_stream()


@pytest.fixture(scope="module")
def reference(spec, stream):
    server = build_server(spec)
    try:
        return replay_direct(server, stream)
    finally:
        server.shutdown()


def test_the_stream_exercises_what_it_claims(spec, stream, reference):
    shard_map = demo_shard_map(2)
    owner = {r["id"]: shard_map.shard_of(r["a"])
             for relation in spec["relations"] for r in relation["records"]}
    kinds, moves = set(), 0
    for request in stream:
        if request.kind != "update":
            continue
        for op in request.txn.operations:
            kinds.add(type(op).__name__)
            if isinstance(op, Insert):
                owner[op.record.key] = shard_map.shard_of(op.record.values["a"])
            elif isinstance(op, Update) and "a" in op.changes:
                target = shard_map.shard_of(op.changes["a"])
                moves += target != owner[op.key]
                owner[op.key] = target
    assert kinds == {"Insert", "Update", "Delete"}
    assert moves >= 5  # two of them of tuple-keyed records, one each way
    tuple_keyed = [a for request, a in zip(
        (r for r in stream if r.kind == "query"), reference
    ) if request.view == "t_by_a"]
    assert len(tuple_keyed) == 3 and len(tuple_keyed[-1]) == len(T_RECORDS)
    for row in tuple_keyed[-1]:
        assert type(row["id"]) is tuple and type(row["v"]) is tuple
    assert {"id": (9, 1), "a": DOMAIN - 1, "v": ("new", (1, 1))} in tuple_keyed[-1]
    assert any(isinstance(a, list) and a for a in reference)
    assert len(reference[-2]) > N_RECORDS  # net growth survived the deletes
    queries = [request for request in stream if request.kind == "query"]
    lowest = [a for request, a in zip(queries, reference) if request.view == "lowest"]
    assert len(lowest) >= 3 and None not in lowest
    assert shard_map.shard_of(99) == 0  # one shard selects, the other answers None
    t_lowest = [a for request, a in zip(queries, reference)
                if request.view == "t_lowest"]
    assert len(t_lowest) == 3 and all(type(a) is tuple for a in t_lowest)


def test_two_shards_answer_as_one_server(spec, stream, reference):
    with ClusterRouter.launch(spec, demo_shard_map(2)) as router:
        assert replay_direct(router, stream) == reference


def test_gateway_over_one_server_answers_the_same(spec, stream, reference):
    server = build_server(spec)
    try:
        assert replay_over_the_wire(ViewServerBackend(server), stream) == reference
    finally:
        server.shutdown()


def test_gateway_over_two_shards_answers_the_same(spec, stream, reference):
    with ClusterRouter.launch(spec, demo_shard_map(2)) as router:
        assert replay_over_the_wire(ClusterBackend(router), stream) == reference


def test_the_router_refuses_a_live_key_on_either_shard():
    """Reproduced at 760ec5f: an insert of a live key whose partition
    value falls on the other shard was accepted — ``by_a`` held two
    tuples with one key, ``total`` moved, the directory followed the new
    copy and the old one could never be deleted.  In-process the same
    insert raises ``KeyError``; the router now refuses it (and an update
    naming the key field) before any leg is sent."""
    spec = demo_spec(n_records=40, seed=17)
    old = next(r for r in spec["relations"][0]["records"] if r["id"] == 0)
    other = (old["a"] + DOMAIN // 2) % DOMAIN  # the other half of the domain
    duplicate = Transaction.of("r", [Insert(SCHEMA.new_record(id=0, a=other, v=5))])
    rekey = Transaction.of("r", [Update(1, {"id": 4000, "a": other})])
    with launch_demo(2, n_records=40, seed=17) as router:
        before = (router.query("by_a", 0, DOMAIN - 1), router.query("total"))
        for txn, error in ((duplicate, KeyError), (rekey, UnsupportedTransactionError)):
            with pytest.raises(error):
                router.apply_update(txn)
            assert (router.query("by_a", 0, DOMAIN - 1), router.query("total")) == before
        router.apply_update(Transaction.of("r", [Delete(0)]))
        assert [vt for vt in router.query("by_a", 0, DOMAIN - 1) if vt["id"] == 0] == []
    server = build_server(spec)
    try:
        with pytest.raises(KeyError, match="duplicate key 0"):
            server.apply_update(duplicate)
        with pytest.raises(UnsupportedTransactionError):
            server.apply_update(rekey)
    finally:
        server.shutdown()


def test_a_refused_transaction_moves_nothing():
    """Reproduced at 4c892e9: a transaction whose first operation moves
    record 1 across the shard boundary and whose second deletes a key
    nobody owns.  The router fetched, inserted and deleted the moved
    tuple, then raised, leaving ``by_a`` with ``id=1`` at its new ``a``.
    In-process the same transaction raises ``KeyError`` and changes
    nothing; the router now resolves every key's owner before any leg is
    sent."""
    spec = demo_spec(n_records=40, seed=17)
    one = next(r for r in spec["relations"][0]["records"] if r["id"] == 1)
    txn = Transaction.of(
        "r", [Update(1, {"a": one["a"] + DOMAIN // 2}), Delete(999999)]
    )
    with launch_demo(2, n_records=40, seed=17) as router:
        assert router.shard_map.shard_of(one["a"]) == 0
        before = (router.query("by_a", 0, DOMAIN - 1), router.query("total"))
        with pytest.raises(KeyError, match="no tuple with key 999999 in 'r'"):
            router.apply_update(txn)
        assert (router.query("by_a", 0, DOMAIN - 1), router.query("total")) == before
        assert router.metrics.counter(
            "cross_shard_moves_total", relation="r"
        ).value == 0
    server = build_server(spec)
    try:
        before = (server.query("by_a", 0, DOMAIN - 1), server.query("total"))
        with pytest.raises(KeyError):
            server.apply_update(txn)
        assert (server.query("by_a", 0, DOMAIN - 1), server.query("total")) == before
    finally:
        server.shutdown()


def test_the_router_refuses_a_bad_field_set_before_any_leg():
    """Reproduced at a903bec: an update of a tuple on shard 0 and an
    insert with a field the schema lacks on shard 1.  The router read no
    field set, so shard 0's leg committed and shard 1's raised
    ``RemoteOpError``; ``total`` moved by the update.  It now reads the
    documents as a shard does and refuses them before any leg is sent,
    as in-process."""
    spec = demo_spec(n_records=40, seed=17)
    shard_map = demo_shard_map(2)
    low = next(r for r in spec["relations"][0]["records"] if shard_map.shard_of(r["a"]) == 0)
    values = {"id": 9000, "a": DOMAIN - 1, "v": 1, "zz": 1}
    assert shard_map.shard_of(values["a"]) == 1
    update = Update(low["id"], {"v": low["v"] + 731})
    txn = Transaction.of("r", [update, Insert(Record(9000, values))])
    docs = [encode_operation(update), {"kind": "insert", "values": values}]
    with launch_demo(2, n_records=40, seed=17) as router:
        before = (router.query("by_a", 0, DOMAIN - 1), router.query("total"))
        with pytest.raises(SchemaError, match=r"extra=\['zz'\]"):
            router.apply_update(txn)
        with pytest.raises(SchemaError, match=r"extra=\['zz'\]"):
            router.apply_documents("r", docs)
        assert (router.query("by_a", 0, DOMAIN - 1), router.query("total")) == before
    server = build_server(spec)
    try:
        with pytest.raises(SchemaError, match=r"extra=\['zz'\]"):
            server.apply_update(txn)
    finally:
        server.shutdown()


#: Refused writes as wire documents, with the error every placement
#: raises for them.  Reproduced at a903bec: a shard placement raised a
#: different error on each row (``ClusterError`` for a key, a kind or a
#: relation it did not know, ``RemoteOpError`` for a field set, a
#: reworded re-key message) and accepted the empty list; in-process an
#: unknown relation was a bare ``KeyError``.
REFUSALS = {
    "missing-key": ("r", [{"kind": "update", "key": 0, "changes": {"v": 7}},
                          {"kind": "update", "key": 999999, "changes": {"v": 1}}],
                    KeyError, "no tuple with key 999999 in 'r'"),
    "unknown-update-field": ("r", [{"kind": "update", "key": 1, "changes": {"zz": 1}}],
                             SchemaError, r"unknown fields \['zz'\] in update"),
    "wrong-fields-insert": ("r", [{"kind": "insert",
                                   "values": {"id": 9000, "a": 5, "v": 1, "zz": 1}}],
                            SchemaError, r"missing=\[\], extra=\['zz'\]"),
    "unknown-kind": ("r", [{"kind": "upsert", "key": 1}],
                     CodecError, "unknown operation kind 'upsert'"),
    "empty": ("r", [], ValueError, "transaction has no operations"),
    "unknown-relation": ("nope", [{"kind": "delete", "key": 1}],
                         CatalogError, "unknown relation 'nope'"),
    "key-field-update": ("r", [{"kind": "update", "key": 1, "changes": {"id": 5}}],
                         UnsupportedTransactionError,
                         "re-key a tuple with a Delete and an Insert"),
}


@pytest.fixture(scope="module")
def backends():
    server = build_server(demo_spec(n_records=40, seed=17))
    try:
        with launch_demo(2, n_records=40, seed=17) as router:
            yield ViewServerBackend(server), ClusterBackend(router)
    finally:
        server.shutdown()


def answers(backend):
    return (backend.query("by_a", 0, DOMAIN - 1, "c"),
            backend.query("total", None, None, "c"))


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_refused_write_is_refused_alike_on_every_placement(backends, case):
    relation, ops, error, match = REFUSALS[case]
    seen = []
    for backend in backends:
        before = answers(backend)
        with pytest.raises(error, match=match) as info:
            backend.update(relation, [dict(op) for op in ops], "c")
        seen.append((type(info.value), str(info.value)))
        assert answers(backend) == before
    assert seen[0] == seen[1]
