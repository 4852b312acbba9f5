"""The shard wire's operation and answer codecs.

Keys, values, changes and answer cells cross the wire through the
journal's value codec, so what a shard decodes is what an in-process
server was handed — tuples included — while every all-atom document
keeps the bytes the parent commit wrote.
"""

import hashlib
import json
import random

import pytest

from repro.cluster import worker
from repro.cluster.rpc import pack_frame
from repro.durability.codec import decode_value
from repro.cluster.worker import (
    WorkerState,
    decode_answer,
    decode_operation,
    encode_answer,
    encode_operation,
)
from repro.engine.transaction import Delete, Insert, Update
from repro.resilience.degradation import DegradedResult
from repro.service.spec import build_server, demo_spec
from repro.storage.tuples import Schema
from repro.views.definition import ViewTuple

SCHEMA = Schema("r", ("id", "a", "v"), "id")


def wire(doc):
    """What the peer parses: the document as JSON text and back."""
    return json.loads(json.dumps(doc, separators=(",", ":")))


class TestOperations:
    @pytest.mark.parametrize("op", [
        Insert(SCHEMA.new_record(id=(1, 2), a=5, v=("x", "y"))),
        Delete((1, 2)),
        Update((1, (2, 3)), {"v": ("x", ("y",)), "a": 6}),
        Insert(SCHEMA.new_record(id=7, a=5, v=None)),
        Update("k", {"a": 2.5}),
    ], ids=["insert-tuple", "delete-tuple", "update-nested", "insert-atoms",
            "update-atoms"])
    def test_round_trip_is_the_operation(self, op):
        back = decode_operation(SCHEMA, wire(encode_operation(op)))
        assert back == op
        key = back.record.key if isinstance(back, Insert) else back.key
        assert {key: 1}  # hashable: a shard files it in its key directory

    def test_all_atom_documents_keep_the_parents_bytes(self):
        ops = [Insert(SCHEMA.new_record(id=7, a=5, v="x")), Delete(7),
               Update(7, {"v": None, "a": 2.5})]
        assert json.dumps([encode_operation(op) for op in ops],
                          separators=(",", ":")) == (
            '[{"kind":"insert","values":{"id":7,"a":5,"v":"x"}},'
            '{"kind":"delete","key":7},'
            '{"kind":"update","key":7,"changes":{"v":null,"a":2.5}}]'
        )

    def test_a_tuple_travels_tagged(self):
        assert encode_operation(Delete((1, 2))) == {
            "kind": "delete", "key": {"t": "tuple", "items": [1, 2]}}


class TestAnswers:
    def test_rows_are_positional_with_the_view_key_first(self):
        answer = [ViewTuple({"id": 3, "a": 5, "v": 1}),
                  ViewTuple({"id": 4, "a": 6, "v": 2})]
        doc = encode_answer(answer, "id")
        assert doc == {"kind": "rows", "fields": ["id", "a", "v"],
                       "rows": [(3, 5, 1), (4, 6, 2)], "degraded": None}
        # Without a view key (the gateway's encode): plain name order.
        assert encode_answer(answer)["fields"] == ["a", "id", "v"]
        assert json.dumps(doc, separators=(",", ":")) == (
            '{"kind":"rows","fields":["id","a","v"],'
            '"rows":[[3,5,1],[4,6,2]],"degraded":null}'
        )
        payload, degraded = decode_answer(wire(doc))
        assert payload == answer and degraded is None

    def test_only_columns_holding_a_non_atom_are_tagged(self):
        answer = [ViewTuple({"a": 5, "id": (1, 2), "v": "x"}),
                  ViewTuple({"a": 5, "id": (1, 3), "v": "y"})]
        doc = encode_answer(answer, "a")
        assert doc["fields"] == ["a", "id", "v"] and doc["tagged"] == [1]
        assert doc["rows"][0] == [5, {"t": "tuple", "items": [1, 2]}, "x"]
        payload, _ = decode_answer(wire(doc))
        assert payload == answer  # the issue's ViewTuple(a=5, id=(1, 2)) != itself
        assert {vt["id"] for vt in payload} == {(1, 2), (1, 3)}
        assert "tagged" not in encode_answer([ViewTuple({"a": 5, "v": None})])

    @pytest.mark.parametrize("answer", [
        [], [ViewTuple({"a": 1})] * 3, [ViewTuple({"a": (1,)})],
    ], ids=["empty", "one-field", "one-tagged-field"])
    def test_narrow_answers_round_trip(self, answer):
        doc = encode_answer(answer, "a")
        assert doc["fields"] == (["a"] if answer else [])
        assert decode_answer(wire(doc)) == (answer, None)

    def test_scalars_keep_the_parents_bytes_and_degraded_labels_ride_along(self):
        assert json.dumps(encode_answer(12), separators=(",", ":")) == (
            '{"kind":"scalar","value":12,"degraded":null}')
        assert [json.dumps(encode_answer(v)["value"]) for v in (None, 2.5, "x", True)] == [
            "null", "2.5", '"x"', "true"]
        degraded = DegradedResult(
            [ViewTuple({"a": 1})], "v", "qm_fallback", "why", 3, "qm")
        payload, label = decode_answer(wire(encode_answer(degraded, "a")))
        assert payload == [ViewTuple({"a": 1})]
        assert label["mode"] == "qm_fallback" and label["staleness_bound"] == 3

    def test_a_tuple_valued_scalar_comes_back_a_tuple(self):
        # A min/max over a tuple-valued field: JSON alone made it a list.
        doc = encode_answer(("v", (0, 1)))
        assert doc["value"] == {"t": "tuple", "items": [
            "v", {"t": "tuple", "items": [0, 1]}]}
        assert decode_answer(wire(doc)) == (("v", (0, 1)), None)

    def test_the_retired_per_tuple_form_has_no_reader(self):
        old = {"kind": "tuples", "items": [{"a": 1}], "degraded": None}
        assert decode_answer(old) == (None, None)


def decoded(values):
    """A fetched or snapshot tuple's values, decoded field by field."""
    return {field: decode_value(value) for field, value in values.items()}


class TestWorkerOps:
    @pytest.fixture()
    def server(self):
        spec = demo_spec(n_records=20, seed=3)
        spec["relations"][0]["records"] = [
            {"id": (i, "k"), "a": i * 7, "v": ("v", i)} for i in range(20)
        ]
        del spec["views"][1]  # sum(v) is not defined over tuples
        server = build_server(spec)
        yield server
        server.shutdown()

    def test_fetch_reads_one_tuple_by_its_wire_key(self, server, monkeypatch):
        monkeypatch.setattr(
            server.database, "logical_records",
            lambda name: pytest.fail("fetch must not snapshot the partition"),
        )
        state = WorkerState()
        key = wire(encode_operation(Delete((3, "k"))))["key"]
        fetched = worker._handle(server, "fetch", {"relation": "r", "key": key}, state)
        assert decoded(wire(fetched)["values"]) == {
            "id": (3, "k"), "a": 21, "v": ("v", 3)}
        gone = wire(encode_operation(Delete((99, "k"))))["key"]
        assert worker._handle(
            server, "fetch", {"relation": "r", "key": gone}, state
        ) == {"values": None}

    def test_fetch_sees_pending_changes(self, server):
        state = WorkerState()
        ops = [encode_operation(Update((3, "k"), {"v": ("w", 3)})),
               encode_operation(Delete((4, "k")))]
        worker._handle(server, "update", {"relation": "r", "ops": wire(ops)}, state)
        assert server.database.relations["r"].pending  # not folded yet
        for key, expected in (((3, "k"), ("w", 3)), ((4, "k"), None)):
            fetched = worker._handle(
                server, "fetch",
                {"relation": "r", "key": wire(encode_operation(Delete(key)))["key"]},
                state,
            )["values"]
            assert (fetched and decoded(fetched)["v"]) == expected

    def test_snapshot_records_come_back_as_they_were(self, server):
        snap = wire(worker._handle(server, "snapshot", {}, WorkerState()))
        records = list(map(decoded, snap["relations"]["r"]))
        assert sorted(records, key=lambda r: r["id"])[3] == {
            "id": (3, "k"), "a": 21, "v": ("v", 3)}

    def test_a_query_answers_with_the_view_key_first(self, server):
        doc = worker._handle(
            server, "query", {"view": "by_a", "lo": 0, "hi": 30}, WorkerState())
        assert doc["fields"] == ["a", "id", "v"] and doc["tagged"] == [1, 2]
        assert [vt["a"] for vt in decode_answer(wire(doc))[0]] == [0, 7, 14, 21, 28]


def _join_spec():
    rng = random.Random(11)
    view = {"type": "join", "name": "jv", "outer": "r1", "inner": "r2",
            "join_field": "j", "strategy": "deferred", "policy": None,
            "predicate": {"field": "a", "lo": 0, "hi": 29, "selectivity": 0.75},
            "outer_projection": ["id", "a"], "inner_projection": ["j", "c"],
            "view_key": "a"}
    return {
        "relations": [
            {"name": "r1", "fields": ["id", "a", "j", "v"], "key_field": "id",
             "clustered_on": "a", "kind": "hypothetical",
             "records": [{"id": i, "a": rng.randrange(40), "j": i % 6, "v": i}
                         for i in range(40)]},
            {"name": "r2", "fields": ["j", "c"], "key_field": "j",
             "clustered_on": "j", "kind": "hashed",
             "records": [{"j": j, "c": j * 10} for j in range(6)]},
        ],
        "views": [view],
    }


def _shared_names_spec():
    # The inner relation also has an ``id`` and holds its join field as a
    # float; the view takes both from the outer side only.
    spec = _join_spec()
    spec["views"][0].update(outer_projection=["id", "a", "j"], inner_projection=["c"])
    spec["relations"][1].update(fields=["id", "j", "c"], records=[
        {"id": 100 + j, "j": float(j), "c": j * 10} for j in range(6)])
    return spec


def _tagged_spec():
    spec = demo_spec(n_records=40, seed=3)
    for i, record in enumerate(spec["relations"][0]["records"]):
        record["v"] = ("v", i % 3)
    del spec["views"][1]  # sum(v) is not defined over tuples
    return spec


#: (spec, view, relation, ops applied before the read, lo, hi)
REPLIES = {
    "select-project": (lambda: demo_spec(n_records=40, seed=3), "by_a", "r",
                       [Update(3, {"v": 7}), Update(5, {"a": 2}), Delete(8)],
                       0, 800),
    "select-project-tagged": (_tagged_spec, "by_a", "r",
                              [Update(3, {"v": ("w", (1, 2))}), Delete(8)],
                              0, 800),
    "join": (_join_spec, "jv", "r1",
             [Update(3, {"a": 4}), Update(7, {"j": 2}), Delete(9)], 0, 29),
    "join-shared-names": (_shared_names_spec, "jv", "r1",
                          [Update(3, {"a": 4}), Update(7, {"j": 2}), Delete(9)], 0, 29),
}


class TestQueryReplyBytesPinned:
    """A shard's ``query`` reply frame, byte for byte, as the commit
    before a view tuple became a positional row wrote it: a select-project
    view whose projection order (``id, a, v``) is not the wire order
    (``a, id, v``), with and without a tagged column, and a join (once
    more with an inner relation that shares the outer's field names)."""

    @pytest.mark.parametrize("case, length, digest", [
        ("select-project", 267, "aaeb7a24581721d7"),
        ("select-project-tagged", 650, "2819a7d6fd02b14f"),
        ("join", 417, "240088bc71d43009"),
        ("join-shared-names", 417, "240088bc71d43009"),  # the outer values
    ])
    def test_recorded_reply_frame(self, case, length, digest):
        make_spec, view, relation, ops, lo, hi = REPLIES[case]
        server = build_server(make_spec())
        try:
            state = WorkerState()
            worker._handle(server, "update", {
                "relation": relation,
                "ops": wire([encode_operation(op) for op in ops])}, state)
            result = worker._handle(
                server, "query", {"view": view, "lo": lo, "hi": hi}, state)
        finally:
            server.shutdown()
        frame = pack_frame({"id": 7, "ok": True, "result": result})
        assert (len(frame), hashlib.sha256(frame).hexdigest()[:16]) == (length, digest)
