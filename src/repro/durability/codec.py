"""Wire codec: engine objects <-> JSON-safe dictionaries.

The engine journals *objects* (transactions, schemas, view
definitions); the WAL and checkpoint files store *JSON lines*.  This
module owns the mapping in both directions so the engine never imports
durability code and the durability layer never reaches into engine
internals beyond public constructors.

Every encoded document is tagged (``"t"`` for polymorphic values) so
decoding is table-driven, and scalars pass through untouched — the
engine's records hold JSON-native field values (ints, floats, strings,
bools, ``None``); containers are encoded with an explicit tuple/list
marker so round-trips preserve identity-sensitive types.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import zip_longest
from operator import attrgetter
from typing import Any

from repro.core.strategies import Strategy
from repro.engine.database import ViewSpec
from repro.engine.transaction import Delete, Insert, Operation, Transaction, Update
from repro.storage.tuples import Layout, Record, Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import (
    AndPredicate,
    ComparisonPredicate,
    IntervalPredicate,
    NotPredicate,
    OrPredicate,
    Predicate,
    TruePredicate,
)

__all__ = [
    "CodecError",
    "encode_value",
    "decode_value",
    "encode_record",
    "decode_record",
    "tagged_columns",
    "encode_rows",
    "decode_rows",
    "decode_records",
    "encode_schema",
    "decode_schema",
    "encode_predicate",
    "decode_predicate",
    "encode_definition",
    "decode_definition",
    "encode_spec",
    "decode_spec",
    "encode_operation",
    "decode_operation",
    "encode_transaction",
    "decode_transaction",
    "encode_event",
    "decode_event",
]


class CodecError(ValueError):
    """A value cannot be encoded to (or decoded from) the wire format."""


# ----------------------------------------------------------------------
# scalars and containers
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """JSON-safe encoding of a record field / key value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return {
            "t": "tuple" if isinstance(value, tuple) else "list",
            "items": [encode_value(v) for v in value],
        }
    raise CodecError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def decode_value(doc: Any) -> Any:
    if isinstance(doc, Mapping):
        items = [decode_value(v) for v in doc["items"]]
        return tuple(items) if doc.get("t") == "tuple" else items
    return doc


# ----------------------------------------------------------------------
# records and schemas
# ----------------------------------------------------------------------
def encode_record(record: Record) -> dict[str, Any]:
    """A record's key and values, the values in its image order."""
    return {
        "key": encode_value(record.key),
        "values": {f: encode_value(v) for f, v in record.layout.items(record.row)},
    }


def decode_record(doc: Mapping[str, Any]) -> Record:
    """A row over the document's field order, imaged in it."""
    values = doc["values"]
    return Layout.of(values).record(
        decode_value(doc["key"]), tuple(map(decode_value, values.values()))
    )


_ATOMS = frozenset({type(None), bool, int, float, str})
_key_of, _layout_of, _row_of = attrgetter("key"), attrgetter("layout"), attrgetter("row")


def tagged_columns(rows: Sequence[Sequence[Any]]) -> list[int]:
    """The columns of ``rows`` that hold a non-atom: the ones whose
    values must go through :func:`encode_value` (a short row has no
    value in the columns past its end)."""
    return [at for at, column in enumerate(zip_longest(*rows))
            if not _ATOMS.issuperset(map(type, column))]


def encode_rows(records: Sequence[Record]) -> dict[str, Any]:
    """Records as one row block: each distinct layout's ``fields`` and
    ``image`` once, the keys as one column and every ``record.row`` as it
    is, in order.  ``of`` numbers each record's layout when there is more
    than one; ``tagged`` lists the row columns that hold a non-atom and
    went through :func:`encode_value` (``tagged_keys`` the key column),
    so an all-atom block pays no per-value call."""
    layouts = dict.fromkeys(map(_layout_of, records))
    keys, rows = list(map(_key_of, records)), list(map(_row_of, records))
    block: dict[str, Any] = {"layouts": [[lay.fields, lay.image] for lay in layouts]}
    if len(layouts) > 1:
        number = {layout: at for at, layout in enumerate(layouts)}
        block["of"] = list(map(number.__getitem__, map(_layout_of, records)))
    if not _ATOMS.issuperset(map(type, keys)):
        keys, block["tagged_keys"] = list(map(encode_value, keys)), True
    tagged = tagged_columns(rows)
    if tagged:
        block["tagged"] = tagged
        rows = [[encode_value(v) if at in tagged else v for at, v in enumerate(row)]
                for row in rows]
    return {**block, "keys": keys, "rows": rows}


def decode_rows(block: Mapping[str, Any]) -> list[Record]:
    """Inverse of :func:`encode_rows`: each record over its own layout,
    ``Layout.of(fields, image)`` — the layout the live record had."""
    layouts = [Layout.of(fields, image) for fields, image in block["layouts"]]
    keys, rows, tagged = block["keys"], block["rows"], block.get("tagged", ())
    if block.get("tagged_keys"):
        keys = list(map(decode_value, keys))
    if tagged:
        rows = [[decode_value(v) if at in tagged else v for at, v in enumerate(row)]
                for row in rows]
    if len(layouts) == 1:
        return list(map(layouts[0].record, keys, map(tuple, rows)))
    return [layouts[n].record(k, tuple(r)) for n, k, r in zip(block.get("of", ()), keys, rows)]


def decode_records(doc: Any) -> list[Record]:
    """A row block, or a list of :func:`encode_record` documents as
    written before blocks (each decoded as it was then)."""
    if isinstance(doc, Mapping):
        return decode_rows(doc)
    return [decode_record(r) for r in doc]


def encode_schema(schema: Schema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "fields": list(schema.fields),
        "key_field": schema.key_field,
        "tuple_bytes": schema.tuple_bytes,
    }


def decode_schema(doc: Mapping[str, Any]) -> Schema:
    return Schema(
        name=doc["name"],
        fields=tuple(doc["fields"]),
        key_field=doc["key_field"],
        tuple_bytes=doc["tuple_bytes"],
    )


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------
def encode_predicate(predicate: Predicate) -> dict[str, Any]:
    if isinstance(predicate, TruePredicate):
        return {"t": "true"}
    if isinstance(predicate, IntervalPredicate):
        return {
            "t": "interval",
            "field": predicate.field,
            "lo": encode_value(predicate.lo),
            "hi": encode_value(predicate.hi),
            "selectivity": predicate.selectivity,
        }
    if isinstance(predicate, ComparisonPredicate):
        return {
            "t": "comparison",
            "field": predicate.field,
            "op": predicate.op,
            "constant": encode_value(predicate.constant),
        }
    if isinstance(predicate, AndPredicate):
        return {"t": "and", "clauses": [encode_predicate(c) for c in predicate.clauses]}
    if isinstance(predicate, OrPredicate):
        return {"t": "or", "clauses": [encode_predicate(c) for c in predicate.clauses]}
    if isinstance(predicate, NotPredicate):
        return {"t": "not", "clause": encode_predicate(predicate.clause)}
    raise CodecError(f"cannot encode predicate type {type(predicate).__name__}")


def decode_predicate(doc: Mapping[str, Any]) -> Predicate:
    tag = doc.get("t")
    if tag == "true":
        return TruePredicate()
    if tag == "interval":
        return IntervalPredicate(
            field=doc["field"],
            lo=decode_value(doc["lo"]),
            hi=decode_value(doc["hi"]),
            selectivity=doc.get("selectivity"),
        )
    if tag == "comparison":
        return ComparisonPredicate(
            field=doc["field"], op=doc["op"], constant=decode_value(doc["constant"])
        )
    if tag == "and":
        return AndPredicate(tuple(decode_predicate(c) for c in doc["clauses"]))
    if tag == "or":
        return OrPredicate(tuple(decode_predicate(c) for c in doc["clauses"]))
    if tag == "not":
        return NotPredicate(decode_predicate(doc["clause"]))
    raise CodecError(f"unknown predicate tag {tag!r}")


# ----------------------------------------------------------------------
# view definitions
# ----------------------------------------------------------------------
def encode_definition(
    definition: SelectProjectView | JoinView | AggregateView,
) -> dict[str, Any]:
    if isinstance(definition, SelectProjectView):
        return {
            "t": "select_project",
            "name": definition.name,
            "relation": definition.relation,
            "predicate": encode_predicate(definition.predicate),
            "projection": list(definition.projection),
            "view_key": definition.view_key,
        }
    if isinstance(definition, JoinView):
        return {
            "t": "join",
            "name": definition.name,
            "outer": definition.outer,
            "inner": definition.inner,
            "join_field": definition.join_field,
            "predicate": encode_predicate(definition.predicate),
            "outer_projection": list(definition.outer_projection),
            "inner_projection": list(definition.inner_projection),
            "view_key": definition.view_key,
        }
    if isinstance(definition, AggregateView):
        return {
            "t": "aggregate",
            "name": definition.name,
            "relation": definition.relation,
            "predicate": encode_predicate(definition.predicate),
            "aggregate": definition.aggregate,
            "field": definition.field,
        }
    raise CodecError(f"cannot encode definition type {type(definition).__name__}")


def decode_definition(
    doc: Mapping[str, Any],
) -> SelectProjectView | JoinView | AggregateView:
    tag = doc.get("t")
    if tag == "select_project":
        return SelectProjectView(
            name=doc["name"],
            relation=doc["relation"],
            predicate=decode_predicate(doc["predicate"]),
            projection=tuple(doc["projection"]),
            view_key=doc["view_key"],
        )
    if tag == "join":
        return JoinView(
            name=doc["name"],
            outer=doc["outer"],
            inner=doc["inner"],
            join_field=doc["join_field"],
            predicate=decode_predicate(doc["predicate"]),
            outer_projection=tuple(doc["outer_projection"]),
            inner_projection=tuple(doc["inner_projection"]),
            view_key=doc["view_key"],
        )
    if tag == "aggregate":
        return AggregateView(
            name=doc["name"],
            relation=doc["relation"],
            predicate=decode_predicate(doc["predicate"]),
            aggregate=doc["aggregate"],
            field=doc["field"],
        )
    raise CodecError(f"unknown definition tag {tag!r}")


# ----------------------------------------------------------------------
# view specs (the catalog's entry: definition, strategy, options)
# ----------------------------------------------------------------------
def _encode_options(spec: ViewSpec) -> dict[str, Any]:
    """Everything of a spec but its definition."""
    doc = {**vars(spec), "strategy": spec.strategy.value}
    del doc["definition"]
    return doc


def _decode_options(doc: Mapping[str, Any]) -> dict[str, Any]:
    options = {name: doc[name] for name in ("plan", "index_field", "refresh_every")}
    return {"strategy": Strategy(doc["strategy"]), **options}


def encode_spec(spec: ViewSpec) -> dict[str, Any]:
    return {"definition": encode_definition(spec.definition), **_encode_options(spec)}


def decode_spec(doc: Mapping[str, Any]) -> ViewSpec:
    return ViewSpec(decode_definition(doc["definition"]), **_decode_options(doc))


# ----------------------------------------------------------------------
# operations and transactions
# ----------------------------------------------------------------------
def encode_operation(op: Operation, spelling: str = "wire") -> dict[str, Any]:
    """One operation in either frozen spelling (docs/durability.md): the
    WAL's (``"wal"``) tags it ``op`` and an insert carries its record; the
    shard and gateway wire's tags it ``kind`` and an insert its values."""
    tag = "op" if spelling == "wal" else "kind"
    if isinstance(op, Insert):
        record = encode_record(op.record)
        if spelling == "wal":
            return {tag: "insert", "record": record}
        return {tag: "insert", "values": record["values"]}
    if isinstance(op, Delete):
        return {tag: "delete", "key": encode_value(op.key)}
    if isinstance(op, Update):
        changes = {f: encode_value(v) for f, v in op.changes.items()}
        return {tag: "update", "key": encode_value(op.key), "changes": changes}
    raise CodecError(f"cannot encode operation type {type(op).__name__}")


def decode_operation(schema: Schema | None, doc: Mapping[str, Any]) -> Operation:
    """Inverse of :func:`encode_operation`; ``schema`` picks the spelling.
    Without one the document is the WAL's (written by this process, an
    insert carries its record); with one it is the wire's, which comes
    from outside, so an insert is built by ``schema.new_record`` — it
    checks the field set and names the key."""
    if schema is None:
        kind = doc.get("op")
        if kind == "insert":
            return Insert(decode_record(doc["record"]))
    else:
        kind = doc.get("kind")
        if kind == "insert":
            return Insert(schema.new_record(**_decode_fields(doc["values"])))
    if kind == "delete":
        return Delete(decode_value(doc["key"]))
    if kind == "update":
        return Update(decode_value(doc["key"]), _decode_fields(doc["changes"]))
    raise CodecError(f"unknown operation kind {kind!r}")


def _decode_fields(doc: Mapping[str, Any]) -> dict[str, Any]:
    return {f: decode_value(v) for f, v in doc.items()}


def encode_transaction(txn: Transaction) -> dict[str, Any]:
    return {
        "relation": txn.relation,
        "operations": [encode_operation(op, "wal") for op in txn.operations],
    }


def decode_transaction(doc: Mapping[str, Any]) -> Transaction:
    return Transaction(
        relation=doc["relation"],
        operations=tuple(decode_operation(None, op) for op in doc["operations"]),
    )


# ----------------------------------------------------------------------
# journal events (what Database._journal emits)
# ----------------------------------------------------------------------
def encode_event(event: str, payload: Mapping[str, Any]) -> dict[str, Any]:
    """Flatten one engine journal event into a JSON-safe WAL record."""
    if event == "txn":
        return {"event": event, "txn": encode_transaction(payload["txn"])}
    if event == "net_install":
        return {"event": event, "relation": payload["relation"]}
    if event == "create_relation":
        records = payload.get("records")
        return {
            "event": event,
            "schema": encode_schema(payload["schema"]),
            "clustered_on": payload["clustered_on"],
            "kind": payload["kind"],
            "ad_buckets": payload["ad_buckets"],
            "hash_buckets": payload["hash_buckets"],
            "records": None if records is None else encode_rows(records),
        }
    if event == "define_view":
        return {"event": event, **encode_spec(payload["spec"])}
    if event in ("drop_view", "rebuild_view"):
        return {"event": event, "view": payload["view"]}
    if event == "migrate":
        # The view keeps its definition: only the rest of the spec rides.
        spec = payload["spec"]
        return {"event": event, "view": spec.name, **_encode_options(spec)}
    raise CodecError(f"unknown journal event {event!r}")


def decode_event(doc: Mapping[str, Any]) -> tuple[str, dict[str, Any]]:
    """Inverse of :func:`encode_event`: rebuild the engine objects."""
    event = doc.get("event")
    if event == "txn":
        return event, {"txn": decode_transaction(doc["txn"])}
    if event == "net_install":
        return event, {"relation": doc["relation"]}
    if event == "create_relation":
        records = doc.get("records")
        return event, {
            "schema": decode_schema(doc["schema"]),
            "clustered_on": doc["clustered_on"],
            "kind": doc["kind"],
            "ad_buckets": doc["ad_buckets"],
            "hash_buckets": doc["hash_buckets"],
            "records": None if records is None else decode_records(records),
        }
    if event == "define_view":
        return event, {"spec": decode_spec(doc)}
    if event in ("drop_view", "rebuild_view"):
        return event, {"view": doc["view"]}
    if event == "migrate":
        return event, {"name": doc["view"], **_decode_options(doc)}
    raise CodecError(f"unknown journal event {event!r}")
