"""A base ``Record``'s public behaviour, recorded before records became
rows: what a record lists and in which order, field access, equality
and hash across field orders, ``repr`` (a record's page image), the
fields an insert writes, and ``Schema.updated``.  The representation
underneath may change; nothing here may.
"""

from collections.abc import Mapping

import pytest

from repro.durability.codec import decode_record, encode_record
from repro.engine.transaction import Insert
from repro.hr.differential import ClusteredRelation, HypotheticalRelation
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.storage.tuples import Record, Schema, SchemaError

EMP = Schema("emp", ("id", "dept", "salary"), "id", tuple_bytes=100)


def schema_order():
    return EMP.new_record(id=7, dept="eng", salary=100)


def other_order():
    return EMP.new_record(salary=100, id=7, dept="eng")


class TestValues:
    def test_listed_in_the_order_the_record_was_built_in(self):
        assert list(schema_order().values.items()) == [
            ("id", 7), ("dept", "eng"), ("salary", 100)]
        assert list(other_order().values.items()) == [
            ("salary", 100), ("id", 7), ("dept", "eng")]
        plain = Record("k", {"b": 2, "a": 1, "k": "k"})
        assert list(plain.values) == ["b", "a", "k"]

    def test_a_read_only_mapping(self):
        values = schema_order().values
        assert isinstance(values, Mapping)
        assert dict(values) == {"id": 7, "dept": "eng", "salary": 100}
        with pytest.raises(TypeError):
            values["salary"] = 1  # type: ignore[index]

    def test_the_constructor_copies_its_mapping(self):
        source = {"id": 1, "x": [1, 2]}
        record = Record(1, source)
        source["id"] = 99
        assert record["id"] == 1


class TestAccess:
    def test_getitem_and_get(self):
        record = other_order()
        assert record["dept"] == "eng"
        assert record.get("salary") == 100
        assert record.get("bogus") is None
        assert record.get("bogus", 5) == 5
        with pytest.raises(KeyError):
            record["bogus"]

    def test_key_is_an_attribute_and_records_are_immutable(self):
        record = schema_order()
        assert record.key == 7
        with pytest.raises(AttributeError):
            record.key = 8  # type: ignore[misc]
        with pytest.raises(AttributeError):
            record.other = 1  # type: ignore[attr-defined]

    def test_a_key_need_not_be_a_field(self):
        record = Record(("t", 1), {"a": 1})
        assert record.key == ("t", 1) and list(record.values) == ["a"]


class TestEqualityAndHash:
    def test_equal_and_hash_equal_across_field_orders(self):
        a, b = schema_order(), other_order()
        assert a == b and hash(a) == hash(b)
        assert a == Record(7, {"dept": "eng", "salary": 100, "id": 7})
        assert len({a, b}) == 1

    def test_the_hash_is_the_key_and_sorted_items(self):
        for record in (schema_order(), other_order(), Record("k", {"z": 1, "a": (1, 2)})):
            assert hash(record) == hash(
                (record.key, tuple(sorted(record.values.items()))))

    def test_key_values_and_field_set_all_count(self):
        base = schema_order()
        assert base != Record(8, dict(base.values))
        assert base != EMP.new_record(id=7, dept="eng", salary=101)
        assert base != Record(7, {"id": 7, "dept": "eng"})
        assert base != Record(7, {"id": 7, "dept": "eng", "salary": 100, "x": 0})

    def test_values_compare_as_python_does(self):
        assert Record(1, {"a": 1}) == Record(1, {"a": 1.0})
        assert hash(Record(1, {"a": 1})) == hash(Record(1, {"a": 1.0}))

    def test_not_equal_to_other_types(self):
        record = schema_order()
        assert record != {"id": 7, "dept": "eng", "salary": 100}
        assert record.__eq__(object()) is NotImplemented


class TestRepr:
    def test_lists_fields_in_build_order(self):
        assert repr(schema_order()) == "Record(key=7, id=7, dept='eng', salary=100)"
        assert repr(other_order()) == "Record(key=7, salary=100, id=7, dept='eng')"
        assert repr(Record((1, "t"), {"k": (1, "t"), "a": None})) == (
            "Record(key=(1, 't'), k=(1, 't'), a=None)")

    def test_a_net_change_survivor_is_the_record_as_given(self):
        """The net change hands out the records the relation was given
        (an insert's and the base's), and the fold files them as they
        are: images in build order before the fold and after it."""
        meter = CostMeter()
        pool = BufferPool(SimulatedDisk(meter), capacity=8)
        base = ClusteredRelation(EMP, pool, "dept", block_bytes=400, fanout=8)
        base.bulk_load([EMP.new_record(id=1, dept="ops", salary=5)])
        relation = HypotheticalRelation(base, ad_buckets=2)
        given = other_order()
        relation.insert(given)
        relation.delete_by_key(1)
        net = relation.net_changes()
        assert net.inserted == (given,) and net.inserted[0] is given
        assert [repr(r) for r in net.deleted] == [
            "Record(key=1, id=1, dept='ops', salary=5)"]
        assert list(net.inserted[0].values) == ["salary", "id", "dept"]
        assert repr(relation.logical_by_key(7)) == "Record(key=7, salary=100, id=7, dept='eng')"
        relation.reset(net)
        assert relation.base.peek_by_key(7) is given

    def test_the_codec_keeps_the_order(self):
        doc = encode_record(other_order())
        assert list(doc["values"]) == ["salary", "id", "dept"]
        back = decode_record(doc)
        assert repr(back) == repr(other_order()) and back == other_order()


class TestWrittenFields:
    def test_an_insert_writes_every_field(self):
        assert Insert(other_order()).written_fields() == frozenset(EMP.fields)
        assert Insert(Record(1, {"a": 1})).written_fields() == frozenset({"a"})


class TestUpdated:
    def test_keeps_the_build_order(self):
        newer = EMP.updated(other_order(), salary=200)
        assert repr(newer) == "Record(key=7, salary=200, id=7, dept='eng')"
        assert other_order()["salary"] == 100

    def test_recomputes_the_key_from_the_key_field(self):
        newer = EMP.updated(schema_order(), id=9, dept="ops")
        assert newer.key == 9
        assert repr(newer) == "Record(key=9, id=9, dept='ops', salary=100)"

    def test_refuses_unknown_fields(self):
        with pytest.raises(SchemaError, match="unknown"):
            EMP.updated(schema_order(), bogus=1)

    def test_a_record_off_the_schema(self):
        loose = Record(7, {"dept": "eng", "salary": 1, "id": 7})
        newer = EMP.updated(loose, salary=2)
        assert repr(newer) == "Record(key=7, dept='eng', salary=2, id=7)"
        with pytest.raises(SchemaError, match="missing"):
            EMP.updated(Record(7, {"id": 7, "dept": "eng"}), dept="ops")
