"""Schemas and records."""

import pytest

from repro.storage.tuples import Schema, SchemaError


@pytest.fixture
def schema():
    return Schema("emp", ("id", "dept", "salary"), "id", tuple_bytes=100)


class TestSchema:
    def test_rejects_empty_fields(self):
        with pytest.raises(SchemaError):
            Schema("x", (), "id")

    def test_rejects_duplicate_fields(self):
        with pytest.raises(SchemaError):
            Schema("x", ("a", "a"), "a")

    def test_rejects_unknown_key_field(self):
        with pytest.raises(SchemaError):
            Schema("x", ("a", "b"), "c")

    def test_rejects_non_positive_tuple_bytes(self):
        with pytest.raises(SchemaError):
            Schema("x", ("a",), "a", tuple_bytes=0)

    def test_records_per_page(self, schema):
        assert schema.records_per_page(4000) == 40

    def test_records_per_page_minimum_one(self, schema):
        assert schema.records_per_page(50) == 1

    def test_new_record_requires_exact_fields(self, schema):
        with pytest.raises(SchemaError, match="missing"):
            schema.new_record(id=1, dept="eng")
        with pytest.raises(SchemaError, match="extra"):
            schema.new_record(id=1, dept="eng", salary=1, bogus=2)

    def test_new_record_sets_key(self, schema):
        record = schema.new_record(id=7, dept="eng", salary=100)
        assert record.key == 7

    def test_updated_replaces_fields(self, schema):
        record = schema.new_record(id=7, dept="eng", salary=100)
        newer = schema.updated(record, salary=200)
        assert newer["salary"] == 200
        assert newer.key == 7
        assert record["salary"] == 100  # original untouched

    def test_updated_key_field_changes_key(self, schema):
        record = schema.new_record(id=7, dept="eng", salary=100)
        moved = schema.updated(record, id=8)
        assert moved.key == 8

    def test_updated_unknown_field_raises(self, schema):
        record = schema.new_record(id=7, dept="eng", salary=100)
        with pytest.raises(SchemaError):
            schema.updated(record, bogus=1)


class TestRecord:
    def test_value_equality(self, schema):
        a = schema.new_record(id=1, dept="x", salary=5)
        b = schema.new_record(id=1, dept="x", salary=5)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_any_field(self, schema):
        a = schema.new_record(id=1, dept="x", salary=5)
        b = schema.new_record(id=1, dept="x", salary=6)
        assert a != b

    def test_usable_in_sets(self, schema):
        a = schema.new_record(id=1, dept="x", salary=5)
        b = schema.new_record(id=1, dept="x", salary=5)
        assert len({a, b}) == 1

    def test_immutable(self, schema):
        record = schema.new_record(id=1, dept="x", salary=5)
        with pytest.raises(AttributeError):
            record.key = 2
        for name in ("key", "_values", "_hash"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(TypeError):
            record.values["salary"] = 6
        with pytest.raises(TypeError):
            del record.values["salary"]

    def test_getitem_and_get(self, schema):
        record = schema.new_record(id=1, dept="x", salary=5)
        assert record["dept"] == "x"
        assert record.get("nope", 42) == 42
        with pytest.raises(KeyError):
            record["nope"]

    def test_repr_contains_fields(self, schema):
        record = schema.new_record(id=1, dept="x", salary=5)
        assert "dept" in repr(record)
