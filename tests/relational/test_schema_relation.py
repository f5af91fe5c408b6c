"""Unit tests for schemas, relations and the database catalog."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CatalogError, RelationError, SchemaError
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema, schema
from repro.relational.types import NULL, AttributeType, is_null


@pytest.fixture
def customer_schema():
    return RelationSchema("customer", [
        Attribute("cc", AttributeType.STRING),
        Attribute("ac", AttributeType.STRING),
        Attribute("phn", AttributeType.STRING),
        Attribute("city", AttributeType.STRING),
        Attribute("zip", AttributeType.STRING),
        Attribute("street", AttributeType.STRING),
    ])


class TestSchema:
    def test_attribute_positions_case_insensitive(self, customer_schema):
        assert customer_schema.position("ZIP") == 4
        assert customer_schema.canonical_name("ZIP") == "zip"

    def test_unknown_attribute_raises(self, customer_schema):
        with pytest.raises(SchemaError):
            customer_schema.position("country")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", [Attribute("a"), Attribute("A")])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", [])

    def test_schema_helper(self):
        s = schema("r", a="string", n=AttributeType.INTEGER)
        assert s.attribute("n").type is AttributeType.INTEGER

    def test_equivalence_ignores_relation_name(self, customer_schema):
        other = customer_schema.renamed_relation("customer2")
        assert customer_schema.equivalent(other)
        assert customer_schema != other


class TestRelation:
    def test_insert_and_lookup(self, customer_schema):
        relation = Relation(customer_schema)
        tid = relation.insert(["44", "131", "1234567", "edi", "EH8", "mayfield"])
        assert relation.value(tid, "city") == "edi"
        assert len(relation) == 1

    def test_insert_dict_missing_attrs_become_null(self, customer_schema):
        relation = Relation(customer_schema)
        tid = relation.insert_dict({"cc": "44", "zip": "EH8"})
        assert is_null(relation.value(tid, "street"))

    def test_insert_dict_unknown_attr_raises(self, customer_schema):
        relation = Relation(customer_schema)
        with pytest.raises(SchemaError):
            relation.insert_dict({"nope": 1})

    def test_arity_mismatch_raises(self, customer_schema):
        relation = Relation(customer_schema)
        with pytest.raises(RelationError):
            relation.insert(["44"])

    def test_update_returns_old_value(self, customer_schema):
        relation = Relation(customer_schema)
        tid = relation.insert_dict({"cc": "44", "zip": "EH8", "city": "edi"})
        old = relation.update(tid, "city", "ldn")
        assert old == "edi"
        assert relation.value(tid, "city") == "ldn"

    def test_delete_removes_tid_and_never_reuses_it(self, customer_schema):
        relation = Relation(customer_schema)
        tid_first = relation.insert_dict({"cc": "44"})
        relation.delete(tid_first)
        tid_second = relation.insert_dict({"cc": "01"})
        assert tid_second != tid_first
        with pytest.raises(RelationError):
            relation.tuple(tid_first)

    def test_tids_are_stable_across_updates(self, customer_schema):
        relation = Relation(customer_schema)
        tids = [relation.insert_dict({"cc": str(i)}) for i in range(5)]
        relation.update(tids[2], "cc", "99")
        assert relation.tids() == tids

    def test_copy_is_deep(self, customer_schema):
        relation = Relation(customer_schema)
        tid = relation.insert_dict({"cc": "44"})
        clone = relation.copy()
        clone.update(tid, "cc", "01")
        assert relation.value(tid, "cc") == "44"

    def test_filter_preserves_tids(self, customer_schema):
        relation = Relation(customer_schema)
        keep = relation.insert_dict({"cc": "44"})
        relation.insert_dict({"cc": "01"})
        filtered = relation.filter(lambda t: t["cc"] == "44")
        assert filtered.tids() == [keep]

    def test_active_domain_ignores_nulls(self, customer_schema):
        relation = Relation(customer_schema)
        relation.insert_dict({"cc": "44"})
        relation.insert_dict({"cc": NULL})
        assert relation.active_domain("cc") == {"44"}

    def test_column_and_null_count(self, customer_schema):
        relation = Relation(customer_schema)
        relation.insert_dict({"cc": "44"})
        relation.insert_dict({"zip": "EH8"})
        assert relation.null_count("cc") == 1
        assert relation.column("cc")[0] == "44"

    def test_pretty_renders_header(self, customer_schema):
        relation = Relation(customer_schema)
        relation.insert_dict({"cc": "44"})
        text = relation.pretty()
        assert "cc" in text and "44" in text

    def test_version_bumps_on_mutation(self, customer_schema):
        relation = Relation(customer_schema)
        before = relation.version
        relation.insert_dict({"cc": "44"})
        assert relation.version > before

    @given(st.lists(st.tuples(st.text(max_size=4), st.text(max_size=4)), max_size=30))
    def test_from_rows_roundtrip(self, rows):
        s = RelationSchema("r", [Attribute("a"), Attribute("b")])
        relation = Relation.from_rows(s, rows)
        assert len(relation) == len(rows)
        assert [tuple(t.values) for t in relation] == [tuple(r) for r in rows]


class TestDatabase:
    def test_add_and_lookup_case_insensitive(self, customer_schema):
        database = Database()
        database.add(Relation(customer_schema))
        assert database.relation("CUSTOMER").name == "customer"

    def test_duplicate_add_raises(self, customer_schema):
        database = Database()
        database.add(Relation(customer_schema))
        with pytest.raises(CatalogError):
            database.add(Relation(customer_schema))

    def test_replace_allowed(self, customer_schema):
        database = Database()
        database.add(Relation(customer_schema))
        replacement = Relation(customer_schema)
        replacement.insert_dict({"cc": "44"})
        database.add(replacement, replace=True)
        assert len(database.relation("customer")) == 1

    def test_unknown_relation_raises(self):
        database = Database()
        with pytest.raises(CatalogError):
            database.relation("ghost")

    def test_drop(self, customer_schema):
        database = Database()
        database.add(Relation(customer_schema))
        database.drop("customer")
        assert "customer" not in database

    def test_copy_is_deep(self, customer_schema):
        database = Database()
        relation = database.add(Relation(customer_schema))
        tid = relation.insert_dict({"cc": "44"})
        clone = database.copy()
        clone.relation("customer").update(tid, "cc", "01")
        assert database.relation("customer").value(tid, "cc") == "44"

    def test_total_tuples(self, customer_schema):
        database = Database()
        relation = database.add(Relation(customer_schema))
        relation.insert_dict({"cc": "44"})
        assert database.total_tuples() == 1
