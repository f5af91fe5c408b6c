"""Unit and property tests for the algebra operators and hash indexes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.algebra import (
    Aggregate,
    aggregate_value,
    cartesian_product,
    difference,
    distinct,
    equi_join,
    extend,
    group_by,
    intersection,
    left_anti_join,
    left_semi_join,
    limit,
    natural_join,
    project,
    rename,
    select,
    sort,
    union,
)
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL, AttributeType, is_null


@pytest.fixture
def orders():
    schema = RelationSchema("orders", [
        Attribute("id", AttributeType.INTEGER),
        Attribute("customer", AttributeType.STRING),
        Attribute("amount", AttributeType.FLOAT),
    ])
    return Relation.from_dicts(schema, [
        {"id": 1, "customer": "ann", "amount": 10.0},
        {"id": 2, "customer": "bob", "amount": 20.0},
        {"id": 3, "customer": "ann", "amount": 5.0},
        {"id": 4, "customer": "cid", "amount": NULL},
    ])


@pytest.fixture
def customers():
    schema = RelationSchema("customers", [
        Attribute("customer", AttributeType.STRING),
        Attribute("city", AttributeType.STRING),
    ])
    return Relation.from_dicts(schema, [
        {"customer": "ann", "city": "edi"},
        {"customer": "bob", "city": "nyc"},
    ])


class TestUnaryOperators:
    def test_select_with_expression(self, orders):
        predicate = Comparison("=", ColumnRef("customer"), Literal("ann"))
        result = select(orders, predicate)
        assert len(result) == 2

    def test_select_with_callable(self, orders):
        result = select(orders, lambda t: t["id"] > 2)
        assert sorted(t["id"] for t in result) == [3, 4]

    def test_project_distinct(self, orders):
        result = project(orders, ["customer"])
        assert len(result) == 3

    def test_project_keeps_duplicates_when_asked(self, orders):
        result = project(orders, ["customer"], distinct=False)
        assert len(result) == 4

    def test_rename(self, orders):
        result = rename(orders, {"amount": "total"})
        assert result.schema.has_attribute("total")

    def test_extend(self, orders):
        result = extend(orders, "double", AttributeType.FLOAT,
                        lambda t: NULL if is_null(t["amount"]) else t["amount"] * 2)
        row = next(t for t in result if t["id"] == 1)
        assert row["double"] == 20.0

    def test_distinct(self, orders):
        doubled = union(orders, orders)
        assert len(distinct(doubled)) == len(doubled)

    def test_sort_and_limit(self, orders):
        result = limit(sort(orders, ["amount"], descending=True), 1)
        assert result.tuples()[0]["id"] == 2

    def test_select_null_predicate_drops_row(self, orders):
        predicate = Comparison(">", ColumnRef("amount"), Literal(1.0))
        result = select(orders, predicate)
        assert all(not is_null(t["amount"]) for t in result)


class TestSetOperators:
    def test_union_removes_duplicates(self, orders):
        assert len(union(orders, orders)) == len(orders)

    def test_difference(self, orders):
        top = select(orders, lambda t: t["id"] <= 2)
        rest = difference(orders, top)
        assert sorted(t["id"] for t in rest) == [3, 4]

    def test_intersection(self, orders):
        top = select(orders, lambda t: t["id"] <= 2)
        both = intersection(orders, top)
        assert sorted(t["id"] for t in both) == [1, 2]

    def test_arity_mismatch_raises(self, orders, customers):
        with pytest.raises(SchemaError):
            union(orders, customers)


class TestJoins:
    def test_equi_join(self, orders, customers):
        result = equi_join(orders, customers, ["customer"], ["customer"])
        assert len(result) == 3
        assert result.schema.has_attribute("city")

    def test_equi_join_disambiguates_clashing_names(self, orders, customers):
        result = equi_join(orders, customers, ["customer"], ["customer"])
        assert result.schema.has_attribute("customers_customer")

    def test_natural_join_matches_equi_join(self, orders, customers):
        assert len(natural_join(orders, customers)) == 3

    def test_cartesian_product(self, orders, customers):
        assert len(cartesian_product(orders, customers)) == len(orders) * len(customers)

    def test_null_keys_never_match(self, customers):
        schema = RelationSchema("left", [Attribute("k"), Attribute("v")])
        left = Relation.from_dicts(schema, [{"k": NULL, "v": "x"}])
        result = equi_join(left, customers, ["k"], ["customer"])
        assert len(result) == 0

    def test_anti_join(self, orders, customers):
        missing = left_anti_join(orders, customers, ["customer"], ["customer"])
        assert sorted(t["customer"] for t in missing) == ["cid"]

    def test_semi_join(self, orders, customers):
        present = left_semi_join(orders, customers, ["customer"], ["customer"])
        assert len(present) == 3

    def test_anti_join_preserves_tids(self, orders, customers):
        missing = left_anti_join(orders, customers, ["customer"], ["customer"])
        for t in missing:
            assert orders.tuple(t.tid)["customer"] == t["customer"]


class TestGrouping:
    def test_group_by_count(self, orders):
        result = group_by(orders, ["customer"], [Aggregate("count", None, "n")])
        counts = {t["customer"]: t["n"] for t in result}
        assert counts == {"ann": 2, "bob": 1, "cid": 1}

    def test_sum_ignores_nulls(self, orders):
        result = group_by(orders, [], [Aggregate("sum", "amount", "total")])
        assert result.tuples()[0]["total"] == 35.0

    def test_avg_and_minmax(self, orders):
        value = aggregate_value(orders, Aggregate("avg", "amount"))
        assert value == pytest.approx(35.0 / 3)
        assert aggregate_value(orders, Aggregate("min", "amount")) == 5.0
        assert aggregate_value(orders, Aggregate("max", "amount")) == 20.0

    def test_count_distinct(self, orders):
        assert aggregate_value(orders, Aggregate("count_distinct", "customer")) == 3

    def test_empty_input_global_aggregate(self):
        schema = RelationSchema("empty", [Attribute("x", AttributeType.INTEGER)])
        relation = Relation(schema)
        result = group_by(relation, [], [Aggregate("count", None, "n")])
        assert result.tuples()[0]["n"] == 0

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(Exception):
            Aggregate("median", "x")


class TestHashIndex:
    def test_lookup(self, orders):
        index = HashIndex(orders, ["customer"])
        tids = index.lookup(("ann",))
        assert {orders.tuple(t)["id"] for t in tids} == {1, 3}

    def test_group_count_and_largest(self, orders):
        index = HashIndex(orders, ["customer"])
        assert index.group_count() == 3
        key, size = index.largest_group()
        assert key == ("ann",) and size == 2

    def test_staleness_and_rebuild(self, orders):
        index = HashIndex(orders, ["customer"])
        orders.insert_dict({"id": 5, "customer": "ann", "amount": 1.0})
        assert index.is_stale()
        index.rebuild()
        assert len(index.lookup(("ann",))) == 3

    def test_incremental_maintenance(self, orders):
        index = orders.columns.index(["customer"])
        tid = orders.insert_dict({"id": 6, "customer": "dan", "amount": 2.0})
        assert index.lookup(("dan",)) == {tid}
        orders.update(tid, "customer", "ann")
        assert index.lookup(("dan",)) == set()
        assert tid in index.lookup(("ann",))
        orders.delete(tid)
        assert tid not in index.lookup(("ann",))
        assert not index.is_stale()
        assert orders.columns.index(["customer"]) is index


class TestAlgebraProperties:
    rows = st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(["a", "b", "c"])), max_size=40)

    @given(rows)
    def test_select_then_union_is_original(self, data):
        schema = RelationSchema("r", [
            Attribute("k", AttributeType.INTEGER), Attribute("v", AttributeType.STRING)])
        relation = Relation.from_rows(schema, data)
        low = select(relation, lambda t: t["k"] < 3)
        high = select(relation, lambda t: t["k"] >= 3)
        combined = union(low, high)
        assert {t.values for t in combined} == {t.values for t in relation}

    @given(rows)
    def test_semi_and_anti_join_partition_left(self, data):
        schema = RelationSchema("r", [
            Attribute("k", AttributeType.INTEGER), Attribute("v", AttributeType.STRING)])
        left = Relation.from_rows(schema, data)
        right_schema = RelationSchema("s", [Attribute("k", AttributeType.INTEGER)])
        right = Relation.from_rows(right_schema, [(k,) for k in range(0, 3)])
        semi = left_semi_join(left, right, ["k"], ["k"])
        anti = left_anti_join(left, right, ["k"], ["k"])
        assert len(semi) + len(anti) == len(left)
        assert set(semi.tids()) | set(anti.tids()) == set(left.tids())

    @given(rows)
    def test_group_by_counts_sum_to_total(self, data):
        schema = RelationSchema("r", [
            Attribute("k", AttributeType.INTEGER), Attribute("v", AttributeType.STRING)])
        relation = Relation.from_rows(schema, data)
        grouped = group_by(relation, ["v"], [Aggregate("count", None, "n")])
        assert sum(t["n"] for t in grouped) == len(relation)
