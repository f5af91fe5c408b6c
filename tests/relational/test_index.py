"""Unit tests for :class:`~repro.relational.index.HashIndex`."""

import pytest

from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL, AttributeType


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
