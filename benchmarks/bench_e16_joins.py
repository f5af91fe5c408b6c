"""E16 — code-native joins on dictionary bridges.

The cross-relation half of the compressed-execution argument: an INNER
JOIN with grouped aggregates runs as an integer hash join over
dictionary-bridge translations.  The parity smoke asserts the in-process
plan and the serial chunked engine return identical relations; the
scaling benchmark times the join plan per size.
"""

from __future__ import annotations

import random

import pytest

from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType

SIZES = [500, 1000, 2000, 4000]

ORDERS = RelationSchema("orders", [
    Attribute("city", AttributeType.STRING),
    Attribute("zip", AttributeType.STRING),
    Attribute("amount", AttributeType.INTEGER),
    Attribute("score", AttributeType.FLOAT),
])
ZIPS = RelationSchema("zips", [
    Attribute("zip", AttributeType.STRING),
    Attribute("region", AttributeType.STRING),
    Attribute("pop", AttributeType.INTEGER),
])

JOIN_QUERY = ("SELECT z.region, COUNT(*) AS n, MIN(o.amount) AS lo, "
              "MAX(o.amount) AS hi, SUM(z.pop) AS pop, AVG(o.score) AS mean "
              "FROM orders o JOIN zips z ON o.zip = z.zip "
              "WHERE o.amount >= 100 AND o.amount < 900 "
              "GROUP BY z.region ORDER BY region")

def _database(size: int) -> Database:
    rng = random.Random(1600 + size)
    orders = Relation(ORDERS)
    for _ in range(size):
        orders.insert([
            NULL if rng.random() < 0.05 else f"city_{rng.randrange(25)}",
            f"zip_{rng.randrange(60)}",
            rng.randrange(1000),
            round(rng.random() * 100, 3),
        ])
    zips = Relation(ZIPS)
    for _ in range(size // 4):
        zips.insert([
            f"zip_{rng.randrange(80)}",  # partial overlap with the orders pool
            f"region_{rng.randrange(4)}",
            rng.randrange(10_000),
        ])
    database = Database()
    database.add(orders)
    database.add(zips)
    return database


def _fingerprint(result):
    return ([a.name for a in result.schema.attributes],
            [t.values for t in result])


@pytest.mark.parametrize("size", SIZES)
def test_e16_join_scaling(benchmark, size):
    database = _database(size)
    engine = SQLEngine(database)
    benchmark.pedantic(lambda: engine.query(JOIN_QUERY), rounds=3, iterations=1)
    assert engine.last_plan == "join"


def test_e16_join_parity(benchmark):
    """Smoke: identical joins from the in-process and chunked plans."""
    def compute():
        database = _database(1000)
        code = SQLEngine(database)
        serial = SQLEngine(database, engine="serial")
        queries = [
            JOIN_QUERY,
            "SELECT o.city, z.region FROM orders o JOIN zips z "
            "ON o.zip = z.zip WHERE o.amount < 300 ORDER BY city, region LIMIT 80",
            "SELECT DISTINCT z.region FROM orders o JOIN zips z ON o.zip = z.zip",
        ]
        for sql in queries:
            expected = _fingerprint(code.query(sql))
            assert code.last_plan == "join"
            assert _fingerprint(serial.query(sql)) == expected
            assert serial.last_plan == "join"
        return len(queries)

    assert benchmark.pedantic(compute, rounds=1, iterations=1) == 3
