"""E17 — multiway (3-table) joins: leapfrog on rank arrays vs. a join cascade.

The N-ary half of the compressed-execution argument: a 3-table chain
join with grouped aggregates runs as the leapfrog-style
sorted-intersection join over shared-code rank arrays, and once as a
cascade of two 2-table hash joins with the intermediate result
materialised into a temporary database.  The parity smoke asserts the
in-process plan and the serial chunked engine return identical
relations; the scaling benchmark times the multiway plan per size, and
the series records the cascade-to-multiway ratio, whose results are
asserted identical at every size.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType

from conftest import print_series

SIZES = [500, 1000, 2000, 4000]

ORDERS = RelationSchema("orders", [
    Attribute("city", AttributeType.STRING),
    Attribute("zip", AttributeType.STRING),
    Attribute("country", AttributeType.STRING),
    Attribute("amount", AttributeType.INTEGER),
    Attribute("score", AttributeType.FLOAT),
])
ZIPS = RelationSchema("zips", [
    Attribute("zip", AttributeType.STRING),
    Attribute("region", AttributeType.STRING),
    Attribute("pop", AttributeType.INTEGER),
])
REGIONS = RelationSchema("regions", [
    Attribute("region", AttributeType.STRING),
    Attribute("country", AttributeType.STRING),
    Attribute("gdp", AttributeType.FLOAT),
])

MULTI_QUERY = ("SELECT r.country, COUNT(*) AS n, MIN(o.amount) AS lo, "
               "MAX(z.pop) AS hi, SUM(o.amount) AS s, AVG(o.score) AS mean "
               "FROM orders o, zips z, regions r "
               "WHERE o.zip = z.zip AND z.region = r.region "
               "AND o.amount >= 100 AND o.amount < 900 "
               "GROUP BY r.country ORDER BY country")


def _database(size: int) -> Database:
    rng = random.Random(1700 + size)
    orders = Relation(ORDERS)
    for _ in range(size):
        orders.insert([
            NULL if rng.random() < 0.05 else f"city_{rng.randrange(25)}",
            f"zip_{rng.randrange(60)}",
            f"country_{rng.randrange(6)}",
            rng.randrange(1000),
            round(rng.random() * 100, 3),
        ])
    zips = Relation(ZIPS)
    for _ in range(size // 4):
        zips.insert([
            f"zip_{rng.randrange(80)}",  # partial overlap with the orders pool
            f"region_{rng.randrange(12)}",
            rng.randrange(10_000),
        ])
    regions = Relation(REGIONS)
    for _ in range(size // 16):
        regions.insert([
            f"region_{rng.randrange(16)}",
            f"country_{rng.randrange(8)}",
            round(rng.random() * 5, 3),
        ])
    database = Database()
    database.add(orders)
    database.add(zips)
    database.add(regions)
    return database


def _fingerprint(result):
    return ([a.name for a in result.schema.attributes],
            [t.values for t in result])


def _cascade(database: Database) -> "tuple[object, float]":
    """The 2-table baseline: hash-join o⋈z, materialise, hash-join with r.

    Both hops run on the code-native hash-join path; the cost under
    measurement is the intermediate materialisation the multiway plan
    avoids.
    """
    engine = SQLEngine(database)
    started = time.perf_counter()
    middle = engine.query(
        "SELECT o.amount AS amount, o.score AS score, z.region AS region, "
        "z.pop AS pop FROM orders o JOIN zips z ON o.zip = z.zip "
        "WHERE o.amount >= 100 AND o.amount < 900", result_name="middle")
    assert engine.last_plan == "join"
    staging = Database()
    staging.add(middle)
    staging.add(database.relation("regions"))
    stage2 = SQLEngine(staging)
    result = stage2.query(
        "SELECT r.country, COUNT(*) AS n, MIN(m.amount) AS lo, "
        "MAX(m.pop) AS hi, SUM(m.amount) AS s, AVG(m.score) AS mean "
        "FROM middle m JOIN regions r ON m.region = r.region "
        "GROUP BY r.country ORDER BY country")
    seconds = time.perf_counter() - started
    assert stage2.last_plan == "join"
    return result, seconds


@pytest.mark.parametrize("size", SIZES)
def test_e17_multiway_scaling(benchmark, size):
    database = _database(size)
    engine = SQLEngine(database)
    benchmark.pedantic(lambda: engine.query(MULTI_QUERY), rounds=3, iterations=1)
    assert engine.last_plan == "multiway"


def test_e17_multiway_parity_smoke(benchmark):
    """Smoke: identical 3-table results from the in-process and chunked plans."""
    def compute():
        database = _database(1000)
        code = SQLEngine(database)
        serial = SQLEngine(database, engine="serial")
        queries = [
            MULTI_QUERY,
            "SELECT o.city, z.region, r.gdp FROM orders o, zips z, regions r "
            "WHERE o.zip = z.zip AND z.region = r.region AND o.amount < 300 "
            "ORDER BY city, region, gdp LIMIT 80",
            "SELECT DISTINCT r.country FROM orders o, zips z, regions r "
            "WHERE o.zip = z.zip AND z.region = r.region",
        ]
        for sql in queries:
            expected = _fingerprint(code.query(sql))
            assert code.last_plan == "multiway"
            assert _fingerprint(serial.query(sql)) == expected
            assert serial.last_plan == "multiway"
        return len(queries)

    assert benchmark.pedantic(compute, rounds=1, iterations=1) == 3


def test_e17_cascade_vs_multiway(benchmark):
    """2-table hash-join cascade (materialised middle) vs. one multiway pass."""
    def compute():
        rows = []
        for size in SIZES:
            database = _database(size)
            code_engine = SQLEngine(database)
            code_engine.query(MULTI_QUERY)  # steady state
            cascade_result, cascade_seconds = _cascade(database)
            started = time.perf_counter()
            multi_result = code_engine.query(MULTI_QUERY)
            multi_seconds = time.perf_counter() - started
            assert code_engine.last_plan == "multiway"
            assert _fingerprint(multi_result) == _fingerprint(cascade_result)
            rows.append([size, len(multi_result), cascade_seconds,
                         multi_seconds, cascade_seconds / multi_seconds])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_series("E17: hash-join cascade vs. one multiway pass",
                 ["tuples", "groups", "cascade_s", "multi_s", "ratio"], rows)
    # recorded as a series only: the cascade also runs on code-native paths,
    # so the ratio varies with how selective the middle materialisation is
    benchmark.extra_info["cascade_ratios"] = {str(r[0]): round(r[4], 2)
                                              for r in rows}
