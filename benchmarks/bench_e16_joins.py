"""E16 — code-native joins vs. the row path, and CIND anti-joins.

The cross-relation half of the compressed-execution argument: an INNER
JOIN with grouped aggregates runs once on the retained row path
(``use_columns=False`` — ``_ExecRow`` merges, value-at-a-time hashing)
and once as an integer hash join over dictionary-bridge translations.
Results are asserted identical at every size; the measured speedup lands
in the benchmark JSON ``extra_info`` with a >= 1.5x floor asserted at the
largest size.  CIND detection (the bridged-code anti-join) is checked for
identical reports across engines.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.constraints.cind import CIND
from repro.constraints.tableau import PatternTuple
from repro.detection.cind_detect import CINDDetector
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

CIND_CONSTRAINT = CIND("orders", ["zip"], "zips", ["zip"],
                       PatternTuple({}), PatternTuple({"region": "region_0"}))


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


def _violation_tids(report):
    return [v.tid for v in report.violations]


@pytest.mark.parametrize("size", SIZES)
def test_e16_join_scaling(benchmark, size):
    database = _database(size)
    engine = SQLEngine(database)
    benchmark.pedantic(lambda: engine.query(JOIN_QUERY), rounds=3, iterations=1)


def test_e16_join_and_cind_parity(benchmark):
    """Smoke: identical join results and CIND reports across all paths."""
    def compute():
        database = _database(1000)
        row = SQLEngine(database, use_columns=False)
        code = SQLEngine(database)
        serial = SQLEngine(database, engine="serial")
        queries = [
            JOIN_QUERY,
            "SELECT o.city, z.region FROM orders o JOIN zips z "
            "ON o.zip = z.zip WHERE o.amount < 300 ORDER BY city, region LIMIT 80",
            "SELECT DISTINCT z.region FROM orders o JOIN zips z ON o.zip = z.zip",
        ]
        for sql in queries:
            expected = _fingerprint(row.query(sql))
            assert row.last_plan == "row"
            assert _fingerprint(code.query(sql)) == expected
            assert code.last_plan == "join"
            assert _fingerprint(serial.query(sql)) == expected
        expected_tids = _violation_tids(
            CINDDetector(database, [CIND_CONSTRAINT], engine="sequential").detect())
        assert expected_tids
        report = CINDDetector(database, [CIND_CONSTRAINT], engine="serial").detect()
        assert _violation_tids(report) == expected_tids
        return len(queries)

    assert benchmark.pedantic(compute, rounds=1, iterations=1) == 3


def test_e16_row_vs_code_join_speedup(benchmark):
    """The headline series: row-path join vs. the integer hash join."""
    def compute():
        rows = []
        for size in SIZES:
            database = _database(size)
            row_engine = SQLEngine(database, use_columns=False)
            code_engine = SQLEngine(database)
            code_engine.query(JOIN_QUERY)  # steady state: caches + bridges built
            started = time.perf_counter()
            row_result = row_engine.query(JOIN_QUERY)
            row_seconds = time.perf_counter() - started
            started = time.perf_counter()
            code_result = code_engine.query(JOIN_QUERY)
            code_seconds = time.perf_counter() - started
            assert _fingerprint(code_result) == _fingerprint(row_result)
            assert code_engine.last_plan == "join"
            rows.append([size, len(code_result), row_seconds, code_seconds,
                         row_seconds / code_seconds])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_series("E16: grouped equi join, row path vs. bridged codes",
                 ["tuples", "groups", "row_s", "code_s", "speedup"], rows)
    benchmark.extra_info["speedups"] = {str(r[0]): round(r[4], 2) for r in rows}
    benchmark.extra_info["speedup_largest"] = round(rows[-1][4], 2)
    assert rows[-1][4] >= 1.5
