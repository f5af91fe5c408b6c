"""E18 — factorised (semiring) aggregates vs. enumerating the join product.

The aggregate half of the compressed-execution argument: a grouped
3-table chain join whose aggregates all fold exactly (COUNT / COUNT
DISTINCT / MIN / MAX / integer SUM and AVG) runs once with the
factorised plan disabled (``columnar.FACTORISE = False`` — the join
still runs code-native but enumerates every joined tuple into the
aggregate states) and once factorised (per-table partial aggregates per
join-variable binding, combined by semiring multiplication — the tuple
product is never enumerated).  Results are asserted identical at every
size; the measured speedups land in the benchmark JSON ``extra_info``
with a >= 3x floor asserted at the largest size.  A deep-bound self join
(a filtered table joined to itself through one variable and to a third
table through another) and the two-table fold are timed as series.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql import columnar
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType

from conftest import print_series

SIZES = [500, 1000, 2000, 4000]

ORDERS = RelationSchema("orders", [
    Attribute("city", AttributeType.STRING),
    Attribute("zip", AttributeType.STRING),
    Attribute("amount", AttributeType.INTEGER),
])
ZIPS = RelationSchema("zips", [
    Attribute("zip", AttributeType.STRING),
    Attribute("region", AttributeType.STRING),
    Attribute("pop", AttributeType.INTEGER),
])
REGIONS = RelationSchema("regions", [
    Attribute("region", AttributeType.STRING),
    Attribute("country", AttributeType.STRING),
])

#: every aggregate folds exactly, so the plan factorises
FACT_QUERY = ("SELECT r.country, COUNT(*) AS n, COUNT(DISTINCT o.city) AS d, "
              "MIN(o.amount) AS lo, MAX(z.pop) AS hi, SUM(o.amount) AS s, "
              "AVG(z.pop) AS mean FROM orders o, zips z, regions r "
              "WHERE o.zip = z.zip AND z.region = r.region "
              "AND o.amount >= 100 AND o.amount < 900 "
              "GROUP BY r.country ORDER BY country")

#: the deep-bound shape: a filtered orders joined to itself through city
#: and to zips through zip, with MIN on zips, like perfbench's grouped
#: three-way report; a table first bound below the first variable is
#: grouped once per query and each bound group folds once
DEEP_QUERY = ("SELECT o1.city, COUNT(*) AS n, MIN(z.region) AS first "
              "FROM orders o1, orders o2, zips z "
              "WHERE o1.city = o2.city AND o2.zip = z.zip AND o1.amount < 40 "
              "GROUP BY o1.city ORDER BY city")

PAIR_QUERY = ("SELECT z.region, COUNT(*) AS n, SUM(o.amount) AS s, "
              "MAX(o.amount) AS hi FROM orders o JOIN zips z "
              "ON o.zip = z.zip GROUP BY region ORDER BY region")


def _database(size: int) -> Database:
    # dense key overlap on purpose: the enumerated plans pay for the full
    # join fan-out, which is exactly what factorisation folds away
    rng = random.Random(1800 + size)
    orders = Relation(ORDERS)
    for _ in range(size):
        orders.insert([
            NULL if rng.random() < 0.05 else f"city_{rng.randrange(25)}",
            f"zip_{rng.randrange(60)}",
            rng.randrange(1000),
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
            f"country_{rng.randrange(6)}",
        ])
    database = Database()
    database.add(orders)
    database.add(zips)
    database.add(regions)
    return database


def _fingerprint(result):
    return ([a.name for a in result.schema.attributes],
            [t.values for t in result])


def _enumerated(engine: SQLEngine, sql: str):
    """Run *sql* on the enumerated plan (factorisation disabled)."""
    saved = columnar.FACTORISE
    columnar.FACTORISE = False
    try:
        started = time.perf_counter()
        result = engine.query(sql)
        return result, time.perf_counter() - started
    finally:
        columnar.FACTORISE = saved


@pytest.mark.parametrize("size", SIZES)
def test_e18_factorised_scaling(benchmark, size):
    database = _database(size)
    engine = SQLEngine(database)
    benchmark.pedantic(lambda: engine.query(FACT_QUERY), rounds=3, iterations=1)


def test_e18_factorised_parity_smoke(benchmark):
    """Smoke: factorised == enumerated == serial chunked, 2- and 3-table plans,
    the deep-bound self join included."""
    def compute():
        database = _database(1000)
        code = SQLEngine(database)
        serial = SQLEngine(database, engine="serial")
        plans = {FACT_QUERY: "multiway", DEEP_QUERY: "multiway", PAIR_QUERY: "join"}
        for sql, enumerated_plan in plans.items():
            expected = _fingerprint(code.query(sql))
            assert code.last_plan == "factorised"
            enumerated, _ = _enumerated(code, sql)
            assert _fingerprint(enumerated) == expected
            assert code.last_plan == enumerated_plan
            assert _fingerprint(serial.query(sql)) == expected
            assert serial.last_plan == "factorised"
        return len(plans)

    assert benchmark.pedantic(compute, rounds=1, iterations=1) == 3


def test_e18_enumerated_vs_factorised_speedup(benchmark):
    """The headline series: enumerate the tuple product vs. fold partials."""
    def compute():
        rows = []
        for size in SIZES:
            database = _database(size)
            engine = SQLEngine(database)
            engine.query(FACT_QUERY)  # steady state: caches + bridges built
            enumerated, enum_seconds = _enumerated(engine, FACT_QUERY)
            engine.query(FACT_QUERY, explain=True)
            started = time.perf_counter()
            factorised = engine.query(FACT_QUERY)
            fact_seconds = time.perf_counter() - started
            assert engine.last_plan == "factorised"
            assert _fingerprint(factorised) == _fingerprint(enumerated)
            tuples = engine.last_explain["factorised"]["tuples"]
            rows.append([size, tuples, enum_seconds, fact_seconds,
                         enum_seconds / fact_seconds])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_series("E18: grouped 3-table join, enumerated tuples vs. "
                 "factorised folds",
                 ["rows", "tuples", "enum_s", "fact_s", "speedup"], rows)
    benchmark.extra_info["speedups"] = {str(r[0]): round(r[4], 2) for r in rows}
    benchmark.extra_info["speedup_largest"] = round(rows[-1][4], 2)
    assert rows[-1][4] >= 3.0


def test_e18_deep_bound_fold(benchmark):
    """The deep-bound self join: enumerated tuples vs. factorised folds."""
    def compute():
        rows = []
        for size in SIZES:
            database = _database(size)
            engine = SQLEngine(database)
            engine.query(DEEP_QUERY)  # steady state
            enumerated, enum_seconds = _enumerated(engine, DEEP_QUERY)
            engine.query(DEEP_QUERY, explain=True)
            started = time.perf_counter()
            factorised = engine.query(DEEP_QUERY)
            fact_seconds = time.perf_counter() - started
            assert engine.last_plan == "factorised"
            assert _fingerprint(factorised) == _fingerprint(enumerated)
            tuples = engine.last_explain["factorised"]["tuples"]
            rows.append([size, tuples, enum_seconds, fact_seconds,
                         enum_seconds / fact_seconds])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_series("E18: deep-bound self join, enumerated tuples vs. "
                 "factorised folds",
                 ["rows", "tuples", "enum_s", "fact_s", "speedup"], rows)
    # recorded as a series only
    benchmark.extra_info["deep_speedups"] = {str(r[0]): round(r[4], 2)
                                             for r in rows}


def test_e18_two_table_fold(benchmark):
    """2-table hash join: fold build-side partials into buckets pre-probe."""
    def compute():
        rows = []
        for size in SIZES:
            database = _database(size)
            engine = SQLEngine(database)
            engine.query(PAIR_QUERY)  # steady state
            enumerated, enum_seconds = _enumerated(engine, PAIR_QUERY)
            started = time.perf_counter()
            factorised = engine.query(PAIR_QUERY)
            fact_seconds = time.perf_counter() - started
            assert engine.last_plan == "factorised"
            assert _fingerprint(factorised) == _fingerprint(enumerated)
            rows.append([size, len(factorised), enum_seconds, fact_seconds,
                         enum_seconds / fact_seconds])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_series("E18: 2-table grouped join, enumerated vs. factorised",
                 ["rows", "groups", "enum_s", "fact_s", "ratio"], rows)
    # recorded as a series only: a 2-table fan-out is linear in the probe
    # side, so the fold saves bucket traversal rather than a tuple product
    benchmark.extra_info["pair_ratios"] = {str(r[0]): round(r[4], 2)
                                           for r in rows}
