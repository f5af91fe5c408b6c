"""E15 — code-native SQL execution: scan, filter, group and aggregate on codes.

The MonetDB/X100 and C-Store compressed-execution argument applied to this
engine's SQL layer: a single-table range-filtered GROUP BY with a full
aggregate complement runs on the code-native pipeline (dictionary-code
filters, grouping on code tuples, aggregates on codes).  A grouped
statement filtered only on its group columns reads its groups off the
relation's maintained index instead of scanning: E15 times one with a
filter on its group column and one with a group per tuple.  The parity
smoke asserts the in-process plan and the serial chunked engine return
identical relations; the scaling benchmarks time the code plan per size
(the SQL parity suites under ``tests/relational`` check every plan
against the oracle's SELECT).
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

SCHEMA = RelationSchema("t", [
    Attribute("id", AttributeType.INTEGER),
    Attribute("city", AttributeType.STRING),
    Attribute("zip", AttributeType.STRING),
    Attribute("amount", AttributeType.INTEGER),
    Attribute("score", AttributeType.FLOAT),
])

QUERY = ("SELECT zip, COUNT(*) AS n, COUNT(DISTINCT city) AS cities, "
         "MIN(amount) AS lo, MAX(amount) AS hi, SUM(amount) AS total, "
         "AVG(score) AS mean FROM t "
         "WHERE amount >= 100 AND amount < 900 GROUP BY zip ORDER BY zip")

#: grouped statements that read the maintained index on their group column
INDEX_QUERIES = {
    "group_filter": ("SELECT zip, COUNT(*) AS n, MIN(amount) AS lo, SUM(score) AS total "
                     "FROM t WHERE zip IN ('zip_1', 'zip_2', 'zip_3', 'zip_5', 'zip_8') "
                     "GROUP BY zip"),
    "group_per_tuple": "SELECT id, COUNT(*) AS n, MAX(score) AS top FROM t GROUP BY id",
}


def _database(size: int) -> Database:
    rng = random.Random(1500 + size)
    relation = Relation(SCHEMA)
    for tid in range(size):
        relation.insert([
            tid,
            NULL if rng.random() < 0.05 else f"city_{rng.randrange(25)}",
            f"zip_{rng.randrange(40)}",
            rng.randrange(1000),
            round(rng.random() * 100, 3),
        ])
    database = Database()
    database.add(relation)
    return database


def _fingerprint(result):
    return ([a.name for a in result.schema.attributes],
            [t.values for t in result])


@pytest.mark.parametrize("size", SIZES)
def test_e15_sql_groupby_scaling(benchmark, size):
    database = _database(size)
    engine = SQLEngine(database)
    benchmark.pedantic(lambda: engine.query(QUERY), rounds=3, iterations=1)
    assert engine.last_plan == "code"


@pytest.mark.parametrize("name", sorted(INDEX_QUERIES))
@pytest.mark.parametrize("size", SIZES)
def test_e15_index_grouping_scaling(benchmark, size, name):
    database = _database(size)
    engine = SQLEngine(database)
    engine.query(INDEX_QUERIES[name], explain=True)
    assert engine.last_explain["grouping"]["kind"] == "index"
    benchmark.pedantic(lambda: engine.query(INDEX_QUERIES[name]), rounds=3, iterations=1)


def test_e15_code_vs_serial_parity(benchmark):
    """Smoke: identical results from the in-process and chunked code plans."""
    def compute():
        database = _database(1000)
        code = SQLEngine(database)
        serial = SQLEngine(database, engine="serial")
        queries = [
            QUERY,
            "SELECT city, amount FROM t WHERE amount BETWEEN 200 AND 400 "
            "ORDER BY amount DESC, city LIMIT 50",
            "SELECT DISTINCT zip FROM t WHERE city NOT IN ('city_1', 'city_2')",
            *INDEX_QUERIES.values(),
        ]
        for sql in queries:
            expected = _fingerprint(code.query(sql))
            assert code.last_plan == "code"
            assert _fingerprint(serial.query(sql)) == expected
            assert serial.last_plan == "code"
        return len(queries)

    assert benchmark.pedantic(compute, rounds=1, iterations=1) == 5
