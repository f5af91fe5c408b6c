"""Randomized parity: code-native joins agree with the oracle's SELECT.

Two-table INNER JOIN statements compile to integer hash joins over
dictionary-bridge translations (``repro.relational.sql.columnar``), and
CIND detection anti-joins bridged codes.  These tests generate random
relation pairs and random join queries — single- and multi-key equi
joins, WHERE push-down on either side, grouped aggregates drawing from
both sides, HAVING, ORDER BY, DISTINCT, LIMIT, plus residual predicates
that force the row fallback — and assert each result is *identical* to
:func:`oracle.definitions.select` on the in-process code path, the
chunked serial pool and real process pools, for every chunk size, with
interleaved mutations on both relations between queries.  CIND reports
must also equal the violations :mod:`oracle.definitions` derives from
the rows, in order.
"""

import random

import pytest

from oracle import definitions as oracle
from repro.constraints.cind import CIND
from repro.constraints.tableau import PatternTuple
from repro.detection.cind_detect import CINDDetector
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType

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

CITIES = ["edi", "ldn", "nyc", "mh", "sfo"]
# deliberate partial overlap: some zips live on only one side, so bridge
# translations always contain NO_PARTNER entries
ZIP_POOL = ["EH8", "07974", "10012", "94107", "100080", "WC1"]
LEFT_ZIPS = ZIP_POOL[:4]
RIGHT_ZIPS = ZIP_POOL[2:]
REGIONS = ["uk", "us", "cn"]


def random_database(seed: int, left_size: int = 60, right_size: int = 40) -> Database:
    rng = random.Random(seed)
    database = Database()
    left = Relation(ORDERS)
    for _ in range(left_size):
        left.insert(_orders_row(rng))
    right = Relation(ZIPS)
    for _ in range(right_size):
        right.insert(_zips_row(rng))
    database.add(left)
    database.add(right)
    return database


def _orders_row(rng, null_rate=0.12):
    return [
        NULL if rng.random() < null_rate else rng.choice(CITIES),
        NULL if rng.random() < null_rate else rng.choice(LEFT_ZIPS),
        NULL if rng.random() < null_rate else rng.randrange(100),
        NULL if rng.random() < null_rate else round(rng.random() * 10, 3),
    ]


def _zips_row(rng, null_rate=0.1):
    return [
        NULL if rng.random() < null_rate else rng.choice(RIGHT_ZIPS),
        NULL if rng.random() < null_rate else rng.choice(REGIONS),
        NULL if rng.random() < null_rate else rng.randrange(1000),
    ]


def mutate(database: Database, rng: random.Random, steps: int = 8) -> None:
    for _ in range(steps):
        name, maker = rng.choice([("orders", _orders_row), ("zips", _zips_row)])
        relation = database.relation(name)
        action = rng.random()
        tids = relation.tids()
        if action < 0.5 or not tids:
            relation.insert(maker(rng))
        elif action < 0.75:
            relation.delete(rng.choice(tids))
        else:
            position = rng.randrange(len(relation.schema.attributes))
            attribute = relation.schema.attributes[position].name
            value = maker(rng, null_rate=0.2)[position]
            relation.update(rng.choice(tids), attribute, value)


def random_where(rng) -> str:
    predicates = []
    for _ in range(rng.randrange(1, 3)):
        kind = rng.randrange(6)
        if kind == 0:
            predicates.append(f"o.amount {rng.choice(['<', '<=', '>', '>='])} "
                              f"{rng.randrange(100)}")
        elif kind == 1:
            predicates.append(f"o.city = '{rng.choice(CITIES)}'")
        elif kind == 2:
            members = ", ".join(f"'{c}'" for c in rng.sample(CITIES, 2))
            predicates.append(f"o.city {rng.choice(['IN', 'NOT IN'])} ({members})")
        elif kind == 3:
            predicates.append(f"z.pop {rng.choice(['<', '<=', '>', '>='])} "
                              f"{rng.randrange(1000)}")
        else:
            predicates.append(f"z.region != '{rng.choice(REGIONS)}'")
    return " AND ".join(predicates)


def random_join_query(rng) -> str:
    on = "o.zip = z.zip"
    if rng.random() < 0.15:  # multi-key equi join (rarely matches, still parity)
        on += " AND o.city = z.region"
    where = f" WHERE {random_where(rng)}" if rng.random() < 0.7 else ""
    if rng.random() < 0.5:  # grouped
        group = rng.choice(["o.city", "z.region", "o.city, z.region"])
        names = [ref.split(".")[1] for ref in group.split(", ")]
        aggregates = rng.sample([
            "COUNT(*) AS n", "COUNT(o.amount) AS c", "COUNT(DISTINCT o.city) AS d",
            "MIN(o.amount) AS lo", "MAX(z.pop) AS hi", "SUM(z.pop) AS s",
            "AVG(o.score) AS a", "SUM(DISTINCT o.amount) AS sd",
        ], rng.randrange(1, 4))
        select = ", ".join([group] + aggregates)
        having = " HAVING COUNT(*) > 1" if rng.random() < 0.3 else ""
        order = f" ORDER BY {names[0]}" if rng.random() < 0.5 else ""
        limit = f" LIMIT {rng.randrange(1, 8)}" if rng.random() < 0.3 else ""
        return (f"SELECT {select} FROM orders o JOIN zips z ON {on}"
                f"{where} GROUP BY {group}{having}{order}{limit}")
    distinct = "DISTINCT " if rng.random() < 0.3 else ""
    # output names stay unique: zip only ever comes from the left side
    columns = rng.sample(["o.city", "o.zip", "o.amount", "o.score",
                          "z.region", "z.pop"], rng.randrange(1, 5))
    order = ""
    if rng.random() < 0.6:
        keys = rng.sample(columns, rng.randrange(1, len(columns) + 1))
        order = " ORDER BY " + ", ".join(
            f"{key.split('.')[1]}{rng.choice(['', ' DESC'])}" for key in keys)
    limit = f" LIMIT {rng.randrange(1, 12)}" if rng.random() < 0.4 else ""
    return (f"SELECT {distinct}{', '.join(columns)} FROM orders o "
            f"JOIN zips z ON {on}{where}{order}{limit}")


def fingerprint(result):
    """``(names, types, rows)`` of a result relation or of ``oracle.select``,
    each cell as its ``repr``: ``0.0`` and ``-0.0`` differ, as do ``1`` and ``1.0``."""
    if isinstance(result, Relation):
        result = ([a.name for a in result.schema.attributes],
                  [a.type for a in result.schema.attributes],
                  [t.values for t in result])
    names, types, rows = result
    return names, types, [tuple(map(repr, row)) for row in rows]


def assert_engines_agree(database: Database, engines: list[SQLEngine], sql: str) -> None:
    expected = fingerprint(oracle.select(database, sql))
    for engine in engines:
        assert fingerprint(engine.query(sql)) == expected, sql


class TestRandomizedJoinParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_code_join_matches_oracle(self, seed):
        rng = random.Random(2000 + seed)
        database = random_database(seed)
        code = SQLEngine(database)
        serial = SQLEngine(database, engine="serial")
        joined = 0
        for _ in range(20):
            assert_engines_agree(database, [code, serial], random_join_query(rng))
            # grouped statements with exact-foldable aggregates factorise;
            # everything else enumerates on the hash-join plan
            joined += code.last_plan in ("join", "factorised")
            mutate(database, rng)
        assert joined > 10  # most random queries must hit the join plans

    def test_residual_join_predicates_fall_back_with_parity(self):
        database = random_database(3)
        code = SQLEngine(database)
        sql = ("SELECT o.city, z.region FROM orders o JOIN zips z "
               "ON o.zip = z.zip WHERE LENGTH(o.city) >= 3 ORDER BY city, region")
        assert fingerprint(code.query(sql)) == fingerprint(oracle.select(database, sql))
        assert code.last_plan == "row"

    def test_null_test_and_one_column_or_push_down_on_the_join_path(self):
        database = random_database(8)
        code = SQLEngine(database)
        rng = random.Random(8)
        sql = ("SELECT o.city, o.amount, z.region FROM orders o JOIN zips z "
               "ON o.zip = z.zip WHERE z.region IS NOT NULL "
               "AND (o.amount < 20 OR o.amount > 70 OR o.amount IS NULL) "
               "ORDER BY city, amount, region")
        for _ in range(4):
            assert_engines_agree(database, [code], sql)
            assert code.last_plan == "join"
            mutate(database, rng)

    def test_zero_exec_rows_on_the_join_path(self):
        database = random_database(11)
        code = SQLEngine(database)
        sql = ("SELECT o.city, COUNT(*) AS n, SUM(z.pop) AS s, AVG(o.score) AS a "
               "FROM orders o JOIN zips z ON o.zip = z.zip "
               "WHERE o.amount BETWEEN 5 AND 90 AND z.region IN ('uk', 'us') "
               "GROUP BY o.city HAVING COUNT(*) > 1 ORDER BY city")
        assert fingerprint(code.query(sql)) == fingerprint(oracle.select(database, sql))
        assert code.last_plan == "join"  # no binding row is built off the row plan

    def test_parallel_join_across_real_processes(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        rng = random.Random(777)
        database = random_database(777, left_size=50, right_size=30)
        parallel = SQLEngine(database, engine="parallel", workers=2)
        for _ in range(10):
            assert_engines_agree(database, [parallel], random_join_query(rng))
            mutate(database, rng)

    @pytest.mark.parametrize("chunks", [1, 2, 3, 7, 1000])
    def test_join_chunk_boundaries_are_invisible(self, chunks):
        from repro.engine.executor import SerialPool
        from repro.relational.sql.executor import SQLExecutor
        from repro.relational.sql.parser import parse_sql

        database = random_database(55, left_size=40, right_size=25)
        executor = SQLExecutor(database, pool=SerialPool(num_chunks=chunks))
        rng = random.Random(55)
        for _ in range(10):
            sql = random_join_query(rng)
            expected = fingerprint(oracle.select(database, sql))
            assert fingerprint(executor.execute(parse_sql(sql))) == expected, sql


def random_cinds(rng) -> list[CIND]:
    cinds = []
    for _ in range(rng.randrange(1, 4)):
        lhs_pattern = {} if rng.random() < 0.5 else {"city": rng.choice(CITIES)}
        rhs_pattern = {} if rng.random() < 0.5 else {"region": rng.choice(REGIONS)}
        cinds.append(CIND("orders", ["zip"], "zips", ["zip"],
                          PatternTuple(lhs_pattern), PatternTuple(rhs_pattern)))
    return cinds


class TestCINDDefinition:
    @pytest.mark.parametrize("seed", range(4))
    def test_bridged_anti_join_matches_definition(self, seed):
        rng = random.Random(6000 + seed)
        database = random_database(seed, left_size=50, right_size=30)
        cinds = random_cinds(rng)
        detector = CINDDetector(database, cinds)
        for _ in range(4):
            report = [(v.cind, v.tid) for v in detector.detect().violations]
            assert report == oracle.cind_violations(database, cinds)
            mutate(database, rng)
