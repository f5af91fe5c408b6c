"""Randomized parity: every SQL engine agrees with the oracle's SELECT.

Single-table scan/filter/group/aggregate statements run on dictionary
codes (``repro.relational.sql.columnar``); shapes no code plan compiles
fall back to the row executor.  These tests generate random relations
and random queries over the features the code path covers — ranges,
BETWEEN, IN / NOT IN, IS [NOT] NULL, ORs on one column, GROUP BY with
every aggregate, HAVING, ORDER BY, DISTINCT, LIMIT, plus residual
predicates (an OR across columns, a function call) that force the
fallback — and assert each result is *identical* (rows, order, names,
inferred types) to :func:`oracle.definitions.select`, the SELECT
restated over dict rows, on the in-process path, the chunked serial
pool and real process pools, with interleaved insert/delete/update
mutations between queries.
"""

import random

import pytest

from oracle import definitions as oracle
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType

SCHEMA = RelationSchema("t", [
    Attribute("city", AttributeType.STRING),
    Attribute("zip", AttributeType.STRING),
    Attribute("amount", AttributeType.INTEGER),
    Attribute("score", AttributeType.FLOAT),
])

CITIES = ["edi", "ldn", "nyc", "mh", "sfo"]
ZIPS = ["EH8", "07974", "10012"]


def random_relation(seed: int, size: int = 80, null_rate: float = 0.12) -> Relation:
    rng = random.Random(seed)
    relation = Relation(SCHEMA)
    for _ in range(size):
        relation.insert(_random_row(rng, null_rate))
    return relation


def _random_row(rng: random.Random, null_rate: float = 0.12) -> list:
    return [
        NULL if rng.random() < null_rate else rng.choice(CITIES),
        NULL if rng.random() < null_rate else rng.choice(ZIPS),
        NULL if rng.random() < null_rate else rng.randrange(100),
        NULL if rng.random() < null_rate else round(rng.random() * 10, 3),
    ]


def mutate(relation: Relation, rng: random.Random, steps: int = 10) -> None:
    for _ in range(steps):
        action = rng.random()
        tids = relation.tids()
        if action < 0.45 or not tids:
            relation.insert(_random_row(rng))
        elif action < 0.7:
            relation.delete(rng.choice(tids))
        else:
            attribute = rng.choice(["city", "zip", "amount", "score"])
            value = {"city": rng.choice(CITIES), "zip": rng.choice(ZIPS),
                     "amount": rng.randrange(100),
                     "score": round(rng.random() * 10, 3)}[attribute]
            relation.update(rng.choice(tids),
                            attribute, NULL if rng.random() < 0.2 else value)


def random_where(rng: random.Random) -> str:
    predicates = []
    for _ in range(rng.randrange(1, 3)):
        kind = rng.randrange(12)
        if kind == 0:
            predicates.append(f"amount {rng.choice(['<', '<=', '>', '>='])} "
                              f"{rng.randrange(100)}")
        elif kind == 1:
            low = rng.randrange(60)
            predicates.append(f"amount BETWEEN {low} AND {low + rng.randrange(40)}")
        elif kind == 2:
            predicates.append(f"score {rng.choice(['<', '<=', '>', '>='])} "
                              f"{round(rng.random() * 10, 2)}")
        elif kind == 3:
            predicates.append(f"city = '{rng.choice(CITIES)}'")
        elif kind == 4:
            members = ", ".join(f"'{c}'" for c in rng.sample(CITIES, 2))
            predicates.append(f"city {rng.choice(['IN', 'NOT IN'])} ({members})")
        elif kind == 5:
            predicates.append(f"zip != '{rng.choice(ZIPS)}'")
        elif kind == 6:
            column = rng.choice(["city", "zip", "amount", "score"])
            predicates.append(f"{column} IS {rng.choice(['', 'NOT '])}NULL")
        elif kind == 7:
            predicates.append(f"(city <> '{rng.choice(CITIES)}' OR city IS NULL)")
        elif kind == 8:
            low = rng.randrange(60)
            predicates.append(f"(amount < {low} OR amount > {low + rng.randrange(40)})")
        elif kind == 9:
            members = ", ".join(f"'{z}'" for z in rng.sample(ZIPS, 2))
            predicates.append(f"(zip IN ({members}) OR zip IS NULL)")
        elif kind == 10:
            # an OR across two columns stays residual
            predicates.append(f"(city = '{rng.choice(CITIES)}' OR zip = '{rng.choice(ZIPS)}')")
        else:
            # residual conjunct: exercises the row-path fallback parity
            predicates.append(f"LENGTH(city) >= {rng.randrange(2, 4)}")
    return " AND ".join(predicates)


def random_query(rng: random.Random) -> str:
    where = f" WHERE {random_where(rng)}" if rng.random() < 0.8 else ""
    if rng.random() < 0.5:  # grouped
        group = rng.choice(["city", "zip", "city, zip"])
        aggregates = rng.sample([
            "COUNT(*) AS n", "COUNT(amount) AS c", "COUNT(DISTINCT city) AS d",
            "MIN(amount) AS lo", "MAX(score) AS hi", "SUM(amount) AS s",
            "AVG(score) AS a", "SUM(DISTINCT amount) AS sd",
        ], rng.randrange(1, 4))
        select = ", ".join([group] + aggregates)
        having = " HAVING COUNT(*) > 1" if rng.random() < 0.3 else ""
        order = f" ORDER BY {group.split(', ')[0]}" if rng.random() < 0.5 else ""
        limit = f" LIMIT {rng.randrange(1, 8)}" if rng.random() < 0.3 else ""
        return f"SELECT {select} FROM t{where} GROUP BY {group}{having}{order}{limit}"
    distinct = "DISTINCT " if rng.random() < 0.3 else ""
    columns = ", ".join(rng.sample(["city", "zip", "amount", "score"],
                                   rng.randrange(1, 4)))
    order = ""
    if rng.random() < 0.6:
        keys = rng.sample(columns.split(", "), rng.randrange(1, columns.count(",") + 2))
        order = " ORDER BY " + ", ".join(
            f"{key}{rng.choice(['', ' DESC'])}" for key in keys)
    limit = f" LIMIT {rng.randrange(1, 12)}" if rng.random() < 0.4 else ""
    return f"SELECT {distinct}{columns} FROM t{where}{order}{limit}"


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


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_code_path_matches_oracle(self, seed):
        rng = random.Random(1000 + seed)
        database = Database()
        database.add(random_relation(seed))
        code = SQLEngine(database)
        serial = SQLEngine(database, engine="serial")
        for _ in range(25):
            assert_engines_agree(database, [code, serial], random_query(rng))
            mutate(database.relation("t"), rng)

    def test_zero_exec_rows_on_the_code_path(self):
        database = Database()
        database.add(random_relation(77, size=60))
        code = SQLEngine(database)
        sql = ("SELECT zip, COUNT(*) AS n, MIN(amount) AS lo, AVG(score) AS a "
               "FROM t WHERE amount BETWEEN 10 AND 80 AND city IN ('edi', 'nyc') "
               "GROUP BY zip HAVING COUNT(*) > 1 ORDER BY zip")
        assert fingerprint(code.query(sql)) == fingerprint(oracle.select(database, sql))
        assert code.last_plan == "code"  # no binding row is built off the row plan

    def test_parallel_engine_across_real_processes(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        rng = random.Random(4242)
        database = Database()
        database.add(random_relation(4242, size=70))
        parallel = SQLEngine(database, engine="parallel", workers=2)
        for _ in range(12):
            assert_engines_agree(database, [parallel], random_query(rng))
            mutate(database.relation("t"), rng)

    def test_mutation_between_queries_rebroadcasts(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        database = Database()
        database.add(random_relation(9, size=40))
        relation = database.relation("t")
        parallel = SQLEngine(database, engine="parallel", workers=2)
        sql = "SELECT city, COUNT(*) AS n FROM t WHERE amount >= 0 GROUP BY city"
        assert_engines_agree(database, [parallel], sql)
        relation.insert(["edi", "EH8", 0, 1.0])  # new rows must reach the workers
        relation.update(relation.tids()[0], "city", "brand-new-city")
        assert_engines_agree(database, [parallel], sql)

    @pytest.mark.parametrize("chunks", [1, 2, 3, 7, 1000])
    def test_chunk_boundaries_are_invisible(self, chunks):
        from repro.engine.executor import SerialPool
        from repro.relational.sql.executor import SQLExecutor
        from repro.relational.sql.parser import parse_sql

        database = Database()
        database.add(random_relation(31, size=50))
        executor = SQLExecutor(database, pool=SerialPool(num_chunks=chunks))
        rng = random.Random(31)
        for _ in range(10):
            sql = random_query(rng)
            statement = parse_sql(sql)
            assert fingerprint(executor.execute(statement)) == fingerprint(oracle.select(database, sql)), sql


class TestAggregateEdgeCases:
    """Pin grouped-aggregate corners to the oracle's semantics."""

    def _database(self, rows):
        database = Database()
        database.add(Relation.from_rows(SCHEMA, rows))
        return database

    def test_avg_over_all_null_group_is_null(self):
        database = self._database([
            ("edi", "EH8", NULL, NULL), ("edi", "EH8", NULL, NULL),
            ("nyc", "10012", 4, 2.0), ("nyc", "10012", 6, NULL)])
        code = SQLEngine(database)
        sql = ("SELECT city, AVG(amount) AS a, AVG(score) AS sc, "
               "COUNT(amount) AS n FROM t GROUP BY city ORDER BY city")
        expected = fingerprint(oracle.select(database, sql))
        assert fingerprint(code.query(sql)) == expected
        assert code.last_plan == "code"
        # the edi group aggregates zero non-NULL values: AVG is NULL, not 0/0
        edi = code.query(sql).tuples()[0].as_dict()
        assert edi["a"] is NULL and edi["sc"] is NULL and edi["n"] == 0

    def test_sum_over_group_emptied_by_having_disappears(self):
        database = self._database([
            ("edi", "EH8", NULL, 1.0), ("nyc", "10012", 4, 2.0),
            ("nyc", "10012", 6, 3.0)])
        code = SQLEngine(database)
        # edi's SUM(amount) folds zero values -> NULL; HAVING drops it
        sql = ("SELECT city, SUM(amount) AS s FROM t GROUP BY city "
               "HAVING SUM(amount) > 0 ORDER BY city")
        expected = fingerprint(oracle.select(database, sql))
        assert fingerprint(code.query(sql)) == expected
        assert [row["city"] for row in code.query(sql)] == ["nyc"]
        # without HAVING the all-NULL group surfaces with a NULL sum
        bare = "SELECT city, SUM(amount) AS s FROM t GROUP BY city ORDER BY city"
        assert fingerprint(code.query(bare)) == fingerprint(oracle.select(database, bare))
        assert code.query(bare).tuples()[0].values == ("edi", NULL)


class TestOrderByLimitTopK:
    """ORDER BY ... LIMIT k on plain scans runs as a top-k heap selection."""

    @pytest.mark.parametrize("order, limit", [
        ("amount", 5), ("amount DESC", 5), ("city, amount DESC", 7),
        ("score DESC, zip", 1), ("amount", 0),
    ])
    def test_top_k_matches_full_sort(self, order, limit):
        database = Database()
        database.add(random_relation(52, size=90))
        code = SQLEngine(database)
        sql = f"SELECT city, zip, amount, score FROM t ORDER BY {order} LIMIT {limit}"
        assert fingerprint(code.query(sql)) == fingerprint(oracle.select(database, sql))
        assert code.last_plan == "code"

    def test_explain_records_the_heap_selection(self):
        database = Database()
        database.add(random_relation(52, size=90))
        code = SQLEngine(database)
        report = code.explain("SELECT city FROM t ORDER BY city LIMIT 3")
        rows_in = len(database.relation("t").tids())
        assert code.last_explain["order"] == {"top_k": 3, "rows_in": rows_in}
        assert f"order by: top-3 heap selection on rank tuples over " \
               f"{rows_in} rows (LIMIT push-down)" in report

    def test_limit_at_or_past_row_count_sorts_fully(self):
        database = Database()
        database.add(random_relation(52, size=20))
        code = SQLEngine(database)
        sql = "SELECT city, amount FROM t ORDER BY amount LIMIT 1000"
        assert fingerprint(code.query(sql)) == fingerprint(oracle.select(database, sql))
        code.query(sql, explain=True)
        assert code.last_explain.get("order") is None  # no pruning to report

    def test_top_k_survives_where_and_mutations(self):
        database = Database()
        database.add(random_relation(14, size=60))
        relation = database.relation("t")
        code = SQLEngine(database)
        rng = random.Random(14)
        sql = ("SELECT city, amount FROM t WHERE amount >= 10 "
               "ORDER BY amount DESC, city LIMIT 6")
        for _ in range(5):
            assert fingerprint(code.query(sql)) == fingerprint(oracle.select(database, sql))
            assert code.last_plan == "code"
            mutate(relation, rng)


class TestGroupedStatementsAndShadowedNames:
    """An aggregate only in HAVING or inside a computed item makes the
    statement grouped (one group without GROUP BY), and ORDER BY a name
    that two output columns share sorts by the first of them."""

    @staticmethod
    def _database():
        database = Database()
        database.add(Relation.from_rows(
            RelationSchema("t", [Attribute("city"), Attribute("n", AttributeType.INTEGER)]),
            [("a", 3), ("b", 1), ("a", 2)]))
        database.add(Relation.from_rows(
            RelationSchema("u", [Attribute("city"), Attribute("m", AttributeType.INTEGER)]),
            [("a", 10), ("b", 20), ("a", 5)]))
        return database

    @pytest.mark.parametrize("sql, plan", [
        ("SELECT city FROM t HAVING COUNT(*) > 100", "code"),
        ("SELECT city FROM t HAVING COUNT(*) > 1", "code"),
        ("SELECT COUNT(*) + 1 AS k FROM t", "code"),
        ("SELECT n AS k, city AS k FROM t ORDER BY k", "code"),
        ("SELECT t.n AS k, u.m AS k FROM t JOIN u ON t.city = u.city ORDER BY k", "join"),
    ])
    def test_matches_oracle(self, sql, plan):
        database = self._database()
        code = SQLEngine(database)
        assert fingerprint(code.query(sql)) == fingerprint(oracle.select(database, sql))
        assert code.last_plan == plan
