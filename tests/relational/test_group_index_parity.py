"""Randomized parity: grouped statements that read the maintained index.

A single-table grouped statement whose WHERE conjuncts all test GROUP BY
columns reads its groups off the relation's maintained hash index on
those columns; one with a conjunct on another column scans.  These tests
generate random relations and statements of both kinds — filters on the
group columns only (``=``, ``IN``, ``<>``, ``NOT IN``, ``IS [NOT] NULL``,
ranges), NULL keys, every aggregate kind (FLOAT SUM/AVG, whose fold order
shows), HAVING over aggregates and key columns, items that read a
non-key column (the group's first row), ``GROUP BY a, b`` against
``b, a`` and one group per tuple — and interleave inserts, deletes and
updates between queries, so a bucket's order is not first occurrence.
Every result must be identical to :func:`oracle.definitions.select`, on
the in-process path and on the serial chunked engine.

MIN/MAX rank ties are checked index path against scan path instead: the
engine orders numbers by ``float`` (``sort_key``), which ties integers
past 2**53 that the oracle orders exactly, so only the engine has ties to
break, and both of its paths must keep the first extremal value.
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
    Attribute("id", AttributeType.INTEGER),
    Attribute("city", AttributeType.STRING),
    Attribute("zip", AttributeType.STRING),
    Attribute("n", AttributeType.INTEGER),
    Attribute("big", AttributeType.INTEGER),
    Attribute("score", AttributeType.FLOAT),
])

CITIES = ["edi", "ldn", "nyc", "mh"]
ZIPS = ["EH8", "07974", "10012"]
NUMBERS = [7, -3, 12, 0, 40]
#: past 2**53 neighbours share a float sort key, so MIN/MAX ranks tie
BIGS = [2 ** 53, 2 ** 53 + 1, 2 ** 53 + 2, 2 ** 53 + 3]
#: sums of these depend on the order they are added in
SCORES = [0.1, 0.2, 0.3, 1e16, -1e16, 2.5]
VALUES = {"city": CITIES, "zip": ZIPS, "n": NUMBERS, "big": BIGS, "score": SCORES}

GROUPS = ["city", "zip", "city, zip", "zip, city", "id", "n"]
AGGREGATES = [
    "COUNT(*) AS c0", "COUNT(score) AS c1", "COUNT(DISTINCT city) AS c2",
    "MIN(n) AS lo", "MAX(n) AS hi", "SUM(score) AS s", "AVG(score) AS a",
    "SUM(DISTINCT score) AS sd", "AVG(DISTINCT n) AS ad", "MIN(zip) AS z",
    "MAX(city) AS mc", "SUM(n) AS sn",
]
#: a conjunct on a non-group column that every tuple passes: forces a scan
EVERY_TUPLE = "(score IS NULL OR score IS NOT NULL)"


def _row(rng: random.Random, tid: int, null_rate: float = 0.15) -> list:
    def pick(values):
        return NULL if rng.random() < null_rate else rng.choice(values)
    return [tid, pick(CITIES), pick(ZIPS), pick(NUMBERS), pick(BIGS), pick(SCORES)]


def random_database(seed: int, size: int = 70) -> tuple[Database, random.Random]:
    rng = random.Random(seed)
    database = Database()
    database.add(Relation.from_rows(SCHEMA, [_row(rng, tid) for tid in range(size)]))
    return database, rng


def mutate(relation: Relation, rng: random.Random, steps: int = 12) -> None:
    for _ in range(steps):
        action = rng.random()
        tids = relation.tids()
        if action < 0.35 or not tids:
            relation.insert(_row(rng, 1000 + rng.randrange(10 ** 6)))
        elif action < 0.6:
            relation.delete(rng.choice(tids))
        else:
            attribute = rng.choice(sorted(VALUES))
            value = NULL if rng.random() < 0.2 else rng.choice(VALUES[attribute])
            relation.update(rng.choice(tids), attribute, value)


def group_filter(rng: random.Random, column: str) -> str:
    """One conjunct on *column* that compiles to a code-set test."""
    if column in ("id", "n"):
        bound = rng.randrange(-5, 80)
        return rng.choice([f"{column} {rng.choice(['<', '<=', '>', '>='])} {bound}",
                           f"{column} BETWEEN {bound} AND {bound + rng.randrange(30)}",
                           f"{column} IS {rng.choice(['', 'NOT '])}NULL"])
    values = VALUES[column]
    members = ", ".join(f"'{value}'" for value in rng.sample(values, 2))
    return rng.choice([f"{column} = '{rng.choice(values)}'",
                       f"{column} <> '{rng.choice(values)}'",
                       f"{column} IN ({members})", f"{column} NOT IN ({members})",
                       f"{column} IS {rng.choice(['', 'NOT '])}NULL",
                       f"{column} {rng.choice(['<', '>='])} '{rng.choice(values)}'"])


def render(items: list[str], conjuncts: list[str], group: str, tail: str = "") -> str:
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    return f"SELECT {', '.join(items)} FROM t{where} GROUP BY {group}{tail}"


def random_statement(rng: random.Random, scan: bool = False) -> str:
    """A grouped statement; with *scan*, one conjunct tests a non-group column."""
    group = rng.choice(GROUPS)
    columns = group.split(", ")
    conjuncts = [group_filter(rng, rng.choice(columns)) for _ in range(rng.randrange(3))]
    if scan:
        others = [name for name in ("city", "zip", "n", "id") if name not in columns]
        conjuncts.append(group_filter(rng, rng.choice(others)))
    items = list(columns)
    if rng.random() < 0.3:
        items.append("score")  # not a key column: the group's first row answers
    if rng.random() < 0.2:
        items.append(f"{columns[0]} IS NULL AS isnull")
    items += rng.sample(AGGREGATES, rng.randrange(1, 4))
    having = rng.choice([
        "", "", " HAVING COUNT(*) > 1", f" HAVING {columns[-1]} IS NOT NULL",
        f" HAVING COUNT(*) >= 1 AND {columns[0]} IS NULL",
        " HAVING SUM(score) > 0 OR MIN(n) < 0",
        f" HAVING MAX(n) = MIN(n) OR t.{columns[0]} IS NULL",
    ])
    order = f" ORDER BY {columns[0]}" if rng.random() < 0.3 else ""
    limit = f" LIMIT {rng.randrange(1, 6)}" if rng.random() < 0.2 else ""
    return render(items, conjuncts, group, having + order + limit)


def fingerprint(result):
    """``(names, types, rows)``, each cell as its ``repr``."""
    if isinstance(result, Relation):
        result = ([a.name for a in result.schema.attributes],
                  [a.type for a in result.schema.attributes],
                  [t.values for t in result])
    names, types, rows = result
    return names, types, [tuple(map(repr, row)) for row in rows]


def assert_grouped_as(database: Database, engines: list[SQLEngine], sql: str,
                      kind: str) -> None:
    expected = fingerprint(oracle.select(database, sql))
    for engine in engines:
        assert fingerprint(engine.query(sql, explain=True)) == expected, sql
        assert engine.last_plan == "code", sql
        assert engine.last_explain["grouping"]["kind"] == kind, sql


def assert_ties_break_alike(engine: SQLEngine, rng: random.Random) -> None:
    """MIN/MAX over tied ranks: the index path keeps the scan's first extremal value."""
    group = rng.choice(GROUPS)
    columns = group.split(", ")
    items = columns + ["MIN(big) AS lo", "MAX(big) AS hi", "COUNT(big) AS c"]
    conjuncts = [group_filter(rng, rng.choice(columns)) for _ in range(rng.randrange(2))]
    indexed = render(items, conjuncts, group)
    scanned = render(items, conjuncts + [EVERY_TUPLE], group)
    expected = fingerprint(engine.query(scanned, explain=True))
    assert engine.last_explain["grouping"]["kind"] == "scan", scanned
    assert fingerprint(engine.query(indexed, explain=True)) == expected, indexed
    assert engine.last_explain["grouping"]["kind"] == "index", indexed


class TestIndexGroupingParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_index_and_scan_statements_match_oracle(self, seed):
        database, rng = random_database(2500 + seed)
        engines = [SQLEngine(database), SQLEngine(database, engine="serial")]
        for _ in range(12):
            assert_grouped_as(database, engines, random_statement(rng), "index")
            assert_grouped_as(database, engines, random_statement(rng, scan=True), "scan")
            assert_ties_break_alike(engines[0], rng)
            mutate(database.relation("t"), rng)

    def test_group_by_order_shares_one_index(self):
        database, rng = random_database(2600)
        relation = database.relation("t")
        engine = SQLEngine(database)
        for _ in range(4):
            mutate(relation, rng)
            for group in ("city, zip", "zip, city"):
                sql = (f"SELECT {group}, COUNT(*) AS c, SUM(score) AS s FROM t "
                       f"WHERE city IS NOT NULL GROUP BY {group}")
                assert_grouped_as(database, [engine], sql, "index")
                assert engine.last_explain["grouping"]["attributes"] == ["city", "zip"]
        assert "1 maintained indexes" in repr(relation.columns)

    def test_one_group_per_tuple(self):
        database, rng = random_database(2700, size=120)
        relation = database.relation("t")
        engine = SQLEngine(database)
        for _ in range(4):
            mutate(relation, rng, steps=30)
            sql = ("SELECT id, city, COUNT(*) AS c, MAX(score) AS m FROM t "
                   "WHERE id >= 10 GROUP BY id HAVING COUNT(*) = 1")
            assert_grouped_as(database, [engine], sql, "index")
            assert engine.last_explain["grouping"]["kept"] == len(engine.query(sql))

    def test_writes_after_a_read_refile_the_index(self):
        database, rng = random_database(2800, size=30)
        relation = database.relation("t")
        engine = SQLEngine(database)
        sql = "SELECT city, COUNT(*) AS c, MIN(n) AS lo FROM t GROUP BY city"
        assert_grouped_as(database, [engine], sql, "index")
        tid = relation.insert([5000, "brand-new", "EH8", -7, 2 ** 53, 0.1])
        relation.update(relation.tids()[0], "city", "brand-new")
        assert_grouped_as(database, [engine], sql, "index")
        relation.delete(tid)
        assert_grouped_as(database, [engine], sql, "index")
