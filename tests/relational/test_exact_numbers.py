"""Numbers compare exactly: integers past 2**53 against the oracle's SELECT.

Python compares an ``int`` with a ``float`` exactly, and so does the
oracle (:func:`oracle.definitions.select`).  The engine's total order
(:func:`repro.relational.types.sort_key`, behind column ranks, range
push-down and the row path's ``<``/``>``) and its ``=`` keep each number
as it is, so MIN, range filters, ORDER BY and equality never merge
2**53 with 2**53 + 1.  The pinned statements below each answered wrongly
while numbers were keyed by ``float(value)``; the randomized suite draws
integers on both sides of 2**53 and tests an INTEGER and a FLOAT column
against integer and float constants alike, with writes between
statements.  A BOOLEAN is no number: ``=``, ``<>``, ``IN`` and join keys
never equate ``TRUE`` with 1 or ``FALSE`` with 0, as the oracle's ``=``
does not.
"""

import random

import pytest

from oracle import definitions as oracle
from repro.errors import SQLExecutionError
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType

BIG = 2**53

SCHEMA = RelationSchema("t", [
    Attribute("k", AttributeType.STRING),
    Attribute("big", AttributeType.INTEGER),
    Attribute("score", AttributeType.FLOAT),
])


def fingerprint(result):
    """``(names, types, rows)`` with every cell as its ``repr``."""
    if isinstance(result, Relation):
        result = ([a.name for a in result.schema.attributes],
                  [a.type for a in result.schema.attributes],
                  [t.values for t in result])
    names, types, rows = result
    return names, types, [tuple(map(repr, row)) for row in rows]


def two_rows() -> Database:
    """2**53 + 1 inserted before 2**53, which a float order cannot tell apart."""
    database = Database()
    database.add(Relation.from_rows(SCHEMA, [("a", BIG + 1, 1.0), ("a", BIG, 2.0)]))
    return database


@pytest.mark.parametrize("sql, rows", [
    ("SELECT k, MIN(big) AS lo FROM t GROUP BY k", [("a", BIG)]),
    (f"SELECT big FROM t WHERE big > {BIG}", [(BIG + 1,)]),
    ("SELECT big FROM t ORDER BY big", [(BIG,), (BIG + 1,)]),
    (f"SELECT big FROM t WHERE big = {BIG + 1}", [(BIG + 1,)]),
])
def test_integers_past_two_to_the_53_keep_their_order(sql, rows):
    database = two_rows()
    expected = oracle.select(database, sql)
    assert [tuple(row) for row in expected[2]] == rows
    assert fingerprint(SQLEngine(database).query(sql)) == fingerprint(expected)


FLAGS = RelationSchema("f", [
    Attribute("k", AttributeType.STRING),
    Attribute("flag", AttributeType.BOOLEAN),
    Attribute("n", AttributeType.INTEGER),
])


def flags() -> Database:
    database = Database()
    database.add(Relation.from_rows(FLAGS, [("t", True, 1), ("f", False, 0)]))
    return database


@pytest.mark.parametrize("sql, rows", [
    ("SELECT k FROM f WHERE flag = 1", []),
    ("SELECT k FROM f WHERE flag IN (1)", []),
    ("SELECT k FROM f WHERE flag <> 0", [("t",), ("f",)]),
])
def test_a_boolean_never_equals_a_number(sql, rows):
    # Python has True == 1 and False == 0; SQL's = does not
    database = flags()
    expected = oracle.select(database, sql)
    assert [tuple(row) for row in expected[2]] == rows
    assert fingerprint(SQLEngine(database).query(sql)) == fingerprint(expected)


@pytest.mark.parametrize("sql, plan", [
    ("SELECT a.k, b.k FROM f a JOIN f b ON a.flag = b.n", "join"),
    ("SELECT a.k, b.k FROM f a, f b WHERE a.flag = b.n", "join"),
    ("SELECT a.k, COUNT(*) AS n FROM f a JOIN f b ON a.flag = b.n GROUP BY a.k",
     "factorised"),
    ("SELECT a.k, b.k, c.k FROM f a, f b, f c WHERE a.flag = b.n AND b.k = c.k",
     "multiway"),
    ("SELECT a.k, b.k FROM f a JOIN f b ON a.flag = b.n "
     "WHERE a.k = 't' OR b.k = 'f'", "row"),
])
def test_a_join_never_pairs_a_boolean_with_a_number(sql, plan):
    # every plan kind: the code plans bridge the two dictionaries by
    # value, the row path hashes binding values; TRUE must meet neither 1
    # nor FALSE 0
    database = flags()
    expected = oracle.select(database, sql)
    assert expected[2] == []
    engine = SQLEngine(database)
    assert fingerprint(engine.query(sql)) == fingerprint(expected)
    assert engine.last_plan == plan


def test_true_is_a_column_name_not_a_literal():
    database = flags()
    sql = "SELECT k FROM f WHERE n = TRUE"
    with pytest.raises(SQLExecutionError, match="TRUE"):
        SQLEngine(database).query(sql)
    with pytest.raises(KeyError, match="TRUE"):
        oracle.select(database, sql)


#: INTEGER cells on both sides of 2**53 and of zero
BIGS = [BIG - 1, BIG, BIG + 1, BIG + 2, -BIG - 1, 3, 0]
#: FLOAT cells, some integral (2**53 + 1 is stored as 2**53)
SCORES = [float(BIG), BIG + 1, 1.5, 3.0, 3, -0.5]
#: constants of both number types for both columns
CONSTANTS = [str(BIG), str(BIG + 1), f"{float(BIG)}", "3", "3.0", "2.5", "0", "-1"]


def random_row(rng: random.Random) -> list:
    return [rng.choice(["a", "b", "c"]),
            NULL if rng.random() < 0.1 else rng.choice(BIGS),
            NULL if rng.random() < 0.1 else rng.choice(SCORES)]


def random_predicate(rng: random.Random) -> str:
    column = rng.choice(["big", "score"])
    kind = rng.randrange(4)
    if kind == 0:
        return f"{column} {rng.choice(['<', '<=', '>', '>=', '=', '<>'])} {rng.choice(CONSTANTS)}"
    if kind == 1:
        low, high = sorted(rng.sample(CONSTANTS, 2), key=lambda text: float(text))
        return f"{column} BETWEEN {low} AND {high}"
    if kind == 2:
        members = ", ".join(rng.sample(CONSTANTS, 3))
        return f"{column} {rng.choice(['IN', 'NOT IN'])} ({members})"
    return f"({column} < {rng.choice(CONSTANTS)} OR {column} > {rng.choice(CONSTANTS)})"


def random_query(rng: random.Random) -> str:
    where = f" WHERE {random_predicate(rng)}" if rng.random() < 0.8 else ""
    if rng.random() < 0.4:
        aggregates = ", ".join(rng.sample(
            ["MIN(big) AS lo", "MAX(big) AS hi", "MIN(score) AS ls", "MAX(score) AS hs",
             "COUNT(DISTINCT big) AS d", "COUNT(*) AS n"], 2))
        return f"SELECT k, {aggregates} FROM t{where} GROUP BY k ORDER BY k"
    column = rng.choice(["big", "score"])
    order = f" ORDER BY {column}{rng.choice(['', ' DESC'])}, k" if rng.random() < 0.7 else ""
    distinct = "DISTINCT " if rng.random() < 0.2 else ""
    return f"SELECT {distinct}k, {column} FROM t{where}{order}"


@pytest.mark.parametrize("seed", range(4))
def test_numbers_past_two_to_the_53_match_the_oracle(seed):
    rng = random.Random(5300 + seed)
    database = Database()
    database.add(Relation.from_rows(SCHEMA, [random_row(rng) for _ in range(40)]))
    relation = database.relation("t")
    engines = [SQLEngine(database), SQLEngine(database, engine="serial")]
    for _ in range(25):
        sql = random_query(rng)
        expected = fingerprint(oracle.select(database, sql))
        for engine in engines:
            assert fingerprint(engine.query(sql)) == expected, sql
        tids = relation.tids()
        if rng.random() < 0.5 or not tids:
            relation.insert(random_row(rng))
        else:
            relation.update(rng.choice(tids), "big", rng.choice(BIGS))
