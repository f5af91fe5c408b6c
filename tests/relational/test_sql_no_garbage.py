"""A SQL statement leaves no cyclic garbage.

Reference counting alone must free everything a statement builds: the
parse tree walks, the plans, the multiway descent's grouping state and
the factorised folds.  A reference cycle left behind waits for the cycle
collector, whose full collections traverse every tracked object, so
garbage per statement turns into collector time on every workload that
runs SQL.  Each statement shape below runs in-process with the collector
disabled; ``gc.collect()`` must then find nothing to free.
"""

import gc

import pytest

from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import AttributeType

CUSTOMER = RelationSchema("customer", [
    Attribute(name, AttributeType.STRING)
    for name in ("cc", "ac", "phn", "name", "street", "city", "zip")])
CD = RelationSchema("cd", [Attribute("album", AttributeType.STRING),
                           Attribute("genre", AttributeType.STRING)])
BOOK = RelationSchema("book", [Attribute("title", AttributeType.STRING),
                               Attribute("format", AttributeType.STRING),
                               Attribute("price", AttributeType.INTEGER)])

#: one statement per plan shape of perfbench's report refresh
SHAPES = {
    "grouped scan": ("code", "SELECT city, COUNT(*) AS n FROM customer GROUP BY city"),
    "having": ("code", "SELECT zip, COUNT(DISTINCT street) AS streets FROM customer "
                       "GROUP BY zip HAVING COUNT(DISTINCT street) > 1"),
    "top-k": ("code", "SELECT phn, name, zip FROM customer WHERE cc = '44' "
                      "ORDER BY zip, phn LIMIT 20"),
    "hash join": ("join", "SELECT cd.album, book.price, book.format FROM cd "
                          "JOIN book ON cd.album = book.title WHERE cd.genre = 'a-book'"),
    "factorised join": ("factorised",
                        "SELECT cd.genre, book.format, COUNT(*) AS n, "
                        "MAX(book.price) AS top FROM cd JOIN book "
                        "ON cd.album = book.title GROUP BY cd.genre, book.format"),
    "multiway": ("multiway",
                 "SELECT c1.name, c2.street, c3.city FROM customer c1 "
                 "JOIN customer c2 ON c1.phn = c2.phn "
                 "JOIN customer c3 ON c2.phn = c3.phn WHERE c1.ac = '908'"),
    "factorised multiway": ("factorised",
                            "SELECT c1.city, COUNT(*) AS n, MIN(c3.street) AS first "
                            "FROM customer c1 JOIN customer c2 ON c1.phn = c2.phn "
                            "JOIN customer c3 ON c2.zip = c3.zip "
                            "WHERE c1.ac = '908' AND c3.cc = '01' GROUP BY c1.city"),
}


def database() -> Database:
    database = Database()
    database.add(Relation.from_rows(CUSTOMER, [
        ("44", "131", "1", "mike", "mayfield", "edi", "EH8"),
        ("44", "131", "1", "rick", "crichton", "edi", "EH8"),
        ("01", "908", "2", "joe", "mtn ave", "nyc", "07974"),
        ("01", "908", "3", "jim", "mtn ave", "mh", "07974"),
        ("01", "212", "2", "ben", "5th ave", "nyc", "10012"),
        ("44", "908", "3", "ian", "high st", "ldn", "EH8"),
    ]))
    database.add(Relation.from_rows(CD, [("a", "rock"), ("b", "a-book"),
                                         ("c", "a-book")]))
    database.add(Relation.from_rows(BOOK, [("b", "hard", 3), ("c", "soft", 4),
                                           ("c", "hard", 5)]))
    return database


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_statement_leaves_nothing_for_the_cycle_collector(shape):
    plan, sql = SHAPES[shape]
    engine = SQLEngine(database(), engine="sequential")
    engine.query(sql)  # caches, bridges and indexes are built by now
    assert engine.last_plan == plan
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = engine.query(sql)
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert len(result) > 0
    assert found == 0, f"{shape}: {found} objects left in reference cycles"
