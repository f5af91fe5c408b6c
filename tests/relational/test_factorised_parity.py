"""Randomized parity: factorised (semiring) aggregates agree with the oracle.

Grouped statements whose aggregates all fold through a semiring
(COUNT / COUNT DISTINCT / MIN / MAX, and SUM / AVG over exact integer or
boolean values) skip tuple enumeration entirely: the join engines fold
per-table partial aggregates per join-variable binding and combine them
by semiring multiplication (``factorise_plan`` in
``repro.relational.sql.columnar``).  These tests generate random
databases and random *factorisable* grouped queries over two-table hash
joins and chain / star / triangle / self-join multiway shapes, with
aggregates on every table — NULL join keys,
``NO_PARTNER`` bridge entries, WHERE push-down, HAVING, ORDER BY,
LIMIT — and assert the factorised results and the enumerated plans
(forced via ``columnar.FACTORISE = False``) are both identical to
:func:`oracle.definitions.select`, in-process, across the serial chunked
pool, every chunk size, and real process pools, with interleaved
mutations between queries.
"""

import random

import pytest

from oracle import definitions as oracle
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql import columnar
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType

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
CITIES_SCHEMA = RelationSchema("cities", [
    Attribute("city", AttributeType.STRING),
    Attribute("mayor", AttributeType.STRING),
    Attribute("size", AttributeType.INTEGER),
])

CITY_POOL = ["edi", "ldn", "nyc", "mh", "sfo", "cdg"]
# deliberate partial overlaps: every bridge chain contains NO_PARTNER
# entries and every shared code space misses some values on some side
ZIP_POOL = ["EH8", "07974", "10012", "94107", "100080", "WC1"]
REGION_POOL = ["uk", "us", "cn", "fr"]
COUNTRY_POOL = ["UK", "US", "CN", "FR"]
MAYOR_POOL = ["ada", "bob", "cyd"]


def _orders_row(rng, null_rate=0.1):
    return [
        NULL if rng.random() < null_rate else rng.choice(CITY_POOL[:5]),
        NULL if rng.random() < null_rate else rng.choice(ZIP_POOL[:4]),
        NULL if rng.random() < null_rate else rng.choice(COUNTRY_POOL[:3]),
        NULL if rng.random() < null_rate else rng.randrange(100),
        NULL if rng.random() < null_rate else round(rng.random() * 10, 3),
    ]


def _zips_row(rng, null_rate=0.1):
    return [
        NULL if rng.random() < null_rate else rng.choice(ZIP_POOL[2:]),
        NULL if rng.random() < null_rate else rng.choice(REGION_POOL[:3]),
        NULL if rng.random() < null_rate else rng.randrange(1000),
    ]


def _regions_row(rng, null_rate=0.1):
    return [
        NULL if rng.random() < null_rate else rng.choice(REGION_POOL[1:]),
        NULL if rng.random() < null_rate else rng.choice(COUNTRY_POOL[1:]),
        NULL if rng.random() < null_rate else round(rng.random() * 5, 3),
    ]


def _cities_row(rng, null_rate=0.1):
    return [
        NULL if rng.random() < null_rate else rng.choice(CITY_POOL[2:]),
        NULL if rng.random() < null_rate else rng.choice(MAYOR_POOL),
        NULL if rng.random() < null_rate else rng.randrange(500),
    ]


_MAKERS = {"orders": _orders_row, "zips": _zips_row,
           "regions": _regions_row, "cities": _cities_row}
_SCHEMAS = {"orders": ORDERS, "zips": ZIPS,
            "regions": REGIONS, "cities": CITIES_SCHEMA}


def random_database(seed: int, orders=45, zips=25, regions=15, cities=20) -> Database:
    rng = random.Random(seed)
    database = Database()
    for name, size in (("orders", orders), ("zips", zips),
                       ("regions", regions), ("cities", cities)):
        relation = Relation(_SCHEMAS[name])
        for _ in range(size):
            relation.insert(_MAKERS[name](rng))
        database.add(relation)
    return database


def mutate(database: Database, rng: random.Random, steps: int = 8) -> None:
    """Insert / delete / update random tuples on every relation."""
    for _ in range(steps):
        name = rng.choice(list(_MAKERS))
        maker = _MAKERS[name]
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


def _aliased(alias: str, texts: list[str]) -> list[str]:
    """*texts* written for alias ``o``, re-aliased for ``o1`` (the self join)."""
    if alias == "o" or alias[0] != "o":
        return texts
    return [text.replace("o.", f"{alias}.") for text in texts]


def random_where(rng, aliases) -> str:
    choices = {
        "o": [lambda: f"o.amount {rng.choice(['<', '<=', '>', '>='])} "
                      f"{rng.randrange(100)}",
              lambda: f"o.city = '{rng.choice(CITY_POOL)}'",
              lambda: "o.city {} ({})".format(
                  rng.choice(["IN", "NOT IN"]),
                  ", ".join(f"'{c}'" for c in rng.sample(CITY_POOL, 2)))],
        "z": [lambda: f"z.pop {rng.choice(['<', '<=', '>', '>='])} "
                      f"{rng.randrange(1000)}",
              lambda: f"z.region != '{rng.choice(REGION_POOL)}'"],
        "r": [lambda: f"r.gdp {rng.choice(['<', '>'])} {rng.random() * 5:.2f}",
              lambda: f"r.country = '{rng.choice(COUNTRY_POOL)}'"],
        "c": [lambda: f"c.size {rng.choice(['<', '>'])} {rng.randrange(500)}",
              lambda: f"c.mayor != '{rng.choice(MAYOR_POOL)}'"],
    }
    pool = [(alias, make) for alias in aliases for make in choices[alias[0]]]
    return " AND ".join(_aliased(alias, [make()])[0]
                        for alias, make in (rng.choice(pool)
                                            for _ in range(rng.randrange(1, 3))))


#: join shape -> (FROM tables, equi conjuncts, aliases the WHERE, GROUP BY
#: and aggregates draw on); "pair" exercises the two-table hash-join plan,
#: the rest the multiway one.  "self" joins a filtered orders to itself
#: through city and to zips through zip, like perfbench's grouped
#: three-way report: whichever variable binds first, one table is first
#: bound below the first level.
SHAPES = {
    "pair": ("orders o, zips z", ["o.zip = z.zip"], ("o", "z")),
    "chain": ("orders o, zips z, regions r",
              ["o.zip = z.zip", "z.region = r.region"], ("o", "z", "r")),
    "star": ("orders o, zips z, cities c",
             ["o.zip = z.zip", "o.city = c.city"], ("o", "z", "c")),
    "triangle": ("orders o, zips z, regions r",
                 ["o.zip = z.zip", "z.region = r.region",
                  "r.country = o.country"], ("o", "z", "r")),
    "self": ("orders o1, orders o2, zips z",
             ["o1.city = o2.city", "o2.zip = z.zip", "o1.amount < 70"], ("o1", "z")),
}

#: group-key columns per alias, all with distinct output names
GROUP_KEYS = {
    "o": ["o.city", "o.zip", "o.amount"],
    "z": ["z.region", "z.pop"],
    "r": ["r.country"],
    "c": ["c.mayor", "c.size"],
}

#: every aggregate here folds exactly through the semiring: COUNT /
#: COUNT DISTINCT / MIN / MAX over anything, SUM / AVG over integers
#: only (float folds stay on the enumerated plans).  ``r`` and ``c`` are
#: the tables a chain or star order binds last.
FOLDABLE_AGGREGATES = {
    "o": ["COUNT(*) AS n", "COUNT(o.amount) AS cnt", "COUNT(DISTINCT o.city) AS d",
          "MIN(o.amount) AS lo", "MAX(o.amount) AS olhi", "MIN(o.city) AS first_city",
          "SUM(o.amount) AS os", "SUM(DISTINCT o.amount) AS ds", "AVG(o.amount) AS oa"],
    "z": ["COUNT(z.pop) AS zcnt", "MAX(z.pop) AS hi", "SUM(z.pop) AS s",
          "AVG(z.pop) AS za", "MIN(z.region) AS zfirst"],
    "r": ["MIN(r.gdp) AS rlo", "MAX(r.gdp) AS rhi", "COUNT(r.gdp) AS rn",
          "MIN(r.country) AS rfirst", "MAX(r.country) AS rlast",
          "COUNT(r.country) AS rcn"],
    "c": ["COUNT(c.size) AS cn", "SUM(c.size) AS cs", "MIN(c.size) AS clo"],
}


def random_factorised_query(rng, shape=None) -> str:
    """A grouped query whose aggregates all fold through the semiring."""
    tables, conjuncts, aliases = SHAPES[shape or rng.choice(list(SHAPES))]
    where = list(conjuncts)
    if rng.random() < 0.7:
        where.append(random_where(rng, aliases))
    keys = rng.sample([key for alias in aliases
                       for key in _aliased(alias, GROUP_KEYS[alias[0]])],
                      rng.randrange(1, 3))
    names = [ref.split(".")[1] for ref in keys]
    aggregates = rng.sample([aggregate for alias in aliases for aggregate
                             in _aliased(alias, FOLDABLE_AGGREGATES[alias[0]])],
                            rng.randrange(1, 5))
    having = " HAVING COUNT(*) > 1" if rng.random() < 0.3 else ""
    order = f" ORDER BY {names[0]}" if rng.random() < 0.5 else ""
    limit = f" LIMIT {rng.randrange(1, 8)}" if rng.random() < 0.3 else ""
    return (f"SELECT {', '.join(keys + aggregates)} FROM {tables} "
            f"WHERE {' AND '.join(where)} "
            f"GROUP BY {', '.join(names)}{having}{order}{limit}")


def fingerprint(result):
    """``(names, types, rows)`` of a result relation or of ``oracle.select``,
    each cell as its ``repr``: ``0.0`` and ``-0.0`` differ, as do ``1`` and ``1.0``."""
    if isinstance(result, Relation):
        result = ([a.name for a in result.schema.attributes],
                  [a.type for a in result.schema.attributes],
                  [t.values for t in result])
    names, types, rows = result
    return names, types, [tuple(map(repr, row)) for row in rows]


def enumerated_fingerprint(engine: SQLEngine, sql: str):
    """Run *sql* with factorisation disabled (the enumerated reference)."""
    saved = columnar.FACTORISE
    columnar.FACTORISE = False
    try:
        return fingerprint(engine.query(sql))
    finally:
        columnar.FACTORISE = saved


class TestRandomizedFactorisedParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_factorised_and_enumerated_match_oracle(self, seed):
        rng = random.Random(9000 + seed)
        database = random_database(seed)
        code = SQLEngine(database)
        serial = SQLEngine(database, engine="serial")
        factorised = 0
        for _ in range(16):
            sql = random_factorised_query(rng)
            expected = fingerprint(oracle.select(database, sql))
            assert enumerated_fingerprint(code, sql) == expected, sql
            assert code.last_plan in ("join", "multiway"), sql
            assert fingerprint(code.query(sql)) == expected, sql
            assert fingerprint(serial.query(sql)) == expected, sql
            factorised += code.last_plan == "factorised"
            mutate(database, rng)
        # every generated query is grouped with foldable aggregates: the
        # only escape hatch is a compile failure to the row path
        assert factorised > 12

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_shape_factorises(self, shape):
        rng = random.Random(hash(shape) % 10_000)
        database = random_database(7)
        code = SQLEngine(database)
        for _ in range(6):
            sql = random_factorised_query(rng, shape)
            expected = fingerprint(oracle.select(database, sql))
            assert fingerprint(code.query(sql)) == expected, sql
            assert code.last_plan == "factorised", sql
            mutate(database, rng)

    def test_null_and_no_partner_keys_fold_identically(self):
        # every orders.zip is NULL or missing from zips: the factorised
        # fold must agree with the enumerated plan on the empty join and
        # on the half-empty one after a repair
        database = Database()
        database.add(Relation.from_rows(ORDERS, [
            ("edi", NULL, "UK", 5, 1.0), ("nyc", "XXXX", "US", 7, 2.0),
            ("sfo", "YYYY", "US", NULL, 3.0)]))
        database.add(Relation.from_rows(ZIPS, [
            ("10012", "us", 100), ("94107", "us", NULL)]))
        code = SQLEngine(database)
        sql = ("SELECT z.region, COUNT(*) AS n, SUM(o.amount) AS s, "
               "MIN(o.city) AS lo FROM orders o JOIN zips z "
               "ON o.zip = z.zip GROUP BY region")
        expected = fingerprint(oracle.select(database, sql))
        assert fingerprint(code.query(sql)) == expected
        assert code.last_plan == "factorised"
        assert enumerated_fingerprint(code, sql) == expected
        database.relation("orders").update(1, "zip", "10012")
        database.relation("orders").update(2, "zip", "94107")
        expected = fingerprint(oracle.select(database, sql))
        assert fingerprint(code.query(sql)) == expected
        assert enumerated_fingerprint(code, sql) == expected

    def test_zero_exec_rows_on_the_factorised_path(self):
        database = random_database(11)
        code = SQLEngine(database)
        sql = ("SELECT o.city, COUNT(*) AS n, SUM(z.pop) AS s, "
               "AVG(o.amount) AS a, COUNT(DISTINCT z.region) AS d "
               "FROM orders o, zips z, regions r "
               "WHERE o.zip = z.zip AND z.region = r.region "
               "AND o.amount BETWEEN 5 AND 90 AND z.region IN ('uk', 'us') "
               "GROUP BY o.city HAVING COUNT(*) > 0 ORDER BY city")
        assert fingerprint(code.query(sql)) == fingerprint(oracle.select(database, sql))
        assert code.last_plan == "factorised"  # no binding row is built off the row plan

    def test_parallel_factorised_across_real_processes(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        rng = random.Random(777)
        database = random_database(777, orders=40, zips=20, regions=12, cities=15)
        parallel = SQLEngine(database, engine="parallel", workers=2)
        for _ in range(8):
            sql = random_factorised_query(rng)
            expected = fingerprint(oracle.select(database, sql))
            assert fingerprint(parallel.query(sql)) == expected, sql
            mutate(database, rng)

    @pytest.mark.parametrize("chunks", [1, 2, 7, 1000])
    def test_factorised_chunk_boundaries_are_invisible(self, chunks):
        from repro.engine.executor import SerialPool
        from repro.relational.sql.executor import SQLExecutor
        from repro.relational.sql.parser import parse_sql

        database = random_database(66)
        executor = SQLExecutor(database, pool=SerialPool(num_chunks=chunks))
        rng = random.Random(66)
        for _ in range(10):
            sql = random_factorised_query(rng)
            expected = fingerprint(oracle.select(database, sql))
            assert fingerprint(executor.execute(parse_sql(sql))) == expected, sql


class TestFactorisationGate:
    def test_float_aggregates_stay_enumerated_with_reason(self):
        database = random_database(3)
        code = SQLEngine(database)
        sql = ("SELECT o.city, AVG(o.score) AS a FROM orders o "
               "JOIN zips z ON o.zip = z.zip GROUP BY city")
        code.query(sql, explain=True)
        assert code.last_plan == "join"
        reasons = code.last_explain["why_not_factorised"]
        assert any("fold order" in reason for reason in reasons)

    def test_ungrouped_statements_stay_enumerated_with_reason(self):
        database = random_database(3)
        code = SQLEngine(database)
        sql = ("SELECT o.city, z.region FROM orders o "
               "JOIN zips z ON o.zip = z.zip")
        code.query(sql, explain=True)
        assert code.last_plan == "join"
        reasons = code.last_explain["why_not_factorised"]
        assert any("no aggregates" in reason for reason in reasons)

    def test_explain_reports_folds_vs_enumerated_tuples(self):
        database = random_database(5)
        code = SQLEngine(database)
        sql = ("SELECT o.city, COUNT(*) AS n, SUM(z.pop) AS s "
               "FROM orders o, zips z, regions r "
               "WHERE o.zip = z.zip AND z.region = r.region GROUP BY city")
        report = code.explain(sql)
        assert code.last_plan == "factorised"
        assert "plan: factorised" in report
        assert "factorised aggregates:" in report
        assert "semiring fold(s)" in report
        block = code.last_explain["factorised"]
        assert block["kind"] == "multiway"
        assert block["partials"] >= block["groups"] >= 1
        assert block["tuples"] >= block["groups"]


class TestOneGroupingPerTable:
    """The multiway descent groups a table's base tids once per query."""

    @staticmethod
    def chain() -> Database:
        # few zips, many regions: the zip variable binds first, so regions
        # is first bound at level 1, under every zip candidate
        rng = random.Random(28)
        database = Database()
        database.add(Relation.from_rows(ORDERS, [
            (rng.choice(CITY_POOL), rng.choice(ZIP_POOL[:4]), "UK", rng.randrange(100), 1.0)
            for _ in range(40)]))
        database.add(Relation.from_rows(ZIPS, [
            (rng.choice(ZIP_POOL[:4]), f"region{rng.randrange(12)}", rng.randrange(1000))
            for _ in range(30)]))
        database.add(Relation.from_rows(REGIONS, [
            (f"region{rng.randrange(12)}", rng.choice(COUNTRY_POOL), 1.0)
            for _ in range(20)]))
        return database

    @pytest.mark.parametrize("sql", [
        "SELECT o.city, z.pop, r.country FROM orders o, zips z, regions r "
        "WHERE o.zip = z.zip AND z.region = r.region AND r.country <> 'CN'",
        "SELECT o.city, COUNT(*) AS n, MIN(r.country) AS c FROM orders o, zips z, "
        "regions r WHERE o.zip = z.zip AND z.region = r.region "
        "AND r.country <> 'CN' GROUP BY o.city",
    ])
    def test_a_table_first_bound_at_level_one_is_grouped_once(self, sql, monkeypatch):
        from repro.engine import worker

        database = self.chain()
        region_codes = database.relation("regions").columns.column_at(0).codes
        calls = []

        def counting_group(arrays, tids, members):
            calls.append(arrays[members[0][0]] is region_codes)
            return grouped(arrays, tids, members)

        grouped = worker.multiway_group
        monkeypatch.setattr(worker, "multiway_group", counting_group)
        engine = SQLEngine(database, engine="sequential")
        assert fingerprint(engine.query(sql, explain=True)) == \
            fingerprint(oracle.select(database, sql))
        order = engine.last_explain["multiway"]["order"]
        assert [level["members"] for level in order] == \
            [["o.zip", "z.zip"], ["z.region", "r.region"]]
        assert order[0]["candidates"] > 1
        assert calls.count(True) == 1

        # per-level candidates, counted from the definition: the zips both
        # sides hold, then per zip the regions its zips rows and the
        # surviving regions rows share
        def live(name):
            relation = database.relation(name)
            return [relation.tuple(tid).values for tid in relation.tids()]

        orders, zips = live("orders"), live("zips")
        regions = {row[0] for row in live("regions") if row[1] != "CN"}
        shared = {row[1] for row in orders} & {row[0] for row in zips}
        deeper = sum(len({row[1] for row in zips if row[0] == code} & regions)
                     for code in shared)
        assert [level["candidates"] for level in order] == [len(shared), deeper]
