"""Randomized parity: multiway (3+ table) joins agree with the oracle's SELECT.

3+-table all-equi SELECT statements compile to leapfrog-style
sorted-intersection joins over per-column rank arrays
(``compile_multi_join_plan`` in ``repro.relational.sql.columnar``): the
equi-join graph resolves into join variables, participating columns are
translated into a shared code space via chained dictionary bridges, and
variables are bound one at a time by sorted code-set intersection.  These
tests generate random 3- and 4-table databases and random join queries —
chain, star and triangle shapes, WHERE push-down on every table, grouped
aggregates drawing from all sides, HAVING, ORDER BY, DISTINCT, LIMIT —
and assert each result is *identical* to :func:`oracle.definitions.select`
on the in-process code path, the chunked serial pool and real process
pools, for every chunk size, with interleaved mutations on every
relation between queries.
"""

import random

import pytest

from oracle import definitions as oracle
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
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
    pool = [make for alias in aliases for make in choices[alias]]
    return " AND ".join(rng.choice(pool)() for _ in range(rng.randrange(1, 3)))


#: join shape -> (FROM tables, equi conjuncts, participating aliases)
SHAPES = {
    "chain": ("orders o, zips z, regions r",
              ["o.zip = z.zip", "z.region = r.region"], "ozr"),
    "star": ("orders o, zips z, cities c",
             ["o.zip = z.zip", "o.city = c.city"], "ozc"),
    "triangle": ("orders o, zips z, regions r",
                 ["o.zip = z.zip", "z.region = r.region",
                  "r.country = o.country"], "ozr"),
    "four": ("orders o, zips z, regions r, cities c",
             ["o.zip = z.zip", "z.region = r.region", "o.city = c.city"],
             "ozrc"),
}

#: projectable columns per alias, all with distinct output names
PROJECTIONS = {
    "o": ["o.city", "o.zip", "o.amount", "o.score"],
    "z": ["z.region", "z.pop"],
    "r": ["r.country", "r.gdp"],
    "c": ["c.mayor", "c.size"],
}

AGGREGATES = [
    "COUNT(*) AS n", "COUNT(o.amount) AS cnt", "MIN(o.amount) AS lo",
    "MAX(z.pop) AS hi", "SUM(z.pop) AS s", "AVG(o.score) AS a",
    "COUNT(DISTINCT o.city) AS d",
]


def random_multiway_query(rng, shape=None) -> str:
    tables, conjuncts, aliases = SHAPES[shape or rng.choice(list(SHAPES))]
    where = list(conjuncts)
    if rng.random() < 0.7:
        where.append(random_where(rng, aliases))
    where_clause = " WHERE " + " AND ".join(where)
    if rng.random() < 0.5:  # grouped
        group = rng.choice([PROJECTIONS[a][0] for a in aliases] +
                           [f"{PROJECTIONS[aliases[0]][0]}, "
                            f"{PROJECTIONS[aliases[1]][0]}"])
        names = [ref.split(".")[1] for ref in group.split(", ")]
        aggregates = rng.sample(AGGREGATES, rng.randrange(1, 4))
        select = ", ".join([group] + aggregates)
        having = " HAVING COUNT(*) > 1" if rng.random() < 0.3 else ""
        order = f" ORDER BY {names[0]}" if rng.random() < 0.5 else ""
        limit = f" LIMIT {rng.randrange(1, 8)}" if rng.random() < 0.3 else ""
        return (f"SELECT {select} FROM {tables}{where_clause} "
                f"GROUP BY {group}{having}{order}{limit}")
    distinct = "DISTINCT " if rng.random() < 0.3 else ""
    pool = [column for alias in aliases for column in PROJECTIONS[alias]]
    columns = rng.sample(pool, rng.randrange(1, 5))
    order = ""
    if rng.random() < 0.6:
        keys = rng.sample(columns, rng.randrange(1, len(columns) + 1))
        order = " ORDER BY " + ", ".join(
            f"{key.split('.')[1]}{rng.choice(['', ' DESC'])}" for key in keys)
    limit = f" LIMIT {rng.randrange(1, 12)}" if rng.random() < 0.4 else ""
    return (f"SELECT {distinct}{', '.join(columns)} FROM {tables}"
            f"{where_clause}{order}{limit}")


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


class TestRandomizedMultiwayParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_multiway_matches_oracle(self, seed):
        rng = random.Random(4000 + seed)
        database = random_database(seed)
        code = SQLEngine(database)
        serial = SQLEngine(database, engine="serial")
        multiway = 0
        for _ in range(16):
            assert_engines_agree(database, [code, serial], random_multiway_query(rng))
            # grouped statements with exact-foldable aggregates factorise;
            # everything else enumerates on the multiway plan
            multiway += code.last_plan in ("multiway", "factorised")
            mutate(database, rng)
        assert multiway > 12  # most random queries must hit the multiway plans

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_shape_compiles_to_multiway(self, shape):
        rng = random.Random(hash(shape) % 10_000)
        database = random_database(7)
        code = SQLEngine(database)
        for _ in range(6):
            sql = random_multiway_query(rng, shape)
            assert_engines_agree(database, [code], sql)
            assert code.last_plan in ("multiway", "factorised"), sql
            mutate(database, rng)

    def test_zero_exec_rows_on_the_multiway_path(self):
        database = random_database(11)
        code = SQLEngine(database)
        sql = ("SELECT o.city, COUNT(*) AS n, SUM(z.pop) AS s, AVG(o.score) AS a "
               "FROM orders o, zips z, regions r "
               "WHERE o.zip = z.zip AND z.region = r.region "
               "AND o.amount BETWEEN 5 AND 90 AND z.region IN ('uk', 'us') "
               "GROUP BY o.city HAVING COUNT(*) > 0 ORDER BY city")
        assert fingerprint(code.query(sql)) == fingerprint(oracle.select(database, sql))
        assert code.last_plan == "multiway"  # no binding row is built off the row plan

    def test_parallel_multiway_across_real_processes(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        rng = random.Random(888)
        database = random_database(888, orders=40, zips=20, regions=12, cities=15)
        parallel = SQLEngine(database, engine="parallel", workers=2)
        for _ in range(8):
            assert_engines_agree(database, [parallel], random_multiway_query(rng))
            mutate(database, rng)

    @pytest.mark.parametrize("chunks", [1, 2, 7, 1000])
    def test_multiway_chunk_boundaries_are_invisible(self, chunks):
        from repro.engine.executor import SerialPool
        from repro.relational.sql.executor import SQLExecutor
        from repro.relational.sql.parser import parse_sql

        database = random_database(66)
        executor = SQLExecutor(database, pool=SerialPool(num_chunks=chunks))
        rng = random.Random(66)
        for _ in range(10):
            sql = random_multiway_query(rng)
            expected = fingerprint(oracle.select(database, sql))
            assert fingerprint(executor.execute(parse_sql(sql))) == expected, sql


class TestMultiwayPlanShape:
    @pytest.mark.parametrize("sql, plan", [
        ("SELECT country, r.gdp FROM orders o, zips z, regions r "
         "WHERE o.zip = z.zip AND z.region = r.region ORDER BY country, gdp",
         "multiway"),
        ("SELECT country, COUNT(*) AS n FROM orders o, zips z, regions r "
         "WHERE o.zip = z.zip AND z.region = r.region GROUP BY country",
         "factorised"),
        ("SELECT country, r.gdp FROM orders o, zips z, regions r "
         "WHERE o.zip = z.zip AND z.region = r.region AND LENGTH(country) = 2 "
         "ORDER BY country, gdp", "row"),
    ], ids=["multiway", "factorised", "row"])
    def test_bare_names_bind_to_the_first_table_that_has_them(self, sql, plan):
        # orders and regions both have a country; o's is the one meant
        database = random_database(12)
        code = SQLEngine(database)
        assert_engines_agree(database, [code], sql)
        assert code.last_plan == plan

    def test_residual_predicates_fall_back_with_parity_and_reason(self):
        database = random_database(3)
        code = SQLEngine(database)
        sql = ("SELECT o.city, z.region, r.country FROM orders o, zips z, regions r "
               "WHERE o.zip = z.zip AND z.region = r.region "
               "AND LENGTH(o.city) >= 3 ORDER BY city, region, country")
        assert fingerprint(code.query(sql)) == fingerprint(oracle.select(database, sql))
        assert code.last_plan == "row"
        code.query(sql, explain=True)
        reasons = code.last_explain["why_not_multiway"]
        assert any("neither an equi key" in reason for reason in reasons)

    def test_disconnected_join_graph_reports_cross_product(self):
        database = random_database(4)
        code = SQLEngine(database)
        sql = ("SELECT o.city, z.region, c.mayor FROM orders o, zips z, cities c "
               "WHERE o.zip = z.zip")
        code.query(sql, explain=True)
        assert code.last_plan == "row"
        reasons = code.last_explain["why_not_multiway"]
        assert any("cross product" in reason for reason in reasons)

    def test_explain_reports_variable_order_and_candidates(self):
        database = random_database(5)
        code = SQLEngine(database)
        sql = ("SELECT o.city, r.gdp FROM orders o, zips z, regions r "
               "WHERE o.zip = z.zip AND z.region = r.region")
        code.query(sql, explain=True)
        assert code.last_plan == "multiway"
        block = code.last_explain["multiway"]
        assert block["tables"] == ["o", "z", "r"]
        assert len(block["order"]) == 2
        members = {frozenset(entry["members"]) for entry in block["order"]}
        assert frozenset(("o.zip", "z.zip")) in members
        assert frozenset(("z.region", "r.region")) in members
        for entry in block["order"]:
            assert entry["estimate"] >= 0
            assert entry["candidates"] >= 0
        report = code.explain(sql)
        assert "plan: multiway" in report
        assert "variable order:" in report

    def test_fd_hints_promote_implied_variables(self):
        from repro.constraints.fd import FunctionalDependency

        database = random_database(6)
        # region -> zip on zips: the region variable binds first (fewest
        # distinct values), after which the zip variable is FD-implied and
        # should be flagged in the recorded order
        hints = [FunctionalDependency("zips", ["region"], ["zip"])]
        plain = SQLEngine(database)
        hinted = SQLEngine(database, fds=hints)
        sql = ("SELECT o.city, r.gdp FROM orders o, zips z, regions r "
               "WHERE o.zip = z.zip AND z.region = r.region")
        plain.query(sql, explain=True)
        hinted.query(sql, explain=True)
        assert hinted.last_plan == plain.last_plan == "multiway"
        hinted_order = hinted.last_explain["multiway"]["order"]
        implied = [entry for entry in hinted_order if entry["fd_implied"]]
        assert len(implied) == 1
        assert frozenset(implied[0]["members"]) == frozenset(
            ("o.zip", "z.zip"))
        # the hint only reorders; results stay identical
        assert fingerprint(hinted.query(sql)) == fingerprint(plain.query(sql))

    def test_session_variable_cfds_feed_multiway_ordering(self):
        from repro.semandaq.session import SemandaqSession

        database = random_database(9)
        session = SemandaqSession(database)
        session.register_cfds("zips([region] -> [zip])")
        result, report = session.sql(
            "SELECT o.city, r.gdp FROM orders o, zips z, regions r "
            "WHERE o.zip = z.zip AND z.region = r.region", explain=True)
        assert "plan: multiway" in report
        assert "fd-implied" in report
