"""Golden tests for the SQL EXPLAIN surface."""

import pytest

from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.sql.explain import format_explain
from repro.semandaq.session import SemandaqSession

CUSTOMER = RelationSchema("customer", [
    Attribute("name"), Attribute("city"), Attribute("cc"),
])

ORDERS = RelationSchema("orders", [
    Attribute("cust"), Attribute("city"),
])


@pytest.fixture
def database():
    db = Database()
    customer = Relation(CUSTOMER)
    for i in range(8):
        customer.insert([f"n{i}", "nyc" if i % 2 else "edi",
                         "01" if i % 2 else "44"])
    db.add(customer)
    orders = Relation(ORDERS)
    for i in range(4):
        orders.insert([f"n{i}", "nyc"])
    db.add(orders)
    return db


@pytest.fixture
def sql(database):
    return SQLEngine(database)


class TestCodePlanExplain:
    def test_reports_plan_and_pruning(self, sql):
        text = sql.explain("SELECT name FROM customer WHERE city = 'nyc'")
        assert text.splitlines()[0] == \
            "plan: code (code-native single-table scan on dictionary codes)"
        assert "push-down filters:" in text
        assert "customer.city: code set of 1, 8 rows in, 4 pruned, 4 out" in text

    def test_conjuncts_prune_cumulatively(self, sql):
        text = sql.explain(
            "SELECT name FROM customer WHERE city = 'nyc' AND cc = '01'")
        assert "customer.city: code set of 1, 8 rows in, 4 pruned, 4 out" in text
        assert "customer.cc: code set of 1, 4 rows in, 0 pruned, 4 out" in text

    def test_last_explain_dict(self, sql):
        sql.explain("SELECT name FROM customer WHERE city = 'nyc'")
        info = sql.last_explain
        assert info["plan"] == "code"
        assert info["filters"][0]["rows_pruned"] == 4
        assert info["why_not_code"] == []


class TestGroupingExplain:
    def test_group_filter_reads_the_index(self, sql):
        text = sql.explain("SELECT city, COUNT(*) AS n FROM customer "
                           "WHERE city = 'nyc' GROUP BY city")
        assert sql.last_explain["grouping"] == {
            "kind": "index", "attributes": ["city"], "buckets": 2, "kept": 1}
        assert "grouping: maintained index on (city), 2 bucket(s), 1 kept" in text

    def test_index_attributes_are_in_schema_order(self, sql):
        sql.explain("SELECT cc, city, COUNT(*) AS n FROM customer GROUP BY cc, city")
        grouping = sql.last_explain["grouping"]
        assert grouping["attributes"] == ["city", "cc"]
        assert (grouping["buckets"], grouping["kept"]) == (2, 2)

    def test_non_group_conjunct_scans(self, sql):
        text = sql.explain("SELECT city, COUNT(*) AS n FROM customer "
                           "WHERE cc = '01' GROUP BY city")
        reason = "WHERE conjunct (cc = '01') tests cc, not a GROUP BY column"
        assert sql.last_explain["grouping"] == {"kind": "scan", "reason": reason}
        assert f"grouping: scan ({reason})" in text

    def test_no_group_by_scans(self, sql):
        text = sql.explain("SELECT COUNT(*) AS n FROM customer WHERE city = 'nyc'")
        assert sql.last_explain["grouping"] == {"kind": "scan", "reason": "no GROUP BY"}
        assert "grouping: scan (no GROUP BY)" in text

    def test_plain_scan_has_no_grouping(self, sql):
        text = sql.explain("SELECT name FROM customer WHERE city = 'nyc'")
        assert sql.last_explain["grouping"] is None
        assert "grouping:" not in text


class TestJoinPlanExplain:
    QUERY = ("SELECT c.name FROM customer c JOIN orders o "
             "ON c.name = o.cust WHERE c.city = 'nyc'")

    def test_reports_join_shape(self, sql):
        text = sql.explain(self.QUERY)
        assert text.splitlines()[0] == \
            "plan: join (code-native hash join on dictionary codes)"
        assert "hash join: build o (4 rows, 4 buckets), " \
               "probe c (8 rows), 1 equi key(s)" in text
        assert "why not code-native scan:" in text
        assert "query reads more than one table" in text

    def test_join_info_dict(self, sql):
        sql.explain(self.QUERY)
        join = sql.last_explain["join"]
        assert join == {"build_side": "o", "probe_side": "c",
                        "build_rows": 4, "probe_rows": 8,
                        "buckets": 4, "key_pairs": 1}


REGIONS = RelationSchema("regions", [
    Attribute("city"), Attribute("region"),
])


class TestMultiwayPlanExplain:
    QUERY = ("SELECT c.name, r.region FROM customer c, orders o, regions r "
             "WHERE c.name = o.cust AND o.city = r.city")

    @pytest.fixture
    def sql3(self, database):
        regions = Relation(REGIONS)
        regions.insert(["nyc", "us"])
        regions.insert(["edi", "uk"])
        database.add(regions)
        return SQLEngine(database)

    def test_reports_variable_order_and_candidates(self, sql3):
        text = sql3.explain(self.QUERY)
        assert text.splitlines()[0] == \
            "plan: multiway (code-native leapfrog multiway join on rank arrays)"
        assert "multiway join: c ⋈ o ⋈ r, 2 join variable(s)" in text
        assert "variable order:" in text
        lines = [line for line in text.splitlines()
                 if line.startswith(("  1.", "  2."))]
        assert len(lines) == 2
        assert any("c.name = o.cust" in line for line in lines)
        assert any("o.city = r.city" in line for line in lines)
        assert all("candidate(s)" in line for line in lines)

    def test_multiway_info_dict(self, sql3):
        sql3.explain(self.QUERY)
        block = sql3.last_explain["multiway"]
        assert block["tables"] == ["c", "o", "r"]
        assert block["tuples"] == 4
        assert [sorted(entry) for entry in map(dict.keys, block["order"])] == \
            [["candidates", "estimate", "fd_implied", "members"]] * 2

    def test_unsupported_statement_reports_multiway_reason(self, sql3):
        text = sql3.explain(
            "SELECT c.name, o.city, r.region FROM customer c, orders o, regions r "
            "WHERE c.name = o.cust AND LENGTH(o.city) = 3")
        assert text.splitlines()[0] == \
            "plan: row (row-at-a-time reference path)"
        assert "why not code-native multiway join:" in text
        assert "neither an equi key nor a single-side code-set test" in text


class TestFactorisedExplain:
    QUERY = ("SELECT c.city, COUNT(*) AS n FROM customer c "
             "JOIN orders o ON c.name = o.cust GROUP BY city")

    def test_reports_folds_instead_of_tuples(self, sql):
        text = sql.explain(self.QUERY)
        assert text.splitlines()[0] == \
            "plan: factorised (code-native join with factorised (semiring) " \
            "aggregates)"
        block = sql.last_explain["factorised"]
        assert (f"factorised aggregates: {block['partials']} semiring fold(s) "
                f"over 2 group(s) instead of 4 enumerated tuple(s)") in text
        # the join shape is still part of the report
        assert "hash join: build o (4 rows, 4 buckets), " \
               "probe c (8 rows), 1 equi key(s)" in text

    def test_factorised_info_dict(self, sql):
        sql.explain(self.QUERY)
        block = sql.last_explain["factorised"]
        assert block["kind"] == "join"
        assert block["groups"] == 2
        assert block["tuples"] == 4
        assert block["partials"] >= 2
        assert sql.last_explain["why_not_factorised"] == []

    def test_enumerated_plans_report_why_not_factorised(self, sql):
        text = sql.explain(TestJoinPlanExplain.QUERY)
        assert text.splitlines()[0] == \
            "plan: join (code-native hash join on dictionary codes)"
        assert "why not factorised aggregates:" in text
        assert "statement has no aggregates" in text


class TestRowPlanExplain:
    def test_reports_reasons_for_both_paths(self, sql):
        text = sql.explain(
            "SELECT name, 1 + 1 AS x FROM customer WHERE city = 'nyc'")
        assert text.splitlines()[0] == \
            "plan: row (row-at-a-time reference path)"
        assert "why not code-native scan:" in text
        assert "select item (1 + 1) is computed" in text
        assert "why not code-native join:" in text
        assert "query does not read exactly two tables" in text
        assert "why not code-native multiway join:" in text
        assert "query reads fewer than three tables" in text

    def test_row_path_still_records_pushdown(self, sql):
        text = sql.explain(
            "SELECT name, 1 + 1 AS x FROM customer WHERE city = 'nyc'")
        assert "customer.city [(city = 'nyc')]: " \
               "code set of 1, 8 rows in, 4 pruned, 4 out" in text


class TestUnionExplain:
    def test_union_nests_per_select(self, sql):
        text = sql.explain("SELECT name FROM customer WHERE city = 'nyc' "
                           "UNION SELECT cust FROM orders")
        lines = text.splitlines()
        assert lines[0] == "plan: union"
        assert "select 1:" in lines and "select 2:" in lines
        assert sum("plan: code" in line for line in lines) == 2


class TestSurfaces:
    def test_session_sql_explain_returns_pair(self, database):
        session = SemandaqSession(database)
        result, text = session.sql(
            "SELECT name FROM customer WHERE city = 'nyc'", explain=True)
        assert len(result) == 4
        assert text.startswith("plan: code")

    def test_session_sql_without_explain_unchanged(self, database):
        session = SemandaqSession(database)
        result = session.sql("SELECT name FROM customer WHERE city = 'nyc'")
        assert len(result) == 4

    def test_format_explain_handles_missing_reasons(self):
        text = format_explain({"plan": "row", "filters": []})
        assert "(no reason recorded)" in text
