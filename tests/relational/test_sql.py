"""Tests for the SQL tokenizer, parser and executor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import definitions as oracle
from repro.errors import SQLExecutionError, SQLSyntaxError
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.sql.executor import SQLExecutor
from repro.relational.sql.parser import MAX_NESTING, parse_sql
from repro.relational.sql.tokenizer import tokenize
from repro.relational.types import NULL, AttributeType, is_null


@pytest.fixture
def database():
    db = Database()
    customer_schema = RelationSchema("customer", [
        Attribute("cc", AttributeType.STRING),
        Attribute("ac", AttributeType.STRING),
        Attribute("phn", AttributeType.STRING),
        Attribute("city", AttributeType.STRING),
        Attribute("zip", AttributeType.STRING),
        Attribute("street", AttributeType.STRING),
    ])
    db.create_from_dicts(customer_schema, [
        {"cc": "44", "ac": "131", "phn": "1111", "city": "edi", "zip": "EH8", "street": "mayfield"},
        {"cc": "44", "ac": "131", "phn": "2222", "city": "edi", "zip": "EH8", "street": "mayfield"},
        {"cc": "44", "ac": "131", "phn": "3333", "city": "ldn", "zip": "EH8", "street": "crichton"},
        {"cc": "01", "ac": "908", "phn": "4444", "city": "mh", "zip": "07974", "street": "mtn ave"},
        {"cc": "01", "ac": "908", "phn": "4444", "city": "nyc", "zip": "07974", "street": "mtn ave"},
        {"cc": "01", "ac": "212", "phn": "5555", "city": "nyc", "zip": "10012", "street": NULL},
    ])
    orders_schema = RelationSchema("orders", [
        Attribute("phn", AttributeType.STRING),
        Attribute("amount", AttributeType.INTEGER),
    ])
    db.create_from_dicts(orders_schema, [
        {"phn": "1111", "amount": 10},
        {"phn": "1111", "amount": 20},
        {"phn": "4444", "amount": 30},
        {"phn": "9999", "amount": 40},
    ])
    return db


@pytest.fixture
def engine(database):
    return SQLEngine(database)


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SeLeCt * FrOm t")
        assert tokens[0].is_keyword("select")
        assert tokens[2].is_keyword("from")

    def test_string_escaping(self):
        tokens = tokenize("SELECT 'o''brien'")
        assert tokens[1].value == "o'brien"

    def test_comments_are_skipped(self):
        tokens = tokenize("SELECT 1 -- trailing comment\n FROM t")
        assert any(token.is_keyword("from") for token in tokens)

    def test_numbers(self):
        tokens = tokenize("SELECT 42, 3.14")
        assert tokens[1].value == "42"
        assert tokens[3].value == "3.14"

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT 'oops")

    def test_unexpected_character_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @x")


class TestParser:
    def test_simple_select(self):
        statement = parse_sql("SELECT a, b FROM t WHERE a = 1")
        assert len(statement.items) == 2
        assert statement.tables[0].relation_name == "t"
        assert statement.where is not None

    def test_aliases_and_qualified_columns(self):
        statement = parse_sql("SELECT t1.a AS x FROM t t1, t t2 WHERE t1.a = t2.a")
        assert statement.items[0].alias == "x"
        assert statement.tables[1].alias == "t2"

    def test_group_by_having(self):
        statement = parse_sql(
            "SELECT zip, COUNT(*) AS n FROM customer GROUP BY zip HAVING COUNT(*) > 1")
        assert len(statement.group_by) == 1
        assert statement.having is not None

    def test_union(self):
        statement = parse_sql("SELECT a FROM t UNION SELECT a FROM s")
        assert len(statement.selects) == 2

    def test_missing_from_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT a WHERE a = 1")

    def test_trailing_garbage_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT a FROM t nonsense extra ,")

    def test_empty_statement_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("   ")


class TestParseErrorPositions:
    """Every parse error points at an offset: the offending token's, or
    the end of the text when the input stops short."""

    @pytest.mark.parametrize("text", [
        "SELECT a FROM",
        "SELECT a FROM t WHERE a = ",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t GROUP",
        "SELECT FROM t",
        "SELECT " + "count(" * 30 + "a",
    ], ids=["from", "comparison", "where", "group", "select-list", "nested-calls"])
    def test_truncated_input_points_at_the_end(self, text):
        with pytest.raises(SQLSyntaxError) as raised:
            parse_sql(text)
        assert raised.value.position == len(text)

    def test_expected_token_points_at_the_token_found(self):
        text = "SELECT a FROM t WHERE a = 'x' 'y'"
        with pytest.raises(SQLSyntaxError) as raised:
            parse_sql(text)
        assert raised.value.position == text.index("'y'")
        assert f"position {raised.value.position}" in str(raised.value)


class TestNestingLimit:
    """Parentheses, NOT and unary minus nest at most MAX_NESTING deep."""

    @pytest.mark.parametrize("prefix, opener, body, closer, suffix", [
        ("SELECT phn FROM customer WHERE ", "(", "cc = '44'", ")", ""),
        ("SELECT phn FROM customer WHERE ", "NOT ", "cc = '44'", "", ""),
        ("SELECT ", "- ", "1", "", " FROM customer"),
        ("SELECT ", "upper(", "city", ")", " FROM customer"),
    ], ids=["parentheses", "not", "minus", "calls"])
    def test_deep_nesting_raises_at_the_first_token_past_the_limit(
            self, prefix, opener, body, closer, suffix):
        text = prefix + opener * 5000 + body + closer * 5000 + suffix
        with pytest.raises(SQLSyntaxError) as raised:
            parse_sql(text)
        # the opening token of level MAX_NESTING + 1 (a call's parenthesis)
        assert raised.value.position == (len(prefix) + MAX_NESTING * len(opener)
                                         + max(opener.find("("), 0))
        assert f"position {raised.value.position}" in str(raised.value)

    def test_one_level_past_the_limit_raises(self):
        depth = MAX_NESTING + 1
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT phn FROM customer WHERE " + "(" * depth + "cc = '44'"
                      + ")" * depth)

    def test_nesting_at_the_limit_returns_the_flat_rows(self, engine):
        flat = [row.values for row in engine.query(
            "SELECT phn FROM customer WHERE cc = '44'")]
        for where in ("(" * MAX_NESTING + "cc = '44'" + ")" * MAX_NESTING,
                      "NOT " * MAX_NESTING + "cc = '44'",
                      "(NOT " * (MAX_NESTING // 2) + "cc = '44'" + ")" * (MAX_NESTING // 2)):
            deep = engine.query("SELECT phn FROM customer WHERE " + where)
            assert [row.values for row in deep] == flat


class TestExecutorBasics:
    def test_select_star(self, engine):
        result = engine.query("SELECT * FROM customer")
        assert len(result) == 6
        assert result.schema.arity == 6

    def test_projection_and_alias(self, engine):
        result = engine.query("SELECT city AS town FROM customer WHERE cc = '44'")
        assert result.schema.has_attribute("town")
        assert len(result) == 3

    def test_where_and_or(self, engine):
        result = engine.query(
            "SELECT phn FROM customer WHERE cc = '01' AND (city = 'mh' OR city = 'nyc')")
        assert len(result) == 3

    def test_where_in_and_like(self, engine):
        result = engine.query("SELECT phn FROM customer WHERE city IN ('edi', 'ldn')")
        assert len(result) == 3
        result = engine.query("SELECT phn FROM customer WHERE street LIKE 'm%'")
        assert len(result) == 4

    def test_is_null(self, engine):
        result = engine.query("SELECT phn FROM customer WHERE street IS NULL")
        assert len(result) == 1
        result = engine.query("SELECT phn FROM customer WHERE street IS NOT NULL")
        assert len(result) == 5

    def test_null_comparison_is_unknown(self, engine):
        result = engine.query("SELECT phn FROM customer WHERE street = 'ghost'")
        assert len(result) == 0

    def test_distinct(self, engine):
        result = engine.query("SELECT DISTINCT cc FROM customer")
        assert len(result) == 2

    def test_order_by_and_limit(self, engine):
        result = engine.query("SELECT phn FROM customer ORDER BY phn DESC LIMIT 2")
        assert [t["phn"] for t in result] == ["5555", "4444"]

    def test_scalar_helper(self, engine):
        assert engine.scalar("SELECT COUNT(*) FROM customer") == 6

    def test_arithmetic_and_functions(self, engine):
        result = engine.query("SELECT amount * 2 AS doubled FROM orders WHERE phn = '1111'")
        assert sorted(t["doubled"] for t in result) == [20, 40]
        assert engine.scalar("SELECT UPPER(city) FROM customer WHERE phn = '4444'") == "MH"

    def test_unknown_relation_raises(self, engine):
        with pytest.raises(Exception):
            engine.query("SELECT * FROM ghost")

    def test_unknown_column_raises(self, engine):
        with pytest.raises(SQLExecutionError):
            engine.query("SELECT nothere FROM customer")


class TestExecutorJoinsAndGroups:
    def test_self_join_detects_pairs(self, engine):
        # pairs of tuples agreeing on zip but differing on street: the core
        # of CFD pair-violation detection.
        result = engine.query(
            "SELECT t1.phn, t2.phn FROM customer t1, customer t2 "
            "WHERE t1.zip = t2.zip AND t1.street <> t2.street")
        assert len(result) == 4  # two symmetric pairs

    def test_explicit_join_on(self, engine):
        result = engine.query(
            "SELECT c.city, o.amount FROM customer c JOIN orders o ON c.phn = o.phn")
        assert len(result) == 4

    def test_join_null_keys_do_not_match(self, engine, database):
        database.relation("orders").insert_dict({"phn": NULL, "amount": 99})
        result = engine.query(
            "SELECT c.city FROM customer c, orders o WHERE c.phn = o.phn")
        assert all(not is_null(t["city"]) for t in result)

    def test_group_by_count(self, engine):
        result = engine.query(
            "SELECT cc, COUNT(*) AS n FROM customer GROUP BY cc ORDER BY cc")
        assert [(t["cc"], t["n"]) for t in result] == [("01", 3), ("44", 3)]

    def test_group_by_having(self, engine):
        result = engine.query(
            "SELECT zip, COUNT(DISTINCT street) AS streets FROM customer "
            "GROUP BY zip HAVING COUNT(DISTINCT street) > 1")
        zips = {t["zip"] for t in result}
        assert zips == {"EH8"}

    def test_aggregates_without_group_by(self, engine):
        result = engine.query("SELECT COUNT(*) AS n, MAX(amount) AS top FROM orders")
        row = result.tuples()[0]
        assert row["n"] == 4 and row["top"] == 40

    def test_sum_avg_min(self, engine):
        row = engine.query(
            "SELECT SUM(amount) AS s, AVG(amount) AS a, MIN(amount) AS m FROM orders").tuples()[0]
        assert row["s"] == 100 and row["a"] == 25 and row["m"] == 10

    def test_union_distinct_and_all(self, engine):
        merged = engine.query(
            "SELECT cc FROM customer UNION SELECT cc FROM customer")
        assert len(merged) == 2

    @pytest.mark.parametrize("operator", ["UNION ALL", "UNION"])
    def test_union_widens_integer_and_float_to_float(self, operator):
        relation = Relation.from_rows(
            RelationSchema("t", [Attribute("n", AttributeType.INTEGER),
                                 Attribute("f", AttributeType.FLOAT)]),
            [(1, 2.5), (2, 0.5)])
        db = Database()
        db.add(relation)
        engine = SQLEngine(db)
        for first, second, rows in (("n", "f", [(1.0,), (2.0,), (2.5,), (0.5,)]),
                                    ("f", "n", [(2.5,), (0.5,), (1.0,), (2.0,)])):
            result = engine.query(f"SELECT {first} FROM t {operator} SELECT {second} FROM t")
            assert [a.type for a in result.schema.attributes] == [AttributeType.FLOAT]
            assert [row.values for row in result] == rows
            assert all(type(row.values[0]) is float for row in result)

    def test_group_by_expression_key(self, engine):
        result = engine.query(
            "SELECT UPPER(city) AS c, COUNT(*) AS n FROM customer GROUP BY UPPER(city)")
        counts = {t["c"]: t["n"] for t in result}
        assert counts["EDI"] == 2

    def test_empty_group_result(self, engine):
        result = engine.query(
            "SELECT zip, COUNT(*) AS n FROM customer WHERE cc = 'nope' GROUP BY zip")
        assert len(result) == 0


class TestSQLAgainstAlgebraProperty:
    values = st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]),
                                st.integers(0, 9)), min_size=0, max_size=50)

    @given(values)
    @settings(deadline=None)
    def test_group_count_matches_python(self, rows):
        db = Database()
        schema = RelationSchema("t", [
            Attribute("k", AttributeType.STRING), Attribute("v", AttributeType.INTEGER)])
        db.add(Relation.from_rows(schema, rows))
        engine = SQLEngine(db)
        result = engine.query("SELECT k, COUNT(*) AS n FROM t GROUP BY k")
        expected: dict[str, int] = {}
        for key, _ in rows:
            expected[key] = expected.get(key, 0) + 1
        assert {(t["k"], t["n"]) for t in result} == set(expected.items())

    @given(values)
    @settings(deadline=None)
    def test_where_filter_matches_python(self, rows):
        db = Database()
        schema = RelationSchema("t", [
            Attribute("k", AttributeType.STRING), Attribute("v", AttributeType.INTEGER)])
        db.add(Relation.from_rows(schema, rows))
        engine = SQLEngine(db)
        result = engine.query("SELECT k, v FROM t WHERE v >= 5")
        expected = [(k, v) for k, v in rows if v >= 5]
        assert sorted((t["k"], t["v"]) for t in result) == sorted(expected)


class TestCodeTopK:
    """``ORDER BY ... LIMIT k`` on rank columns selects exactly the first *k*
    tids of the full sort: a stable ascending sort on the rank tuple,
    reversed when every key descends, and a cascade of stable single-key
    sorts (last key first) for mixed directions."""

    @staticmethod
    def full_sort(tids, keys, flags, k):
        if any(flags) and not all(flags):
            ordered = list(tids)
            for ranks, codes, descending in reversed(keys):
                ordered = sorted(ordered, key=lambda tid, r=ranks, c=codes: r[c[tid]],
                                 reverse=descending)
        else:
            ordered = sorted(tids, key=lambda tid: tuple(ranks[codes[tid]]
                                                         for ranks, codes, _ in keys))
            if all(flags):
                ordered.reverse()
        return ordered[:k]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_top_k_equals_the_full_sort_cut(self, data):
        bound = data.draw(st.integers(0, 30))
        # scans yield live tids in ascending order; few codes and fewer ranks tie
        tids = sorted(data.draw(st.sets(st.integers(0, bound), max_size=bound + 1)))
        shape = data.draw(st.sampled_from(["ascending", "descending", "mixed"]))
        width = data.draw(st.integers(2 if shape == "mixed" else 1, 3))
        if shape == "mixed":
            flags = data.draw(st.lists(st.booleans(), min_size=width, max_size=width)
                              .filter(lambda f: any(f) and not all(f)))
        else:
            flags = [shape == "descending"] * width
        keys = []
        for descending in flags:
            ranks = data.draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
            codes = data.draw(st.lists(st.integers(0, 3), min_size=bound + 1,
                                       max_size=bound + 1))
            keys.append((ranks, codes, descending))
        k = data.draw(st.sampled_from([0, 1, len(tids) // 2, len(tids), len(tids) + 3]))
        top = SQLExecutor(Database())._code_top_k(tids, keys, flags, k)
        assert top == self.full_sort(tids, keys, flags, k)


class TestCodeSetFastPath:
    """The columnar equality fast path must be invisible except in speed."""

    def test_fast_path_engages_for_string_equality(self, database):
        from repro.relational.sql.executor import _FromPlanner
        from repro.relational.sql.parser import parse_sql as parse
        statement = parse("SELECT t.phn FROM customer t WHERE t.city = 'edi'")
        planner = _FromPlanner(database, statement)
        table = statement.tables[0]
        conjuncts = statement.where and [statement.where] or []
        filters, rest = planner._split_code_filters(table, conjuncts, True)
        assert len(filters) == 1 and not rest
        codes, allowed = filters[0]
        assert allowed  # 'edi' is interned, so the code set is non-empty

    def test_same_rows_and_order_as_residual_evaluation(self, engine, database):
        fast = engine.query("SELECT t.* FROM customer t WHERE t.city = 'nyc'")
        # LENGTH() around the column defeats the fast path: same rows expected
        slow = engine.query(
            "SELECT t.* FROM customer t WHERE LOWER(t.city) = 'nyc'")
        assert [tuple(r.values) for r in fast] == [tuple(r.values) for r in slow]
        assert [r["phn"] for r in fast] == ["4444", "5555"]

    def test_unqualified_column_single_table(self, engine):
        result = engine.query("SELECT phn FROM customer WHERE city = 'edi'")
        assert [r["phn"] for r in result] == ["1111", "2222"]

    def test_null_cells_never_match(self, engine):
        result = engine.query("SELECT phn FROM customer WHERE street = 'mtn ave'")
        assert [r["phn"] for r in result] == ["4444", "4444"]  # NULL street excluded

    def test_unseen_constant_yields_empty(self, engine):
        assert len(engine.query("SELECT * FROM customer WHERE city = 'zzz'")) == 0

    def test_reversed_operands_and_joins(self, engine):
        result = engine.query(
            "SELECT o.amount AS amount FROM customer c, orders o "
            "WHERE c.phn = o.phn AND 'edi' = c.city ORDER BY amount")
        assert [r["amount"] for r in result] == [10, 20]

    def test_numeric_literal_stays_on_residual_path(self, engine):
        # INTEGER column: '=' must keep SQL numeric semantics (1 == 1.0)
        result = engine.query("SELECT phn FROM orders WHERE amount = 10")
        assert [r["phn"] for r in result] == ["1111"]

    def test_repeated_conjuncts_intersect(self, engine):
        result = engine.query(
            "SELECT phn FROM customer WHERE city = 'nyc' AND city = 'edi'")
        assert len(result) == 0

    def test_mixed_fast_and_residual_conjuncts(self, engine):
        result = engine.query(
            "SELECT phn FROM customer WHERE city = 'nyc' AND LENGTH(phn) = 4")
        assert [r["phn"] for r in result] == ["4444", "5555"]


class TestCodeSetPushdownExtensions:
    """IN lists and != string conjuncts ride the same dictionary fast path."""

    def _filters(self, database, sql):
        from repro.relational.sql.executor import _FromPlanner
        statement = parse_sql(sql)
        planner = _FromPlanner(database, statement)
        table = statement.tables[0]
        conjuncts = [statement.where] if statement.where is not None else []
        return planner._split_code_filters(table, conjuncts, True)

    def test_in_list_fast_path_engages(self, database):
        filters, rest = self._filters(
            database, "SELECT phn FROM customer WHERE city IN ('edi', 'ldn')")
        assert len(filters) == 1 and not rest
        _, allowed = filters[0]
        assert len(allowed) == 2  # both literals are interned

    def test_not_equal_fast_path_engages(self, database):
        filters, rest = self._filters(
            database, "SELECT phn FROM customer WHERE city != 'edi'")
        assert len(filters) == 1 and not rest
        _, allowed = filters[0]
        assert allowed  # the complement over the dictionary is non-empty

    def test_in_list_rows_and_order(self, engine):
        result = engine.query(
            "SELECT phn FROM customer WHERE city IN ('edi', 'ldn')")
        assert [r["phn"] for r in result] == ["1111", "2222", "3333"]

    def test_in_list_with_unseen_member(self, engine):
        result = engine.query(
            "SELECT phn FROM customer WHERE city IN ('zzz', 'mh')")
        assert [r["phn"] for r in result] == ["4444"]

    def test_not_equal_excludes_match_and_nulls(self, engine):
        # NULL street must be excluded (NULL != 'x' is UNKNOWN), like the
        # residual path
        result = engine.query("SELECT phn FROM customer WHERE street != 'mayfield'")
        assert [r["phn"] for r in result] == ["3333", "4444", "4444"]

    def test_not_equal_matches_residual_evaluation(self, engine):
        fast = engine.query("SELECT t.* FROM customer t WHERE t.city != 'nyc'")
        # LOWER() around the column defeats the fast path: same rows expected
        slow = engine.query("SELECT t.* FROM customer t WHERE LOWER(t.city) != 'nyc'")
        assert [tuple(r.values) for r in fast] == [tuple(r.values) for r in slow]

    def test_diamond_operator(self, engine):
        fast = engine.query("SELECT phn FROM customer WHERE city <> 'edi'")
        assert [r["phn"] for r in fast] == ["3333", "4444", "4444", "5555"]

    def test_not_in_list(self, engine):
        result = engine.query(
            "SELECT phn FROM customer WHERE city NOT IN ('edi', 'nyc')")
        assert [r["phn"] for r in result] == ["3333", "4444"]

    def test_not_in_matches_residual_evaluation(self, engine):
        fast = engine.query(
            "SELECT t.phn AS phn FROM customer t WHERE t.city NOT IN ('edi', 'ldn')")
        slow = engine.query(
            "SELECT t.phn AS phn FROM customer t "
            "WHERE LOWER(t.city) NOT IN ('edi', 'ldn')")
        assert [r["phn"] for r in fast] == [r["phn"] for r in slow]

    def test_numeric_in_stays_on_residual_path(self, database, engine):
        filters, rest = self._filters(
            database, "SELECT phn FROM orders WHERE amount IN (10, 30)")
        assert not filters and len(rest) == 1
        result = engine.query("SELECT phn FROM orders WHERE amount IN (10, 30)")
        assert [r["phn"] for r in result] == ["1111", "4444"]

    def test_in_over_joins_uses_qualifier(self, engine):
        result = engine.query(
            "SELECT o.amount AS amount FROM customer c, orders o "
            "WHERE c.phn = o.phn AND c.city IN ('edi') ORDER BY amount")
        assert [r["amount"] for r in result] == [10, 20]


class TestRangePushdown:
    """Range comparisons and BETWEEN compile to dictionary-code sets."""

    def _filters(self, database, sql):
        from repro.relational.sql.executor import _FromPlanner
        statement = parse_sql(sql)
        planner = _FromPlanner(database, statement)
        table = statement.tables[0]
        conjuncts = [statement.where] if statement.where is not None else []
        return planner._split_code_filters(table, conjuncts, True)

    def test_integer_range_fast_path_engages(self, database):
        filters, rest = self._filters(
            database, "SELECT phn FROM orders WHERE amount >= 20")
        assert len(filters) == 1 and not rest

    def test_string_range_fast_path_engages(self, database):
        filters, rest = self._filters(
            database, "SELECT phn FROM customer WHERE city < 'm'")
        assert len(filters) == 1 and not rest

    def test_range_rows_and_order(self, engine):
        result = engine.query("SELECT phn FROM orders WHERE amount > 15")
        assert [r["phn"] for r in result] == ["1111", "4444", "9999"]
        result = engine.query("SELECT phn FROM orders WHERE amount <= 20")
        assert [r["phn"] for r in result] == ["1111", "1111"]

    def test_reversed_operands_flip(self, engine):
        result = engine.query("SELECT phn FROM orders WHERE 30 <= amount")
        assert [r["phn"] for r in result] == ["4444", "9999"]

    def test_between_desugars_to_two_ranges(self, database, engine):
        from repro.relational.sql.executor import _FromPlanner
        statement = parse_sql("SELECT phn FROM orders WHERE amount BETWEEN 20 AND 30")
        planner = _FromPlanner(database, statement)
        from repro.relational.sql.columnar import flatten_conjuncts
        conjuncts = flatten_conjuncts(statement.where)
        filters, rest = planner._split_code_filters(statement.tables[0], conjuncts, True)
        assert len(filters) == 2 and not rest
        result = engine.query("SELECT phn FROM orders WHERE amount BETWEEN 20 AND 30")
        assert [r["phn"] for r in result] == ["1111", "4444"]

    def test_negative_literal_folds(self, engine):
        result = engine.query("SELECT phn FROM orders WHERE amount > -1")
        assert len(result) == 4

    def test_null_bound_selects_nothing(self, engine):
        assert len(engine.query("SELECT phn FROM orders WHERE amount < NULL")) == 0

    def test_null_cells_never_match(self, engine, database):
        database.relation("orders").insert_dict({"phn": NULL, "amount": NULL})
        assert len(engine.query("SELECT phn FROM orders WHERE amount >= 0")) == 4
        assert len(engine.query("SELECT phn FROM orders WHERE amount <= 99")) == 4

    def test_range_matches_residual_evaluation(self, engine):
        fast = engine.query("SELECT phn FROM orders WHERE amount >= 20")
        slow = engine.query("SELECT phn FROM orders WHERE ABS(amount) >= 20")
        assert [r["phn"] for r in fast] == [r["phn"] for r in slow]

    def test_cross_type_comparison_matches_row_semantics(self, engine):
        # sort_key orders every number before every string
        assert len(engine.query("SELECT phn FROM customer WHERE city > 5")) == 6
        assert len(engine.query("SELECT phn FROM customer WHERE city < 5")) == 0

    def test_not_between_stays_residual(self, database, engine):
        filters, rest = self._filters(
            database, "SELECT phn FROM orders WHERE amount NOT BETWEEN 20 AND 30")
        assert not filters and len(rest) == 1
        result = engine.query(
            "SELECT phn FROM orders WHERE amount NOT BETWEEN 20 AND 30")
        assert [r["phn"] for r in result] == ["1111", "9999"]


class TestCodeNativePlans:
    """Single-table scan/filter/group/aggregate plans bypass the row path,
    and every plan answers what :func:`oracle.definitions.select` does."""

    def _query(self, engine, sql):
        result = engine.query(sql)
        assert ([a.name for a in result.schema.attributes],
                [a.type for a in result.schema.attributes],
                [t.values for t in result]) == oracle.select(engine.database, sql)
        return result

    def test_plain_scan_builds_no_exec_rows(self, engine):
        result = self._query(engine, "SELECT phn, city FROM customer WHERE cc = '44'")
        assert engine.last_plan == "code"
        assert [r["phn"] for r in result] == ["1111", "2222", "3333"]

    @pytest.mark.parametrize("where, phns", [
        ("street IS NULL", ["5555"]),
        ("street IS NOT NULL", ["1111", "2222", "3333", "4444", "4444"]),
        ("city <> 'edi' OR city IS NULL", ["3333", "4444", "4444", "5555"]),
    ])
    def test_null_tests_and_one_column_or_build_no_exec_rows(self, engine, where, phns):
        result = self._query(engine, f"SELECT phn FROM customer WHERE {where}")
        assert engine.last_plan == "code"
        assert [r["phn"] for r in result] == phns

    def test_or_across_columns_falls_back(self, engine):
        sql = "SELECT phn FROM customer WHERE city = 'edi' OR zip = 'EH8'"
        result = self._query(engine, sql)
        assert engine.last_plan == "row"
        assert [r["phn"] for r in result] == ["1111", "2222", "3333"]
        assert ("WHERE conjunct ((city = 'edi') OR (zip = 'EH8')) "
                "is not a code-set test") in engine.explain(sql)

    def test_explain_shows_one_column_or_as_one_filter(self, engine):
        text = engine.explain(
            "SELECT phn FROM customer WHERE city <> 'edi' OR city IS NULL")
        # NULL plus the three cities other than 'edi'
        assert [(f["attribute"], f["code_set_size"])
                for f in engine.last_explain["filters"]] == [("city", 4)]
        assert "customer.city: code set of 4, 6 rows in, 2 pruned, 4 out" in text

    def test_range_group_aggregate_builds_no_exec_rows(self, engine):
        result = self._query(
            engine,
            "SELECT phn, COUNT(*) AS n, SUM(amount) AS s FROM orders "
            "WHERE amount >= 10 AND amount <= 30 GROUP BY phn")
        assert engine.last_plan == "code"
        assert [(r["phn"], r["n"], r["s"]) for r in result] == \
            [("1111", 2, 30), ("4444", 1, 30)]

    def test_equi_join_builds_no_exec_rows(self, engine):
        result = self._query(
            engine, "SELECT c.city FROM customer c JOIN orders o ON c.phn = o.phn")
        assert engine.last_plan == "join"
        assert len(result) == 4

    def test_non_equi_join_falls_back(self, engine):
        self._query(engine, "SELECT t1.phn, t2.phn FROM customer t1, customer t2 "
                            "WHERE t1.zip = t2.zip AND t1.street <> t2.street")
        assert engine.last_plan == "row"

    def test_residual_predicate_falls_back(self, engine):
        self._query(engine, "SELECT phn FROM customer WHERE LENGTH(city) = 3")
        assert engine.last_plan == "row"

    def test_group_by_expression_falls_back(self, engine):
        self._query(engine, "SELECT UPPER(city) AS c, COUNT(*) AS n FROM customer "
                            "GROUP BY UPPER(city)")
        assert engine.last_plan == "row"

    def test_min_max_ride_dictionary_order(self, engine):
        result = self._query(
            engine, "SELECT MIN(city) AS lo, MAX(city) AS hi FROM customer")
        row = result.tuples()[0]
        assert (row["lo"], row["hi"]) == ("edi", "nyc")
        assert engine.last_plan == "code"

    def test_count_distinct_on_codes(self, engine):
        result = self._query(engine, "SELECT COUNT(DISTINCT street) FROM customer")
        assert result.tuples()[0].at(0) == 3
        assert engine.last_plan == "code"

    def test_order_by_rides_rank_index(self, engine):
        result = self._query(
            engine,
            "SELECT phn, city FROM customer WHERE cc = '01' ORDER BY city DESC, phn")
        assert engine.last_plan == "code"
        assert [r["phn"] for r in result] == ["4444", "5555", "4444"]

    def test_aggregate_over_empty_relation(self, engine):
        result = self._query(
            engine,
            "SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE amount > 999")
        row = result.tuples()[0]
        assert row["n"] == 0 and is_null(row["s"])
        assert engine.last_plan == "code"

    def test_having_over_codes(self, engine):
        result = self._query(
            engine,
            "SELECT zip, COUNT(*) AS n FROM customer GROUP BY zip "
            "HAVING COUNT(*) > 1 AND zip = 'EH8'")
        assert [(r["zip"], r["n"]) for r in result] == [("EH8", 3)]
        assert engine.last_plan == "code"

    def test_embedded_aggregate_in_item(self, engine):
        result = self._query(
            engine,
            "SELECT zip, COUNT(*) + 1 AS n1 FROM customer GROUP BY zip ORDER BY zip")
        assert [(r["zip"], r["n1"]) for r in result] == \
            [("07974", 3), ("10012", 2), ("EH8", 4)]
