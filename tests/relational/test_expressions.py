"""Direct unit tests for the expression AST and three-valued logic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SQLExecutionError
from repro.relational.expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    EvaluationContext,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    truth,
)
from repro.relational.types import NULL, is_null


def ctx(**bindings):
    return EvaluationContext(bindings)


class TestThreeValuedLogic:
    def test_comparison_with_null_is_unknown(self):
        expr = Comparison("=", Literal(NULL), Literal(1))
        assert is_null(expr.evaluate(ctx()))

    def test_and_truth_table(self):
        t, f, u = Literal(True), Literal(False), Literal(NULL)
        assert And((t, t)).evaluate(ctx()) is True
        assert And((t, f)).evaluate(ctx()) is False
        assert is_null(And((t, u)).evaluate(ctx()))
        assert And((f, u)).evaluate(ctx()) is False  # false short-circuits unknown

    def test_or_truth_table(self):
        t, f, u = Literal(True), Literal(False), Literal(NULL)
        assert Or((f, t)).evaluate(ctx()) is True
        assert Or((f, f)).evaluate(ctx()) is False
        assert is_null(Or((f, u)).evaluate(ctx()))
        assert Or((t, u)).evaluate(ctx()) is True  # true short-circuits unknown

    def test_not_unknown_is_unknown(self):
        assert is_null(Not(Literal(NULL)).evaluate(ctx()))
        assert Not(Literal(False)).evaluate(ctx()) is True

    def test_truth_collapses_unknown_to_false(self):
        assert truth(NULL) is False
        assert truth(True) is True

    @given(st.lists(st.sampled_from([True, False, None]), min_size=1, max_size=6))
    def test_and_or_duality(self, values):
        literals = tuple(Literal(NULL if v is None else v) for v in values)
        left = Not(And(literals)).evaluate(ctx())
        right = Or(tuple(Not(l) for l in literals)).evaluate(ctx())
        assert (is_null(left) and is_null(right)) or left == right


class TestPredicates:
    def test_in_list(self):
        expr = InList(ColumnRef("city"), (Literal("edi"), Literal("ldn")))
        assert expr.evaluate(ctx(city="edi")) is True
        assert expr.evaluate(ctx(city="nyc")) is False
        assert is_null(expr.evaluate(ctx(city=NULL)))

    def test_not_in_with_unknown_member(self):
        expr = InList(ColumnRef("x"), (Literal(1), Literal(NULL)), negated=True)
        assert expr.evaluate(ctx(x=1)) is False
        assert is_null(expr.evaluate(ctx(x=2)))  # might equal the NULL member

    def test_like(self):
        assert Like(ColumnRef("s"), "may%").evaluate(ctx(s="mayfield")) is True
        assert Like(ColumnRef("s"), "m_y").evaluate(ctx(s="may")) is True
        assert Like(ColumnRef("s"), "m_y").evaluate(ctx(s="mayo")) is False
        assert Like(ColumnRef("s"), "a%", negated=True).evaluate(ctx(s="bob")) is True

    def test_is_null(self):
        assert IsNull(ColumnRef("x")).evaluate(ctx(x=NULL)) is True
        assert IsNull(ColumnRef("x"), negated=True).evaluate(ctx(x=1)) is True

    def test_numeric_string_comparison_not_equal(self):
        # 1 (int) and 1.0 (float) compare equal; strings do not coerce
        assert Comparison("=", Literal(1), Literal(1.0)).evaluate(ctx()) is True


class TestArithmeticAndFunctions:
    def test_arithmetic(self):
        assert Arithmetic("+", Literal(2), Literal(3)).evaluate(ctx()) == 5
        assert Arithmetic("*", ColumnRef("x"), Literal(4)).evaluate(ctx(x=2)) == 8
        assert is_null(Arithmetic("/", Literal(1), Literal(0)).evaluate(ctx()))
        assert is_null(Arithmetic("+", Literal(NULL), Literal(1)).evaluate(ctx()))

    def test_functions(self):
        assert FunctionCall("upper", (Literal("mh"),)).evaluate(ctx()) == "MH"
        assert FunctionCall("length", (Literal("abc"),)).evaluate(ctx()) == 3
        assert FunctionCall("coalesce", (Literal(NULL), Literal("x"))).evaluate(ctx()) == "x"
        assert FunctionCall("concat", (Literal("a"), Literal("b"))).evaluate(ctx()) == "ab"

    def test_unknown_function_raises(self):
        with pytest.raises(SQLExecutionError):
            FunctionCall("soundex", (Literal("a"),)).evaluate(ctx())

    def test_bad_arithmetic_operand_raises(self):
        with pytest.raises(SQLExecutionError):
            Arithmetic("+", Literal("a"), Literal(1)).evaluate(ctx())


class TestContextAndHelpers:
    def test_qualified_lookup(self):
        context = EvaluationContext({"t1.zip": "EH8", "t2.zip": "G1"})
        assert ColumnRef("zip", qualifier="t1").evaluate(context) == "EH8"

    def test_ambiguous_unqualified_lookup_raises(self):
        context = EvaluationContext({"t1.zip": "EH8", "t2.zip": "G1"})
        with pytest.raises(SQLExecutionError):
            ColumnRef("zip").evaluate(context)

    def test_unqualified_falls_back_to_unique_qualified(self):
        context = EvaluationContext({"t1.zip": "EH8"})
        assert ColumnRef("zip").evaluate(context) == "EH8"

    def test_unknown_column_raises(self):
        with pytest.raises(SQLExecutionError):
            ColumnRef("ghost").evaluate(ctx(x=1))

