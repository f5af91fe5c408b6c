"""Recursive-descent parser for the SQL subset.

``parse_sql`` turns SQL text into a
:class:`~repro.relational.sql.ast.SelectStatement` or
:class:`~repro.relational.sql.ast.UnionStatement`.  Scalar expressions are
parsed into the shared :mod:`repro.relational.expressions` AST; aggregate
calls appearing inside expressions (e.g. in ``HAVING COUNT(*) > 1``) are
wrapped in :class:`AggregateExpr` and resolved by the executor.
"""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.relational.expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from repro.relational.sql.ast import (
    AggregateCall,
    AggregateExpr,
    Join,
    OrderItem,
    SelectItem,
    SelectStatement,
    Statement,
    TableRef,
    UnionStatement,
)
from repro.relational.sql.tokenizer import Token, tokenize
from repro.relational.types import NULL

AGGREGATE_KEYWORDS = ("count", "sum", "avg", "min", "max")

#: how deep parentheses, ``NOT`` and unary minus may nest in one statement;
#: deeper input raises :class:`SQLSyntaxError` instead of exhausting the
#: interpreter's recursion limit (a parenthesis costs about eight frames).
MAX_NESTING = 64


class _Parser:
    """Token-stream cursor with the grammar's parsing methods."""

    def __init__(self, tokens: list[Token], text: str) -> None:
        self._tokens = tokens
        self._text = text
        self._index = 0
        self._depth = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token | None:
        index = self._index + offset
        return self._tokens[index] if index < len(self._tokens) else None

    def _advance(self) -> Token:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of SQL input", len(self._text))
        self._index += 1
        return token

    def _expect_keyword(self, *names: str) -> Token:
        token = self._peek()
        if token is None or not token.is_keyword(*names):
            raise SQLSyntaxError(
                f"expected {'/'.join(names).upper()} near {self._context()}",
                self._position())
        return self._advance()

    def _expect_operator(self, symbol: str) -> Token:
        token = self._peek()
        if token is None or not token.is_operator(symbol):
            raise SQLSyntaxError(f"expected {symbol!r} near {self._context()}",
                                 self._position())
        return self._advance()

    def _match_keyword(self, *names: str) -> bool:
        token = self._peek()
        if token is not None and token.is_keyword(*names):
            self._advance()
            return True
        return False

    def _match_operator(self, symbol: str) -> bool:
        token = self._peek()
        if token is not None and token.is_operator(symbol):
            self._advance()
            return True
        return False

    def _nest(self, token: Token) -> None:
        """Enter the nesting level *token* opens: a parenthesis, ``NOT`` or
        unary minus.  :meth:`_unnest` leaves it once its operand is parsed."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise SQLSyntaxError(
                f"expression nests deeper than {MAX_NESTING} levels at "
                f"{token.value!r} (position {token.position})", token.position)

    def _unnest(self, expression: Expression) -> Expression:
        self._depth -= 1
        return expression

    def _context(self) -> str:
        token = self._peek()
        if token is None:
            return "end of input"
        return f"{token.value!r} (position {token.position})"

    def _position(self) -> int:
        """The next token's offset, or the end of the text after the last."""
        token = self._peek()
        return len(self._text) if token is None else token.position

    # -- statements --------------------------------------------------------

    def parse_statement(self) -> Statement:
        first = self._parse_select()
        selects = [first]
        union_all = False
        while self._match_keyword("union"):
            union_all = self._match_keyword("all") or union_all
            selects.append(self._parse_select())
        self._match_operator(";")
        if self._peek() is not None:
            raise SQLSyntaxError(f"unexpected trailing input near {self._context()}",
                                 self._position())
        if len(selects) == 1:
            return first
        return UnionStatement(selects=selects, all=union_all)

    def _parse_select(self) -> SelectStatement:
        self._expect_keyword("select")
        distinct = self._match_keyword("distinct")
        if self._match_keyword("all"):
            distinct = False
        items = [self._parse_select_item()]
        while self._match_operator(","):
            items.append(self._parse_select_item())

        self._expect_keyword("from")
        tables = [self._parse_table_ref()]
        joins: list[Join] = []
        while True:
            if self._match_operator(","):
                tables.append(self._parse_table_ref())
                continue
            token = self._peek()
            if token is not None and token.is_keyword("join", "inner", "left"):
                joins.append(self._parse_join())
                continue
            break

        where = None
        if self._match_keyword("where"):
            where = self._parse_expression()

        group_by: list[Expression] = []
        having = None
        if self._match_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._parse_expression())
            while self._match_operator(","):
                group_by.append(self._parse_expression())
        if self._match_keyword("having"):
            having = self._parse_expression()

        order_by: list[OrderItem] = []
        if self._match_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._match_operator(","):
                order_by.append(self._parse_order_item())

        limit = None
        if self._match_keyword("limit"):
            token = self._advance()
            if token.kind != "number":
                raise SQLSyntaxError(f"LIMIT expects a number, got {token.value!r}",
                                     token.position)
            limit = int(float(token.value))

        return SelectStatement(
            items=items, tables=tables, joins=joins, where=where,
            group_by=group_by, having=having, order_by=order_by,
            limit=limit, distinct=distinct,
        )

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        if token is not None and token.is_operator("*"):
            self._advance()
            return SelectItem(expression=None)
        # alias.* form
        if (
            token is not None and token.kind == "identifier"
            and self._peek(1) is not None and self._peek(1).is_operator(".")
            and self._peek(2) is not None and self._peek(2).is_operator("*")
        ):
            qualifier = self._advance().value
            self._advance()
            self._advance()
            return SelectItem(expression=None, star_qualifier=qualifier)

        expression = self._parse_expression()
        alias = None
        if self._match_keyword("as"):
            alias_token = self._advance()
            if alias_token.kind not in ("identifier", "keyword"):
                raise SQLSyntaxError(f"bad alias {alias_token.value!r}",
                                     alias_token.position)
            alias = alias_token.value
        else:
            next_token = self._peek()
            if next_token is not None and next_token.kind == "identifier":
                alias = self._advance().value
        if isinstance(expression, AggregateExpr):
            return SelectItem(expression=expression.call, alias=alias)
        return SelectItem(expression=expression, alias=alias)

    def _parse_table_ref(self) -> TableRef:
        token = self._advance()
        if token.kind not in ("identifier", "keyword"):
            raise SQLSyntaxError(f"expected relation name, got {token.value!r}",
                                 token.position)
        alias = None
        if self._match_keyword("as"):
            alias = self._advance().value
        else:
            next_token = self._peek()
            if next_token is not None and next_token.kind == "identifier":
                alias = self._advance().value
        return TableRef(relation_name=token.value, alias=alias)

    def _parse_join(self) -> Join:
        start = self._position()
        left = self._match_keyword("left")
        if not left:
            self._match_keyword("inner")
        self._expect_keyword("join")
        table = self._parse_table_ref()
        self._expect_keyword("on")
        condition = self._parse_expression()
        if left:
            raise SQLSyntaxError("only INNER JOIN is supported", start)
        return Join(table=table, condition=condition)

    def _parse_order_item(self) -> OrderItem:
        expression = self._parse_expression()
        descending = False
        if self._match_keyword("desc"):
            descending = True
        elif self._match_keyword("asc"):
            descending = False
        return OrderItem(expression=expression, descending=descending)

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        operands = [self._parse_and()]
        while self._match_keyword("or"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))

    def _parse_and(self) -> Expression:
        operands = [self._parse_not()]
        while self._match_keyword("and"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def _parse_not(self) -> Expression:
        token = self._peek()
        if token is not None and token.is_keyword("not"):
            self._nest(self._advance())
            return self._unnest(Not(self._parse_not()))
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()

        token = self._peek()
        if token is None:
            return left

        if token.is_keyword("is"):
            self._advance()
            negated = self._match_keyword("not")
            self._expect_keyword("null")
            return IsNull(left, negated=negated)

        negated = False
        if token.is_keyword("not"):
            nxt = self._peek(1)
            if nxt is not None and nxt.is_keyword("in", "like", "between"):
                self._advance()
                negated = True
                token = self._peek()

        if token is not None and token.is_keyword("in"):
            self._advance()
            self._expect_operator("(")
            values = [self._parse_additive()]
            while self._match_operator(","):
                values.append(self._parse_additive())
            self._expect_operator(")")
            return InList(left, tuple(values), negated=negated)

        if token is not None and token.is_keyword("like"):
            self._advance()
            pattern_token = self._advance()
            if pattern_token.kind != "string":
                raise SQLSyntaxError("LIKE expects a string pattern",
                                     pattern_token.position)
            return Like(left, pattern_token.value, negated=negated)

        if token is not None and token.is_keyword("between"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            between = And((Comparison(">=", left, low), Comparison("<=", left, high)))
            return Not(between) if negated else between

        if token is not None and token.is_operator("=", "!=", "<>", "<", "<=", ">", ">="):
            operator = self._advance().value
            right = self._parse_additive()
            return Comparison(operator, left, right)

        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token is not None and token.is_operator("+", "-"):
                operator = self._advance().value
                right = self._parse_multiplicative()
                left = Arithmetic(operator, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_primary()
        while True:
            token = self._peek()
            if token is not None and token.is_operator("*", "/", "%"):
                operator = self._advance().value
                right = self._parse_primary()
                left = Arithmetic(operator, left, right)
            else:
                return left

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of expression", len(self._text))

        if token.is_operator("("):
            self._nest(self._advance())
            expression = self._parse_expression()
            self._expect_operator(")")
            return self._unnest(expression)

        if token.is_operator("-"):
            self._nest(self._advance())
            return self._unnest(Arithmetic("-", Literal(0), self._parse_primary()))

        if token.kind == "number":
            self._advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return Literal(value)

        if token.kind == "string":
            self._advance()
            return Literal(token.value)

        if token.is_keyword("null"):
            self._advance()
            return Literal(NULL)

        if token.is_keyword(*AGGREGATE_KEYWORDS):
            return self._parse_aggregate()

        if token.kind in ("identifier", "keyword"):
            return self._parse_name_or_function()

        raise SQLSyntaxError(f"unexpected token {token.value!r} in expression",
                             token.position)

    def _parse_aggregate(self) -> Expression:
        function_token = self._advance()
        function = function_token.value
        self._nest(self._expect_operator("("))
        distinct = self._match_keyword("distinct")
        token = self._peek()
        argument: Expression | None
        if token is not None and token.is_operator("*"):
            self._advance()
            argument = None
        else:
            argument = self._parse_expression()
        self._expect_operator(")")
        return self._unnest(AggregateExpr(
            AggregateCall(function=function, argument=argument, distinct=distinct)))

    def _parse_name_or_function(self) -> Expression:
        token = self._advance()
        name = token.value
        next_token = self._peek()

        if next_token is not None and next_token.is_operator("("):
            self._nest(self._advance())
            arguments: list[Expression] = []
            if not self._match_operator(")"):
                arguments.append(self._parse_expression())
                while self._match_operator(","):
                    arguments.append(self._parse_expression())
                self._expect_operator(")")
            return self._unnest(FunctionCall(name, tuple(arguments)))

        if next_token is not None and next_token.is_operator("."):
            self._advance()
            column_token = self._advance()
            if column_token.kind not in ("identifier", "keyword"):
                raise SQLSyntaxError(f"expected column name after {name!r}.",
                                     column_token.position)
            return ColumnRef(column_token.value, qualifier=name)

        return ColumnRef(name)


def parse_sql(text: str) -> Statement:
    """Parse SQL *text* into a statement AST."""
    tokens = tokenize(text)
    if not tokens:
        raise SQLSyntaxError("empty SQL statement", 0)
    return _Parser(tokens, text).parse_statement()
