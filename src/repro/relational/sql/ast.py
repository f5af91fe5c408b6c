"""AST node classes for the SQL subset.

Scalar expressions reuse :mod:`repro.relational.expressions`; this module
adds the statement-level structure: select items, table references, joins
and the SELECT statement itself (possibly a UNION of two selects).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SQLSyntaxError
from repro.relational.expressions import Expression


@dataclass(frozen=True)
class AggregateCall:
    """An aggregate in the select list or HAVING clause."""

    function: str                 # count | sum | avg | min | max
    argument: Expression | None   # None for COUNT(*)
    distinct: bool = False

    def default_name(self) -> str:
        if self.argument is None:
            return "count"
        arg = str(self.argument).replace(".", "_")
        prefix = f"{self.function}_distinct" if self.distinct else self.function
        return f"{prefix}_{arg}"

    def __str__(self) -> str:
        inner = "*" if self.argument is None else str(self.argument)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.function.upper()}({inner})"


class AggregateExpr(Expression):
    """An aggregate call used where a scalar expression is expected (HAVING,
    or inside a computed select item).

    The executor replaces these with references to pre-computed aggregate
    columns; direct evaluation is a logic error.
    """

    __slots__ = ("call",)

    def __init__(self, call: AggregateCall) -> None:
        self.call = call

    def evaluate(self, context):  # pragma: no cover - defensive
        raise SQLSyntaxError("aggregate used outside GROUP BY/HAVING context")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AggregateExpr) and self.call == other.call

    def __hash__(self) -> int:
        return hash(self.call)

    def __str__(self) -> str:
        return str(self.call)


#: the attributes an expression node keeps its sub-expressions under.
_CHILDREN = ("operands", "operand", "left", "right", "arguments", "values")


def embedded(expression: Expression | None, kind: type) -> list:
    """Every node of *kind* in *expression*, in walk order.

    The walk is depth first, children in attribute order, and does not
    descend into a node of *kind*.  It keeps an explicit stack instead of
    recursing through a nested function, so a call leaves nothing for the
    cycle collector.
    """
    found: list = []
    stack = [] if expression is None else [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            found.append(node)
            continue
        children: list[Expression] = []
        for attribute in _CHILDREN:
            child = getattr(node, attribute, None)
            if isinstance(child, Expression):
                children.append(child)
            elif isinstance(child, tuple):
                children.extend(element for element in child
                                if isinstance(element, Expression))
        stack.extend(reversed(children))
    return found


def collect_aggregates(expression: Expression | None) -> list[AggregateCall]:
    """Every aggregate call embedded in *expression*, in walk order."""
    return [node.call for node in embedded(expression, AggregateExpr)]


@dataclass(frozen=True)
class SelectItem:
    """One entry of the select list."""

    expression: Expression | AggregateCall | None  # None means '*'
    alias: str | None = None
    star_qualifier: str | None = None  # for 'alias.*'

    @property
    def is_star(self) -> bool:
        return self.expression is None

    def output_name(self, default_index: int) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expression, AggregateCall):
            return self.expression.default_name()
        if self.expression is not None:
            text = str(self.expression)
            if text.isidentifier():
                return text
            # qualified column reference t.a -> a
            if "." in text and all(part.isidentifier() for part in text.split(".")):
                return text.split(".")[-1]
            return f"col_{default_index}"
        return f"col_{default_index}"


@dataclass(frozen=True)
class TableRef:
    """A relation in the FROM clause, with an optional alias."""

    relation_name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.relation_name


@dataclass(frozen=True)
class Join:
    """An explicit ``[INNER] JOIN ... ON`` clause (the only join kind)."""

    table: TableRef
    condition: Expression


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY entry."""

    expression: Expression
    descending: bool = False


@dataclass
class SelectStatement:
    """A single SELECT block."""

    items: list[SelectItem]
    tables: list[TableRef]
    joins: list[Join] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False

    def has_aggregates(self) -> bool:
        """Whether the statement is grouped, as SQL defines it.

        It is when it has a GROUP BY or a HAVING, or an aggregate anywhere
        in its select list, nested in a computed item too.  Without GROUP
        BY, all rows form one group.
        """
        if self.group_by or self.having is not None:
            return True
        return any(isinstance(item.expression, AggregateCall)
                   or (item.expression is not None and collect_aggregates(item.expression))
                   for item in self.items)


@dataclass
class UnionStatement:
    """``SELECT ... UNION [ALL] SELECT ...`` (left-associative chain)."""

    selects: list[SelectStatement]
    all: bool = False


Statement = SelectStatement | UnionStatement
