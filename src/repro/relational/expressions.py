"""Scalar expressions with SQL three-valued logic.

The expression AST of the SQL parser and executor: column references,
literals, comparisons, boolean connectives,
arithmetic, ``IS NULL``, ``IN``, ``LIKE`` and a handful of scalar
functions.  Evaluation takes an :class:`EvaluationContext` that resolves
column references to values; boolean results use three-valued logic with
``UNKNOWN`` represented by the NULL marker.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import SQLExecutionError
from repro.relational.types import NULL, is_null, sort_key


class EvaluationContext:
    """Resolves (qualified) column names to values during evaluation.

    *bindings* maps lower-cased names to values.  A column can be bound
    both unqualified (``'zip'``) and qualified (``'t1.zip'``); qualified
    lookups are attempted first when a qualifier is present.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[str, Any]) -> None:
        self._bindings = {key.lower(): value for key, value in bindings.items()}

    def lookup(self, name: str, qualifier: str | None = None) -> Any:
        """Resolve a column reference; raises when the name is unknown."""
        if qualifier is not None:
            key = f"{qualifier.lower()}.{name.lower()}"
            if key in self._bindings:
                return self._bindings[key]
            raise SQLExecutionError(f"unknown column {qualifier}.{name}")
        key = name.lower()
        if key in self._bindings:
            return self._bindings[key]
        # fall back: a unique qualified binding with this column part
        matches = [v for k, v in self._bindings.items() if k.endswith(f".{key}")]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise SQLExecutionError(f"ambiguous column reference {name!r}")
        raise SQLExecutionError(f"unknown column {name!r}")


class Expression:
    """Base class of all scalar expressions."""

    def evaluate(self, context: EvaluationContext) -> Any:
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, context: EvaluationContext) -> Any:
        return self.value

    def __str__(self) -> str:
        if is_null(self.value):
            return "NULL"
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a column, optionally qualified by a relation alias."""

    name: str
    qualifier: str | None = None

    def evaluate(self, context: EvaluationContext) -> Any:
        return context.lookup(self.name, self.qualifier)

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


def sql_equal(left: Any, right: Any) -> bool:
    """SQL ``=`` on two non-NULL values.

    Python's ``==``, except that a BOOLEAN equals only a BOOLEAN: Python
    has ``True == 1``, SQL does not.  Numbers still compare by value
    across INTEGER and FLOAT.
    """
    return left == right and isinstance(left, bool) == isinstance(right, bool)


_COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "=": sql_equal,
    "!=": lambda a, b: not sql_equal(a, b),
    "<>": lambda a, b: not sql_equal(a, b),
    "<": lambda a, b: sort_key(a) < sort_key(b),
    "<=": lambda a, b: sort_key(a) <= sort_key(b),
    ">": lambda a, b: sort_key(a) > sort_key(b),
    ">=": lambda a, b: sort_key(a) >= sort_key(b),
}


@dataclass(frozen=True)
class Comparison(Expression):
    """Binary comparison with SQL NULL semantics (NULL compares to UNKNOWN)."""

    operator: str
    left: Expression
    right: Expression

    def evaluate(self, context: EvaluationContext) -> Any:
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        if is_null(left) or is_null(right):
            return NULL
        if self.operator not in _COMPARISONS:
            raise SQLExecutionError(f"unknown comparison operator {self.operator!r}")
        return _COMPARISONS[self.operator](left, right)

    def __str__(self) -> str:
        return f"({self.left} {self.operator} {self.right})"


@dataclass(frozen=True)
class And(Expression):
    """Three-valued conjunction."""

    operands: tuple[Expression, ...]

    def evaluate(self, context: EvaluationContext) -> Any:
        saw_unknown = False
        for operand in self.operands:
            value = operand.evaluate(context)
            if is_null(value):
                saw_unknown = True
            elif not value:
                return False
        return NULL if saw_unknown else True

    def __str__(self) -> str:
        return "(" + " AND ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(Expression):
    """Three-valued disjunction."""

    operands: tuple[Expression, ...]

    def evaluate(self, context: EvaluationContext) -> Any:
        saw_unknown = False
        for operand in self.operands:
            value = operand.evaluate(context)
            if is_null(value):
                saw_unknown = True
            elif value:
                return True
        return NULL if saw_unknown else False

    def __str__(self) -> str:
        return "(" + " OR ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expression):
    """Three-valued negation."""

    operand: Expression

    def evaluate(self, context: EvaluationContext) -> Any:
        value = self.operand.evaluate(context)
        if is_null(value):
            return NULL
        return not value

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def evaluate(self, context: EvaluationContext) -> Any:
        value = self.operand.evaluate(context)
        result = is_null(value)
        return (not result) if self.negated else result

    def __str__(self) -> str:
        return f"({self.operand} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    values: tuple[Expression, ...]
    negated: bool = False

    def evaluate(self, context: EvaluationContext) -> Any:
        value = self.operand.evaluate(context)
        if is_null(value):
            return NULL
        saw_unknown = False
        for candidate in self.values:
            other = candidate.evaluate(context)
            if is_null(other):
                saw_unknown = True
                continue
            if sql_equal(other, value):
                return False if self.negated else True
        if saw_unknown:
            return NULL
        return True if self.negated else False

    def __str__(self) -> str:
        values = ", ".join(str(v) for v in self.values)
        return f"({self.operand} {'NOT ' if self.negated else ''}IN ({values}))"


@dataclass(frozen=True)
class Like(Expression):
    """SQL ``LIKE`` with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: str
    negated: bool = False

    def evaluate(self, context: EvaluationContext) -> Any:
        value = self.operand.evaluate(context)
        if is_null(value):
            return NULL
        regex = _like_to_regex(self.pattern)
        result = bool(regex.fullmatch(str(value)))
        return (not result) if self.negated else result

    def __str__(self) -> str:
        return f"({self.operand} {'NOT ' if self.negated else ''}LIKE '{self.pattern}')"


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts), re.DOTALL)


_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic; NULL-propagating."""

    operator: str
    left: Expression
    right: Expression

    def evaluate(self, context: EvaluationContext) -> Any:
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        if is_null(left) or is_null(right):
            return NULL
        if self.operator not in _ARITHMETIC:
            raise SQLExecutionError(f"unknown arithmetic operator {self.operator!r}")
        try:
            return _ARITHMETIC[self.operator](left, right)
        except ZeroDivisionError:
            return NULL
        except TypeError as exc:
            raise SQLExecutionError(
                f"cannot apply {self.operator!r} to {left!r} and {right!r}"
            ) from exc

    def __str__(self) -> str:
        return f"({self.left} {self.operator} {self.right})"


_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "upper": lambda v: NULL if is_null(v) else str(v).upper(),
    "lower": lambda v: NULL if is_null(v) else str(v).lower(),
    "length": lambda v: NULL if is_null(v) else len(str(v)),
    "trim": lambda v: NULL if is_null(v) else str(v).strip(),
    "abs": lambda v: NULL if is_null(v) else abs(v),
    "coalesce": lambda *vs: next((v for v in vs if not is_null(v)), NULL),
    "concat": lambda *vs: NULL if any(is_null(v) for v in vs) else "".join(str(v) for v in vs),
}


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar function call (UPPER, LOWER, LENGTH, TRIM, ABS, COALESCE, CONCAT)."""

    name: str
    arguments: tuple[Expression, ...]

    def evaluate(self, context: EvaluationContext) -> Any:
        func = _FUNCTIONS.get(self.name.lower())
        if func is None:
            raise SQLExecutionError(f"unknown function {self.name!r}")
        values = [arg.evaluate(context) for arg in self.arguments]
        return func(*values)

    def __str__(self) -> str:
        return f"{self.name.upper()}({', '.join(str(a) for a in self.arguments)})"


def truth(value: Any) -> bool:
    """Collapse a three-valued result to a WHERE-clause decision (UNKNOWN → False)."""
    if is_null(value):
        return False
    return bool(value)
