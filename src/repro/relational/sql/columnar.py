"""Code-native (vectorized) plans for single-table SELECT statements.

The classic executor materialises an ``_ExecRow`` binding dict per
surviving row and evaluates WHERE / GROUP BY / aggregates value-at-a-time.
This module compiles the plans that do not need any of that: a
single-table scan → filter → group → aggregate pipeline that runs on the
relation's dictionary code arrays end to end.

* **Filter** — every WHERE conjunct must compile to a ``(position,
  allowed code set)`` pair (:func:`compile_filter`): string equality /
  ``IN`` / their negations via :func:`~repro.relational.predicates.equality_code_set`,
  ``<`` ``<=`` ``>`` ``>=`` (and the parser's desugared ``BETWEEN``)
  via :func:`~repro.relational.predicates.range_code_set` on the column's
  dictionary-order view, ``IS [NOT] NULL`` on any column type (NULL's
  code, or every other code), and an ``OR`` whose operands all compile
  on one column (the union of their code sets; an ``OR`` across columns
  stays residual).  Surviving tuples are selected by integer set
  membership (:func:`~repro.relational.columns.passing`) — no row
  objects, no binding dicts.
* **Group** — GROUP BY columns become schema positions; groups are keyed
  by code tuples straight off the code arrays (codes are assigned by
  value equality, so code keys and value keys partition identically, in
  the same first-occurrence order).  A statement whose WHERE tests only
  GROUP BY columns reads its groups off the relation's maintained index
  on them instead (:func:`index_groups`).
* **Aggregate** — COUNT / COUNT(DISTINCT) run as code counts,
  MIN / MAX compare dense dictionary-order ranks
  (:meth:`~repro.relational.columns.Column.order`), SUM / AVG fold the
  dictionary-decoded values in tuple order (decoding is one list index
  per value — the dictionary holds each distinct value decoded once).
* **Decode boundaries** — values materialise only in the output rows:
  per selected cell for plain scans, per group for group keys and
  aggregate results, and for a group's first row only when an
  expression reads a column outside the key.

:func:`compile_plan` returns ``None`` whenever the statement needs more
than this pipeline — joins, multiple tables, residual (expression-valued)
WHERE conjuncts, non-column GROUP BY keys, aggregates over expressions —
and the executor falls back to the row path; both answer exactly what
the oracle's SELECT does (the randomized SQL parity suites pin this down).

The compiled plan is deliberately split from its execution: the scan
itself is the picklable ``sql_scan`` worker handler
(:mod:`repro.engine.worker`), run either in-process on the full tid list
or fanned across chunks by :class:`~repro.engine.sql.ChunkedSQLEngine`
with an :class:`~repro.engine.sql.AggregateMerger` stitching per-chunk
partial aggregates.  The helpers here (:func:`query_payload`,
:func:`finalize_aggregate`, :func:`empty_aggregate_state`) are the
parent-side halves of that contract.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ReproError, SchemaError, SQLExecutionError
from repro.relational.columns import NULL_CODE, passing
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
from repro.relational.predicates import (
    RANGE_OPERATORS,
    equality_code_set,
    range_code_set,
)
from repro.relational.sql.ast import (
    AggregateCall,
    SelectStatement,
    TableRef,
    collect_aggregates,
    embedded,
)
from repro.relational.types import NULL, AttributeType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.database import Database
    from repro.relational.index import HashIndex
    from repro.relational.relation import Relation

#: aggregate functions the code-native pipeline computes on codes.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

_MISSING = object()


# -- shared statement helpers -------------------------------------------------
#
# Item expansion and aggregate collection are identical for the code and
# row paths (the row executor delegates here), so the two cannot drift.


def flatten_conjuncts(expression: Expression | None) -> list[Expression]:
    """The top-level AND conjuncts of *expression* (``[]`` for ``None``)."""
    if expression is None:
        return []
    if isinstance(expression, And):
        result: list[Expression] = []
        for operand in expression.operands:
            result.extend(flatten_conjuncts(operand))
        return result
    return [expression]


def star_columns(database: "Database", statement: SelectStatement,
                 qualifier: str | None) -> list[tuple[str, Expression]]:
    """Expand ``*`` / ``alias.*`` into named column references."""
    columns: list[tuple[str, Expression]] = []
    seen: set[str] = set()
    tables = list(statement.tables) + [join.table for join in statement.joins]
    for table in tables:
        if qualifier is not None and table.binding_name.lower() != qualifier.lower():
            continue
        relation = database.relation(table.relation_name)
        for name in relation.schema.attribute_names:
            output = name if name.lower() not in seen else f"{table.binding_name}_{name}"
            seen.add(name.lower())
            columns.append((output, ColumnRef(name, qualifier=table.binding_name)))
    if not columns:
        raise SQLExecutionError(f"'*' expansion found no columns (qualifier {qualifier!r})")
    return columns


def expanded_items(database: "Database",
                   statement: SelectStatement) -> list[tuple[str, Expression | AggregateCall]]:
    """The select list with '*' and 'alias.*' expanded to concrete columns."""
    expanded: list[tuple[str, Expression | AggregateCall]] = []
    for index, item in enumerate(statement.items):
        if item.is_star:
            expanded.extend(star_columns(database, statement, item.star_qualifier))
        else:
            expanded.append((item.output_name(index), item.expression))
    return expanded


def substitute(expression: Expression,
               replace: Callable[[Expression], Expression | None]) -> Expression:
    """*expression* with every node that *replace* maps to a node swapped out.

    *replace* sees each node before its children; a node it maps to
    ``None`` is rebuilt around its substituted children (leaves come back
    as they are).  The grouped outputs rewrite HAVING and computed items
    once per statement this way.
    """
    found = replace(expression)
    if found is not None:
        return found
    if isinstance(expression, And):
        return And(tuple(substitute(op, replace) for op in expression.operands))
    if isinstance(expression, Or):
        return Or(tuple(substitute(op, replace) for op in expression.operands))
    if isinstance(expression, Not):
        return Not(substitute(expression.operand, replace))
    if isinstance(expression, Comparison):
        return Comparison(expression.operator, substitute(expression.left, replace),
                          substitute(expression.right, replace))
    if isinstance(expression, Arithmetic):
        return Arithmetic(expression.operator, substitute(expression.left, replace),
                          substitute(expression.right, replace))
    if isinstance(expression, IsNull):
        return IsNull(substitute(expression.operand, replace), negated=expression.negated)
    if isinstance(expression, Like):
        return Like(substitute(expression.operand, replace), expression.pattern,
                    negated=expression.negated)
    if isinstance(expression, InList):
        return InList(substitute(expression.operand, replace),
                      tuple(substitute(v, replace) for v in expression.values),
                      negated=expression.negated)
    if isinstance(expression, FunctionCall):
        return FunctionCall(expression.name,
                            tuple(substitute(a, replace) for a in expression.arguments))
    return expression


# -- WHERE conjunct compilation ----------------------------------------------


def _resolved_position(ref: ColumnRef, table: TableRef, single_table: bool,
                       relation: "Relation") -> int | None:
    """*ref*'s schema position when it names a column of *table*, else ``None``."""
    if ref.qualifier is not None:
        if ref.qualifier.lower() != table.binding_name.lower():
            return None
    elif not single_table:
        return None  # ambiguous without a qualifier; leave to evaluation
    try:
        return relation.schema.position(ref.name)
    except SchemaError:
        return None  # unknown column: the residual path raises the error


def _literal_value(expression: Expression) -> Any:
    """The constant value of *expression*, or :data:`_MISSING`.

    Folds the parser's unary-minus shape (``Arithmetic('-', 0, number)``)
    so ``WHERE v > -1`` compiles like ``WHERE v > 1`` does.
    """
    if isinstance(expression, Literal):
        return expression.value
    if (isinstance(expression, Arithmetic) and expression.operator == "-"
            and isinstance(expression.left, Literal) and expression.left.value == 0
            and isinstance(expression.right, Literal)
            and isinstance(expression.right.value, (int, float))
            and not isinstance(expression.right.value, bool)):
        return -expression.right.value
    return _MISSING


def _as_string_constants(conjunct: Expression, table: TableRef, single_table: bool,
                         relation: "Relation") -> tuple[int, list[str], bool] | None:
    """``(position, string literals, negated)`` of an equality push-down."""
    if isinstance(conjunct, Comparison) and conjunct.operator in ("=", "!=", "<>"):
        for ref, literal in ((conjunct.left, conjunct.right),
                             (conjunct.right, conjunct.left)):
            if isinstance(ref, ColumnRef) and isinstance(literal, Literal):
                break
        else:
            return None
        if not isinstance(literal.value, str):
            return None
        position = _resolved_position(ref, table, single_table, relation)
        if position is None:
            return None
        if relation.schema.attributes[position].type is not AttributeType.STRING:
            return None  # '=' must keep SQL numeric semantics (1 == 1.0)
        return position, [literal.value], conjunct.operator != "="
    if isinstance(conjunct, InList):
        ref = conjunct.operand
        if not isinstance(ref, ColumnRef):
            return None
        if not all(isinstance(value, Literal) and isinstance(value.value, str)
                   for value in conjunct.values):
            return None  # non-string or non-literal members: residual evaluation
        position = _resolved_position(ref, table, single_table, relation)
        if position is None:
            return None
        if relation.schema.attributes[position].type is not AttributeType.STRING:
            return None
        return position, [value.value for value in conjunct.values], conjunct.negated
    return None


def _as_range(conjunct: Expression, table: TableRef, single_table: bool,
              relation: "Relation") -> tuple[int, str, Any] | None:
    """``(position, operator, bound)`` of a range push-down.

    Any column type qualifies: the row path evaluates ``<`` etc. in the
    ``sort_key`` total order, which is exactly the order the column's
    dictionary-order view bisects.
    """
    if not isinstance(conjunct, Comparison) or conjunct.operator not in RANGE_OPERATORS:
        return None
    for ref, literal, operator in ((conjunct.left, conjunct.right, conjunct.operator),
                                   (conjunct.right, conjunct.left,
                                    _FLIPPED[conjunct.operator])):
        if isinstance(ref, ColumnRef):
            bound = _literal_value(literal)
            if bound is _MISSING:
                return None
            position = _resolved_position(ref, table, single_table, relation)
            if position is None:
                return None
            return position, operator, bound
    return None


def compile_filter(relation: "Relation", table: TableRef, conjunct: Expression,
                   single_table: bool) -> tuple[int, set[int]] | None:
    """Compile one WHERE conjunct to a ``(position, allowed codes)`` filter.

    Returns ``None`` when the conjunct must stay on the residual
    (expression-valued) path.  Results — rows *and* their order — are
    identical either way; only execution changes.
    """
    store = relation.columns
    equality = _as_string_constants(conjunct, table, single_table, relation)
    if equality is not None:
        position, constants, negated = equality
        return position, equality_code_set(store.column_at(position), constants, negated)
    comparison = _as_range(conjunct, table, single_table, relation)
    if comparison is not None:
        position, operator, bound = comparison
        return position, range_code_set(store.column_at(position), operator, bound)
    if isinstance(conjunct, IsNull) and isinstance(conjunct.operand, ColumnRef):
        position = _resolved_position(conjunct.operand, table, single_table, relation)
        if position is None:
            return None
        if conjunct.negated:
            return position, set(range(NULL_CODE + 1, len(store.column_at(position).values)))
        return position, {NULL_CODE}
    if isinstance(conjunct, Or):
        # WHERE keeps only TRUE rows and an operand that is UNKNOWN on a
        # value adds nothing, so on one column the OR is the union of its
        # operands' code sets; across columns it stays residual.
        position, union = None, set()
        for operand in conjunct.operands:
            compiled = compile_filter(relation, table, operand, single_table)
            if compiled is None or position not in (None, compiled[0]):
                return None
            position = compiled[0]
            union |= compiled[1]
        return position, union
    return None


# -- plan compilation ---------------------------------------------------------


class CodePlan:
    """A compiled code-native plan for one single-table SELECT."""

    __slots__ = ("relation", "table", "filters", "conjuncts", "grouped",
                 "group_positions", "agg_calls", "agg_specs", "items", "names",
                 "having", "order_ranks", "limit")

    def __init__(self, relation: "Relation", table: TableRef) -> None:
        self.relation = relation
        self.table = table
        #: ``(schema position, allowed codes)`` per WHERE conjunct.
        self.filters: list[tuple[int, set[int]]] = []
        #: the WHERE conjuncts, aligned with ``filters``.
        self.conjuncts: list[Expression] = []
        #: whether the grouped (aggregate) pipeline runs.
        self.grouped = False
        #: GROUP BY schema positions (empty = one global group).
        self.group_positions: tuple[int, ...] = ()
        #: unique aggregate calls (lookup key for HAVING/item rewriting).
        self.agg_calls: list[AggregateCall] = []
        #: worker specs aligned with ``agg_calls`` (see ``sql_scan``).
        self.agg_specs: list[tuple] = []
        #: output layout: ("col", position) | ("agg", index) | ("expr", Expression).
        self.items: list[tuple[str, Any]] = []
        self.names: list[str] = []
        self.having: Expression | None = None
        #: plain-scan ORDER BY as (position, descending) rank sorts, or None.
        self.order_ranks: list[tuple[int, bool]] | None = None
        #: LIMIT of a plain ordered scan — enables top-k rank selection.
        self.limit: int | None = None


def _register_aggregate(plan: CodePlan, registry: dict[AggregateCall, int],
                        call: AggregateCall, table: TableRef,
                        relation: "Relation") -> int | None:
    index = registry.get(call)
    if index is not None:
        return index
    spec = _aggregate_spec(call, table, relation)
    if spec is None:
        return None
    index = len(plan.agg_calls)
    registry[call] = index
    plan.agg_calls.append(call)
    plan.agg_specs.append(spec)
    return index


def _aggregate_spec(call: AggregateCall, table: TableRef,
                    relation: "Relation") -> tuple | None:
    if call.function not in AGGREGATE_FUNCTIONS:
        return None
    if call.argument is None:
        # COUNT(*) — and, like the row path, any aggregate over '*'.
        return ("count_star",)
    if not isinstance(call.argument, ColumnRef):
        return None  # aggregates over expressions: row path
    position = _resolved_position(call.argument, table, True, relation)
    if position is None:
        return None
    if call.function == "count":
        return ("count_distinct", position) if call.distinct else ("count", position)
    if call.function in ("sum", "avg"):
        return (call.function, position, call.distinct)
    return (call.function, position)  # min | max


def _note(reasons: list[str] | None, message: str) -> None:
    """Record a fallback reason for EXPLAIN, then signal fallback (None)."""
    if reasons is not None:
        reasons.append(message)
    return None


def compile_plan(database: "Database", statement: SelectStatement,
                 reasons: list[str] | None = None) -> CodePlan | None:
    """Compile *statement* to a :class:`CodePlan`, or ``None`` to fall back.

    When *reasons* is a list, every fallback appends a human-readable
    explanation of why the code-native plan could not be used — the raw
    material of ``EXPLAIN``.  Passing ``None`` (the default) keeps the hot
    path allocation-free.
    """
    if statement.joins or len(statement.tables) != 1:
        return _note(reasons, "query reads more than one table")
    table = statement.tables[0]
    try:
        relation = database.relation(table.relation_name)
    except ReproError:
        # unknown relation: the row path raises the canonical error
        return _note(reasons, f"unknown relation {table.relation_name!r}")

    plan = CodePlan(relation, table)
    for conjunct in flatten_conjuncts(statement.where):
        compiled = compile_filter(relation, table, conjunct, single_table=True)
        if compiled is None:
            return _note(reasons,
                         f"WHERE conjunct {conjunct} is not a code-set test")
        plan.filters.append(compiled)
        plan.conjuncts.append(conjunct)

    try:
        items = expanded_items(database, statement)
    except SQLExecutionError:
        # e.g. a bad 'alias.*': the row path raises identically
        return _note(reasons, "select items do not expand cleanly")
    plan.names = [name for name, _ in items]

    if statement.has_aggregates():
        plan.grouped = True
        positions: list[int] = []
        for expression in statement.group_by:
            if not isinstance(expression, ColumnRef):
                return _note(reasons, "GROUP BY on an expression")
            position = _resolved_position(expression, table, True, relation)
            if position is None:
                return _note(reasons,
                             f"GROUP BY column {expression} does not resolve")
            positions.append(position)
        plan.group_positions = tuple(positions)

        registry: dict[AggregateCall, int] = {}
        for _, expression in items:
            if isinstance(expression, AggregateCall):
                index = _register_aggregate(plan, registry, expression, table, relation)
                if index is None:
                    return _note(reasons,
                                 f"aggregate {expression} has no code-level spec")
                plan.items.append(("agg", index))
            else:
                for call in collect_aggregates(expression):
                    if _register_aggregate(plan, registry, call, table, relation) is None:
                        return _note(reasons,
                                     f"aggregate {call} has no code-level spec")
                plan.items.append(("expr", expression))
        plan.having = statement.having
        for call in collect_aggregates(statement.having):
            if _register_aggregate(plan, registry, call, table, relation) is None:
                return _note(reasons,
                             f"HAVING aggregate {call} has no code-level spec")
        return plan

    for _, expression in items:
        position = _resolved_position(expression, table, True, relation) \
            if isinstance(expression, ColumnRef) else None
        if position is None:
            return _note(reasons, f"select item {expression} is computed")
        plan.items.append(("col", position))
    plan.order_ranks = _order_ranks(plan, statement)
    plan.limit = statement.limit
    return plan


def output_positions(names: Sequence[str]) -> dict[str, int]:
    """Each lower-cased output name's column index, the first one where
    several output columns share the name: the column ORDER BY sorts by."""
    positions: dict[str, int] = {}
    for index, name in enumerate(names):
        positions.setdefault(name.lower(), index)
    return positions


def _order_ranks(plan: CodePlan, statement: SelectStatement) -> list[tuple[int, bool]] | None:
    """ORDER BY as rank sorts over source columns, when every key allows it.

    Mirrors the row path's name resolution: an ORDER BY key rides the
    dictionary-order index only when it is an unqualified column reference
    naming an output column (the first of that name, see
    :func:`output_positions`).  DISTINCT forces the shared value-level
    path — dedup runs before ordering there.
    """
    if not statement.order_by or statement.distinct:
        return None
    name_positions = output_positions(plan.names)
    ranks: list[tuple[int, bool]] = []
    for order_item in statement.order_by:
        expression = order_item.expression
        if not isinstance(expression, ColumnRef) or expression.qualifier is not None:
            return None
        output_index = name_positions.get(expression.name.lower())
        if output_index is None:
            return None
        _, position = plan.items[output_index]
        ranks.append((position, order_item.descending))
    return ranks


# -- join plan compilation ----------------------------------------------------
#
# Two-table INNER JOINs compile to integer hash joins on bridged codes:
# build a code-keyed bucket table on one side, translate the other side's
# codes through a :class:`~repro.relational.columns.DictionaryBridge`, and
# probe.  The joined result stays paired tid arrays end to end — WHERE
# push-down, GROUP BY and aggregates all run on the two relations' code
# arrays, and values decode only into the output rows.


class JoinPlan:
    """A compiled code-native plan for one two-table INNER JOIN SELECT.

    ``side`` is 0 for the first (left) table in FROM order and 1 for the
    second; every resolved column is a ``(side, position)`` pair.  The
    row path's name-resolution rules are baked in at compile time: an
    unqualified reference binds to the left table first and is never
    shadowed by the right one.
    """

    __slots__ = ("relations", "tables", "key_pairs", "filters", "grouped",
                 "group_keys", "agg_calls", "agg_specs", "items", "names",
                 "having", "order_ranks")

    def __init__(self, relations: tuple, tables: tuple) -> None:
        self.relations = relations  # (left Relation, right Relation)
        self.tables = tables        # (left TableRef, right TableRef)
        #: equi-join keys as ``(left position, right position)`` pairs.
        self.key_pairs: list[tuple[int, int]] = []
        #: per-side WHERE push-down: ``(position, allowed codes)`` lists.
        self.filters: tuple[list, list] = ([], [])
        self.grouped = False
        #: GROUP BY keys as ``(side, position)`` pairs (empty = one group).
        self.group_keys: tuple[tuple[int, int], ...] = ()
        self.agg_calls: list[AggregateCall] = []
        #: worker specs aligned with ``agg_calls`` (kinds carry the side).
        self.agg_specs: list[tuple] = []
        #: output layout: ("col", side, position) | ("agg", i) | ("expr", e).
        self.items: list[tuple] = []
        self.names: list[str] = []
        self.having: Expression | None = None
        #: plain-scan ORDER BY as (side, position, descending), or None.
        self.order_ranks: list[tuple[int, int, bool]] | None = None


def _join_position(ref: ColumnRef, sides: tuple) -> tuple[int, int] | None:
    """``(side, schema position)`` of *ref* under the row path's binding rules.

    A qualified reference resolves only against the matching binding name;
    an unqualified one binds to the left table first (the row path sets
    the left table's unqualified names first and never lets the right
    table shadow them).  Unknown columns resolve to ``None`` — the caller
    falls back and the row path raises (or NULL-evaluates) identically.
    """
    if ref.qualifier is not None:
        qualifier = ref.qualifier.lower()
        for side, (table, relation) in enumerate(sides):
            if qualifier == table.binding_name.lower():
                try:
                    return side, relation.schema.position(ref.name)
                except SchemaError:
                    return None
        return None
    for side, (_, relation) in enumerate(sides):
        try:
            return side, relation.schema.position(ref.name)
        except SchemaError:
            continue
    return None


def _as_join_key(conjunct: Expression, sides: tuple) -> tuple[int, int] | None:
    """``(left position, right position)`` of a hash-joinable equality.

    Mirrors the row planner's ``_as_equi_pair``: only a ``=`` between two
    *qualified* column references, one per side, becomes a join key.
    """
    if not isinstance(conjunct, Comparison) or conjunct.operator != "=":
        return None
    left, right = conjunct.left, conjunct.right
    if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
        return None
    if left.qualifier is None or right.qualifier is None:
        return None
    a = _join_position(left, sides)
    b = _join_position(right, sides)
    if a is None or b is None or a[0] == b[0]:
        return None
    if a[0] != 0:
        a, b = b, a
    return a[1], b[1]


def _compile_join_filter(conjunct: Expression,
                         sides: tuple) -> tuple[int, int, set[int]] | None:
    """Compile a single-side conjunct to ``(side, position, allowed codes)``.

    The owning side is fixed by name resolution *before* compilation (an
    unqualified name present in both tables belongs to the left one), so
    a conjunct that fails to compile on its owner never silently filters
    the other side.
    """
    refs = embedded(conjunct, ColumnRef)
    if not refs:
        return None
    owner_sides: set[int] = set()
    for ref in refs:
        resolved = _join_position(ref, sides)
        if resolved is None:
            return None
        owner_sides.add(resolved[0])
    if len(owner_sides) != 1:
        return None
    side = owner_sides.pop()
    table, relation = sides[side]
    compiled = compile_filter(relation, table, conjunct, single_table=True)
    if compiled is None:
        return None
    position, codes = compiled
    return side, position, codes


def _join_aggregate_spec(call: AggregateCall, sides: tuple) -> tuple | None:
    if call.function not in AGGREGATE_FUNCTIONS:
        return None
    if call.argument is None:
        return ("count_star",)
    if not isinstance(call.argument, ColumnRef):
        return None
    resolved = _join_position(call.argument, sides)
    if resolved is None:
        return None
    side, position = resolved
    if call.function == "count":
        return ("count_distinct", side, position) if call.distinct \
            else ("count", side, position)
    if call.function in ("sum", "avg"):
        return (call.function, side, position, call.distinct)
    return (call.function, side, position)  # min | max


def _register_join_aggregate(plan: JoinPlan, registry: dict[AggregateCall, int],
                             call: AggregateCall, sides: tuple) -> int | None:
    index = registry.get(call)
    if index is not None:
        return index
    spec = _join_aggregate_spec(call, sides)
    if spec is None:
        return None
    index = len(plan.agg_calls)
    registry[call] = index
    plan.agg_calls.append(call)
    plan.agg_specs.append(spec)
    return index


def compile_join_plan(database: "Database", statement: SelectStatement,
                      reasons: list[str] | None = None) -> JoinPlan | None:
    """Compile a two-table INNER JOIN to a :class:`JoinPlan`, or ``None``.

    Requirements mirror what the hash join can express exactly: exactly
    two tables (``FROM a, b`` or an explicit inner ``JOIN ... ON``) with
    distinct binding names, at least one both-qualified equi conjunct, and
    every remaining conjunct compiling to a single-side code-set filter.
    Anything else — cross products, residual predicates, expression-valued
    items or group keys — falls back to the row path, which produces
    byte-identical results.  When *reasons* is a list, every fallback
    appends an explanation for ``EXPLAIN``.
    """
    tables = list(statement.tables) + [join.table for join in statement.joins]
    if len(tables) != 2:
        return _note(reasons, "query does not read exactly two tables")
    if tables[0].binding_name.lower() == tables[1].binding_name.lower():
        # ambiguous bindings: leave to the row path
        return _note(reasons, "the two tables share one binding name")
    try:
        relations = tuple(database.relation(table.relation_name) for table in tables)
    except ReproError:
        # unknown relation: the row path raises the canonical error
        return _note(reasons, "unknown relation in FROM")
    sides = tuple(zip(tables, relations))
    plan = JoinPlan(relations, tuple(tables))

    conjuncts = flatten_conjuncts(statement.where)
    for join in statement.joins:
        conjuncts.extend(flatten_conjuncts(join.condition))
    for conjunct in conjuncts:
        key = _as_join_key(conjunct, sides)
        if key is not None:
            plan.key_pairs.append(key)
            continue
        compiled = _compile_join_filter(conjunct, sides)
        if compiled is None:
            return _note(reasons,
                         f"conjunct {conjunct} is neither an equi key "
                         "nor a single-side code-set test")
        side, position, codes = compiled
        plan.filters[side].append((position, codes))
    if not plan.key_pairs:
        # the row path nested-loops this
        return _note(reasons, "no equi-join key between the two tables")

    try:
        items = expanded_items(database, statement)
    except SQLExecutionError:
        # e.g. a bad 'alias.*': the row path raises identically
        return _note(reasons, "select items do not expand cleanly")
    plan.names = [name for name, _ in items]

    if statement.has_aggregates():
        plan.grouped = True
        keys: list[tuple[int, int]] = []
        for expression in statement.group_by:
            if not isinstance(expression, ColumnRef):
                return _note(reasons, "GROUP BY on an expression")
            resolved = _join_position(expression, sides)
            if resolved is None:
                return _note(reasons,
                             f"GROUP BY column {expression} does not resolve")
            keys.append(resolved)
        plan.group_keys = tuple(keys)

        registry: dict[AggregateCall, int] = {}
        for _, expression in items:
            if isinstance(expression, AggregateCall):
                index = _register_join_aggregate(plan, registry, expression, sides)
                if index is None:
                    return _note(reasons,
                                 f"aggregate {expression} has no code-level spec")
                plan.items.append(("agg", index))
            else:
                for call in collect_aggregates(expression):
                    if _register_join_aggregate(plan, registry, call, sides) is None:
                        return _note(reasons,
                                     f"aggregate {call} has no code-level spec")
                plan.items.append(("expr", expression))
        plan.having = statement.having
        for call in collect_aggregates(statement.having):
            if _register_join_aggregate(plan, registry, call, sides) is None:
                return _note(reasons,
                             f"HAVING aggregate {call} has no code-level spec")
        return plan

    for _, expression in items:
        resolved = _join_position(expression, sides) \
            if isinstance(expression, ColumnRef) else None
        if resolved is None:
            return _note(reasons, f"select item {expression} is computed")
        plan.items.append(("col",) + resolved)
    plan.order_ranks = _join_order_ranks(plan, statement)
    return plan


def _join_order_ranks(plan: JoinPlan,
                      statement: SelectStatement) -> list[tuple[int, int, bool]] | None:
    """ORDER BY as rank sorts over joined pairs (see :func:`_order_ranks`)."""
    if not statement.order_by or statement.distinct:
        return None
    name_positions = output_positions(plan.names)
    ranks: list[tuple[int, int, bool]] = []
    for order_item in statement.order_by:
        expression = order_item.expression
        if not isinstance(expression, ColumnRef) or expression.qualifier is not None:
            return None
        output_index = name_positions.get(expression.name.lower())
        if output_index is None:
            return None
        _, side, position = plan.items[output_index]
        ranks.append((side, position, order_item.descending))
    return ranks


# -- execution-side helpers ---------------------------------------------------


def query_payload(plan: CodePlan) -> dict[str, Any]:
    """The picklable per-query half of the ``sql_scan`` worker contract.

    The broadcast state carries the relation's code arrays (shipped once
    per relation version); everything query-specific — filters, group
    positions, aggregate specs with the dictionary-order ranks MIN/MAX
    compare — rides in each task payload.
    """
    store = plan.relation.columns
    aggs: list[tuple] = []
    for spec in plan.agg_specs:
        if spec[0] in ("min", "max"):
            ranks = store.column_at(spec[1]).order().ranks
            aggs.append((spec[0], spec[1], ranks))
        else:
            aggs.append(spec)
    return {
        "filters": plan.filters,
        "group": plan.group_positions if plan.grouped else None,
        "aggs": aggs,
    }


def empty_aggregate_state(spec: tuple) -> Any:
    """The partial-aggregate state of a group no tuple reached."""
    from repro.engine.worker import initial_aggregate_state

    return initial_aggregate_state(spec[0])


def finalize_aggregate(spec: tuple, state: Any, relation: "Relation") -> Any:
    """Turn one merged partial-aggregate state into the SQL result value."""
    kind = spec[0]
    if kind in ("count_star", "count"):
        return state
    if kind == "count_distinct":
        return len(state)
    column = relation.columns.column_at(spec[1])
    if kind in ("sum", "avg"):
        codes = state
        if spec[2]:  # DISTINCT: first-occurrence dedup, like the row path
            seen: set[int] = set()
            codes = [code for code in codes if not (code in seen or seen.add(code))]
        if not codes:
            return NULL
        values = column.values
        if kind == "sum":
            return sum(values[code] for code in codes)
        decoded = [values[code] for code in codes]
        return sum(decoded) / len(decoded)
    if state is None:  # min | max over an empty / all-NULL group
        return NULL
    return column.values[state[1]]


def index_grouping(plan: CodePlan) -> str | None:
    """Why grouped *plan* scans, or ``None`` when it reads an index instead.

    A statement whose every WHERE conjunct tests a GROUP BY column reads
    its groups from the relation's maintained index on those columns
    (:func:`index_groups`): such a test holds for a whole bucket or for
    none of it, so it runs once per bucket key.  A conjunct on any other
    column still has to test every tuple, which is the scan's whole cost,
    so there the index cannot win and the statement scans.
    """
    if not plan.group_positions:
        return "no GROUP BY"
    names = plan.relation.schema.attribute_names
    for (position, _), conjunct in zip(plan.filters, plan.conjuncts):
        if position not in plan.group_positions:
            return (f"WHERE conjunct {conjunct} tests {names[position]}, "
                    "not a GROUP BY column")
    return None


def index_groups(plan: CodePlan) -> tuple[dict[Any, list], "HashIndex"]:
    """A grouped scan's result, read off the maintained GROUP BY index.

    For a plan :func:`index_grouping` admits.  The index is fetched on
    the GROUP BY columns in schema order, so ``GROUP BY a, b`` and
    ``GROUP BY b, a`` share one (and so does a CFD LHS index listed in
    schema order); it stays registered for the relation's lifetime and
    every later write refiles it.  Each filter tests its column's
    component of the bucket keys, and the kept buckets are ordered by
    their smallest tid, which the index keeps current under every write
    (:meth:`~repro.relational.index.HashIndex.smallest_tids`), so ordering
    reads no bucket: live tids ascend, so that is the scan's
    first-occurrence order whatever order the writes left the buckets
    in.  COUNT(*) is a bucket's size and COUNT / COUNT(DISTINCT) read its
    codes in any order; the :data:`~repro.engine.worker.ORDERED_FOLDS`
    fold ``sorted(bucket)``, the scan's tuple order, which keeps the
    float fold order and the first-extremal rank tie of
    :func:`~repro.engine.worker.fold_codes`.

    Returns the groups in the ``sql_scan`` shape — each key a bare code
    for one GROUP BY column and a code tuple in GROUP BY order otherwise,
    mapped to ``[first tid, state, ...]`` — and the index.
    """
    from repro.engine.worker import ORDERED_FOLDS, fold_codes

    relation = plan.relation
    store = relation.columns
    positions = sorted(set(plan.group_positions))
    names = relation.schema.attribute_names
    index = store.index([names[position] for position in positions])
    component = {position: slot for slot, position in enumerate(positions)}
    buckets = list(index.bucket_items())
    for position, allowed in plan.filters:
        slot = component[position]
        buckets = [bucket for bucket in buckets if bucket[0][slot] in allowed]
    # first tids differ between buckets, so the key and set never compare
    smallest = index.smallest_tids()
    ordered = sorted([(smallest[key], key, tids) for key, tids in buckets])
    members = [tids for _, _, tids in ordered]
    in_order: list[list[int]] | None = None
    entries = [[first] for first, _, _ in ordered]
    for spec in plan.agg_specs:
        kind = spec[0]
        if kind == "count_star":
            states: list[Any] = list(map(len, members))
        else:
            column = store.column_at(spec[1])
            if kind in ORDERED_FOLDS and in_order is None:
                in_order = [sorted(tids) for tids in members]
            groups = in_order if kind in ORDERED_FOLDS else members
            codes = column.codes
            states = fold_codes(kind, [list(map(codes.__getitem__, tids)) for tids in groups],
                                column.order().ranks if kind in ("min", "max") else None)
        for entry, state in zip(entries, states):
            entry.append(state)
    # itemgetter of one slot returns the bare code, of several a tuple
    regroup = itemgetter(*[component[position] for position in plan.group_positions])
    return {regroup(key): entry for (_, key, _), entry in zip(ordered, entries)}, index


def group_component(plan: "CodePlan | JoinPlan | MultiJoinPlan",
                    ref: ColumnRef) -> int | None:
    """The GROUP BY key *ref* reads under *plan*'s name resolution, or ``None``.

    Every member of a group carries that key's code, so such a reference
    decodes from the group key.  Any other reference (another column, an
    unknown name) resolves against the group's representative, which
    answers it, or raises, as it always has.
    """
    if isinstance(plan, CodePlan):
        resolved: Any = _resolved_position(ref, plan.table, True, plan.relation)
        keys: tuple = plan.group_positions
    else:
        resolved = _join_position(ref, tuple(zip(plan.tables, plan.relations)))
        keys = plan.group_keys
    return keys.index(resolved) if resolved in keys else None


def group_values(plan: "CodePlan | JoinPlan | MultiJoinPlan") -> list[list[Any]]:
    """Per GROUP BY key, the dictionary its codes decode through."""
    if isinstance(plan, CodePlan):
        store = plan.relation.columns
        return [store.column_at(position).values for position in plan.group_positions]
    return [plan.relations[side].columns.column_at(position).values
            for side, position in plan.group_keys]


def side_filters(plan: "JoinPlan | MultiJoinPlan",
                 side: int) -> list[tuple[list[int], set[int]]]:
    """One side's push-down filters as ``(code array, allowed codes)`` tests."""
    store = plan.relations[side].columns
    return [(store.column_at(position).codes, allowed)
            for position, allowed in plan.filters[side]]


def build_join_buckets(plan: JoinPlan, build_side: int) -> dict[Any, list[int]]:
    """The build side's code-keyed hash buckets, in scan order.

    Push-down filters of the build side apply here — before the buckets
    exist, so filtered-out tuples are never probed.  NULL join keys never
    match (SQL semantics, mirrored from the row planner's hash join), so
    tuples carrying one are skipped.  Keys are a bare code for one join
    pair and a code tuple otherwise; each bucket's tids are ascending
    (scan order), which is what keeps the probe output left-major.
    """
    relation = plan.relations[build_side]
    store = relation.columns
    key_arrays = [store.column_at(pair[build_side]).codes for pair in plan.key_pairs]
    single = len(key_arrays) == 1
    buckets: dict[Any, list[int]] = {}
    for tid in passing(relation.tids(), side_filters(plan, build_side)):
        if single:
            key: Any = key_arrays[0][tid]
            if key == NULL_CODE:
                continue
        else:
            key_codes = [codes[tid] for codes in key_arrays]
            if NULL_CODE in key_codes:
                continue
            key = tuple(key_codes)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [tid]
        else:
            bucket.append(tid)
    return buckets


def join_query_payload(plan: JoinPlan, probe_side: int,
                       buckets: dict[Any, list[int]]) -> dict[str, Any]:
    """The picklable per-query half of the ``join_probe`` worker contract.

    The broadcast state carries both relations' code arrays (shipped once
    per version pair); everything query-specific — probe-side filters, the
    probe→build bridge translations, the build-side buckets, group keys
    and aggregate specs — rides in each task payload.  The translations
    are the live arrays of value-mode
    :class:`~repro.relational.columns.DictionaryBridge`\\ s, revalidated
    here on every query, so a dictionary grown on *either* side since the
    last join is re-bridged before any probe runs.
    """
    build_side = 1 - probe_side
    probe_store = plan.relations[probe_side].columns
    build_store = plan.relations[build_side].columns
    keys = []
    for pair in plan.key_pairs:
        probe_column = probe_store.column_at(pair[probe_side])
        build_column = build_store.column_at(pair[build_side])
        keys.append((pair[probe_side],
                     probe_column.bridge_to(build_column).translation))
    aggs: list[tuple] = []
    for spec in plan.agg_specs:
        if spec[0] in ("min", "max"):
            ranks = plan.relations[spec[1]].columns.column_at(spec[2]).order().ranks
            aggs.append((spec[0], spec[1], spec[2], ranks))
        else:
            aggs.append(spec)
    return {
        "probe_side": probe_side,
        "filters": plan.filters[probe_side],
        "keys": keys,
        "buckets": buckets,
        "group": plan.group_keys if plan.grouped else None,
        "aggs": aggs,
    }


def finalize_join_aggregate(spec: tuple, state: Any, relations: tuple) -> Any:
    """Finalize one merged join-aggregate state (specs carry the side)."""
    if spec[0] == "count_star":
        return state
    return finalize_aggregate((spec[0], spec[2]) + tuple(spec[3:]), state,
                              relations[spec[1]])


# -- multiway (3+ table) join plan compilation --------------------------------
#
# Statements joining three or more tables compile to a worst-case-optimal
# (generic/leapfrog) join instead of a cascade of binary hash joins: the
# equi-join graph is resolved into *join variables* (connected components
# of equated columns), every member column is translated into the
# variable's representative dictionary via (possibly composed) bridges,
# and evaluation binds one variable at a time — sorted-intersecting the
# codes present in each participating table, then descending per
# candidate.  The variable order is chosen greedily by estimated
# selectivity (smallest distinct count first) and tightened by functional
# dependencies: a variable functionally determined by already-bound
# attributes binds (nearly) for free, so it is pulled forward, following
# "Computing Join Queries with Functional Dependencies" (Abo Khamis, Ngo
# & Suciu).


class MultiJoinPlan:
    """A compiled code-native plan for an N-table (3+) INNER JOIN SELECT.

    Every resolved column is a ``(side, position)`` pair with ``side`` the
    table's FROM-order index; the row path's name-resolution rules are
    baked in at compile time exactly as in :class:`JoinPlan`.  ``var_order``
    is the chosen variable order: per level the member columns (ascending
    ``(side, position)``, the first member owning the representative
    dictionary), whether the variable is FD-implied by earlier levels, and
    the selectivity estimate that drove the greedy choice.
    """

    __slots__ = ("relations", "tables", "var_order", "filters", "grouped",
                 "group_keys", "agg_calls", "agg_specs", "items", "names",
                 "having", "order_ranks")

    def __init__(self, relations: tuple, tables: tuple) -> None:
        self.relations = relations
        self.tables = tables
        #: ordered join variables: (members, fd_implied, distinct estimate).
        self.var_order: list[tuple[tuple[tuple[int, int], ...], bool, int]] = []
        #: per-side WHERE push-down: ``(position, allowed codes)`` lists.
        self.filters: tuple[list, ...] = ()
        self.grouped = False
        self.group_keys: tuple[tuple[int, int], ...] = ()
        self.agg_calls: list[AggregateCall] = []
        self.agg_specs: list[tuple] = []
        #: output layout: ("col", side, position) | ("agg", i) | ("expr", e).
        self.items: list[tuple] = []
        self.names: list[str] = []
        self.having: Expression | None = None
        #: plain ORDER BY as (side, position, descending) rank sorts, or None.
        self.order_ranks: list[tuple[int, int, bool]] | None = None


def _as_multi_equi(conjunct: Expression,
                   sides: tuple) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The two ``(side, position)`` ends of a cross-table equi conjunct.

    Same shape rule as :func:`_as_join_key` (a ``=`` between two qualified
    column references on distinct tables), generalised to N sides.
    """
    if not isinstance(conjunct, Comparison) or conjunct.operator != "=":
        return None
    left, right = conjunct.left, conjunct.right
    if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
        return None
    if left.qualifier is None or right.qualifier is None:
        return None
    a = _join_position(left, sides)
    b = _join_position(right, sides)
    if a is None or b is None or a[0] == b[0]:
        return None
    return a, b


def _join_variables(edges: list[tuple[tuple[int, int], tuple[int, int]]]
                    ) -> list[tuple[tuple[int, int], ...]]:
    """Connected components of equated columns, each a sorted member tuple.

    Transitivity is deliberate: ``a.x = b.y AND b.y = c.z`` makes one
    variable over three columns — and ``a.x = b.y AND b.y = a.w`` folds
    two columns of one table into the same variable, which the evaluation
    honours by requiring every member of a table to agree on the code.
    """
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(node: tuple[int, int]) -> tuple[int, int]:
        root = node
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for a, b in edges:
        parent[find(a)] = find(b)
    components: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for node in parent:
        components.setdefault(find(node), []).append(node)
    return sorted(tuple(sorted(members)) for members in components.values())


def _ordered_variables(variables: list[tuple[tuple[int, int], ...]],
                       relations: tuple, fds: list | None
                       ) -> list[tuple[tuple[tuple[int, int], ...], bool, int]]:
    """Greedy variable order: FD-implied first, then smallest distinct count.

    The estimate of a variable is the smallest live distinct count among
    its member columns (the intersection can only be smaller).  A variable
    with a member inside the Armstrong closure of the attributes its table
    has already bound is functionally determined — at most one candidate
    survives per partial assignment — so it orders ahead of everything
    that still branches.  Ties keep the discovery order, which is
    deterministic (variables arrive sorted by member positions).
    """
    from repro.constraints.fd import closure

    side_fds: list[list] = [[] for _ in relations]
    for fd in fds or ():
        name = fd.relation_name.lower()
        for side, relation in enumerate(relations):
            if relation.name.lower() == name:
                side_fds[side].append(fd)

    def attribute(side: int, position: int) -> str:
        return relations[side].schema.attributes[position].name.lower()

    estimates = [min(relations[side].columns.column_at(position).distinct_count()
                     for side, position in members)
                 for members in variables]
    bound: list[set[str]] = [set() for _ in relations]
    remaining = list(range(len(variables)))
    ordered: list[tuple[tuple[tuple[int, int], ...], bool, int]] = []
    while remaining:
        best_key: tuple | None = None
        best_index = -1
        best_implied = False
        for index in remaining:
            implied = any(
                bound[side] and side_fds[side]
                and attribute(side, position) in closure(bound[side],
                                                         side_fds[side])
                for side, position in variables[index])
            key = (0 if implied else 1, estimates[index], index)
            if best_key is None or key < best_key:
                best_key, best_index, best_implied = key, index, implied
        ordered.append((variables[best_index], best_implied,
                        estimates[best_index]))
        remaining.remove(best_index)
        for side, position in variables[best_index]:
            bound[side].add(attribute(side, position))
    return ordered


def compile_multi_join_plan(database: "Database", statement: SelectStatement,
                            reasons: list[str] | None = None,
                            fds: list | None = None) -> MultiJoinPlan | None:
    """Compile a 3+-table INNER JOIN to a :class:`MultiJoinPlan`, or ``None``.

    Requirements generalise :func:`compile_join_plan`: three or more
    tables with pairwise-distinct binding names, inner joins only, every
    conjunct either a both-qualified cross-table equi key or a single-side
    code-set filter, and the equi-join graph connecting *all* tables (a
    disconnected graph means a cross product, which stays on the row
    path).  When *reasons* is a list, every fallback appends an
    explanation for ``EXPLAIN``.
    """
    tables = list(statement.tables) + [join.table for join in statement.joins]
    if len(tables) < 3:
        return _note(reasons, "query reads fewer than three tables")
    bindings = [table.binding_name.lower() for table in tables]
    if len(set(bindings)) != len(bindings):
        return _note(reasons, "tables share a binding name")
    try:
        relations = tuple(database.relation(table.relation_name) for table in tables)
    except ReproError:
        # unknown relation: the row path raises the canonical error
        return _note(reasons, "unknown relation in FROM")
    sides = tuple(zip(tables, relations))
    plan = MultiJoinPlan(relations, tuple(tables))
    plan.filters = tuple([] for _ in tables)

    conjuncts = flatten_conjuncts(statement.where)
    for join in statement.joins:
        conjuncts.extend(flatten_conjuncts(join.condition))
    edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for conjunct in conjuncts:
        edge = _as_multi_equi(conjunct, sides)
        if edge is not None:
            edges.append(edge)
            continue
        compiled = _compile_join_filter(conjunct, sides)
        if compiled is None:
            return _note(reasons,
                         f"conjunct {conjunct} is neither an equi key "
                         "nor a single-side code-set test")
        side, position, codes = compiled
        plan.filters[side].append((position, codes))
    if not edges:
        return _note(reasons, "no equi-join key between the tables")

    variables = _join_variables(edges)
    linked: dict[int, int] = {}

    def find_table(table_index: int) -> int:
        root = table_index
        while linked.setdefault(root, root) != root:
            root = linked[root]
        return root

    for members in variables:
        first = find_table(members[0][0])
        for side, _ in members[1:]:
            linked[find_table(side)] = first
    if len({find_table(side) for side in range(len(tables))}) != 1:
        return _note(reasons,
                     "equi keys do not connect all tables (cross product)")
    plan.var_order = _ordered_variables(variables, relations, fds)

    try:
        items = expanded_items(database, statement)
    except SQLExecutionError:
        # e.g. a bad 'alias.*': the row path raises identically
        return _note(reasons, "select items do not expand cleanly")
    plan.names = [name for name, _ in items]

    if statement.has_aggregates():
        plan.grouped = True
        keys: list[tuple[int, int]] = []
        for expression in statement.group_by:
            if not isinstance(expression, ColumnRef):
                return _note(reasons, "GROUP BY on an expression")
            resolved = _join_position(expression, sides)
            if resolved is None:
                return _note(reasons,
                             f"GROUP BY column {expression} does not resolve")
            keys.append(resolved)
        plan.group_keys = tuple(keys)

        registry: dict[AggregateCall, int] = {}
        for _, expression in items:
            if isinstance(expression, AggregateCall):
                index = _register_multi_aggregate(plan, registry, expression, sides)
                if index is None:
                    return _note(reasons,
                                 f"aggregate {expression} has no code-level spec")
                plan.items.append(("agg", index))
            else:
                for call in collect_aggregates(expression):
                    if _register_multi_aggregate(plan, registry, call, sides) is None:
                        return _note(reasons,
                                     f"aggregate {call} has no code-level spec")
                plan.items.append(("expr", expression))
        plan.having = statement.having
        for call in collect_aggregates(statement.having):
            if _register_multi_aggregate(plan, registry, call, sides) is None:
                return _note(reasons,
                             f"HAVING aggregate {call} has no code-level spec")
        return plan

    for _, expression in items:
        resolved = _join_position(expression, sides) \
            if isinstance(expression, ColumnRef) else None
        if resolved is None:
            return _note(reasons, f"select item {expression} is computed")
        plan.items.append(("col",) + resolved)
    plan.order_ranks = _join_order_ranks(plan, statement)
    return plan


def _register_multi_aggregate(plan: MultiJoinPlan,
                              registry: dict[AggregateCall, int],
                              call: AggregateCall, sides: tuple) -> int | None:
    index = registry.get(call)
    if index is not None:
        return index
    spec = _join_aggregate_spec(call, sides)  # side-tagged, N-side safe
    if spec is None:
        return None
    index = len(plan.agg_calls)
    registry[call] = index
    plan.agg_calls.append(call)
    plan.agg_specs.append(spec)
    return index


def multiway_base_tids(plan: MultiJoinPlan) -> list[list[int]]:
    """Per-table live tids surviving that table's push-down filters."""
    return [passing(relation.tids(), side_filters(plan, side))
            for side, relation in enumerate(plan.relations)]


def multiway_query_payload(plan: MultiJoinPlan
                           ) -> tuple[dict[str, Any], list[int]]:
    """The picklable ``multiway_probe`` query and the first-level candidates.

    Per level the payload carries, for each participating table, the
    member ``(position, translation)`` pairs that map that column's codes
    into the variable's representative dictionary.  The representative is
    the first member; later members bridge to the *previous* member's
    column and compose onward
    (:meth:`~repro.relational.columns.DictionaryBridge.compose`), so every
    hop is revalidated against its dictionaries' size stamps on
    every query.  Chaining through intermediate dictionaries is join-safe:
    a value an intermediate member never saw has no live tuple there, so
    the intersection would drop it regardless.

    A member whose column *is* the representative column (a self-join)
    needs no translation.

    The first variable's groups are built here (parent side) so their
    code intersection — the sorted candidate list the engine chunks — is
    computed once, not per worker.  The participant with the fewest base
    tids seeds it: every later one first keeps only the tids whose code
    the participants before it all hold, one code-set membership pass
    (:func:`passing`), which leaves the candidates and their tid groups
    as they were.  The last participant's codes are then the
    intersection.
    """
    from repro.engine.worker import multiway_group

    stores = [relation.columns for relation in plan.relations]
    arrays = [store.code_arrays(range(relation.schema.arity))
              for store, relation in zip(stores, plan.relations)]
    levels: list[list[tuple[int, list[tuple[int, Any]]]]] = []
    for members, _, _ in plan.var_order:
        representative = stores[members[0][0]].column_at(members[0][1])
        chain = None  # translation of the previous member into the rep space
        previous_column = representative
        translations: list[Any] = []
        for side, position in members:
            column = stores[side].column_at(position)
            if column is representative:
                chain = None
                translations.append(None)
            else:
                hop = column.bridge_to(previous_column)
                chain = hop if chain is None else hop.compose(chain)
                translations.append(chain.translation)
            previous_column = column
        per_side: dict[int, list[tuple[int, Any]]] = {}
        for (side, position), translation in zip(members, translations):
            per_side.setdefault(side, []).append((position, translation))
        levels.append(sorted(per_side.items()))

    base = multiway_base_tids(plan)
    level_one: dict[int, dict[int, list[int]]] = {}
    present: Any = None  # the codes every participant grouped so far holds
    for side, member_list in sorted(levels[0], key=lambda item: len(base[item[0]])):
        tids = base[side]
        if present is not None:
            position, translation = member_list[0]
            allowed = present if translation is None else \
                {code for code, partner in enumerate(translation) if partner in present}
            tids = passing(tids, [(arrays[side][position], allowed)])
        groups = multiway_group(arrays[side], tids, member_list)
        level_one[side] = groups
        present = groups.keys()
    query = {
        "levels": levels,
        "base": [None if side in level_one else tids
                 for side, tids in enumerate(base)],
        "level_one": level_one,
    }
    return query, sorted(present)


def multiway_fold_payload(plan: MultiJoinPlan) -> dict[str, Any]:
    """The picklable ``multiway_fold`` query: group keys + side-tagged specs."""
    aggs: list[tuple] = []
    for spec in plan.agg_specs:
        if spec[0] in ("min", "max"):
            ranks = plan.relations[spec[1]].columns.column_at(spec[2]).order().ranks
            aggs.append((spec[0], spec[1], spec[2], ranks))
        else:
            aggs.append(spec)
    return {"group": plan.group_keys, "aggs": aggs}


# -- factorised (semiring) aggregate plans ------------------------------------
#
# A grouped join does not need the tuple product: COUNT / SUM / MIN / MAX
# are semiring folds, so per-table partial aggregates per join-variable
# binding combine by multiplication instead of enumeration (the FAQ
# decomposition over the FDB-style factorised representation the
# tid-group lists already are).  For the two-table hash join, build-side
# partials fold into the buckets before any probe runs; for the multiway
# join, the worker folds each fully bound per-table block without
# expanding the cartesian product.  Results are byte-identical to the
# enumerated path:
#
# * COUNT(*) multiplies block sizes; COUNT(col) scales the per-block
#   non-NULL count by the co-block multiplicity (an exact integer).
# * COUNT(DISTINCT col) and DISTINCT SUM/AVG keep code *sets* —
#   multiplicity-free, so the product never matters.
# * MIN / MAX compare dense dictionary-order ranks; repetition cannot
#   change the best rank, and distinct codes have distinct ranks, so the
#   winning code is order-independent.
# * SUM / AVG fold as an exact (total, count) pair — but only over
#   INTEGER / BOOLEAN columns, where addition is associative bit for bit.
#   FLOAT arguments stay on the enumerated path (recorded as a why-not
#   reason): the factorised product cannot replay the row path's fold
#   order, and float addition is not associative.
# * The group representative (HAVING / expression items evaluate against
#   it) is the enumerated path's first tuple: for the hash join the
#   probe-order first (left tid, block first tid) pair, for the multiway
#   join the per-side minima merged by lexicographic min, with groups
#   re-sorted by representative to restore the ascending first-occurrence
#   order of the sorted enumeration.

#: module switch forcing the enumerated plans (the factorised parity
#: suite checks both against the oracle; E18 times one against the other).
FACTORISE = True

#: column types whose SUM/AVG folds are exact (order-free) integers.
_EXACT_FOLD_TYPES = (AttributeType.INTEGER, AttributeType.BOOLEAN)


def factorise_plan(plan: "JoinPlan | MultiJoinPlan", reasons: list[str] | None = None
                   ) -> "JoinPlan | MultiJoinPlan | None":
    """*plan* when it runs by semiring folds, or ``None`` to enumerate.

    A plan factorises when it is grouped (plain scans must enumerate
    their output tuples) and every aggregate is semiring-foldable —
    which leaves exactly one gate: SUM / AVG over a non-integer column,
    whose float fold order only the enumerated path can preserve.  When
    *reasons* is a list, every fallback appends an explanation for
    ``EXPLAIN``'s ``why_not_factorised`` block.
    """
    if not FACTORISE:
        return _note(reasons, "factorised aggregates are disabled")
    if not plan.grouped:
        return _note(reasons,
                     "statement has no aggregates (plain scans enumerate tuples)")
    for call, spec in zip(plan.agg_calls, plan.agg_specs):
        if spec[0] in ("sum", "avg"):
            attribute = plan.relations[spec[1]].schema.attributes[spec[2]]
            if attribute.type not in _EXACT_FOLD_TYPES:
                return _note(
                    reasons,
                    f"aggregate {call} folds {attribute.type.value} values, "
                    "whose fold order the factorised product cannot preserve")
    return plan


def factorised_aggregates(plan: "JoinPlan | MultiJoinPlan") -> list[tuple]:
    """The side-tagged semiring specs of the ``factorised_fold`` worker.

    * ``("count_star",)``
    * ``("count" | "count_distinct", side, position)``
    * ``("min" | "max", side, position, ranks)`` — dense dictionary ranks;
    * ``("sum" | "avg", side, position, distinct, values)`` — the decoded
      value list rides along for the exact ``[total, count]`` fold
      (``None`` when DISTINCT: the code set decodes at finalize).
    """
    aggs: list[tuple] = []
    for spec in plan.agg_specs:
        kind = spec[0]
        if kind in ("min", "max"):
            ranks = plan.relations[spec[1]].columns.column_at(spec[2]).order().ranks
            aggs.append((kind, spec[1], spec[2], ranks))
        elif kind in ("sum", "avg"):
            values = None if spec[3] else \
                plan.relations[spec[1]].columns.column_at(spec[2]).values
            aggs.append((kind, spec[1], spec[2], spec[3], values))
        else:  # count_star | count | count_distinct ride unchanged
            aggs.append(spec)
    return aggs


def build_factorised_buckets(plan: "JoinPlan",
                             aggs: list[tuple]) -> dict[Any, list[list]]:
    """Build-side hash buckets with per-block partial aggregates folded in.

    Same keying as :func:`build_join_buckets` (side 1 builds, push-down
    filters apply first, NULL join keys never match, bare code for one
    key pair), but instead of raw tid lists each bucket holds *blocks* —
    one per distinct build-side group-key projection, in first-occurrence
    (scan) order: ``[part codes, first tid, size, partials]`` with one
    pre-folded partial per spec (``None`` for probe-side specs).  Every
    probe hit then combines a whole block in O(specs), never O(size).
    """
    relation = plan.relations[1]
    store = relation.columns
    tids = passing(relation.tids(), side_filters(plan, 1))
    key_streams = [map(store.column_at(pair[1]).codes.__getitem__, tids)
                   for pair in plan.key_pairs]
    single = len(key_streams) == 1
    keys: Any = key_streams[0] if single else zip(*key_streams)
    part_arrays = [store.column_at(position).codes
                   for side, position in plan.group_keys if side == 1]
    parts: Any = zip(*[map(codes.__getitem__, tids) for codes in part_arrays]) \
        if part_arrays else repeat(())
    # build-side fold steps: (spec slot, op, codes, ranks-or-values)
    steps: list[tuple[int, int, Any, Any]] = []
    for index, spec in enumerate(aggs):
        kind = spec[0]
        if kind == "count_star" or spec[1] != 1:
            continue
        codes = store.column_at(spec[2]).codes
        if kind == "count":
            steps.append((index, 0, codes, None))
        elif kind == "count_distinct" or (kind in ("sum", "avg") and spec[3]):
            steps.append((index, 1, codes, None))
        elif kind in ("sum", "avg"):
            steps.append((index, 2, codes, spec[4]))
        else:  # min | max
            steps.append((index, 3 if kind == "min" else 4, codes, spec[3]))
    buckets: dict[Any, dict[Any, list]] = {}
    for key, part, tid in zip(keys, parts, tids):
        blocks = buckets.get(key)
        if blocks is None:
            blocks = buckets[key] = {}
        block = blocks.get(part)
        if block is None:
            partials: list[Any] = [None] * len(aggs)
            for index, op, _, _ in steps:
                partials[index] = 0 if op == 0 else set() if op == 1 \
                    else [0, 0] if op == 2 else None
            block = blocks[part] = [part, tid, 0, partials]
        block[2] += 1
        partials = block[3]
        for index, op, codes, aux in steps:
            code = codes[tid]
            if code == NULL_CODE:
                continue
            if op == 0:
                partials[index] += 1
            elif op == 1:
                partials[index].add(code)
            elif op == 2:
                pair_state = partials[index]
                pair_state[0] += aux[code]
                pair_state[1] += 1
            else:
                rank = aux[code]
                best = partials[index]
                if best is None or (rank < best[0] if op == 3 else rank > best[0]):
                    partials[index] = (rank, code)
    # NULL join keys never match
    return {key: list(blocks.values()) for key, blocks in buckets.items()
            if not (key == NULL_CODE if single else NULL_CODE in key)}


def factorised_join_payload(plan: "JoinPlan", aggs: list[tuple],
                            buckets: dict[Any, list[list]]) -> dict[str, Any]:
    """The picklable ``factorised_fold`` query of a two-table hash join.

    Factorised probes always walk the left side (group first-occurrence
    order is left-major, like enumerated grouped probes); bridges are
    revalidated per query exactly as in :func:`join_query_payload`.
    """
    probe_store = plan.relations[0].columns
    build_store = plan.relations[1].columns
    keys = []
    for pair in plan.key_pairs:
        probe_column = probe_store.column_at(pair[0])
        build_column = build_store.column_at(pair[1])
        keys.append((pair[0], probe_column.bridge_to(build_column).translation))
    return {
        "kind": "join",
        "probe_side": 0,
        "filters": plan.filters[0],
        "keys": keys,
        "buckets": buckets,
        "group": plan.group_keys,
        "aggs": aggs,
    }


def factorised_multi_payload(plan: "MultiJoinPlan"
                             ) -> tuple[dict[str, Any], list[int]]:
    """The picklable ``factorised_fold`` query of a multiway join.

    The probe shape (levels, base tids, first-variable groups) is shared
    verbatim with :func:`multiway_query_payload`; the factorised worker
    descends identically and folds each fully bound block instead of
    emitting its cartesian product.
    """
    query, candidates = multiway_query_payload(plan)
    query = dict(query)
    query["kind"] = "multi"
    query["group"] = plan.group_keys
    query["aggs"] = factorised_aggregates(plan)
    return query, candidates


def empty_factorised_state(spec: tuple) -> Any:
    """The factorised partial state of a group no tuple reached."""
    from repro.engine.worker import initial_factorised_state

    return initial_factorised_state(spec)


def finalize_factorised(spec: tuple, state: Any, relations: tuple) -> Any:
    """Turn one merged factorised partial into the SQL result value.

    Mirrors :func:`finalize_join_aggregate` value for value: counts are
    ints, DISTINCT states are code sets (decoded here; integer sums are
    order-free, so set order never shows), SUM/AVG finalize the exact
    ``[total, count]`` pair (``count == 0`` — an empty or all-NULL group —
    is NULL, and ``total / count`` divides the same two ints the
    enumerated fold produces), MIN/MAX decode the best rank's code.
    """
    kind = spec[0]
    if kind in ("count_star", "count"):
        return state
    if kind == "count_distinct":
        return len(state)
    if kind in ("sum", "avg"):
        if spec[3]:  # DISTINCT: the code set decodes to exact integers
            if not state:
                return NULL
            values = relations[spec[1]].columns.column_at(spec[2]).values
            total = sum(values[code] for code in state)
            return total if kind == "sum" else total / len(state)
        total, count = state
        if not count:
            return NULL
        return total if kind == "sum" else total / count
    if state is None:  # min | max over an empty / all-NULL group
        return NULL
    return relations[spec[1]].columns.column_at(spec[2]).values[state[1]]
