"""The definitions of Fan et al., restated literally over plain dict rows.

Every function here reads relations only through their rows and schema,
constraints only through their fields and pattern cells, and NULL only
as the :data:`~repro.relational.types.NULL` marker.  It deliberately
shares no helper with the engine — not ``PatternTuple.matches``,
``constants_equal`` or ``is_null``, not ``HashIndex``, nothing from
``repro.discovery.partitions``, ``repro.detection.columnar`` or
``repro.matching``, no detector, and of a repair's cost model only its
weights — so a bug in shared engine code cannot make an implementation
agree with its own reference.  SQL is parsed with the engine's parser,
but :func:`select` reads only the fields of the statement and expression
nodes: it evaluates, groups, aggregates and orders by itself, with no
executor, code plan or expression ``evaluate``.
``test_oracle_imports.py`` enforces all of that.

Everything favours clarity over speed: the hypothesis suites run it on
relations of at most ten tuples, the seed-dataset suites on a few
hundred.

Conventions: attribute names are lower-cased; violations are the
``(constraint, pattern, tids)`` / ``(cind, tid)`` fingerprints the
suites compare against engine reports, returned as lists so duplicate
patterns keep their multiplicity.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.constraints.tableau import UNDERSCORE
from repro.relational.expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from repro.relational.sql.ast import AggregateCall, SelectStatement
from repro.relational.sql.parser import AggregateExpr, parse_sql
from repro.relational.types import NULL, AttributeType

Row = dict[str, Any]


# -- rows and patterns ---------------------------------------------------------


def rows(relation) -> dict[int, Row]:
    """``tid → {attribute: value}`` for every live tuple."""
    return {row.tid: {name.lower(): value for name, value in row.as_dict().items()}
            for row in relation}


def cell_matches(value: Any, cell: Any) -> bool:
    """``v ≍ c``: ``_`` matches anything, NULL included; a constant *c*
    matches a non-NULL *v* iff ``v == c`` or their string forms agree."""
    if cell is UNDERSCORE:
        return True
    if value is NULL:
        return False
    return value == cell or str(value) == str(cell)


def pattern_cells(pattern) -> dict[str, Any]:
    """The pattern's ``attribute → cell`` map (unmentioned attributes are ``_``)."""
    return {attribute.lower(): cell for attribute, cell in pattern}


def matches(row: Row, cells: Mapping[str, Any], attributes: Iterable[str]) -> bool:
    """``t[A] ≍ tp[A]`` for every attribute in *attributes*."""
    return all(cell_matches(row[a], cells.get(a, UNDERSCORE)) for a in attributes)


def groups(data: Mapping[int, Row], tids: Iterable[int],
           attributes: Sequence[str]) -> list[list[int]]:
    """*tids* grouped on equal values of *attributes*, first-occurrence order.

    Values are equal under Python ``==``; the NULL marker equals itself
    and differs from every value.
    """
    found: dict[tuple, list[int]] = {}
    for tid in tids:
        found.setdefault(tuple(data[tid][a] for a in attributes), []).append(tid)
    return list(found.values())


# -- consistent query answering ------------------------------------------------


def certain_answers(relation, key: Sequence[str], project: Sequence[str],
                    equalities: Mapping[str, Any]) -> set[tuple]:
    """The certain answers of ``π_project(σ_equalities(R))`` under the key *key*.

    A repair keeps every row whose key holds NULL, and from each group of
    rows with equal key values one of the group's distinct rows.  A row
    is selected when, for every equality ``a = c``, its value is non-NULL
    and ``str(v) == str(c)``.  The certain answers are the intersection,
    over every repair, of the projections of its selected rows.
    """
    data = rows(relation)
    key = [a.lower() for a in key]
    project = [a.lower() for a in project]
    equalities = {a.lower(): c for a, c in equalities.items()}

    def answers(kept: Iterable[Row]) -> set[tuple]:
        return {tuple(row[a] for a in project) for row in kept
                if all(row[a] is not NULL and str(row[a]) == str(c)
                       for a, c in equalities.items())}

    always = [row for row in data.values() if any(row[a] is NULL for a in key)]
    keyed = [tid for tid, row in data.items() if all(row[a] is not NULL for a in key)]
    choices = []
    for group in groups(data, keyed, key):
        distinct: list[Row] = []
        for tid in group:
            if data[tid] not in distinct:
                distinct.append(data[tid])
        choices.append(distinct)
    # product() of no choices is one empty pick: there is always a repair
    return set.intersection(*(answers(always + list(picked))
                              for picked in product(*choices)))


# -- CFD and CIND violations ---------------------------------------------------


def cfd_violations(relation, cfds) -> list[tuple]:
    """All violations of *cfds* on *relation* as ``(cfd, pattern, tids)``.

    * single-tuple: ``t ≍ tp[X]`` and ``t`` fails ``tp`` on a constant
      RHS attribute;
    * group: the tuples matching ``tp[X]`` with one NULL-free ``X`` value,
      when at least two of them exist and they carry at least two
      distinct wildcard-RHS projections.
    """
    data = rows(relation)
    found: list[tuple] = []
    for cfd in cfds:
        lhs = [a.lower() for a in cfd.lhs]
        rhs = [a.lower() for a in cfd.rhs]
        for pattern in cfd.tableau:
            cells = pattern_cells(pattern)
            constant_rhs = [a for a in rhs if cells.get(a, UNDERSCORE) is not UNDERSCORE]
            wildcard_rhs = [a for a in rhs if a not in constant_rhs]
            in_scope = [tid for tid, row in data.items() if matches(row, cells, lhs)]
            if constant_rhs:
                found.extend((cfd, pattern, (tid,)) for tid in in_scope
                             if not matches(data[tid], cells, constant_rhs))
            if not wildcard_rhs:
                continue
            for group in groups(data, in_scope, lhs):
                if len(group) < 2 or any(data[group[0]][a] is NULL for a in lhs):
                    continue
                if len(groups(data, group, wildcard_rhs)) > 1:
                    found.append((cfd, pattern, tuple(sorted(group))))
    return found


def cind_violations(database, cinds) -> list[tuple]:
    """All violations of *cinds* as ``(cind, tid)``.

    An LHS tuple matching ``Xp`` violates the CIND when it has a NULL in
    ``X``, or when no RHS tuple matching ``Yp`` carries, on ``Y``, the
    non-NULL values whose string forms equal its ``X`` values.
    """
    found: list[tuple] = []
    for cind in cinds:
        left = rows(database.relation(cind.lhs_relation))
        right = rows(database.relation(cind.rhs_relation))
        condition = pattern_cells(cind.lhs_pattern)
        consequence = pattern_cells(cind.rhs_pattern)
        partners = [row for row in right.values() if matches(row, consequence, consequence)]
        pairs = list(zip(cind.lhs_attributes, cind.rhs_attributes))
        for tid, row in left.items():
            if not matches(row, condition, condition):
                continue
            if any(row[x] is NULL for x, _ in pairs) or not any(
                    all(partner[y] is not NULL and str(partner[y]) == str(row[x])
                        for x, y in pairs)
                    for partner in partners):
                found.append((cind, tid))
    return found


# -- FDs, keys and partitions --------------------------------------------------


def attributes_of(relation) -> list[str]:
    return [name.lower() for name in relation.schema.attribute_names]


def fd_holds(data: Mapping[int, Row], lhs: Sequence[str], rhs: str) -> bool:
    """Every two tuples equal on *lhs* are equal on *rhs* (NULL equals NULL)."""
    return all(len(groups(data, group, [rhs])) == 1
               for group in groups(data, data, lhs))


def fd_violating_pairs(data: Mapping[int, Row], lhs: Sequence[str], rhs: Sequence[str],
                       skip_null_lhs: bool = False) -> set[tuple[int, int]]:
    """Every pair ``(t1, t2)``, ``t1 < t2``, equal on *lhs* and unequal on some
    *rhs* attribute (NULL equals NULL); *skip_null_lhs* leaves out pairs
    whose *lhs* values hold a NULL."""
    tids = sorted(data)
    return {(t1, t2) for i, t1 in enumerate(tids) for t2 in tids[i + 1:]
            if all(data[t1][a] == data[t2][a] for a in lhs)
            and not (skip_null_lhs and any(data[t1][a] is NULL for a in lhs))
            and any(data[t1][a] != data[t2][a] for a in rhs)}


def _proper_subsets(attributes: Sequence[str]) -> Iterable[tuple[str, ...]]:
    for size in range(1, len(attributes)):
        yield from combinations(attributes, size)


def minimal_fds(relation, max_lhs_size: int,
                approximate_error: float = 0.0) -> set[tuple[tuple[str, ...], str]]:
    """``(sorted X, A)`` for every FD ``X → A`` with ``1 ≤ |X| ≤ max_lhs_size``
    (and ``|X|`` below the arity) that holds while no proper non-empty
    subset of ``X`` determines ``A``.  An empty relation reports none.

    With *approximate_error* above 0, ``X → A`` "holds" when adding ``A``
    to ``X`` raises the number of distinct value combinations by at most
    that fraction of the tuples (``e(X) − e(X ∪ {A})`` over ``|r|``, with
    ``e(Y)`` the tuple count minus the distinct ``Y`` combinations)."""
    data = rows(relation)
    if not data:
        return set()

    def holds(lhs, rhs):
        if approximate_error == 0.0:
            return fd_holds(data, lhs, rhs)
        lost = len(groups(data, data, [*lhs, rhs])) - len(groups(data, data, lhs))
        return lost / len(data) <= approximate_error

    names = attributes_of(relation)
    found = set()
    for size in range(1, min(max_lhs_size, len(names) - 1) + 1):
        for lhs in combinations(sorted(names), size):
            for rhs in names:
                if rhs in lhs or not holds(lhs, rhs):
                    continue
                if not any(holds(sub, rhs) for sub in _proper_subsets(lhs)):
                    found.add((lhs, rhs))
    return found


def minimal_keys(relation, max_size: int) -> set[tuple[str, ...]]:
    """Minimal attribute sets (below the arity) on which no two tuples agree."""
    data = rows(relation)
    names = attributes_of(relation)

    def is_key(attributes: Sequence[str]) -> bool:
        return all(len(group) == 1 for group in groups(data, data, attributes))

    return {candidate
            for size in range(1, min(max_size, len(names) - 1) + 1)
            for candidate in combinations(sorted(names), size)
            if is_key(candidate)
            and not any(is_key(sub) for sub in _proper_subsets(candidate))}


def stripped_partition(relation, attributes: Sequence[str]) -> list[tuple[int, ...]]:
    """The groups of tids equal on *attributes* with more than one member, sorted."""
    data = rows(relation)
    return sorted(tuple(sorted(group))
                  for group in groups(data, data, [a.lower() for a in attributes])
                  if len(group) > 1)


# -- itemsets and CFD discovery ------------------------------------------------


def transactions(relation) -> dict[int, frozenset[tuple[str, str]]]:
    """Each tuple as its items ``(attribute, str(value))``, NULLs left out."""
    return {tid: frozenset((a, str(v)) for a, v in row.items() if v is not NULL)
            for tid, row in rows(relation).items()}


def support(baskets: Mapping[int, frozenset], items: Iterable) -> int:
    items = frozenset(items)
    return sum(1 for basket in baskets.values() if items <= basket)


def frequent_itemsets(relation, min_support: int, max_size: int) -> dict[frozenset, int]:
    """Every itemset of 1..max_size items on distinct attributes, by counting."""
    baskets = transactions(relation)
    items = sorted(set().union(*baskets.values())) if baskets else []
    found = {}
    for size in range(1, max_size + 1):
        for combo in combinations(items, size):
            if len({attribute for attribute, _ in combo}) < size:
                continue
            count = support(baskets, combo)
            if count >= min_support:
                found[frozenset(combo)] = count
    return found


def is_free(baskets: Mapping[int, frozenset], items: frozenset) -> bool:
    """No proper subset (the empty one included) has the same support."""
    count = support(baskets, items)
    return all(support(baskets, sub) != count
               for size in range(len(items)) for sub in combinations(items, size))


def closure(baskets: Mapping[int, frozenset], items: Iterable) -> frozenset:
    """The items shared by every tuple containing *items* (plus *items*)."""
    items = frozenset(items)
    containing = [basket for basket in baskets.values() if items <= basket]
    if not containing:
        return items
    return frozenset.intersection(*containing) | items


def constant_cfds(relation, min_support: int, max_lhs_size: int) -> set[tuple]:
    """``(sorted X attributes, A, pattern items)`` per free frequent itemset ``X``
    and item ``(A, a)`` in its closure with ``A`` outside ``X``."""
    baskets = transactions(relation)
    found = set()
    for itemset in frequent_itemsets(relation, min_support, max_lhs_size):
        if not is_free(baskets, itemset):
            continue
        lhs = tuple(sorted(attribute for attribute, _ in itemset))
        for attribute, value in closure(baskets, itemset) - itemset:
            if attribute not in lhs:
                found.add((lhs, attribute, itemset | {(attribute, value)}))
    return found


def variable_cfds(relation, min_support: int, max_lhs_size: int) -> set[tuple]:
    """``(sorted X, A, pattern items)`` for every candidate ``X → A``: the
    plain FD (no items) when it holds, else ``X → A`` conditioned on
    ``B = b`` for each ``B ∈ X`` and non-NULL ``b`` carried by at least
    *min_support* tuples, on whose subset the FD holds."""
    data = rows(relation)
    names = attributes_of(relation)
    found = set()
    for size in range(1, max_lhs_size + 1):
        for lhs in combinations(names, size):
            key = tuple(sorted(lhs))
            for rhs in names:
                if rhs in lhs:
                    continue
                if fd_holds(data, lhs, rhs):
                    found.add((key, rhs, frozenset()))
                    continue
                for conditioning in key:
                    for group in groups(data, data, [conditioning]):
                        value = data[group[0]][conditioning]
                        subset = {tid: data[tid] for tid in group}
                        if (value is not NULL and len(group) >= min_support
                                and fd_holds(subset, lhs, rhs)):
                            found.add((key, rhs, frozenset({(conditioning, value)})))
    return found


def discovered_cfd_key(cfd) -> tuple:
    """A discovered (single-pattern, single-RHS) CFD in the oracle's key form."""
    (pattern,) = cfd.tableau
    items = frozenset((a, cell) for a, cell in pattern_cells(pattern).items()
                      if cell is not UNDERSCORE)
    return (tuple(cfd.lhs), cfd.rhs[0], items)


# -- repair postconditions -----------------------------------------------------


FRESH_PREFIX = "__repair_fresh_"


def changed_cells(before: Mapping[int, Row], after: Mapping[int, Row]) -> list[tuple]:
    """``(tid, attribute, old, new)`` for every cell whose string form changed."""
    return [(tid, attribute, old, after[tid][attribute])
            for tid, row in before.items() if tid in after
            for attribute, old in row.items()
            if str(old) != str(after[tid][attribute])]


def assert_repair_postconditions(before: Mapping[int, Row], input_relation,
                                 cfds, result, cost_model, max_passes: int) -> None:
    """What any :class:`~repro.repair.batch_repair.BatchRepair` result must satisfy.

    *before* is :func:`rows` of the input taken before the repair ran.
    """
    assert rows(input_relation) == before, "the input relation was modified"
    after = rows(result.relation)
    assert set(after) == set(before), "the repair added or dropped tuples"
    _assert_changes(before, after, cfds, result, cost_model, allow_fresh=True)
    if result.converged:
        assert cfd_violations(result.relation, cfds) == []
    else:
        assert result.passes == max_passes
    if not cfd_violations(input_relation, cfds):
        assert (result.changes, result.passes, result.converged) == ([], 1, True)


def assert_inc_repair_postconditions(before: Mapping[int, Row], relation, cfds,
                                     delta, result, cost_model) -> None:
    """What an :class:`~repro.repair.inc_repair.IncRepair` result must satisfy on
    a clean base: only delta tuples change, and convergence means clean."""
    after = rows(relation)
    assert set(after) == set(before)
    assert {c.tid for c in result.changes} <= set(delta)
    assert all(after[tid] == row for tid, row in before.items() if tid not in delta)
    _assert_changes(before, after, cfds, result, cost_model, allow_fresh=False)
    if result.converged:
        assert cfd_violations(relation, cfds) == []


def edit_distance(left: str, right: str) -> int:
    """Levenshtein distance: the dynamic program over prefixes of both strings."""
    previous = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            current.append(min(current[j - 1] + 1, previous[j] + 1,
                               previous[j - 1] + (left_char != right_char)))
        previous = current
    return previous[-1]


def change_distance(old, new) -> float:
    """The repair's value distance: edit distance over ``str`` forms divided
    by the longer length; NULL is at 0 from NULL and at 1 from any value."""
    if old is NULL or new is NULL:
        return 0.0 if old is new else 1.0
    left, right = str(old), str(new)
    longest = max(len(left), len(right))
    return edit_distance(left, right) / longest if longest else 0.0


def _assert_changes(before, after, cfds, result, cost_model, allow_fresh: bool) -> None:
    reported = [(c.tid, c.attribute, c.old_value, c.new_value) for c in result.changes]
    assert sorted(map(repr, reported)) == sorted(map(repr, changed_cells(before, after)))
    # priced here, not by the model: only its weights are read
    expected_cost = sum(cost_model.weight(tid, attribute) * change_distance(old, new)
                        for tid, attribute, old, new in reported)
    assert abs(result.cost - expected_cost) <= 1e-9 * max(1.0, expected_cost)
    rhs = {a.lower() for cfd in cfds for a in cfd.rhs}
    last_lhs = {cfd.lhs[-1].lower() for cfd in cfds}
    for _, attribute, _, new in reported:
        assert attribute in rhs or (allow_fresh and attribute in last_lhs
                                    and str(new).startswith(FRESH_PREFIX)), \
            f"repair changed {attribute!r}, which no CFD allows it to"


# -- SQL SELECT ----------------------------------------------------------------
#
# Expressions compile once per statement into closures over an environment
# ``(cells, aggregate)``: ``cells`` is the bound row dicts in FROM order (or
# an output row, for ORDER BY) and ``aggregate`` maps an aggregate call to
# its value over the current group.


def select(database, sql: str) -> tuple[list[str], list[AttributeType], list[tuple]]:
    """``(names, types, rows)`` of one SELECT block over *database*.

    * FROM / JOIN: nested loops over the tables in FROM order, each in
      ascending tid order.  ``alias.col`` is that table's cell; a bare
      ``col`` is the cell of the first table in FROM order that has it.
    * WHERE / ON: the conjunction of their top-level AND operands under
      three-valued logic (:func:`sql_expression`); a combination survives
      iff every conjunct is TRUE.  A conjunct is tested as soon as the
      tables it names are bound, which keeps exactly the combinations,
      in the order, that filtering the whole product would.
    * GROUP BY (or any aggregate, or HAVING): groups in first-occurrence
      order, one group without GROUP BY even over no rows
      (:func:`sql_aggregate`); HAVING and computed items see the group's
      first row.
    * Then DISTINCT keeps first occurrences; ORDER BY is a stable sort
      (:func:`sql_order_key`): the ascending sort reversed when every key
      is DESC, one stable sort per key, last key first, for mixed
      directions; a key names an output column first.  LIMIT truncates.
    * Output: a repeated name gets ``_2``, ``_3``, ... and a column's type
      is that of its first non-NULL value (STRING when there is none).
    """
    statement = parse_sql(sql)
    if not isinstance(statement, SelectStatement):
        raise NotImplementedError("the oracle restates single SELECT blocks")
    tables = list(statement.tables) + [join.table for join in statement.joins]
    data = []
    for table in tables:
        cells = rows(database.relation(table.relation_name))
        data.append([cells[tid] for tid in sorted(cells)])
    bindings = [(table.alias or table.relation_name).lower() for table in tables]
    schemas = [attributes_of(database.relation(table.relation_name)) for table in tables]

    def side_of(ref: ColumnRef) -> int:
        name = ref.name.lower()
        if ref.qualifier is None:
            sides = [side for side, names in enumerate(schemas) if name in names]
            if not sides:
                raise KeyError(ref.name)
            return sides[0]
        side = bindings.index(ref.qualifier.lower())
        if name not in schemas[side]:
            raise KeyError(f"{ref.qualifier}.{ref.name}")
        return side

    def cell(ref: ColumnRef) -> Callable:
        side, name = side_of(ref), ref.name.lower()
        return lambda env: env[0][side][name]

    def compiled(node) -> Callable:
        return sql_expression(node, cell)

    conjuncts = _conjuncts(statement.where)
    for join in statement.joins:
        conjuncts.extend(_conjuncts(join.condition))
    tested_at: list[list[Callable]] = [[] for _ in tables]
    for conjunct in conjuncts:
        sides = [side_of(ref) for ref in _column_refs(conjunct)]
        tested_at[max(sides, default=0)].append(compiled(conjunct))

    combos: list[list[Row]] = [[]]
    for tests, table_rows in zip(tested_at, data):
        extended = []
        for bound in combos:
            for row in table_rows:
                env = (bound + [row], None)
                if all(_true(test(env)) for test in tests):
                    extended.append(env[0])
        combos = extended

    items = _select_items(statement, database, tables, bindings)
    names = [name for name, _ in items]
    calls = [call for _, expression in items for call in _aggregate_calls(expression)]
    if statement.having is not None:
        calls.extend(_aggregate_calls(statement.having))
    values = [compiled(expression) if not isinstance(expression, AggregateCall)
              else (lambda env, call=expression: env[1](call)) for _, expression in items]
    output: list[tuple] = []
    if statement.group_by or calls or statement.having is not None:
        keys = [compiled(expression) for expression in statement.group_by]
        groups: dict[tuple, list[list[Row]]] = {}
        for bound in combos:
            groups.setdefault(tuple(key((bound, None)) for key in keys), []).append(bound)
        if not keys:
            groups = {(): combos}
        arguments = {call: compiled(call.argument) for call in calls
                     if call.argument is not None}
        having = compiled(statement.having) if statement.having is not None else None
        for group in groups.values():
            totals = {call: sql_aggregate(call, [arguments[call]((bound, None))
                                                 for bound in group]
                                          if call.argument is not None else group)
                      for call in calls}
            env = (group[0] if group else None, totals.__getitem__)
            if having is not None and not _true(having(env)):
                continue
            output.append(tuple(value(env) for value in values))
    else:
        output = [tuple(value((bound, None)) for value in values) for bound in combos]

    if statement.distinct:
        seen: set[tuple] = set()
        output = [row for row in output if not (row in seen or seen.add(row))]
    if statement.order_by:
        output = _ordered(output, names, statement.order_by)
    if statement.limit is not None:
        output = output[:statement.limit]

    counts: dict[str, int] = {}
    unique = []
    for name in names:
        counts[name.lower()] = counts.get(name.lower(), 0) + 1
        unique.append(name if counts[name.lower()] == 1 else f"{name}_{counts[name.lower()]}")
    types = [_output_type([row[i] for row in output]) for i in range(len(names))]
    return unique, types, output


def sql_expression(node, cell: Callable[[ColumnRef], Callable]) -> Callable:
    """*node* as a function of an environment, with NULL standing for UNKNOWN.

    *cell* maps a column reference to the function reading its cell.  A
    comparison or arithmetic with NULL is NULL; ``=`` and ``<>`` equate
    numbers by value but never a number and a string; ``<`` and friends
    compare in :func:`sql_order_key`'s order; NOT, AND and OR are
    three-valued; ``x IN (...)`` is TRUE on an equal member, else UNKNOWN
    if a member is NULL, else FALSE; LIKE matches ``%`` and ``_``
    against the value's string form; ``/`` or ``%`` by zero is NULL.
    """
    def sub(child):
        return sql_expression(child, cell)

    if isinstance(node, Literal):
        return lambda env, value=node.value: value
    if isinstance(node, ColumnRef):
        return cell(node)
    if isinstance(node, AggregateExpr):
        return lambda env, call=node.call: env[1](call)
    if isinstance(node, Comparison):
        left, right, operator = sub(node.left), sub(node.right), node.operator
        test = _COMPARE[operator]

        def compare(env):
            a, b = left(env), right(env)
            return NULL if a is NULL or b is NULL else test(a, b)
        return compare
    if isinstance(node, (And, Or)):
        operands = [sub(operand) for operand in node.operands]
        decisive = isinstance(node, Or)  # TRUE decides an OR, FALSE an AND

        def connect(env):
            unknown = False
            for operand in operands:
                value = operand(env)
                if value is NULL:
                    unknown = True
                elif bool(value) == decisive:
                    return decisive
            return NULL if unknown else not decisive
        return connect
    if isinstance(node, Not):
        operand = sub(node.operand)
        return lambda env: NULL if (value := operand(env)) is NULL else not value
    if isinstance(node, IsNull):
        operand, negated = sub(node.operand), node.negated
        return lambda env: (operand(env) is NULL) != negated
    if isinstance(node, InList):
        operand, members, negated = sub(node.operand), [sub(m) for m in node.values], \
            node.negated

        def contains(env):
            value = operand(env)
            if value is NULL:
                return NULL
            found = [member(env) for member in members]
            if any(m is not NULL and _sql_equal(value, m) for m in found):
                return not negated
            return NULL if any(m is NULL for m in found) else negated
        return contains
    if isinstance(node, Like):
        operand, pattern, negated = sub(node.operand), node.pattern, node.negated
        return lambda env: NULL if (value := operand(env)) is NULL \
            else _like(str(value), pattern) != negated
    if isinstance(node, Arithmetic):
        left, right, apply = sub(node.left), sub(node.right), _ARITHMETIC[node.operator]
        dividing = node.operator in ("/", "%")

        def arithmetic(env):
            a, b = left(env), right(env)
            if a is NULL or b is NULL or (dividing and b == 0):
                return NULL
            return apply(a, b)
        return arithmetic
    if isinstance(node, FunctionCall):
        arguments, function = [sub(a) for a in node.arguments], _FUNCTIONS[node.name.lower()]

        def call(env):
            values = [argument(env) for argument in arguments]
            return NULL if any(v is NULL for v in values) else function(*values)
        return call
    raise NotImplementedError(f"the oracle does not restate {type(node).__name__}")


def sql_order_key(value: Any) -> tuple:
    """The total order of ORDER BY, MIN and MAX: NULL, then booleans,
    then numbers by value, then strings."""
    if value is NULL:
        return (0,)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


def sql_aggregate(call: AggregateCall, values: list) -> Any:
    """*call* over one group's argument *values* (its rows, for ``COUNT(*)``).

    ``COUNT(*)`` counts rows.  Otherwise NULLs are skipped and DISTINCT
    keeps first occurrences; COUNT counts what is left, SUM and AVG fold
    it in row order, MIN and MAX keep the first least or greatest value.
    Over no values COUNT is 0 and the others are NULL.
    """
    if call.argument is None:
        return len(values)
    values = [v for v in values if v is not NULL]
    if call.distinct:
        values = [v for i, v in enumerate(values) if v not in values[:i]]
    if call.function == "count":
        return len(values)
    if not values:
        return NULL
    if call.function in ("sum", "avg"):
        total = 0
        for v in values:
            total = total + v
        return total if call.function == "sum" else total / len(values)
    keys = [sql_order_key(v) for v in values]
    return values[keys.index(min(keys) if call.function == "min" else max(keys))]


def _sql_equal(left: Any, right: Any) -> bool:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (left, right))
    return left == right if numbers or type(left) is type(right) else False


_COMPARE = {
    "=": _sql_equal,
    "<>": lambda a, b: not _sql_equal(a, b),
    "!=": lambda a, b: not _sql_equal(a, b),
    "<": lambda a, b: sql_order_key(a) < sql_order_key(b),
    "<=": lambda a, b: sql_order_key(a) <= sql_order_key(b),
    ">": lambda a, b: sql_order_key(a) > sql_order_key(b),
    ">=": lambda a, b: sql_order_key(a) >= sql_order_key(b),
}

_ARITHMETIC = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
    "/": lambda a, b: a / b, "%": lambda a, b: a % b,
}

_FUNCTIONS = {
    "length": lambda v: len(str(v)),
    "upper": lambda v: str(v).upper(),
    "lower": lambda v: str(v).lower(),
}


def _like(text: str, pattern: str) -> bool:
    if not pattern:
        return not text
    head, rest = pattern[0], pattern[1:]
    if head == "%":
        return any(_like(text[i:], rest) for i in range(len(text) + 1))
    return bool(text) and head in ("_", text[0]) and _like(text[1:], rest)


def _true(value: Any) -> bool:
    return value is not NULL and bool(value)


def _conjuncts(expression) -> list:
    if expression is None:
        return []
    if isinstance(expression, And):
        return [c for operand in expression.operands for c in _conjuncts(operand)]
    return [expression]


def _children(node) -> list:
    if isinstance(node, AggregateExpr):
        return [node.call.argument] if node.call.argument is not None else []
    if isinstance(node, (And, Or)):
        return list(node.operands)
    if isinstance(node, (Comparison, Arithmetic)):
        return [node.left, node.right]
    if isinstance(node, (Not, IsNull, Like)):
        return [node.operand]
    if isinstance(node, InList):
        return [node.operand, *node.values]
    if isinstance(node, FunctionCall):
        return list(node.arguments)
    return []


def _column_refs(node) -> list[ColumnRef]:
    if isinstance(node, ColumnRef):
        return [node]
    return [ref for child in _children(node) for ref in _column_refs(child)]


def _aggregate_calls(node) -> list[AggregateCall]:
    if isinstance(node, AggregateCall):
        return [node]
    if isinstance(node, AggregateExpr):
        return [node.call]
    return [call for child in _children(node) for call in _aggregate_calls(child)]


def _select_items(statement, database, tables, bindings) -> list[tuple[str, Any]]:
    """``(output name, expression)`` per output column, stars expanded.

    ``*`` (or ``alias.*``) lists every column of every table (of that
    table) in FROM order, a repeated column name as ``binding_name``.
    Otherwise a column is named by its alias, an aggregate
    ``function[_distinct]_argument`` (``count`` for ``COUNT(*)``), a
    column reference by its column name, anything else ``col_<index>``.
    """
    items: list[tuple[str, Any]] = []
    for index, item in enumerate(statement.items):
        if item.expression is None:
            seen: set[str] = set()
            for table, binding in zip(tables, bindings):
                if item.star_qualifier is not None and binding != item.star_qualifier.lower():
                    continue
                label = table.alias or table.relation_name
                for name in database.relation(table.relation_name).schema.attribute_names:
                    items.append((name if name.lower() not in seen else f"{label}_{name}",
                                  ColumnRef(name, label)))
                    seen.add(name.lower())
        elif item.alias:
            items.append((item.alias, item.expression))
        elif isinstance(item.expression, AggregateCall):
            call = item.expression
            if call.argument is None:
                items.append(("count", call))
            else:
                argument = str(call.argument).replace(".", "_")
                prefix = f"{call.function}_distinct" if call.distinct else call.function
                items.append((f"{prefix}_{argument}", call))
        elif isinstance(item.expression, ColumnRef):
            items.append((item.expression.name, item.expression))
        else:
            items.append((f"col_{index}", item.expression))
    return items


def _ordered(output: list[tuple], names: list[str], order_by) -> list[tuple]:
    lowered = [name.lower() for name in names]

    def output_cell(ref: ColumnRef) -> Callable:
        position = lowered.index(ref.name.lower())
        return lambda env: env[0][position]

    def key_of(expression) -> Callable[[tuple], Any]:
        if isinstance(expression, ColumnRef) and expression.qualifier is None:
            read = output_cell(expression)
        else:
            read = sql_expression(expression, output_cell)
        return lambda row: sql_order_key(read((row, None)))

    keys = [(key_of(item.expression), item.descending) for item in order_by]
    if all(descending for _, descending in keys) or not any(d for _, d in keys):
        ordered = sorted(output, key=lambda row: tuple(key(row) for key, _ in keys))
        return ordered[::-1] if keys[0][1] else ordered
    for key, descending in reversed(keys):
        output = sorted(output, key=key, reverse=descending)
    return output


def _output_type(column: list) -> AttributeType:
    for value in column:
        if value is NULL:
            continue
        if isinstance(value, bool):
            return AttributeType.BOOLEAN
        if isinstance(value, int):
            return AttributeType.INTEGER
        if isinstance(value, float):
            return AttributeType.FLOAT
        return AttributeType.STRING
    return AttributeType.STRING
