"""The definitions of Fan et al., restated literally over plain dict rows.

Every function here reads relations only through their rows and schema,
constraints only through their fields and pattern cells, and NULL only
as the :data:`~repro.relational.types.NULL` marker.  It deliberately
shares no helper with the engine — not ``PatternTuple.matches``,
``constants_equal`` or ``is_null``, not ``HashIndex``, nothing from
``repro.discovery.partitions`` or ``repro.detection.columnar``, and no
detector — so a bug in shared engine code cannot make an implementation
agree with its own reference.  ``test_oracle_imports.py`` enforces that.

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
from typing import Any, Iterable, Mapping, Sequence

from repro.constraints.tableau import UNDERSCORE
from repro.relational.types import NULL

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


def cfd_violations(relation, cfds, enumerate_pairs: bool = False) -> list[tuple]:
    """All violations of *cfds* on *relation* as ``(cfd, pattern, tids)``.

    * single-tuple: ``t ≍ tp[X]`` and ``t`` fails ``tp`` on a constant
      RHS attribute;
    * group: the tuples matching ``tp[X]`` with one NULL-free ``X`` value,
      when at least two of them exist and they carry at least two
      distinct wildcard-RHS projections — the whole group, or with
      *enumerate_pairs* every pair drawn from different projections.
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
                projections = groups(data, group, wildcard_rhs)
                if len(projections) < 2:
                    continue
                if not enumerate_pairs:
                    found.append((cfd, pattern, tuple(sorted(group))))
                    continue
                for i, first in enumerate(projections):
                    for second in projections[i + 1:]:
                        found.extend((cfd, pattern, tuple(sorted((a, b))))
                                     for a in first for b in second)
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


def _assert_changes(before, after, cfds, result, cost_model, allow_fresh: bool) -> None:
    reported = [(c.tid, c.attribute, c.old_value, c.new_value) for c in result.changes]
    assert sorted(map(repr, reported)) == sorted(map(repr, changed_cells(before, after)))
    expected_cost = sum(cost_model.change_cost(tid, attribute, old, new)
                        for tid, attribute, old, new in reported)
    assert abs(result.cost - expected_cost) <= 1e-9 * max(1.0, expected_cost)
    rhs = {a.lower() for cfd in cfds for a in cfd.rhs}
    last_lhs = {cfd.lhs[-1].lower() for cfd in cfds}
    for _, attribute, _, new in reported:
        assert attribute in rhs or (allow_fresh and attribute in last_lhs
                                    and str(new).startswith(FRESH_PREFIX)), \
            f"repair changed {attribute!r}, which no CFD allows it to"
