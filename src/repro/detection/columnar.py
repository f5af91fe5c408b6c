"""Code-level (columnar) compilation of CFD/CIND patterns.

Pattern matching is the inner loop of detection.  Instead of comparing raw
values tuple-by-tuple (``pattern.matches(row, ...)``), a pattern is
*compiled once* against a relation's column store: every constant in the
pattern is pre-encoded into the set of dictionary codes it matches (via
:meth:`~repro.relational.columns.Column.matcher`, honouring the
int/str-tolerant ``≍`` equality of ``PatternTuple.matches``), and every
wildcard RHS attribute is bound to its code array.  Per-tuple tests then
reduce to integer array reads and small-set membership:

* ``t ≍ tp`` on the LHS  →  ``codes[tid] in allowed`` per constant;
* ``t[Y] = t'[Y]``       →  equality of code tuples.

Code tuples agree with value tuples under Python equality (the dictionary
maps ``==``-equal values to one code and NULL to code 0), so a compiled
plan reports exactly the violations the definitions give — checked
against the definitional oracle in ``tests/oracle``.

Compiled plans are cheap to build (matcher sets are cached per column and
constant) and stay valid as the relation evolves: code arrays and matcher
sets are maintained in place by the column store, which is what lets
:class:`~repro.detection.incremental.IncrementalCFDDetector` keep plans
for its whole lifetime.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.constraints.cfd import CFD
from repro.constraints.tableau import PatternTuple
from repro.relational.columns import NULL_CODE
from repro.relational.predicates import constant_code_set
from repro.relational.relation import Relation

__all__ = ["NULL_CODE", "CompiledPattern", "compile_tableau", "constant_code_set"]
# constant_code_set moved to repro.relational.predicates (shared with the
# SQL push-down); re-exported here for the detection-side importers.


class CompiledPattern:
    """One pattern tuple of a CFD, compiled against a relation's columns."""

    __slots__ = ("pattern", "lhs_tests", "rhs_tests", "variable_rhs", "variable_arrays")

    def __init__(self, cfd: CFD, pattern: PatternTuple, relation: Relation) -> None:
        store = relation.columns
        self.pattern = pattern
        self.lhs_tests: list[tuple[list[int], set[int]]] = []
        for attribute in cfd.lhs:
            if pattern.is_constant_on(attribute):
                column = store.column(attribute)
                self.lhs_tests.append(
                    (column.codes, constant_code_set(column, pattern.constant(attribute))))
        self.rhs_tests: list[tuple[list[int], set[int]]] = []
        self.variable_rhs: list[str] = []
        for attribute in cfd.rhs:
            if pattern.is_constant_on(attribute):
                column = store.column(attribute)
                self.rhs_tests.append(
                    (column.codes, constant_code_set(column, pattern.constant(attribute))))
            else:
                self.variable_rhs.append(attribute)
        self.variable_arrays = [store.column(a).codes for a in self.variable_rhs]

    # -- per-tuple tests ---------------------------------------------------

    def lhs_matches(self, tid: int) -> bool:
        """``t ≍ tp`` on the LHS attributes (wildcards always match)."""
        for codes, allowed in self.lhs_tests:
            if codes[tid] not in allowed:
                return False
        return True

    def rhs_constants_match(self, tid: int) -> bool:
        """``t ≍ tp`` on the constant RHS attributes."""
        for codes, allowed in self.rhs_tests:
            if codes[tid] not in allowed:
                return False
        return True

    def rhs_key(self, tid: int) -> Any:
        """Hashable encoding of the wildcard-RHS values of one tuple."""
        arrays = self.variable_arrays
        if len(arrays) == 1:
            return arrays[0][tid]
        return tuple(codes[tid] for codes in arrays)

    # -- per-group tests ---------------------------------------------------
    #
    # Shared by all three detectors (full, batch, incremental) so the group
    # semantics cannot drift between them; input order is preserved so each
    # caller controls the order violations are reported in.

    def group_matching(self, tids: "Sequence[int] | set[int] | frozenset[int]") -> list[int] | None:
        """The tids of one LHS group matching this pattern, in input order.

        Returns ``None`` when fewer than two tuples match (no group
        violation possible).
        """
        if self.lhs_tests:
            matching = [tid for tid in tids if self.lhs_matches(tid)]
            if len(matching) < 2:
                return None
            return matching
        return list(tids)

    def rhs_disagrees(self, matching: Sequence[int]) -> bool:
        """Whether the matching tuples carry more than one wildcard-RHS value."""
        rhs_key = self.rhs_key
        first = rhs_key(matching[0])
        return any(rhs_key(tid) != first for tid in matching[1:])


def compile_tableau(cfd: CFD, relation: Relation) -> list[CompiledPattern]:
    """Compile every pattern of *cfd*'s tableau against *relation*."""
    return [CompiledPattern(cfd, pattern, relation) for pattern in cfd.tableau]
