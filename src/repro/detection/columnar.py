"""Code-level (columnar) compilation of CFD/CIND patterns.

Pattern matching is the inner loop of detection.  Instead of comparing raw
values tuple-by-tuple (``pattern.matches(row, ...)``), a pattern is
*compiled once* against a relation's column store: every constant in the
pattern is pre-encoded into the set of dictionary codes it matches (via
:meth:`~repro.relational.columns.Column.matcher`, honouring the
int/str-tolerant ``≍`` equality of ``PatternTuple.matches``), and every
wildcard RHS attribute is bound to its code array.  Tests then reduce to
integer array reads and small-set membership:

* ``t ≍ tp`` on the LHS  →  ``codes[tid] in allowed`` per constant;
* ``t[Y] = t'[Y]``       →  equality of code tuples.

A group is one bucket of an index on the CFD's LHS, so its tuples share
their LHS codes: :meth:`CompiledPattern.group_violates` tests the LHS
constants on one tid and takes the number of distinct wildcard-RHS codes
from the bucket's tally on a maintained index, or counts the whole
bucket in one builtin pass, instead of testing tuple by tuple.

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

from typing import Any, Collection, Mapping

from repro.constraints.cfd import CFD
from repro.constraints.tableau import PatternTuple
from repro.relational.columns import NULL_CODE, passing
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

    # -- column-at-a-time tests ----------------------------------------------

    def single_violators(self, tids: list[int]) -> list[int]:
        """The *tids* that match the LHS constants but not the RHS constants.

        The single-tuple violations of this pattern, selected a column
        at a time with :func:`~repro.relational.columns.passing`: the
        tids passing the LHS tests, minus those that also pass the RHS
        tests.  Order is kept.  A pattern without RHS constants has none.
        """
        if not self.rhs_tests:
            return []
        candidates = passing(tids, self.lhs_tests)
        matched = set(passing(candidates, self.rhs_tests))
        return [tid for tid in candidates if tid not in matched]

    # -- per-group test ----------------------------------------------------
    #
    # Shared by all detectors (full, incremental, SQL match-back) so the
    # group semantics cannot drift between them.

    def group_violates(self, bucket: "Collection[int]",
                       tally: "Mapping[Any, int] | None" = None) -> bool:
        """Whether one LHS group violates this pattern's wildcard RHS.

        *bucket* must be one bucket of an index on this pattern's CFD LHS:
        its tids all carry the same LHS codes, so the LHS constants hold
        for all of them or for none, and one tid decides.  A group of two
        or more matching tuples violates when its wildcard-RHS codes take
        more than one value (NULL is one code, so it disagrees with every
        value, as in the definitions).  The caller checks the group key
        for NULL.

        *tally* is the bucket's count of its wildcard-RHS codes (code
        tuples for several attributes), as
        :meth:`~repro.relational.index.HashIndex.tally` keeps it on a
        maintained index: its size is the distinct count, so the check is
        O(1).  Without one the bucket's codes are counted in one builtin
        pass, which a caller that checks each bucket once (a one-pass
        detector) pays anyway.
        """
        if len(bucket) < 2:
            return False
        if self.lhs_tests and not self.lhs_matches(next(iter(bucket))):
            return False
        if tally is not None:
            return len(tally) > 1
        arrays = self.variable_arrays
        if len(arrays) == 1:
            return len(set(map(arrays[0].__getitem__, bucket))) > 1
        return len(set(zip(*[map(codes.__getitem__, bucket) for codes in arrays]))) > 1


def compile_tableau(cfd: CFD, relation: Relation) -> list[CompiledPattern]:
    """Compile every pattern of *cfd*'s tableau against *relation*."""
    return [CompiledPattern(cfd, pattern, relation) for pattern in cfd.tableau]
