"""CFD violation detection.

Given a relation ``R`` and a CFD ``φ = (X → Y, Tp)``, two kinds of
violations exist:

* **single-tuple** violations: a tuple matches a pattern's constants on
  ``X`` but not on ``Y`` (only possible when the pattern has constants on
  the RHS);
* **group** violations: a set of tuples match a pattern on ``X``, agree on
  ``X`` but do not all agree on ``Y``.

:class:`CFDDetector` finds both in-process, *columnar*: patterns are
compiled to code-level tests against the relation's dictionary-encoded
column store (:mod:`repro.detection.columnar`), single-tuple violations
are selected a column at a time, and each CFD's tuples are grouped on
``X`` once, over integer code tuples, with every pattern of its tableau
checked per group — the hot path never materialises a :class:`Tuple`.
To detect many CFDs sharing an embedded FD in one pass (the merged
tableaux of Fan et al.), pass :func:`~repro.constraints.cfd.merge_cfds`
of them.

:class:`SQLCFDDetector` instead *generates SQL* — the approach of Fan et
al.'s Semandaq system — executes it on the library's SQL engine and
matches the result rows back to tuple ids on dictionary codes.  Both
return a :class:`~repro.constraints.violations.ViolationReport` with the
same violations.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal
from typing import Any, Sequence

from repro import obs
from repro.constraints.cfd import CFD
from repro.constraints.tableau import PatternTuple
from repro.constraints.violations import CFDViolation, ViolationReport
from repro.detection.columnar import NULL_CODE, CompiledPattern, compile_tableau
from repro.relational.database import Database
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import AttributeType


class CFDDetector:
    """Direct (index-based) CFD violation detection on one relation.

    Each CFD is checked in one pass: its single-tuple violations are
    selected a column at a time, then its tuples are grouped on a fresh
    :class:`~repro.relational.index.HashIndex` over its LHS and every
    pattern of its tableau is checked per group.  A report lists, per CFD
    in the order given, the single-tuple violations by tid and then by
    pattern, then the group violations by their smallest tid and then by
    pattern.  The detector does not merge tableaux: ``violation.cfd`` is
    the CFD the caller passed.
    """

    def __init__(self, relation: Relation, cfds: Sequence[CFD]) -> None:
        for cfd in cfds:
            cfd.validate_against(relation)
        self._relation = relation
        self._cfds = list(cfds)
        self._compiled: list[list[CompiledPattern]] | None = None

    def detect(self) -> ViolationReport:
        """Detect all violations of all configured CFDs."""
        with obs.span("detect.cfd", relation=self._relation.name):
            report = ViolationReport(self._relation.name,
                                     tuples_checked=len(self._relation))
            # compiled plans read live code arrays and matcher sets, so one
            # compilation serves the detector's lifetime
            if self._compiled is None:
                self._compiled = [compile_tableau(cfd, self._relation)
                                  for cfd in self._cfds]
            for cfd, patterns in zip(self._cfds, self._compiled):
                report.extend(self._detect_cfd(cfd, patterns))
            if obs.enabled:
                obs.inc("detect.cfd.violations", len(report.violations))
            return report

    def _index(self, lhs: Sequence[str]) -> HashIndex:
        """The index a group pass iterates: a fresh scan of the relation."""
        return HashIndex(self._relation, list(lhs))

    def _detect_cfd(self, cfd: CFD,
                    patterns: Sequence[CompiledPattern]) -> list[CFDViolation]:
        """The violations of one CFD, single-tuple ones first.

        Group violations are ordered by their bucket's smallest tid and
        then by pattern.  Live tids ascend, so that is a fresh index's
        first-occurrence order, in whatever order :meth:`_index` iterates
        its buckets.
        """
        violations: list[CFDViolation] = []
        if any(compiled.rhs_tests for compiled in patterns):
            tids = self._relation.tids()
            singles = sorted((tid, position) for position, compiled in enumerate(patterns)
                             for tid in compiled.single_violators(tids))
            violations = [CFDViolation(cfd, patterns[position].pattern, (tid,))
                          for tid, position in singles]

        # group violations: one pass over the code-keyed buckets, one test
        # per bucket and pattern; only a violating bucket is sorted (by the
        # violation, which sorts its tids).  The test counts each bucket's
        # codes rather than reading a maintained tally: every bucket is
        # checked once here, and a prototype that kept tallies for this
        # detector too read clean-session 8.5% slower, mostly in tally
        # upkeep under BatchRepair's writes to its working copy.
        variable = [compiled for compiled in patterns if compiled.variable_rhs]
        if variable:
            groups: list[CFDViolation] = []
            for key, bucket in self._index(cfd.lhs).bucket_items():
                if len(bucket) < 2 or NULL_CODE in key:
                    continue
                for compiled in variable:
                    if compiled.group_violates(bucket):
                        groups.append(CFDViolation(cfd, compiled.pattern, tuple(bucket)))
            # by smallest tid; stable, so pattern order within a bucket
            groups.sort(key=lambda violation: violation.tids[0])
            violations.extend(groups)
        return violations


def detect_cfd_violations(relation: Relation, cfds: Sequence[CFD]) -> ViolationReport:
    """Convenience wrapper around :class:`CFDDetector`."""
    return CFDDetector(relation, cfds).detect()


def _matching_cell(kind: AttributeType, constant: Any) -> Any:
    """The one value of type *kind* that ``≍`` *constant*, or ``None``.

    A cell *v* ≍ *c* iff ``v == c`` or ``str(v) == str(c)``.  A STRING
    cell must be ``str(c)``; an INTEGER cell equals an integral number or
    spells a canonical decimal string; a FLOAT cell equals a number or
    spells ``c`` as Python prints floats (``'1.0'``, never ``'1'``); a
    BOOLEAN cell equals ``c`` (``True == 1``) or prints as it.  NaN
    matches nothing: a FLOAT column stores it as NULL.
    """
    if kind is AttributeType.STRING:
        return str(constant)
    number = isinstance(constant, (int, float))
    if kind is AttributeType.BOOLEAN:
        if number:
            return {1: True, 0: False}.get(constant)
        return {"True": True, "False": False}.get(str(constant))
    convert = int if kind is AttributeType.INTEGER else float
    try:
        value = convert(constant if number else str(constant))
    except (ValueError, OverflowError):
        return None
    if isinstance(value, float) and math.isnan(value):
        return None
    return value if (value == constant if number else str(value) == str(constant)) \
        else None


def _number_literal(value: int | float) -> str:
    """*value* as SQL the tokenizer reads back exactly (digits and one dot)."""
    text = repr(value)
    if "e" in text:
        text = format(Decimal(value), "f")
    return text


class SQLCFDDetector:
    """SQL-generation based CFD detection (the Semandaq approach).

    For every CFD and pattern two queries are generated:

    * ``Q_single`` selects the tuples matching the pattern's LHS constants
      whose RHS disagrees with the pattern's RHS constants;
    * ``Q_group`` groups the tuples matching the LHS constants by the LHS
      attributes and keeps groups with more than one distinct RHS value.

    The queries are executed on :class:`~repro.relational.sql.engine.SQLEngine`
    (on its code-native plan) and their rows are matched back to tuple ids
    on dictionary codes, through the tableau compiled once per
    :meth:`detect` and the store's maintained LHS index, so the report
    holds exactly the direct detector's violations.
    """

    def __init__(self, database: Database, cfds: Sequence[CFD]) -> None:
        self._database = database
        self._engine = SQLEngine(database)
        self._cfds = list(cfds)

    # -- SQL generation -----------------------------------------------------------

    @staticmethod
    def _quote(value: Any) -> str:
        return "'" + str(value).replace("'", "''") + "'"

    def _tests(self, relation: Relation, attribute: str,
               constant: Any) -> tuple[str, str | None] | None:
        """SQL for ``t[attribute] ≍ constant`` and for its negation or NULL.

        ``None`` when no cell of the column's type ≍ *constant*; else one
        value of the type does (:func:`_matching_cell`).  A STRING column
        compares with the quoted string, a BOOLEAN one tests the cell.  A
        numeric column takes a range, because the code plan compiles
        ranges but not numeric ``=``.  The negation is ``None`` (no
        condition) past the largest float, and for an integer past 2**53
        or a FLOAT zero; those cases date from when ranges compared in
        float order, and ranges now compare numbers exactly, so they only
        widen the query, and match-back re-checks every tuple.
        """
        column = f"t.{attribute}"
        kind = relation.schema.attribute(attribute).type
        value = _matching_cell(kind, constant)
        if value is None:
            return None
        if kind is AttributeType.STRING:
            literal = self._quote(value)
            return f"{column} = {literal}", f"({column} <> {literal} OR {column} IS NULL)"
        if kind is AttributeType.BOOLEAN:
            return (column if value else f"NOT {column}",
                    f"({'NOT ' if value else ''}{column} OR {column} IS NULL)")
        if abs(value) > sys.float_info.max:  # ±inf, or an int no float reaches
            bound = _number_literal(sys.float_info.max)
            return (f"{column} > {bound}" if value > 0 else f"{column} < -{bound}"), None
        literal = _number_literal(value)
        exact = value != 0 if kind is AttributeType.FLOAT else abs(value) < 2 ** 53
        return (f"{column} BETWEEN {literal} AND {literal}",
                f"({column} < {literal} OR {column} > {literal} OR {column} IS NULL)"
                if exact else None)

    def _lhs_tests(self, relation: Relation, cfd: CFD,
                   pattern: PatternTuple) -> list[str] | None:
        """The pattern's LHS constant tests, or ``None`` when one matches no cell."""
        tests = []
        for attribute in cfd.lhs:
            if pattern.is_constant_on(attribute):
                test = self._tests(relation, attribute, pattern.constant(attribute))
                if test is None:
                    return None
                tests.append(test[0])
        return tests

    def single_tuple_sql(self, cfd: CFD, pattern: PatternTuple) -> str | None:
        """The single-tuple violation query, or ``None`` when not applicable
        (no constant on the RHS, or no tuple can match the LHS constants)."""
        constant_rhs = [a for a in cfd.rhs if pattern.is_constant_on(a)]
        if not constant_rhs:
            return None
        relation = self._database.relation(cfd.relation_name)
        conditions = self._lhs_tests(relation, cfd, pattern)
        if conditions is None:
            return None
        negations = []
        for attribute in constant_rhs:
            test = self._tests(relation, attribute, pattern.constant(attribute))
            negations.append(test[1] if test else None)
        if None not in negations:  # else no condition: every tuple may disagree
            conditions.append("(" + " OR ".join(negations) + ")")
        where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        return f"SELECT t.* FROM {cfd.relation_name} t{where}"

    def group_sql(self, cfd: CFD, pattern: PatternTuple) -> str | None:
        """The group (pair) violation query, or ``None`` when not applicable
        (no wildcard on the RHS, or no tuple can match the LHS constants)."""
        variable_rhs = [a for a in cfd.rhs if not pattern.is_constant_on(a)]
        if not variable_rhs:
            return None
        relation = self._database.relation(cfd.relation_name)
        conditions = self._lhs_tests(relation, cfd, pattern)
        if conditions is None:
            return None
        null_guards = [f"t.{attribute} IS NOT NULL" for attribute in cfd.lhs]
        where = " AND ".join(conditions + null_guards)
        group_cols = ", ".join(f"t.{attribute}" for attribute in cfd.lhs)
        select_cols = ", ".join(f"t.{a} AS {a}" for a in cfd.lhs)
        disagreements = []
        for attribute in variable_rhs:
            disagreements.append(f"COUNT(DISTINCT t.{attribute}) > 1")
            if relation.columns.column(attribute).null_count():
                # COUNT(DISTINCT) skips NULLs, yet a NULL disagrees with
                # every value: flag groups mixing NULL and non-NULL cells
                disagreements.append(f"(COUNT(t.{attribute}) > 0"
                                     f" AND COUNT(t.{attribute}) < COUNT(*))")
        having = " OR ".join(disagreements)
        where_clause = f" WHERE {where}" if where else ""
        return (f"SELECT {select_cols}, COUNT(*) AS cnt FROM {cfd.relation_name} t"
                f"{where_clause} GROUP BY {group_cols} HAVING {having}")

    def generated_queries(self) -> list[str]:
        """All generated SQL texts (useful for inspection and tests)."""
        queries = []
        for cfd in self._cfds:
            for pattern in cfd.tableau:
                for sql in (self.single_tuple_sql(cfd, pattern), self.group_sql(cfd, pattern)):
                    if sql is not None:
                        queries.append(sql)
        return queries

    # -- execution -------------------------------------------------------------------

    def detect(self) -> ViolationReport:
        """Run the generated queries and assemble a violation report."""
        relation_names = {cfd.relation_name for cfd in self._cfds}
        report_name = next(iter(relation_names)) if len(relation_names) == 1 else "multiple"
        total = sum(len(self._database.relation(name)) for name in relation_names)
        report = ViolationReport(report_name, tuples_checked=total)

        for cfd in self._cfds:
            relation = self._database.relation(cfd.relation_name)
            for compiled in compile_tableau(cfd, relation):
                pattern = compiled.pattern
                single_sql = self.single_tuple_sql(cfd, pattern)
                if single_sql is not None:
                    result = self._engine.query(single_sql)
                    report.extend(self._match_back_single(relation, cfd, compiled, result))
                group_sql = self.group_sql(cfd, pattern)
                if group_sql is not None:
                    result = self._engine.query(group_sql)
                    report.extend(self._match_back_groups(relation, cfd, compiled, result))
        if obs.enabled:
            obs.inc("detect.cfd.violations", len(report.violations))
        return report

    @staticmethod
    def _match_back_single(relation: Relation, cfd: CFD, compiled: CompiledPattern,
                           result: Relation) -> list[CFDViolation]:
        """Map single-tuple query rows back to tuple ids.

        The compiled code-set tests select the pattern's single-tuple
        violators a column at a time; only those have their values
        compared with the result rows.
        """
        wanted = {tuple(row.values) for row in result}
        if not wanted:
            return []
        return [CFDViolation(cfd, compiled.pattern, (tid,))
                for tid in compiled.single_violators(relation.tids())
                if relation.tuple(tid).values in wanted]

    @staticmethod
    def _match_back_groups(relation: Relation, cfd: CFD, compiled: CompiledPattern,
                           result: Relation) -> list[CFDViolation]:
        """Map group query rows back to tuple ids through the LHS index.

        The store's maintained index is probed, never iterated, and each
        bucket is re-checked as one group; a violation sorts its tids, so
        the bucket's insertion order cannot reach the report.
        """
        index = relation.columns.index(cfd.lhs)
        violations = []
        for row in result:
            bucket = index.lookup_view([row[a] for a in cfd.lhs])
            if compiled.group_violates(bucket):
                violations.append(CFDViolation(cfd, compiled.pattern, tuple(bucket)))
        return violations
