"""BatchRepair: repair a dirty relation against a set of CFDs.

The algorithm follows Cong et al. (VLDB 2007):

1. detect all CFD violations of the current relation;
2. resolve each violation at minimum cost —
   * a **constant** violation (a tuple disagreeing with a pattern's RHS
     constant) is resolved by writing the constant into the offending
     cell;
   * a **variable** (group) violation is resolved by moving the RHS cells
     of the group to a common target value, chosen by the cost model
     (weighted majority), unless one of the cells was already pinned by a
     constant resolution — then the pinned value wins;
   * if a group contains cells pinned to *different* constants, no common
     RHS value exists; the conflicting tuples are split off the group by
     setting one of their LHS attributes to a fresh value outside the
     active domain (the "cannot resolve by equalization" case of the
     paper);
3. repeat until no violation remains (or ``max_passes`` is reached —
   oscillation between interacting CFDs is theoretically possible, and the
   result records whether the fixpoint was reached).

The whole loop runs on the relation's dictionary-encoded columns:
pattern scope checks are compiled code tests
(:class:`~repro.detection.columnar.CompiledPattern`), value agreement is
decided through the per-code string caches, pinned targets live in a
:class:`~repro.repair.eqclass.CodeEquivalenceClasses` keyed by ``(tid,
column position)``, and cheapest targets come from the cost model's
code-level face over its distance memo (one per model, so repairs that
share a model compute each distance once).  Values are decoded only at
the write-back and :class:`CellChange` boundaries.

Every pass detects with one :class:`~repro.detection.cfd_detect.CFDDetector`
over the working copy and the merged CFDs.  It groups on the copy's
maintained LHS indexes: pass 1 builds one per distinct LHS, the repair's
writes refile them, so later passes regroup without a scan, and the
finished repair drops them.

The repair never touches the input relation: it works on a copy and
returns a :class:`Repair` carrying the repaired relation, the list of cell
changes, their total cost and convergence information.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import ne
from typing import Any, Sequence

from repro import obs
from repro.constraints.cfd import CFD, merge_cfds
from repro.constraints.tableau import PatternTuple
from repro.constraints.violations import CFDViolation
from repro.detection.cfd_detect import CFDDetector
from repro.detection.columnar import CompiledPattern
from repro.errors import RepairError
from repro.relational.columns import Column
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.repair.cost import CostModel
from repro.repair.eqclass import CodeEquivalenceClasses


@dataclass(frozen=True)
class CellChange:
    """One cell modified by the repair."""

    tid: int
    attribute: str
    old_value: Any
    new_value: Any


@dataclass
class Repair:
    """The outcome of a repair run."""

    relation: Relation
    changes: list[CellChange] = field(default_factory=list)
    cost: float = 0.0
    passes: int = 0
    converged: bool = True

    @property
    def changed_cells(self) -> set[tuple[int, str]]:
        """The (tid, attribute) cells the repair modified."""
        return {(change.tid, change.attribute) for change in self.changes}

    def changes_for(self, tid: int) -> list[CellChange]:
        """All changes applied to one tuple."""
        return [change for change in self.changes if change.tid == tid]

    def summary(self) -> str:
        status = "converged" if self.converged else "did NOT converge"
        return (f"repair of {self.relation.name!r}: {len(self.changes)} cells changed, "
                f"cost {self.cost:.3f}, {self.passes} pass(es), {status}")


class RepairPlan:
    """One (CFD, pattern) pair compiled against a relation's column store.

    Bundles everything the code-level resolution steps need: the compiled
    LHS tests, the LHS code arrays (for group-key snapshots) and, per RHS
    attribute, its schema position and column — plus, for constant RHS
    attributes, the raw pattern constant, its string form and its
    dictionary code (interned once; codes pinned in the equivalence
    classes refer to it).  The referenced arrays and matcher sets are
    maintained in place by the column store, so a plan stays valid across
    the repair's own updates.
    """

    __slots__ = ("compiled", "key_arrays", "constant_rhs", "variable_rhs")

    def __init__(self, cfd: CFD, pattern: PatternTuple, relation: Relation) -> None:
        store = relation.columns
        self.compiled = CompiledPattern(cfd, pattern, relation)
        positions = relation.schema.positions(list(cfd.lhs))
        self.key_arrays = store.code_arrays(positions)
        self.constant_rhs: list[tuple[str, int, Column, Any, str, int]] = []
        self.variable_rhs: list[tuple[str, int, Column]] = []
        for attribute in cfd.rhs:
            position = relation.schema.position(attribute)
            column = store.column_at(position)
            if pattern.is_constant_on(attribute):
                target = pattern.constant(attribute)
                self.constant_rhs.append((attribute, position, column, target,
                                          str(target), column.intern(target)))
            else:
                self.variable_rhs.append((attribute, position, column))

    def lhs_matches(self, tid: int) -> bool:
        return self.compiled.lhs_matches(tid)

    def key_codes(self, tid: int) -> tuple[int, ...]:
        return tuple(codes[tid] for codes in self.key_arrays)


class _WorkingCopyDetector(CFDDetector):
    """Groups the repair's working copy on its maintained LHS indexes.

    The repair's writes refile them, so every pass after the first
    regroups without a scan; a relation of the caller's never gets one.
    """

    def _index(self, lhs: Sequence[str]) -> HashIndex:
        return self._relation.columns.index(lhs)


class BatchRepair:
    """Repairs a whole relation against a set of CFDs."""

    #: resolution orderings available for the ablation benchmark (E5):
    #: "largest_first" resolves the biggest violating groups first,
    #: "arbitrary" keeps detection order.
    ORDERINGS = ("largest_first", "arbitrary")

    def __init__(self, relation: Relation, cfds: Sequence[CFD],
                 cost_model: CostModel | None = None,
                 ordering: str = "largest_first",
                 max_passes: int = 25) -> None:
        if ordering not in self.ORDERINGS:
            raise RepairError(f"unknown ordering {ordering!r}; known: {self.ORDERINGS}")
        for cfd in cfds:
            cfd.validate_against(relation)
        self._original = relation
        self._cfds = merge_cfds(cfds)
        self._cost_model = cost_model or CostModel()
        self._ordering = ordering
        self._max_passes = max_passes
        self._fresh_counter = itertools.count()

    # -- public ----------------------------------------------------------------

    def repair(self) -> Repair:
        """Run the repair and return the result (the input relation is untouched)."""
        working = self._original.copy()
        detector = _WorkingCopyDetector(working, self._cfds)
        plans: dict[tuple[CFD, PatternTuple], RepairPlan] = {}
        passes = 0
        converged = False

        for _ in range(self._max_passes):
            with obs.span("repair.pass", relation=self._original.name):
                passes += 1
                if obs.enabled:
                    obs.inc("repair.passes")
                report = detector.detect()
                if report.is_clean():
                    converged = True
                    break
                violations = self._ordered(list(report.violations))
                if obs.enabled:
                    obs.inc("repair.violations", len(violations))
                pinned = CodeEquivalenceClasses()
                for violation in violations:
                    if violation.is_single_tuple:
                        self._resolve_constant(working, violation, pinned, plans)
                for violation in violations:
                    if not violation.is_single_tuple:
                        self._resolve_group(working, violation, pinned, plans)
        else:
            # loop ended without break: check once more
            converged = detector.detect().is_clean()
        # the copy is handed back like any other copy: with no index
        working.columns.drop_indexes()

        changes = self._collect_changes(working)
        if obs.enabled:
            obs.inc("repair.changes", len(changes))
        cost = sum(
            self._cost_model.change_cost(c.tid, c.attribute, c.old_value, c.new_value)
            for c in changes
        )
        return Repair(relation=working, changes=changes, cost=cost,
                      passes=passes, converged=converged)

    # -- resolution ----------------------------------------------------------------

    def _ordered(self, violations: list[CFDViolation]) -> list[CFDViolation]:
        if self._ordering == "largest_first":
            return sorted(violations, key=lambda v: -len(v.tids))
        return violations

    def _plan_for(self, working: Relation, violation: CFDViolation,
                  plans: dict[tuple[CFD, PatternTuple], RepairPlan]) -> RepairPlan:
        key = (violation.cfd, violation.pattern)
        plan = plans.get(key)
        if plan is None:
            plan = RepairPlan(violation.cfd, violation.pattern, working)
            plans[key] = plan
        return plan

    def _resolve_constant(self, working: Relation, violation: CFDViolation,
                          pinned: CodeEquivalenceClasses,
                          plans: dict[tuple[CFD, PatternTuple], RepairPlan]) -> None:
        """Write the pattern's RHS constants into the offending tuple."""
        tid = violation.tids[0]
        if tid not in working:
            return
        plan = self._plan_for(working, violation, plans)
        if not plan.lhs_matches(tid):
            return  # an earlier resolution already moved this tuple out of scope
        for attribute, position, column, target, target_str, target_code in plan.constant_rhs:
            strings = column.strings
            if strings[column.codes[tid]] == target_str:
                continue
            cell = (tid, position)
            existing = pinned.pinned_value(cell)
            if existing is not None and strings[existing] != target_str:
                # two constant CFDs demand different values for the same cell:
                # the CFD set is inconsistent on this tuple; move it out of the
                # second pattern's scope instead of flip-flopping.
                self._break_lhs(working, violation.cfd, tid)
                return
            working.update(tid, attribute, target)
            if existing is None:
                pinned.pin(cell, target_code)

    def _resolve_group(self, working: Relation, violation: CFDViolation,
                       pinned: CodeEquivalenceClasses,
                       plans: dict[tuple[CFD, PatternTuple], RepairPlan]) -> None:
        """Equalize the variable RHS attributes of a violating group."""
        tids = [tid for tid in violation.tids if tid in working]
        if len(tids) < 2:
            return
        plan = self._plan_for(working, violation, plans)
        # the group may have drifted apart due to earlier resolutions
        live = [tid for tid in tids if plan.lhs_matches(tid)]
        if len(live) < 2:
            return
        key_codes = {tid: plan.key_codes(tid) for tid in live}
        anchor = key_codes[live[0]]
        live = [tid for tid in live if key_codes[tid] == anchor]
        if len(live) < 2:
            return

        for attribute, position, column in plan.variable_rhs:
            codes = column.codes
            strings = column.strings
            cells = [(tid, codes[tid]) for tid in live]
            if len({strings[code] for _, code in cells}) <= 1:
                continue
            pins = {strings[pinned.pinned_value((tid, position))]
                    for tid in live if pinned.is_pinned((tid, position))}
            if len(pins) > 1:
                # irreconcilable constants: split the group on the LHS
                for tid in live[1:]:
                    self._break_lhs(working, violation.cfd, tid)
                return
            if pins:
                # write the pinned constant's string form
                target_str = next(iter(pins))
                target_value: Any = target_str
            else:
                target_code, _ = self._cost_model.cheapest_target_code(
                    attribute, column, cells)
                target_str = strings[target_code]
                target_value = column.value_of(target_code)
            for tid, code in cells:
                if strings[code] != target_str:
                    working.update(tid, attribute, target_value)

    def _break_lhs(self, working: Relation, cfd: CFD, tid: int) -> None:
        """Move a tuple out of a pattern's scope by refreshing one LHS attribute."""
        attribute = cfd.lhs[-1]
        fresh = f"__repair_fresh_{next(self._fresh_counter)}"
        working.update(tid, attribute, fresh)

    # -- bookkeeping -------------------------------------------------------------------

    def _collect_changes(self, working: Relation) -> list[CellChange]:
        """Change sweep on codes: per-code string compares, decode only changed cells.

        The copy keeps every code the repair did not write, so only the
        tids whose codes differ in some column are compared.
        """
        changes: list[CellChange] = []
        names = [name.lower() for name in self._original.schema.attribute_names]
        original_columns = self._original.columns.columns()
        working_columns = working.columns.columns()
        pairs = [(o.codes, o.strings, o.values, w.codes, w.strings, w.values)
                 for o, w in zip(original_columns, working_columns)]
        differing: set[int] = set()
        for o, w in zip(original_columns, working_columns):
            differing.update(itertools.compress(itertools.count(), map(ne, o.codes, w.codes)))
        for tid in sorted(differing):
            if tid not in working:
                continue
            for name, (o_codes, o_strings, o_values, w_codes, w_strings, w_values) \
                    in zip(names, pairs):
                o_code, w_code = o_codes[tid], w_codes[tid]
                if o_strings[o_code] != w_strings[w_code]:
                    changes.append(CellChange(tid, name, o_values[o_code], w_values[w_code]))
        return changes


def repair_relation(relation: Relation, cfds: Sequence[CFD],
                    cost_model: CostModel | None = None, **kwargs) -> Repair:
    """Convenience wrapper around :class:`BatchRepair`."""
    return BatchRepair(relation, cfds, cost_model=cost_model, **kwargs).repair()
