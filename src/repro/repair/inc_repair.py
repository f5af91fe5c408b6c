"""IncRepair: repair newly inserted tuples against an already-clean base.

Cong et al. observe that in practice a database is cleaned once and then
receives batches of new tuples; re-running BatchRepair on the whole
database for every batch is wasteful.  IncRepair instead repairs *only the
delta*: the base relation is trusted (assumed to satisfy the CFDs) and
only the new tuples may be modified.

For each new tuple and each CFD:

* if the tuple violates a constant pattern, the pattern's RHS constants
  are written into it;
* if the tuple disagrees with the base group sharing its LHS values, its
  variable RHS attributes are overwritten with the base group's values;
* if several new tuples form a violating group of their own (no base
  tuple with that LHS key), they are equalized to the cost-minimal value
  among themselves.

A small number of passes handles cascades (a repaired RHS attribute can be
another CFD's LHS attribute).  Experiment E7 compares IncRepair with
running BatchRepair from scratch as the delta grows.

Like :class:`~repro.repair.batch_repair.BatchRepair`, the repair runs on
dictionary codes: pattern scope checks are compiled code tests, agreement
with pattern constants and base-group values is decided through the
per-code string caches, delta-group equalization uses the cost model's
code-level face (and its distance memo, which the final cost sum reads
too), and the changes are collected by comparing each delta tuple's
codes with a snapshot taken before the first pass.

A delta tuple finds its base group by probing the relation's maintained
LHS index (:meth:`~repro.relational.columns.ColumnStore.index`), which the
column store keeps current under every insert, delete and update, so a
batch costs work in proportion to the delta rather than a scan of the
relation per CFD per pass.  The group's representative, its smallest
base tid, is the bucket's smallest tid, which the index keeps current
under every write (:meth:`~repro.relational.index.HashIndex.smallest_tids`),
so a probe copies no bucket; only when that tid belongs to the delta is
the bucket minus the delta searched, which normally means a group with
no base tuple.  The first repair on a relation registers the index (one
scan) and its smallest tids (one ``min`` per bucket);
:meth:`Relation.copy` carries none.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.constraints.cfd import CFD, merge_cfds
from repro.constraints.tableau import PatternTuple
from repro.detection.cfd_detect import CFDDetector
from repro.relational.columns import NULL_CODE
from repro.relational.relation import Relation
from repro.repair.batch_repair import CellChange, Repair, RepairPlan
from repro.repair.cost import CostModel


class IncRepair:
    """Repairs a batch of new tuples against a clean base relation."""

    def __init__(self, relation: Relation, cfds: Sequence[CFD],
                 cost_model: CostModel | None = None, max_passes: int = 5) -> None:
        for cfd in cfds:
            cfd.validate_against(relation)
        self._relation = relation
        self._cfds = merge_cfds(cfds)
        self._cost_model = cost_model or CostModel()
        self._max_passes = max_passes

    def repair_delta(self, delta_tids: Iterable[int]) -> Repair:
        """Repair the tuples *delta_tids* in place (only those may change)."""
        delta = [tid for tid in delta_tids if tid in self._relation]
        delta_set = set(delta)
        columns = self._relation.columns.columns()
        originals = {tid: [column.codes[tid] for column in columns] for tid in delta}

        converged = False
        passes = 0
        plans: dict[tuple[CFD, PatternTuple], RepairPlan] = {}
        for _ in range(self._max_passes):
            passes += 1
            changed = False
            for cfd in self._cfds:
                changed |= self._repair_cfd(cfd, delta, delta_set, plans)
            if not changed:
                converged = True
                break

        changes = self._collect_changes(originals)
        cost = sum(self._cost_model.change_cost(c.tid, c.attribute, c.old_value, c.new_value)
                   for c in changes)
        if not converged:
            converged = self._delta_clean(delta_set)
        return Repair(relation=self._relation, changes=changes, cost=cost,
                      passes=passes, converged=converged)

    # -- per-CFD repair ------------------------------------------------------------

    def _repair_cfd(self, cfd: CFD, delta: list[int], delta_set: set[int],
                    plans: dict[tuple[CFD, PatternTuple], RepairPlan]) -> bool:
        changed = False
        relation = self._relation
        # the store's maintained index and its buckets' smallest tids,
        # which every write keeps current
        index = relation.columns.index(cfd.lhs)
        smallest = index.smallest_tids()
        for pattern in cfd.tableau:
            key = (cfd, pattern)
            plan = plans.get(key)
            if plan is None:
                plan = RepairPlan(cfd, pattern, relation)
                plans[key] = plan

            for tid in delta:
                if not plan.lhs_matches(tid):
                    continue

                # constant part: write the pattern's RHS constants
                for attribute, _position, column, target, target_str, _code in plan.constant_rhs:
                    if column.strings[column.codes[tid]] != target_str:
                        relation.update(tid, attribute, target)
                        changed = True

                if not plan.variable_rhs:
                    continue

                key_codes = plan.key_codes(tid)
                if NULL_CODE in key_codes:
                    continue
                base_tid: int | None = smallest[key_codes]
                if base_tid in delta_set:  # the group may hold no base tuple
                    base_tid = min(index.bucket_view(key_codes).difference(delta_set),
                                   default=None)
                if base_tid is not None:
                    # the base is clean: adopt its RHS values
                    if not plan.lhs_matches(base_tid):
                        continue
                    for attribute, _position, column in plan.variable_rhs:
                        codes, strings = column.codes, column.strings
                        if strings[codes[tid]] != strings[codes[base_tid]]:
                            relation.update(tid, attribute, column.value_of(codes[base_tid]))
                            changed = True
                else:
                    group = index.bucket_view(key_codes)
                    changed |= self._equalize_delta_group(
                        plan, sorted(t for t in group if t != tid) + [tid])
        return changed

    def _equalize_delta_group(self, plan: RepairPlan, tids: list[int]) -> bool:
        relation = self._relation
        live = [tid for tid in tids
                if tid in relation and plan.lhs_matches(tid)]
        if len(live) < 2:
            return False
        changed = False
        for attribute, _position, column in plan.variable_rhs:
            codes, strings = column.codes, column.strings
            cells = [(tid, codes[tid]) for tid in live]
            if len({strings[code] for _, code in cells}) <= 1:
                continue
            target_code, _ = self._cost_model.cheapest_target_code(attribute, column, cells)
            target_str = strings[target_code]
            target_value = column.value_of(target_code)
            for tid, code in cells:
                if strings[code] != target_str:
                    relation.update(tid, attribute, target_value)
                    changed = True
        return changed

    # -- bookkeeping ----------------------------------------------------------------

    def _collect_changes(self, originals: dict[int, list[int]]) -> list[CellChange]:
        """Change sweep on codes: per-code string compares, decode only changed cells."""
        changes = []
        relation = self._relation
        names = [name.lower() for name in relation.schema.attribute_names]
        columns = relation.columns.columns()
        for tid, before in originals.items():
            if tid not in relation:
                continue
            for name, column, old in zip(names, columns, before):
                new = column.codes[tid]
                if new != old and column.strings[old] != column.strings[new]:
                    changes.append(CellChange(tid, name, column.values[old],
                                              column.values[new]))
        return changes

    def _delta_clean(self, delta_set: set[int]) -> bool:
        report = CFDDetector(self._relation, self._cfds).detect()
        return not (report.violating_tids() & delta_set)
