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
per-code string caches, and delta-group equalization uses the cost
model's code-level face.  ``engine=``/``workers=`` route the final
delta-cleanliness detection through the chunked execution engine.

A delta tuple finds its base group by probing the relation's maintained
LHS index (:meth:`~repro.relational.columns.ColumnStore.index`), which the
column store keeps current under every insert, delete and update, so a
batch costs work in proportion to the delta rather than a scan of the
relation per CFD per pass.  The first repair on a relation registers the
index (one scan); :meth:`Relation.copy` carries none.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.constraints.cfd import CFD, merge_cfds
from repro.constraints.tableau import PatternTuple
from repro.detection.batch import BatchCFDDetector
from repro.relational.columns import NULL_CODE
from repro.relational.relation import Relation
from repro.repair.batch_repair import CellChange, Repair, RepairPlan
from repro.repair.cost import CostModel


class IncRepair:
    """Repairs a batch of new tuples against a clean base relation."""

    def __init__(self, relation: Relation, cfds: Sequence[CFD],
                 cost_model: CostModel | None = None, max_passes: int = 5,
                 engine: str | None = None, workers: int | None = None) -> None:
        for cfd in cfds:
            cfd.validate_against(relation)
        self._relation = relation
        self._cfds = merge_cfds(cfds)
        self._cost_model = cost_model or CostModel()
        self._max_passes = max_passes
        self._engine_name = engine
        self._workers = workers

    def repair_delta(self, delta_tids: Iterable[int]) -> Repair:
        """Repair the tuples *delta_tids* in place (only those may change)."""
        delta = [tid for tid in delta_tids if tid in self._relation]
        delta_set = set(delta)
        originals = {tid: dict(self._relation.tuple(tid).as_dict()) for tid in delta}

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
        # the store's maintained index: this call writes only RHS attributes
        # of cfd, never its LHS, so the buckets hold still while it runs
        index = relation.columns.index(cfd.lhs)
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
                group = index.bucket_view(key_codes)
                base_tids = sorted(t for t in group if t not in delta_set)
                if base_tids:
                    # the base is clean: adopt its RHS values
                    base_tid = base_tids[0]
                    if not plan.lhs_matches(base_tid):
                        continue
                    for attribute, _position, column in plan.variable_rhs:
                        codes, strings = column.codes, column.strings
                        if strings[codes[tid]] != strings[codes[base_tid]]:
                            relation.update(tid, attribute, column.value_of(codes[base_tid]))
                            changed = True
                else:
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

    def _collect_changes(self, originals: dict[int, dict[str, Any]]) -> list[CellChange]:
        changes = []
        for tid, original in originals.items():
            if tid not in self._relation:
                continue
            current = self._relation.tuple(tid)
            for attribute, old_value in original.items():
                new_value = current[attribute]
                if str(old_value) != str(new_value):
                    changes.append(CellChange(tid, attribute.lower(), old_value, new_value))
        return changes

    def _delta_clean(self, delta_set: set[int]) -> bool:
        report = BatchCFDDetector(self._relation, self._cfds,
                                  engine=self._engine_name,
                                  workers=self._workers).detect()
        return not (report.violating_tids() & delta_set)
