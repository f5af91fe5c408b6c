"""Constraint-based data repairing, following Cong et al. (VLDB 2007).

Given a dirty relation and a set of CFDs, *repairing* produces another
relation that satisfies the CFDs and minimally differs from the original
(§5 of the tutorial, the Semandaq repair engine).  The package provides:

* a cell-level cost model (:mod:`repro.repair.cost`) whose target
  selection runs on dictionary codes (per-column ``(code, code)``
  distance memo),
* equivalence classes of ``(tid, column position)`` cells
  (:mod:`repro.repair.eqclass`) — the central data structure of the
  algorithm: cells in one class must receive the same value in the
  repair, and pinned classes carry dictionary codes,
* :class:`~repro.repair.batch_repair.BatchRepair` — repair a whole dirty
  relation on dictionary codes,
* :class:`~repro.repair.inc_repair.IncRepair` — repair only a batch of
  newly inserted tuples against an already-clean base, and
* repair-quality metrics (precision / recall against a known clean
  relation, :mod:`repro.repair.quality`).
"""

from repro.repair.cost import CostModel
from repro.repair.eqclass import CodeEquivalenceClasses
from repro.repair.batch_repair import BatchRepair, Repair, CellChange, RepairPlan
from repro.repair.inc_repair import IncRepair
from repro.repair.quality import RepairQuality, evaluate_repair

__all__ = [
    "CostModel",
    "CodeEquivalenceClasses",
    "BatchRepair",
    "IncRepair",
    "Repair",
    "RepairPlan",
    "CellChange",
    "RepairQuality",
    "evaluate_repair",
]
