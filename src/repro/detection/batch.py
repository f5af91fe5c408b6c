"""Merged-tableau (batch) detection of many CFDs.

When several CFDs share the same embedded FD ``X → Y`` (differing only in
their pattern tuples), Fan et al. detect them together: the pattern
tableaux are merged and the relation is grouped on ``X`` **once**, instead
of once per CFD.  The per-group work then checks every pattern against the
group.  :class:`BatchCFDDetector` implements this on the columnar
substrate (grouping by integer code tuples, patterns compiled to code
tests); the naive alternative (one full detection pass per CFD) is available via
:meth:`BatchCFDDetector.detect_naive` so that benchmarks can compare the
two (experiment E3).  ``engine=``/``workers=`` run the batch pass on the chunked execution engine (:mod:`repro.engine`) with
byte-identical reports.
"""

from __future__ import annotations

from typing import Sequence

from repro.constraints.cfd import CFD, merge_cfds
from repro.constraints.violations import CFDViolation, ViolationReport
from repro.detection.cfd_detect import CFDDetector
from repro.detection.columnar import NULL_CODE, compile_tableau
from repro.engine.detect import ChunkedCFDEngine
from repro.engine.executor import resolve_pool
from repro.relational.index import HashIndex
from repro.relational.relation import Relation


class BatchCFDDetector:
    """Detects a set of CFDs by merging tableaux per embedded FD."""

    def __init__(self, relation: Relation, cfds: Sequence[CFD],
                 engine: str | None = None, workers: int | None = None,
                 task_timeout: float | None = None,
                 task_retries: int | None = None) -> None:
        for cfd in cfds:
            cfd.validate_against(relation)
        self._relation = relation
        self._cfds = list(cfds)
        self._merged = merge_cfds(cfds)
        self._engine_name = engine
        self._workers = workers
        self._pool = resolve_pool(engine, workers, task_timeout=task_timeout,
                                  task_retries=task_retries)
        self._chunked: "ChunkedCFDEngine | None" = None

    @property
    def merged_cfds(self) -> list[CFD]:
        """The CFDs after merging tableaux (one per embedded FD)."""
        return list(self._merged)

    # -- batch path ---------------------------------------------------------------

    def detect(self) -> ViolationReport:
        """One grouping pass per embedded FD, all patterns checked per group."""
        report = ViolationReport(self._relation.name, tuples_checked=len(self._relation))
        if self._pool is not None:
            if self._chunked is None:
                items = [(merged, compile_tableau(merged, self._relation))
                         for merged in self._merged]
                self._chunked = ChunkedCFDEngine(self._relation, items, self._pool,
                                                 kind="batch")
            for violations in self._chunked.detect():
                report.extend(violations)
            return report
        for merged in self._merged:
            report.extend(self._detect_merged(merged))
        return report

    def _detect_merged(self, cfd: CFD) -> list[CFDViolation]:
        """Batch detection of one merged CFD."""
        violations: list[CFDViolation] = []
        compiled = compile_tableau(cfd, self._relation)

        # single-tuple violations: check every tuple against every pattern
        # with RHS constants, in one scan over the code arrays.
        constant_patterns = [cp for cp in compiled if cp.rhs_tests]
        if constant_patterns:
            for tid in self._relation.tids():
                for cp in constant_patterns:
                    if cp.lhs_matches(tid) and not cp.rhs_constants_match(tid):
                        violations.append(CFDViolation(cfd, cp.pattern, (tid,)))

        # group violations: one pass over the code-keyed buckets.
        variable_patterns = [cp for cp in compiled if cp.variable_rhs]
        if variable_patterns:
            index = HashIndex(self._relation, list(cfd.lhs))
            for key, tids in index.bucket_items():
                if len(tids) < 2 or NULL_CODE in key:
                    continue
                ordered = sorted(tids)
                for cp in variable_patterns:
                    matching = cp.group_matching(ordered)
                    if matching is not None and cp.rhs_disagrees(matching):
                        violations.append(CFDViolation(cfd, cp.pattern, tuple(matching)))
        return violations

    # -- naive path -----------------------------------------------------------------

    def detect_naive(self) -> ViolationReport:
        """One full detection pass per original CFD (the baseline E3 compares against)."""
        report = ViolationReport(self._relation.name, tuples_checked=len(self._relation))
        for cfd in self._cfds:
            report.extend(CFDDetector(self._relation, [cfd],
                                      engine=self._engine_name,
                                      workers=self._workers).detect_one(cfd))
        return report

    # -- comparison helper -------------------------------------------------------------

    def violating_tids_agree(self) -> bool:
        """Whether the batch and naive paths implicate the same tuples (sanity check)."""
        return self.detect().violating_tids() == self.detect_naive().violating_tids()
