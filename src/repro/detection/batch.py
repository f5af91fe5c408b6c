"""Merged-tableau (batch) detection of many CFDs.

When several CFDs share the same embedded FD ``X → Y`` (differing only in
their pattern tuples), Fan et al. detect them together: the pattern
tableaux are merged and the relation is grouped on ``X`` **once**, instead
of once per CFD.  The per-group work then checks every pattern against the
group.  :class:`BatchCFDDetector` implements this on the columnar
substrate (grouping by integer code tuples, patterns compiled once to code
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
from repro.detection.columnar import NULL_CODE, CompiledPattern, compile_tableau
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
        self._compiled: list[list[CompiledPattern]] | None = None

    @property
    def merged_cfds(self) -> list[CFD]:
        """The CFDs after merging tableaux (one per embedded FD)."""
        return list(self._merged)

    # -- batch path ---------------------------------------------------------------

    def detect(self) -> ViolationReport:
        """One grouping pass per embedded FD, all patterns checked per group."""
        report = ViolationReport(self._relation.name, tuples_checked=len(self._relation))
        compiled = self._compile()
        if self._pool is not None:
            if self._chunked is None:
                self._chunked = ChunkedCFDEngine(self._relation,
                                                 list(zip(self._merged, compiled)),
                                                 self._pool, kind="batch")
            found = self._chunked.detect()
        else:
            found = [self._detect_merged(cfd, patterns)
                     for cfd, patterns in zip(self._merged, compiled)]
        for violations in found:
            report.extend(violations)
        return report

    def _compile(self) -> list[list[CompiledPattern]]:
        # compiled plans read live code arrays and matcher sets, so one
        # compilation serves the detector's lifetime
        if self._compiled is None:
            self._compiled = [compile_tableau(cfd, self._relation) for cfd in self._merged]
        return self._compiled

    def _index(self, lhs: Sequence[str]) -> HashIndex:
        """The index a group pass iterates: a fresh scan of the relation."""
        return HashIndex(self._relation, list(lhs))

    def _detect_merged(self, cfd: CFD,
                       patterns: Sequence[CompiledPattern]) -> list[CFDViolation]:
        """Batch detection of one merged CFD.

        Group violations come after the single-tuple ones, ordered by
        their bucket's smallest tid and then by pattern.  Live tids
        ascend, so that is a fresh index's first-occurrence order, in
        whatever order :meth:`_index` iterates its buckets.
        """
        violations: list[CFDViolation] = []

        # single-tuple violations: check every tuple against every pattern
        # with RHS constants, in one scan over the code arrays.
        constant_patterns = [cp for cp in patterns if cp.rhs_tests]
        if constant_patterns:
            for tid in self._relation.tids():
                for cp in constant_patterns:
                    if cp.lhs_matches(tid) and not cp.rhs_constants_match(tid):
                        violations.append(CFDViolation(cfd, cp.pattern, (tid,)))

        # group violations: one pass over the code-keyed buckets, one test
        # per bucket and pattern; only a violating bucket is sorted (by the
        # violation, which sorts its tids).  The test counts each bucket's
        # codes rather than reading a maintained tally: every bucket is
        # checked once here, and a prototype that kept tallies for this
        # detector too read clean-session 8.5% slower, mostly in tally
        # upkeep under BatchRepair's writes to its working copy.
        variable_patterns = [cp for cp in patterns if cp.variable_rhs]
        if variable_patterns:
            groups: list[CFDViolation] = []
            for key, bucket in self._index(cfd.lhs).bucket_items():
                if len(bucket) < 2 or NULL_CODE in key:
                    continue
                for cp in variable_patterns:
                    if cp.group_violates(bucket):
                        groups.append(CFDViolation(cfd, cp.pattern, tuple(bucket)))
            # by smallest tid; stable, so pattern order within a bucket
            groups.sort(key=lambda violation: violation.tids[0])
            violations.extend(groups)
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
