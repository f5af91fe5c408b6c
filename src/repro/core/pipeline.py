"""The high-level cleaning API.

These functions wrap the detection, repair, discovery and matching
packages with sensible defaults; each accepts the underlying objects for
full control.  :class:`CleaningPipeline` strings detection and repair
together and, when ground truth is available, evaluates the repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.constraints.cfd import CFD, merge_cfds
from repro.constraints.cind import CIND
from repro.constraints.parse import parse_cfd
from repro.constraints.violations import ViolationReport
from repro.detection.cfd_detect import CFDDetector
from repro.detection.cind_detect import CINDDetector
from repro.discovery.cfd_discovery import CFDDiscovery
from repro.errors import ReproError
from repro.matching.derivation import derive_rcks
from repro.matching.evaluation import MatchQuality, evaluate_matching
from repro.matching.matcher import MatchDecision, RecordMatcher
from repro.matching.rck import RelativeCandidateKey
from repro.matching.rules import MatchingRule
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.repair.batch_repair import BatchRepair, Repair
from repro.repair.cost import CostModel
from repro.repair.quality import RepairQuality, evaluate_repair


def _as_cfds(cfds: Sequence[CFD | str]) -> list[CFD]:
    return [parse_cfd(cfd) if isinstance(cfd, str) else cfd for cfd in cfds]


def detect_violations(data: Relation | Database,
                      cfds: Sequence[CFD | str] = (),
                      cinds: Sequence[CIND] = ()) -> ViolationReport:
    """Detect CFD and/or CIND violations on a relation or database."""
    if not cfds and not cinds:
        raise ReproError("detect_violations needs at least one constraint")
    reports: list[ViolationReport] = []
    if cfds:
        parsed = _as_cfds(cfds)
        if isinstance(data, Database):
            names = {cfd.relation_name.lower() for cfd in parsed}
            for name in names:
                relevant = [c for c in parsed if c.relation_name.lower() == name]
                reports.append(CFDDetector(data.relation(name),
                                           merge_cfds(relevant)).detect())
        else:
            reports.append(CFDDetector(data, merge_cfds(parsed)).detect())
    if cinds:
        if not isinstance(data, Database):
            raise ReproError("CIND detection needs a Database (two relations)")
        reports.append(CINDDetector(data, list(cinds)).detect())
    merged = reports[0]
    for report in reports[1:]:
        merged = merged.merge(report)
    return merged


def repair(relation: Relation, cfds: Sequence[CFD | str],
           cost_model: CostModel | None = None, **kwargs) -> Repair:
    """Compute a minimal-cost repair of *relation* under *cfds*."""
    return BatchRepair(relation, _as_cfds(cfds), cost_model=cost_model, **kwargs).repair()


def discover_cfds(relation: Relation, min_support: int = 3,
                  max_lhs_size: int = 2, constant_only: bool = False) -> list[CFD]:
    """Discover CFDs from (reasonably clean) data."""
    discovery = CFDDiscovery(relation, min_support=min_support, max_lhs_size=max_lhs_size)
    return discovery.discover_constant_cfds() if constant_only else discovery.discover()


def match_records(left: Relation, right: Relation,
                  rules: Sequence[MatchingRule] | None = None,
                  rcks: Sequence[RelativeCandidateKey] | None = None,
                  target: Sequence[str] | None = None,
                  blocking: tuple[str, str] | None = None) -> list[MatchDecision]:
    """Match records of two relations using RCKs (derived from *rules* if needed)."""
    if rcks is None:
        if rules is None or target is None:
            raise ReproError("match_records needs either rcks, or rules plus a target list")
        rcks = derive_rcks(rules, target)
    return RecordMatcher(left, right, list(rcks), blocking=blocking).match()


@dataclass
class PipelineResult:
    """Everything a cleaning run produced."""

    report: ViolationReport
    repair: Repair
    quality: RepairQuality | None = None

    def summary(self) -> str:
        parts = [self.report.summary(), self.repair.summary()]
        if self.quality is not None:
            parts.append(repr(self.quality))
        return "\n".join(parts)


class CleaningPipeline:
    """Detect violations, repair them, and (optionally) evaluate the repair."""

    def __init__(self, cfds: Sequence[CFD | str],
                 cost_model: CostModel | None = None) -> None:
        self._cfds = _as_cfds(cfds)
        if not self._cfds:
            raise ReproError("a CleaningPipeline needs at least one CFD")
        self._cost_model = cost_model

    @property
    def cfds(self) -> list[CFD]:
        return list(self._cfds)

    def run(self, dirty: Relation, clean: Relation | None = None) -> PipelineResult:
        """Detect and repair *dirty*; evaluate against *clean* when provided."""
        report = CFDDetector(dirty, merge_cfds(self._cfds)).detect()
        result = BatchRepair(dirty, self._cfds, cost_model=self._cost_model).repair()
        quality = None
        if clean is not None:
            quality = evaluate_repair(clean, dirty, result.relation)
        return PipelineResult(report=report, repair=result, quality=quality)
