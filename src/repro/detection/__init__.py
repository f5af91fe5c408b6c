"""Violation detection for CFDs and CINDs.

Two detection paths are provided for CFDs, mirroring the evaluation of
Fan et al.:

* a **direct** index-based detector (:class:`~repro.detection.cfd_detect.CFDDetector`),
  which groups tuples on each CFD's LHS once and checks every pattern
  per group; given :func:`~repro.constraints.cfd.merge_cfds` of a set of
  CFDs, it detects the CFDs sharing an embedded FD in one pass over
  their merged tableau;
* a **SQL-based** detector (:class:`~repro.detection.cfd_detect.SQLCFDDetector`),
  which generates the pair of detection queries of the paper (one for
  single-tuple violations, one for group violations) and runs them on the
  library's SQL engine.

Additionally:

* :mod:`repro.detection.incremental` maintains violations under tuple
  insertions and deletions without re-scanning the whole relation;
* :mod:`repro.detection.cind_detect` detects CIND violations across two
  relations.

Every detector runs in-process, on the relations' dictionary codes.
"""

from repro.detection.cfd_detect import CFDDetector, SQLCFDDetector, detect_cfd_violations
from repro.detection.cind_detect import CINDDetector, detect_cind_violations
from repro.detection.incremental import IncrementalCFDDetector

__all__ = [
    "CFDDetector",
    "SQLCFDDetector",
    "IncrementalCFDDetector",
    "CINDDetector",
    "detect_cfd_violations",
    "detect_cind_violations",
]
