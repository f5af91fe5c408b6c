"""E3 — merged-tableau (batch) detection vs. one detection pass per CFD.

Source shape (Fan et al., Semandaq): when many CFDs share an embedded FD,
detecting them together over a merged tableau beats issuing one scan per
CFD, by a margin that widens with the number of CFDs.  Both sides run
the one in-process detector: ``CFDDetector`` over the merged CFDs, and
a loop of ``CFDDetector`` over each CFD alone.
"""

from __future__ import annotations

import time

import pytest

from repro.constraints.cfd import merge_cfds
from repro.constraints.violations import ViolationReport
from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.detection.cfd_detect import CFDDetector

from conftest import print_series

CFD_COUNTS = [4, 16, 48]
RELATION_SIZE = 3000


def _workload(cfd_count: int):
    generator = CustomerGenerator(seed=303)
    clean = generator.generate(RELATION_SIZE)
    dirty = inject_noise(clean, rate=0.05, attributes=["street"], seed=11).dirty
    return dirty, CustomerGenerator.extended_cfds(cfd_count)


def detect_per_cfd(relation, cfds) -> ViolationReport:
    """The naive baseline: one full detection pass per CFD."""
    report = ViolationReport(relation.name, tuples_checked=len(relation))
    for cfd in cfds:
        report.extend(CFDDetector(relation, [cfd]).detect())
    return report


@pytest.mark.parametrize("cfd_count", CFD_COUNTS)
def test_e03_batch_merged_detection(benchmark, cfd_count):
    relation, cfds = _workload(cfd_count)
    detector = CFDDetector(relation, merge_cfds(cfds))
    benchmark(detector.detect)


@pytest.mark.parametrize("cfd_count", CFD_COUNTS)
def test_e03_naive_per_cfd_detection(benchmark, cfd_count):
    relation, cfds = _workload(cfd_count)
    benchmark.pedantic(lambda: detect_per_cfd(relation, cfds), rounds=2, iterations=1)


def test_e03_series(benchmark):
    def compute():
        rows = []
        for cfd_count in CFD_COUNTS:
            relation, cfds = _workload(cfd_count)
            detector = CFDDetector(relation, merge_cfds(cfds))

            started = time.perf_counter()
            merged = detector.detect()
            merged_seconds = time.perf_counter() - started

            started = time.perf_counter()
            naive = detect_per_cfd(relation, cfds)
            naive_seconds = time.perf_counter() - started

            assert merged.violating_tids() == naive.violating_tids()
            rows.append([cfd_count, merged_seconds, naive_seconds,
                         naive_seconds / merged_seconds if merged_seconds else float("inf")])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_series("E3: merged-tableau vs. per-CFD detection (3000 tuples)",
                 ["cfds", "merged_s", "per_cfd_s", "speedup"], rows)
    # shape: the merged path wins, and the margin grows with the number of CFDs
    assert rows[-1][3] > 1.0
    assert rows[-1][3] >= rows[0][3]
