"""E1 — CFD violation-detection time vs. number of tuples.

Source shape (Fan et al., TODS / Semandaq): detection cost grows roughly
linearly with the relation size, and the SQL-generation path reports the
same violations, in the same order, as the direct index-based path.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.detection.cfd_detect import CFDDetector, SQLCFDDetector
from repro.relational.database import Database

from conftest import print_series

SIZES = [1000, 2000, 4000, 8000]
NOISE_RATE = 0.05


def _workload(size: int):
    generator = CustomerGenerator(seed=101)
    clean = generator.generate(size)
    dirty = inject_noise(clean, rate=NOISE_RATE,
                         attributes=["street", "city"], seed=size).dirty
    return dirty, generator.canonical_cfds()


@pytest.mark.parametrize("size", SIZES)
def test_e01_direct_detection_scaling(benchmark, size):
    """Direct (index-based) detection at each relation size."""
    relation, cfds = _workload(size)
    report = benchmark(lambda: CFDDetector(relation, cfds).detect())
    assert not report.is_clean()


@pytest.mark.parametrize("size", [1000, 4000])
def test_e01_sql_detection_scaling(benchmark, size):
    """SQL-generation detection (the Semandaq path) at two sizes."""
    relation, cfds = _workload(size)
    database = Database()
    database.add(relation)
    report = benchmark.pedantic(
        lambda: SQLCFDDetector(database, cfds).detect(), rounds=1, iterations=1)
    assert not report.is_clean()
    # every generated statement runs on the code-native plan (the autouse
    # fixture switches obs on around each benchmark)
    assert obs.counter("sql.plan.row") == 0
    assert obs.counter("sql.plan.code") == \
        len(SQLCFDDetector(database, cfds).generated_queries())


def test_e01_series_and_path_agreement(benchmark):
    """Print the figure series and check the two paths report the same violations."""

    def compute():
        rows = []
        for size in SIZES:
            relation, cfds = _workload(size)
            database = Database()
            database.add(relation)

            started = time.perf_counter()
            direct = CFDDetector(relation, cfds).detect()
            direct_seconds = time.perf_counter() - started

            started = time.perf_counter()
            via_sql = SQLCFDDetector(database, cfds).detect()
            sql_seconds = time.perf_counter() - started

            assert via_sql.violations == direct.violations
            rows.append([size, len(direct), direct_seconds, sql_seconds])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)

    print_series(
        "E1: CFD detection time vs. number of tuples (noise 5%)",
        ["tuples", "violations", "direct_s", "sql_s"], rows)

    # shape check: roughly linear growth (8x data should stay well under 32x time)
    assert rows[-1][2] < rows[0][2] * 40
