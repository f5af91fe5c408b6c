"""E6 — repair time vs. relation size.

Source shape (Cong et al.): repair time grows superlinearly but stays
practical at the sizes of the experiments; the number of changed cells
tracks the number of injected errors.  ``BatchRepair`` runs on column
codes (compiled pattern tests, per-code string caches, a memoised
``(code, code)`` distance cache).
"""

from __future__ import annotations

import time

import pytest

from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.repair.batch_repair import BatchRepair

from conftest import print_series

SIZES = [500, 1000, 2000, 4000]
NOISE_RATE = 0.05


def _workload(size: int):
    generator = CustomerGenerator(seed=606)
    clean = generator.generate(size)
    noise = inject_noise(clean, rate=NOISE_RATE, attributes=["street", "city"], seed=size)
    return noise.dirty, generator.canonical_cfds(), len(noise.errors)


@pytest.mark.parametrize("size", [500, 2000])
def test_e06_repair_scaling(benchmark, size):
    dirty, cfds, _ = _workload(size)
    benchmark.pedantic(lambda: BatchRepair(dirty.copy(), cfds).repair(),
                       rounds=1, iterations=1)


def test_e06_series(benchmark):
    def compute():
        rows = []
        for size in SIZES:
            dirty, cfds, errors = _workload(size)
            started = time.perf_counter()
            result = BatchRepair(dirty, cfds).repair()
            seconds = time.perf_counter() - started
            rows.append([size, errors, len(result.changes), result.passes, seconds])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_series("E6: repair time vs. relation size (noise 5%)",
                 ["tuples", "errors", "changes", "passes", "seconds"], rows)
    # shape: time grows with size but stays laptop-feasible
    assert rows[-1][4] < 120
    assert rows[-1][4] >= rows[0][4]
