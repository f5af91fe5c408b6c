"""E9 — CFD discovery runtime and output size vs. data size and support.

Source shape (CFDMiner / CTANE line of work): runtime grows with the
relation size; the number of discovered constant CFDs falls as the support
threshold rises; everything discovered actually holds on the data.  The
support sweep also counts the stripped partitions discovery builds: one
per left-hand side, none for ``X ∪ {A}``.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.datagen.customer import CustomerGenerator
from repro.detection.cfd_detect import detect_cfd_violations
from repro.discovery.cfd_discovery import CFDDiscovery

from conftest import print_series

SIZES = [200, 400, 800]
SUPPORTS = [3, 10, 40]


def _relation(size: int):
    return CustomerGenerator(seed=909).generate(size)


@pytest.mark.parametrize("size", SIZES)
def test_e09_discovery_scaling(benchmark, size):
    relation = _relation(size)
    benchmark.pedantic(
        lambda: CFDDiscovery(relation, min_support=5, max_lhs_size=2).discover(),
        rounds=1, iterations=1)


def test_e09_series_support_sweep(benchmark):
    def compute():
        relation = _relation(400)
        rows = []
        for support in SUPPORTS:
            discovery = CFDDiscovery(relation, min_support=support, max_lhs_size=2)
            started = time.perf_counter()
            constant = discovery.discover_constant_cfds()
            variable = discovery.discover_variable_cfds()
            seconds = time.perf_counter() - started
            assert detect_cfd_violations(relation, constant + variable).is_clean()
            rows.append([support, len(constant), len(variable), seconds])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_series("E9: discovered CFDs vs. support threshold (400 tuples)",
                 ["min_support", "constant_cfds", "variable_cfds", "seconds"], rows)
    # shape: higher support -> fewer constant CFDs
    assert rows[-1][1] <= rows[0][1]
    # one partition per LHS set of the 7-attribute relation, C(7,1) + C(7,2),
    # shared by every support through the relation's partition cache: no
    # X ∪ {A} partition is built to decide X → A
    counters = obs.metrics()["counters"]
    assert counters["discovery.partition.scan"] + \
        counters["discovery.partition.product"] == 28


def test_e09_series_size_sweep(benchmark):
    def compute():
        rows = []
        for size in SIZES:
            relation = _relation(size)
            started = time.perf_counter()
            discovered = CFDDiscovery(relation, min_support=5, max_lhs_size=2).discover()
            seconds = time.perf_counter() - started
            rows.append([size, len(discovered), seconds])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_series("E9: discovery runtime vs. relation size (support 5)",
                 ["tuples", "cfds", "seconds"], rows)
    assert rows[-1][2] >= rows[0][2]
