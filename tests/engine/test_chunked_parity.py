"""Chunk-boundary parity: the engine must reproduce sequential reports.

The contract of :mod:`repro.engine` is that chunked detection — for
*every* chunk size and worker count — produces a
:class:`~repro.constraints.violations.ViolationReport` that is
byte-identical to the sequential path (whose reports the oracle suites
check against the definitions).  Chunk sizes 1, 2, a prime and "larger
than the relation" force groups to straddle every possible boundary
layout; the mutation tests re-run detection after interleaved inserts,
deletes and updates so tombstoned tid ranges are covered too.
"""

import pytest

from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.datagen.orders import OrdersGenerator
from repro.detection.batch import BatchCFDDetector
from repro.detection.cfd_detect import CFDDetector
from repro.detection.cind_detect import CINDDetector
from repro.detection.columnar import compile_tableau
from repro.engine.detect import ChunkedCFDEngine, ChunkedCINDEngine
from repro.engine.executor import MultiprocessingPool, SerialPool
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema

CHUNK_SIZES = [1, 2, 7, 10_000]


def report_fingerprint(violations):
    """Full observable content (constraint, pattern, tids), order included."""
    return [(v.cfd, v.pattern, v.tids) for v in violations]


def cind_fingerprint(violations):
    return [(v.cind, v.tid) for v in violations]


def noisy_customer(size, seed=101, rate=0.08):
    generator = CustomerGenerator(seed=seed)
    dirty = inject_noise(generator.generate(size), rate=rate,
                         attributes=["street", "city"], seed=size).dirty
    return dirty, generator.canonical_cfds()


def chunked_cfd_violations(relation, cfds, pool, kind="cfd", enumerate_pairs=False):
    items = [(cfd, compile_tableau(cfd, relation)) for cfd in cfds]
    engine = ChunkedCFDEngine(relation, items, pool, kind=kind,
                              enumerate_pairs=enumerate_pairs)
    return [violation for per_cfd in engine.detect() for violation in per_cfd]


class TestChunkBoundaryParity:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_cfd_detection_is_byte_identical_per_chunk_size(self, chunk_size):
        relation, cfds = noisy_customer(180)
        sequential = CFDDetector(relation, cfds, engine="sequential").detect()
        chunked = chunked_cfd_violations(relation, cfds,
                                         SerialPool(chunk_size=chunk_size))
        assert report_fingerprint(chunked) == report_fingerprint(sequential)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_enumerate_pairs_is_byte_identical(self, chunk_size):
        relation, cfds = noisy_customer(140)
        sequential = CFDDetector(relation, cfds, enumerate_pairs=True).detect()
        chunked = chunked_cfd_violations(relation, cfds,
                                         SerialPool(chunk_size=chunk_size),
                                         enumerate_pairs=True)
        assert report_fingerprint(chunked) == report_fingerprint(sequential)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_batch_detection_is_byte_identical(self, chunk_size):
        relation, cfds = noisy_customer(200)
        sequential = BatchCFDDetector(relation, cfds).detect()
        chunked = BatchCFDDetector(relation, cfds, engine="serial").detect()
        # also drive the engine with the explicit chunk size
        merged = BatchCFDDetector(relation, cfds).merged_cfds
        explicit = chunked_cfd_violations(relation, merged,
                                          SerialPool(chunk_size=chunk_size),
                                          kind="batch")
        assert report_fingerprint(chunked) == report_fingerprint(sequential)
        assert report_fingerprint(explicit) == report_fingerprint(sequential)

    @pytest.mark.parametrize("chunk_size", [1, 3, 10_000])
    def test_cind_detection_is_byte_identical(self, chunk_size):
        database, expected = OrdersGenerator(seed=7).generate(150, violation_rate=0.12)
        cind = OrdersGenerator.canonical_cind()
        sequential = CINDDetector(database, [cind]).detect()
        engine = ChunkedCINDEngine(database, [cind],
                                   SerialPool(chunk_size=chunk_size))
        chunked = [violation for per_cind in engine.detect() for violation in per_cind]
        assert cind_fingerprint(chunked) == \
            cind_fingerprint(sequential.cind_violations())
        assert len(chunked) == expected


class TestMultiprocessingParity:
    """Real worker processes (min_rows=0 forces the pool even on tiny data)."""

    def test_cfd_reports_match_across_worker_counts(self):
        relation, cfds = noisy_customer(160)
        sequential = CFDDetector(relation, cfds).detect()
        for workers in (2, 3):
            pool = MultiprocessingPool(workers=workers, min_rows=0)
            chunked = chunked_cfd_violations(relation, cfds, pool)
            assert report_fingerprint(chunked) == report_fingerprint(sequential)

    def test_detector_knobs_reach_the_engine(self):
        relation, cfds = noisy_customer(120)
        sequential = CFDDetector(relation, cfds).detect()
        parallel = CFDDetector(relation, cfds, engine="parallel", workers=2).detect()
        assert report_fingerprint(parallel) == report_fingerprint(sequential)
        assert parallel.summary() == sequential.summary()

    def test_cind_parallel_parity(self):
        database, _ = OrdersGenerator(seed=11).generate(120, violation_rate=0.1)
        cind = OrdersGenerator.canonical_cind()
        sequential = CINDDetector(database, [cind]).detect()
        pool = MultiprocessingPool(workers=2, min_rows=0)
        engine = ChunkedCINDEngine(database, [cind], pool)
        chunked = [violation for per_cind in engine.detect() for violation in per_cind]
        assert cind_fingerprint(chunked) == \
            cind_fingerprint(sequential.cind_violations())


class TestParityUnderMutation:
    def test_interleaved_inserts_and_deletes_stay_in_parity(self):
        relation, cfds = noisy_customer(90)
        detector = CFDDetector(relation, cfds, engine="serial")
        baseline = CFDDetector(relation, cfds)
        assert report_fingerprint(detector.detect()) == \
            report_fingerprint(baseline.detect())

        tids = relation.tids()
        relation.delete(tids[5])
        relation.insert_dict({a: "zz" for a in relation.schema.attribute_names})
        relation.delete(tids[0])
        relation.update(tids[10], "city", "mos")
        relation.insert_dict({a: "yy" for a in relation.schema.attribute_names})

        # both the reused plan and a fresh sequential detector see the changes
        assert report_fingerprint(detector.detect()) == \
            report_fingerprint(CFDDetector(relation, cfds).detect())

    def test_mutation_rebroadcasts_state_to_worker_processes(self):
        relation, cfds = noisy_customer(80)
        detector = CFDDetector(relation, cfds, engine="parallel", workers=2)
        # force the multiprocessing path regardless of relation size
        detector._pool.min_rows = 0
        first = detector.detect()
        assert report_fingerprint(first) == \
            report_fingerprint(CFDDetector(relation, cfds).detect())
        relation.update(relation.tids()[3], "city", "somewhere-new")
        second = detector.detect()
        assert report_fingerprint(second) == \
            report_fingerprint(CFDDetector(relation, cfds).detect())


class TestEngineEdgeCases:
    def test_empty_relation(self):
        schema = RelationSchema("r", [Attribute("x"), Attribute("y")])
        relation = Relation(schema)
        from repro.constraints.cfd import CFD
        cfds = [CFD.single("r", ["x"], ["y"])]
        assert chunked_cfd_violations(relation, cfds, SerialPool()) == []
        report = CFDDetector(relation, cfds, engine="serial").detect()
        assert report.is_clean()

    def test_detect_one_with_registered_and_foreign_cfds(self):
        relation, cfds = noisy_customer(100)
        detector = CFDDetector(relation, cfds, engine="serial")
        sequential = CFDDetector(relation, cfds)
        for cfd in cfds:
            assert report_fingerprint(detector.detect_one(cfd)) == \
                report_fingerprint(sequential.detect_one(cfd))
        # a CFD the detector was not constructed with takes the ephemeral path
        from repro.constraints.cfd import CFD
        foreign = CFD.single("customer", ["zip"], ["city"])
        assert report_fingerprint(detector.detect_one(foreign)) == \
            report_fingerprint(sequential.detect_one(foreign))

    def test_single_chunk_equals_unchunked(self):
        relation, cfds = noisy_customer(60)
        one_chunk = chunked_cfd_violations(relation, cfds, SerialPool(num_chunks=1))
        sequential = CFDDetector(relation, cfds).detect()
        assert report_fingerprint(one_chunk) == report_fingerprint(sequential)

    def test_nulls_and_numeric_patterns_across_chunks(self):
        from repro.constraints.cfd import CFD
        schema = RelationSchema("r", [
            Attribute("x"), Attribute("y"), Attribute("z"),
        ])
        relation = Relation.from_rows(schema, [
            ("1", "a", "p"), ("1", "a", "q"), ("1", "b", "p"),
            (None, "a", "p"), ("2", None, "p"), ("2", "c", "p"), ("2", "c", "q"),
        ])
        cfds = [
            CFD.single("r", ["x"], ["y"]),
            CFD.single("r", ["x"], ["z"], {"x": 1}),
            CFD.single("r", ["x"], ["y"], {"x": "2", "y": "c"}),
        ]
        sequential = CFDDetector(relation, cfds).detect()
        for chunk_size in (1, 2, 3):
            chunked = chunked_cfd_violations(relation, cfds,
                                             SerialPool(chunk_size=chunk_size))
            assert report_fingerprint(chunked) == report_fingerprint(sequential)
