"""Chunk-boundary parity of SQL-generated CFD detection.

Detection's generated statements run on the process-wide default SQL
engine (``REPRO_ENGINE``).  Whatever that engine is — chunked serially at
any chunk size, or fanned out over real worker processes — the report
matched back from the statements' rows must be byte-identical to the one
the sequential engine gives, order included, and hold the in-process
detector's violations (whose reports the oracle suites check against the
definitions).  Chunk sizes 1, 2, a prime and "larger than the relation"
put the pooled scans' chunk boundaries everywhere; the mutation tests
re-run a reused detector after interleaved inserts, deletes and updates,
so tombstoned tid ranges and re-broadcasts to the workers are covered too.
"""

from collections import Counter
from functools import partialmethod

import pytest

from repro import config
from repro.constraints.cfd import CFD, merge_cfds
from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.detection.cfd_detect import CFDDetector, SQLCFDDetector
from repro.engine.executor import ExecutorPool, SerialPool
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.semandaq.session import SemandaqSession

CHUNK_SIZES = [1, 2, 7, 10_000]


def report_fingerprint(violations):
    """Full observable content (constraint, pattern, tids), order included."""
    return [(v.cfd, v.pattern, v.tids) for v in violations]


def noisy_customer(size, seed=101, rate=0.08):
    generator = CustomerGenerator(seed=seed)
    dirty = inject_noise(generator.generate(size), rate=rate,
                         attributes=["street", "city"], seed=size).dirty
    return dirty, generator.canonical_cfds()


def sql_detector(relation, cfds):
    database = Database()
    database.add(relation)
    return SQLCFDDetector(database, cfds)


@pytest.fixture
def default_engine(monkeypatch):
    """Set the SQL engine that detectors built afterwards run on."""

    def use(engine, chunk_size=None, num_chunks=None, workers=None):
        monkeypatch.setenv(config.ENGINE_ENV, engine)
        if engine == "serial" and (chunk_size or num_chunks):
            monkeypatch.setattr(SerialPool, "__init__",
                                partialmethod(ExecutorPool.__init__, chunk_size=chunk_size,
                                              num_chunks=num_chunks))
        if engine == "parallel":
            # fork the pool even for these small relations
            monkeypatch.setenv(config.THRESHOLD_ENV, "0")
            monkeypatch.setenv(config.WORKERS_ENV, str(workers))

    return use


def sequential_report(relation, cfds, default_engine):
    """The sequential engine's report, checked against the in-process detector."""
    default_engine("sequential")
    report = report_fingerprint(sql_detector(relation, cfds).detect())
    assert Counter(report) == Counter(report_fingerprint(CFDDetector(relation, cfds).detect()))
    return report


class TestChunkBoundaryParity:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_cfd_detection_is_byte_identical_per_chunk_size(self, chunk_size,
                                                            default_engine):
        relation, cfds = noisy_customer(180)
        sequential = sequential_report(relation, cfds, default_engine)
        default_engine("serial", chunk_size=chunk_size)
        chunked = sql_detector(relation, cfds).detect()
        assert report_fingerprint(chunked) == sequential

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_merged_detection_is_byte_identical(self, chunk_size, default_engine):
        relation, cfds = noisy_customer(200)
        merged = merge_cfds(cfds)
        sequential = sequential_report(relation, merged, default_engine)
        default_engine("serial", chunk_size=chunk_size)
        chunked = sql_detector(relation, merged).detect()
        assert report_fingerprint(chunked) == sequential


class TestMultiprocessingParity:
    """Real worker processes (a zero threshold forces the pool on tiny data)."""

    def test_cfd_reports_match_across_worker_counts(self, default_engine):
        relation, cfds = noisy_customer(160)
        sequential = sequential_report(relation, cfds, default_engine)
        for workers in (2, 3):
            default_engine("parallel", workers=workers)
            pooled = sql_detector(relation, cfds).detect()
            assert report_fingerprint(pooled) == sequential

    def test_session_detection_runs_on_the_default_engine(self, default_engine):
        relation, cfds = noisy_customer(120)
        default_engine("sequential")
        session = SemandaqSession(relation)
        session.register_cfds(cfds)
        sequential = session.detect()
        default_engine("parallel", workers=2)
        pooled = SemandaqSession(relation)
        pooled.register_cfds(cfds)
        parallel = pooled.detect()
        assert report_fingerprint(parallel) == report_fingerprint(sequential)
        assert parallel.summary() == sequential.summary()


class TestParityUnderMutation:
    def test_interleaved_inserts_and_deletes_stay_in_parity(self, default_engine):
        relation, cfds = noisy_customer(90)
        default_engine("serial")
        detector = sql_detector(relation, cfds)
        assert report_fingerprint(detector.detect()) == \
            sequential_report(relation, cfds, default_engine)

        tids = relation.tids()
        relation.delete(tids[5])
        relation.insert_dict({a: "zz" for a in relation.schema.attribute_names})
        relation.delete(tids[0])
        relation.update(tids[10], "city", "mos")
        relation.insert_dict({a: "yy" for a in relation.schema.attribute_names})

        # the reused detector's engine sees the changes a fresh one does
        assert report_fingerprint(detector.detect()) == \
            sequential_report(relation, cfds, default_engine)

    def test_mutation_rebroadcasts_state_to_worker_processes(self, default_engine):
        relation, cfds = noisy_customer(80)
        default_engine("parallel", workers=2)
        detector = sql_detector(relation, cfds)
        first = report_fingerprint(detector.detect())
        assert first == sequential_report(relation, cfds, default_engine)
        # a tuple the constant CFD (cc='01', ac='908') -> (city='mh') accepts;
        # its single-tuple statement is a pooled scan
        tid = next(t for t in relation.tids()
                   if (relation.value(t, "cc"), relation.value(t, "ac"),
                       relation.value(t, "city")) == ("01", "908", "mh"))
        relation.update(tid, "city", "somewhere-new")
        second = report_fingerprint(detector.detect())
        # workers still holding the old arrays would miss the new violation
        assert second != first
        assert second == sequential_report(relation, cfds, default_engine)


class TestEngineEdgeCases:
    def test_empty_relation(self, default_engine):
        relation = Relation(RelationSchema("r", [Attribute("x"), Attribute("y")]))
        cfds = [CFD.single("r", ["x"], ["y"]), CFD.single("r", ["x"], ["y"], {"y": "a"})]
        default_engine("serial")
        assert sql_detector(relation, cfds).detect().is_clean()

    def test_single_chunk_equals_unchunked(self, default_engine):
        relation, cfds = noisy_customer(60)
        sequential = sequential_report(relation, cfds, default_engine)
        default_engine("serial", num_chunks=1)
        one_chunk = sql_detector(relation, cfds).detect()
        assert report_fingerprint(one_chunk) == sequential

    def test_nulls_and_numeric_patterns_across_chunks(self, default_engine):
        schema = RelationSchema("r", [Attribute("x"), Attribute("y"), Attribute("z")])
        relation = Relation.from_rows(schema, [
            ("1", "a", "p"), ("1", "a", "q"), ("1", "b", "p"),
            (None, "a", "p"), ("2", None, "p"), ("2", "c", "p"), ("2", "c", "q"),
        ])
        cfds = [
            CFD.single("r", ["x"], ["y"]),
            CFD.single("r", ["x"], ["z"], {"x": 1}),
            CFD.single("r", ["x"], ["y"], {"x": "2", "y": "c"}),
        ]
        sequential = sequential_report(relation, cfds, default_engine)
        assert sequential
        for chunk_size in (1, 2, 3):
            default_engine("serial", chunk_size=chunk_size)
            chunked = sql_detector(relation, cfds).detect()
            assert report_fingerprint(chunked) == sequential
