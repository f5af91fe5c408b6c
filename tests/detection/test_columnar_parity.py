"""Detection on the seed datasets, checked against the definitions.

Two families:

* **definition** — on the seed datagen datasets, CFD/CIND/batch detection
  must report exactly the violations :mod:`oracle.definitions` derives
  from the rows (compared as multisets);
* **randomized equivalence** — under a random stream of inserts, deletes
  and cell updates, :class:`IncrementalCFDDetector` must maintain exactly
  the report a full re-detection would produce.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import definitions as oracle
from repro.constraints.cfd import CFD, merge_cfds
from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.datagen.orders import OrdersGenerator
from repro.detection.cfd_detect import CFDDetector
from repro.detection.cind_detect import CINDDetector
from repro.detection.incremental import IncrementalCFDDetector
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema


def report_fingerprint(report):
    """The full observable content of a report, order included."""
    return [(v.cfd, v.pattern, v.tids) for v in report]


def noisy_customer(size, seed=101, rate=0.08):
    generator = CustomerGenerator(seed=seed)
    clean = generator.generate(size)
    dirty = inject_noise(clean, rate=rate,
                         attributes=["street", "city"], seed=size).dirty
    return dirty, generator.canonical_cfds()


def matches_definition(report, relation, cfds):
    return Counter(report_fingerprint(report)) == Counter(oracle.cfd_violations(relation, cfds))


class TestCFDDetectionDefinition:
    @pytest.mark.parametrize("size", [120, 500])
    def test_detector_reports_match_definition(self, size):
        relation, cfds = noisy_customer(size)
        report = CFDDetector(relation, cfds).detect()
        assert matches_definition(report, relation, cfds)
        assert not report.is_clean()

    def test_batch_detector_matches_definition(self):
        relation, cfds = noisy_customer(300)
        report = CFDDetector(relation, merge_cfds(cfds)).detect()
        assert {(v.cfd.lhs, v.cfd.rhs, v.pattern, v.tids) for v in report} == \
            {(c.lhs, c.rhs, p, t) for c, p, t in oracle.cfd_violations(relation, cfds)}

    def test_nulls_and_numeric_patterns_match_definition(self):
        schema = RelationSchema("r", [
            Attribute("x"), Attribute("y"), Attribute("z"),
        ])
        relation = Relation.from_rows(schema, [
            ("1", "a", "p"), ("1", "a", "q"), ("1", "b", "p"),
            (None, "a", "p"), ("2", None, "p"), ("2", "c", "p"), ("2", "c", "q"),
        ])
        cfds = [
            CFD.single("r", ["x"], ["y"]),
            CFD.single("r", ["x"], ["z"], {"x": 1}),          # int constant vs str data
            CFD.single("r", ["x"], ["y"], {"x": "2", "y": "c"}),
        ]
        report = CFDDetector(relation, cfds).detect()
        assert matches_definition(report, relation, cfds)
        assert not report.is_clean()

    def test_detection_after_mutations_matches_definition(self):
        relation, cfds = noisy_customer(100)
        _ = relation.columns  # force the store to exist before the mutations
        tids = relation.tids()
        relation.delete(tids[3])
        relation.update(tids[10], "city", "mos")
        relation.insert_dict({a: "zz" for a in relation.schema.attribute_names})
        report = CFDDetector(relation, cfds).detect()
        assert matches_definition(report, relation, cfds)


class TestCINDDetectionDefinition:
    def test_orders_database_matches_definition(self):
        database, expected = OrdersGenerator(seed=7).generate(400, violation_rate=0.1)
        cind = OrdersGenerator.canonical_cind()
        violations = CINDDetector(database, [cind]).detect().cind_violations()
        tids = [v.tid for v in violations]
        assert tids == sorted(tids)  # LHS scan order
        assert Counter((v.cind, v.tid) for v in violations) == \
            Counter(oracle.cind_violations(database, [cind]))
        assert len(violations) == expected


SCHEMA = RelationSchema("r", [Attribute("x"), Attribute("y"), Attribute("z")])
CFDS = [
    CFD.single("r", ["x"], ["y"]),
    CFD.single("r", ["x"], ["z"], {"x": "a", "z": "p"}),
    CFD.single("r", ["x", "y"], ["z"], {"x": "b"}),
]

values = st.sampled_from(["a", "b", "c"])
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), values, values, values),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=60)),
        st.tuples(st.just("update"), st.integers(min_value=0, max_value=60),
                  st.sampled_from(["x", "y", "z"]), values),
    ),
    min_size=1, max_size=40,
)


class TestIncrementalEquivalence:
    @given(operations)
    @settings(max_examples=40, deadline=None)
    def test_random_stream_matches_full_detection(self, ops):
        relation = Relation(SCHEMA)
        incremental = IncrementalCFDDetector(relation, CFDS)
        for op in ops:
            if op[0] == "insert":
                incremental.insert_tuple({"x": op[1], "y": op[2], "z": op[3]})
            elif op[0] == "delete":
                live = relation.tids()
                if live:
                    incremental.delete_tuple(live[op[1] % len(live)])
            else:
                live = relation.tids()
                if live:
                    incremental.update_cell(live[op[1] % len(live)], op[2], op[3])
        maintained = Counter(report_fingerprint(incremental.current_report()))
        # full detection over the merged CFDs (what the detector maintains)
        full = Counter(report_fingerprint(
            CFDDetector(relation, incremental._merged).detect()))
        assert maintained == full

    def test_stream_on_seed_dataset(self):
        relation, cfds = noisy_customer(80)
        incremental = IncrementalCFDDetector(relation, cfds)
        incremental.insert_tuple({"cc": "44", "ac": "131", "phn": "1", "name": "n",
                                  "street": "s1", "city": "edi", "zip": "EH8"})
        incremental.insert_tuple({"cc": "44", "ac": "131", "phn": "2", "name": "n",
                                  "street": "s2", "city": "gla", "zip": "EH8"})
        incremental.delete_tuple(relation.tids()[0])
        incremental.update_cell(relation.tids()[5], "city", "unknown")
        maintained = Counter(report_fingerprint(incremental.current_report()))
        full = Counter(report_fingerprint(
            CFDDetector(relation, incremental._merged).detect()))
        assert maintained == full
