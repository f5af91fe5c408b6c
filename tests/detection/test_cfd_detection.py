"""Tests for direct and SQL-based CFD violation detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.constraints.cfd import CFD, merge_cfds
from repro.constraints.parse import parse_cfd
from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.detection.cfd_detect import CFDDetector, SQLCFDDetector, detect_cfd_violations
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL
from repro.semandaq.session import SemandaqSession


CUSTOMER_SCHEMA = RelationSchema("customer", [
    Attribute("cc"), Attribute("ac"), Attribute("phn"),
    Attribute("city"), Attribute("zip"), Attribute("street"),
])

ROWS = [
    {"cc": "44", "ac": "131", "phn": "1111", "city": "edi", "zip": "EH8", "street": "mayfield"},
    {"cc": "44", "ac": "131", "phn": "2222", "city": "edi", "zip": "EH8", "street": "mayfield"},
    {"cc": "44", "ac": "131", "phn": "3333", "city": "ldn", "zip": "EH8", "street": "crichton"},
    {"cc": "01", "ac": "908", "phn": "4444", "city": "mh", "zip": "07974", "street": "mtn ave"},
    {"cc": "01", "ac": "908", "phn": "4444", "city": "nyc", "zip": "07974", "street": "mtn ave"},
    {"cc": "01", "ac": "212", "phn": "5555", "city": "nyc", "zip": "10012", "street": "bway"},
]


@pytest.fixture
def customer():
    return Relation.from_dicts(CUSTOMER_SCHEMA, ROWS)


@pytest.fixture
def database(customer):
    db = Database()
    db.add(customer)
    return db


UK_CFD = parse_cfd("customer([cc='44', zip] -> [street])")
US_CFD = parse_cfd("customer([cc='01', ac='908', phn] -> [street, city='mh', zip])")


class TestDirectDetection:
    def test_uk_rule_group_violation(self, customer):
        report = detect_cfd_violations(customer, [UK_CFD])
        assert len(report) == 1
        violation = report.violations[0]
        assert violation.is_pair and set(violation.tids) == {0, 1, 2}

    def test_us_rule_single_tuple_violation(self, customer):
        report = detect_cfd_violations(customer, [US_CFD])
        singles = report.single_tuple_violations()
        # tuple 4 has city nyc but the pattern demands mh -> single-tuple violation
        assert {v.tids[0] for v in singles} == {4}
        # tuples 3 and 4 agree on the variable RHS attributes (street, zip), so
        # no additional group violation is reported (the constant attribute
        # city is covered by the single-tuple check, as in Fan et al.'s Q1/Q2).
        assert report.pair_violations() == []
        assert report.violating_tids() == {4}

    def test_clean_relation(self, customer):
        cfd = parse_cfd("customer([cc='86', zip] -> [street])")
        assert detect_cfd_violations(customer, [cfd]).is_clean()

    def test_wildcard_fd_detection(self, customer):
        cfd = CFD.single("customer", ["zip"], ["city"])
        report = detect_cfd_violations(customer, [cfd])
        keys = {tuple(sorted(v.tids)) for v in report}
        assert keys == {(0, 1, 2), (3, 4)}

    def test_null_lhs_groups_are_skipped(self, customer):
        customer.insert_dict({"cc": "44", "zip": NULL, "street": "x"})
        customer.insert_dict({"cc": "44", "zip": NULL, "street": "y"})
        report = detect_cfd_violations(customer, [UK_CFD])
        assert all(NULL not in
                   [customer.tuple(t)["zip"] for t in v.tids] for v in report)

    def test_null_rhs_counts_as_disagreement(self, customer):
        tid = customer.insert_dict({"cc": "44", "zip": "G1", "street": "high st"})
        customer.insert_dict({"cc": "44", "zip": "G1", "street": NULL})
        report = detect_cfd_violations(customer, [UK_CFD])
        assert any(tid in v.tids for v in report)

    def test_multiple_cfds_accumulate(self, customer):
        report = detect_cfd_violations(customer, [UK_CFD, US_CFD])
        assert len(report) == 2
        assert report.violating_tids() == {0, 1, 2, 4}

    def test_report_summary_and_cells(self, customer):
        report = detect_cfd_violations(customer, [US_CFD])
        assert "single-tuple" in report.summary()
        cells = report.dirty_cells()
        assert (4, "city") in cells

    def test_unknown_attribute_rejected(self, customer):
        bad = CFD.single("customer", ["country"], ["city"])
        with pytest.raises(Exception):
            CFDDetector(customer, [bad])

    def test_report_order_singles_by_tid_then_groups_by_smallest_tid(self):
        relation = Relation.from_rows(RelationSchema("r", [Attribute("x"), Attribute("y")]),
                                      [("a", "q"), ("b", "q"), ("a", "r"), ("b", "p")])
        [cfd] = merge_cfds([CFD.single("r", ["x"], ["y"], {"x": "b", "y": "p"}),
                            CFD.single("r", ["x"], ["y"], {"x": "a", "y": "p"}),
                            CFD.single("r", ["x"], ["y"], {"x": "b"}),
                            CFD.single("r", ["x"], ["y"])])
        b_is_p, a_is_p, b_group, any_group = cfd.tableau
        report = CFDDetector(relation, [cfd]).detect()
        assert [(v.pattern, v.tids) for v in report] == [
            (a_is_p, (0,)), (b_is_p, (1,)), (a_is_p, (2,)),
            (any_group, (0, 2)), (b_group, (1, 3)), (any_group, (1, 3))]
        assert all(v.cfd is cfd for v in report)

    def test_detector_reuses_index_across_patterns(self, customer):
        merged = UK_CFD.merge_with(parse_cfd("customer([cc='01', zip] -> [street])"))
        report = CFDDetector(customer, [merged]).detect()
        assert len(report) == 1


class TestSQLDetection:
    def test_generated_queries_shape(self, database):
        detector = SQLCFDDetector(database, [US_CFD])
        queries = detector.generated_queries()
        assert len(queries) == 2
        assert any("GROUP BY" in q for q in queries)
        assert any("<>" in q for q in queries)

    def test_single_query_only_for_constant_rhs(self, database):
        detector = SQLCFDDetector(database, [UK_CFD])
        queries = detector.generated_queries()
        assert len(queries) == 1 and "GROUP BY" in queries[0]

    def test_sql_matches_direct_detection(self, database, customer):
        for cfds in ([UK_CFD], [US_CFD], [UK_CFD, US_CFD]):
            direct = CFDDetector(customer, cfds).detect()
            via_sql = SQLCFDDetector(database, cfds).detect()
            assert direct.violating_tids() == via_sql.violating_tids()
            assert len(direct.single_tuple_violations()) == len(via_sql.single_tuple_violations())

    def test_sql_detection_on_clean_data(self, database):
        cfd = parse_cfd("customer([cc='86', zip] -> [street])")
        assert SQLCFDDetector(database, [cfd]).detect().is_clean()

    def test_session_detect_runs_every_statement_on_the_code_plan(self):
        generator = CustomerGenerator(seed=5)
        dirty = inject_noise(generator.generate(200), rate=0.05,
                             attributes=["street", "city"], seed=5).dirty
        session = SemandaqSession(dirty)
        session.register_cfds(generator.canonical_cfds())
        statements = SQLCFDDetector(session.database,
                                    generator.canonical_cfds()).generated_queries()
        saved = obs.enabled, obs.trace_enabled
        obs.enable()
        obs.reset()
        try:
            assert not session.detect().is_clean()
            assert obs.counter("sql.plan.row") == 0
            assert obs.counter("sql.plan.code") == len(statements)
        finally:
            obs.enabled, obs.trace_enabled = saved
            obs.reset()


class TestDetectionProperties:
    """Randomized equivalence between the direct and SQL detection paths."""

    values = st.sampled_from(["a", "b", "c"])
    rows = st.lists(st.tuples(values, values, values), min_size=0, max_size=40)
    nullable = st.sampled_from(["a", "b", "c", NULL])
    nullable_row = st.tuples(nullable, nullable, nullable)
    mutations = st.lists(st.one_of(
        st.tuples(st.just("insert"), nullable_row),
        st.tuples(st.just("delete"), st.integers(0, 63)),
        st.tuples(st.just("update"), st.integers(0, 63),
                  st.sampled_from(["x", "y", "z"]), nullable),
    ), max_size=12)

    @given(st.lists(nullable_row, max_size=40), mutations)
    @settings(max_examples=40, deadline=None)
    def test_direct_and_sql_agree(self, data, steps):
        schema = RelationSchema("r", [Attribute("x"), Attribute("y"), Attribute("z")])
        relation = Relation.from_rows(schema, data)
        db = Database()
        db.add(relation)
        cfds = [
            CFD.single("r", ["x"], ["y"]),
            CFD.single("r", ["x"], ["z"], {"x": "a", "z": "c"}),
            CFD.single("r", ["x", "y"], ["z"], {"y": "b"}),
            CFD.single("r", ["x"], ["y", "z"], {"z": "a"}),
        ]
        direct = CFDDetector(relation, cfds)
        via_sql = SQLCFDDetector(db, cfds)

        def violations(report):
            return [(v.cfd, v.pattern, v.tids) for v in report.violations]

        # detect, mutate, detect again: the second detect's match-back probes
        # the LHS indexes the store kept current through the mutations
        assert violations(via_sql.detect()) == violations(direct.detect())
        for step in steps:
            tids = relation.tids()
            if step[0] == "insert":
                relation.insert(list(step[1]))
            elif tids and step[0] == "delete":
                relation.delete(tids[step[1] % len(tids)])
            elif tids:
                relation.update(tids[step[1] % len(tids)], step[2], step[3])
        assert violations(via_sql.detect()) == violations(direct.detect())

    @given(rows)
    @settings(max_examples=30, deadline=None)
    def test_violation_free_iff_fd_holds(self, data):
        schema = RelationSchema("r", [Attribute("x"), Attribute("y"), Attribute("z")])
        relation = Relation.from_rows(schema, data)
        cfd = CFD.single("r", ["x"], ["y"])
        report = detect_cfd_violations(relation, [cfd])
        groups = {}
        for x, y, _ in data:
            groups.setdefault(x, set()).add(y)
        clean = all(len(ys) == 1 for ys in groups.values())
        assert report.is_clean() == clean
