"""Tests for batch (merged-tableau) detection, incremental detection and CINDs.

Batch detection is :class:`CFDDetector` over the merged CFDs.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.cfd import CFD, merge_cfds
from repro.constraints.cind import CIND
from repro.constraints.parse import parse_cfd, parse_cind
from repro.detection.cfd_detect import CFDDetector
from repro.detection.cind_detect import CINDDetector, detect_cind_violations
from repro.detection.incremental import IncrementalCFDDetector
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL


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
]


@pytest.fixture
def customer():
    return Relation.from_dicts(CUSTOMER_SCHEMA, ROWS)


CFDS = [
    parse_cfd("customer([cc='44', zip] -> [street])"),
    parse_cfd("customer([cc='01', zip] -> [street])"),
    parse_cfd("customer([cc='01', ac='908', phn] -> [city='mh'])"),
]


def batch(relation, cfds):
    """Merged-tableau detection: one pass per embedded FD."""
    return CFDDetector(relation, merge_cfds(cfds)).detect()


def naive_violating_tids(relation, cfds):
    """The tuples one detection pass per CFD implicates."""
    return set().union(*(CFDDetector(relation, [cfd]).detect().violating_tids()
                         for cfd in cfds))


class TestBatchDetection:
    def test_merging_reduces_cfd_count(self, customer):
        merged = merge_cfds(CFDS)
        assert len(merged) == 2
        assert {v.cfd for v in batch(customer, CFDS)} <= set(merged)

    def test_batch_equals_naive_on_violating_tuples(self, customer):
        assert batch(customer, CFDS).violating_tids() == naive_violating_tids(customer, CFDS)

    def test_batch_equals_plain_detector(self, customer):
        plain = CFDDetector(customer, CFDS).detect()
        assert batch(customer, CFDS).violating_tids() == plain.violating_tids()

    def test_batch_on_clean_relation(self, customer):
        clean_cfd = parse_cfd("customer([cc='86', zip] -> [street])")
        assert batch(customer, [clean_cfd]).is_clean()

    def test_detection_registers_no_index_on_the_relation(self, customer):
        # later writes to the caller's relation pay no index upkeep for it
        assert not batch(customer, CFDS).is_clean()
        assert "0 maintained indexes" in repr(customer.columns)

    values = st.sampled_from(["a", "b"])
    rows = st.lists(st.tuples(values, values, values), max_size=30)

    @given(rows)
    @settings(max_examples=25, deadline=None)
    def test_batch_and_naive_agree_randomized(self, data):
        schema = RelationSchema("r", [Attribute("x"), Attribute("y"), Attribute("z")])
        relation = Relation.from_rows(schema, data)
        cfds = [
            CFD.single("r", ["x"], ["y"], {"x": "a"}),
            CFD.single("r", ["x"], ["y"], {"x": "b"}),
            CFD.single("r", ["x"], ["z"]),
        ]
        assert batch(relation, cfds).violating_tids() == naive_violating_tids(relation, cfds)


class TestIncrementalDetection:
    def test_initial_state_matches_full_detection(self, customer):
        incremental = IncrementalCFDDetector(customer, CFDS)
        assert incremental.current_report().violating_tids() == \
            incremental.recompute_full().violating_tids()

    def test_insert_reports_new_violation(self, customer):
        incremental = IncrementalCFDDetector(customer, CFDS)
        new = incremental.insert_tuple(
            {"cc": "44", "ac": "131", "phn": "7777", "city": "gla", "zip": "G1", "street": "a"})
        assert new == []  # first G1 tuple cannot violate
        new = incremental.insert_tuple(
            {"cc": "44", "ac": "131", "phn": "8888", "city": "gla", "zip": "G1", "street": "b"})
        assert len(new) == 1 and len(new[0].tids) == 2

    def test_insert_single_tuple_violation(self, customer):
        incremental = IncrementalCFDDetector(customer, CFDS)
        new = incremental.insert_tuple(
            {"cc": "01", "ac": "908", "phn": "9999", "city": "boston", "zip": "02134",
             "street": "elm"})
        assert any(v.is_single_tuple for v in new)

    def test_delete_removes_violation(self, customer):
        incremental = IncrementalCFDDetector(customer, CFDS)
        removed = incremental.delete_tuple(2)  # the crichton tuple
        assert removed
        report = incremental.current_report()
        assert 2 not in report.violating_tids()

    def test_update_cell_creates_and_clears_violations(self, customer):
        incremental = IncrementalCFDDetector(customer, CFDS)
        incremental.update_cell(2, "street", "mayfield")
        remaining = {tuple(sorted(v.tids)) for v in incremental.current_report()
                     if not v.is_single_tuple}
        assert (0, 1, 2) not in remaining

    def test_incremental_stays_consistent_with_full(self, customer):
        incremental = IncrementalCFDDetector(customer, CFDS)
        incremental.insert_tuple(
            {"cc": "44", "ac": "131", "phn": "7777", "city": "gla", "zip": "EH8", "street": "zzz"})
        incremental.delete_tuple(0)
        incremental.update_cell(4, "city", "mh")
        assert incremental.current_report().violating_tids() == \
            incremental.recompute_full().violating_tids()

    def test_dropped_indexes_get_their_tallies_again(self, customer):
        # a dropped index stops following writes, tallies included; the
        # detector registers its tallies on the rebuilt index
        incremental = IncrementalCFDDetector(customer, CFDS)
        customer.columns.drop_indexes()
        incremental.update_cell(2, "street", "mayfield")  # cleans the EH8 group
        incremental.insert_tuple(
            {"cc": "44", "ac": "131", "phn": "7777", "city": "edi", "zip": "EH8",
             "street": "mayfield"})
        assert _multiset(incremental.current_report()) == \
            _multiset(incremental.recompute_full())

    moves = st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                               st.sampled_from(["a", "b", "c"])), min_size=1, max_size=25)

    @given(moves)
    @settings(max_examples=25, deadline=None)
    def test_random_insert_sequence_matches_full(self, pairs):
        schema = RelationSchema("r", [Attribute("x"), Attribute("y")])
        relation = Relation(schema)
        incremental = IncrementalCFDDetector(relation, [CFD.single("r", ["x"], ["y"])])
        for x, y in pairs:
            incremental.insert_tuple({"x": x, "y": y})
        assert incremental.current_report().violating_tids() == \
            incremental.recompute_full().violating_tids()


def _multiset(report):
    return Counter(map(repr, report))


class TestIncrementalBuild:
    """The build's single-tuple pass selects candidates a column at a time."""

    ROWS = [
        ["01", "908", "1", "mh"],
        ["01", "908", "2", "boston"],    # breaks city='mh'
        [NULL, "908", "3", "boston"],    # NULL cc: no constant matches
        ["01", NULL, "4", "boston"],     # NULL ac: only the cc='01' pattern
        ["01", "908", NULL, "nyc"],      # NULL wildcard cell: still a candidate
        ["44", "131", "6", "edi"],
    ]

    @pytest.fixture
    def relation(self):
        schema = RelationSchema("r", [Attribute("cc"), Attribute("ac"),
                                      Attribute("phn"), Attribute("city")])
        return Relation.from_rows(schema, self.ROWS)

    def test_no_constant_rhs_builds_no_single_violation(self, relation):
        cfds = [parse_cfd("r([cc, ac] -> [city])"),
                parse_cfd("r([cc='01', phn] -> [city])")]
        incremental = IncrementalCFDDetector(relation, cfds)
        report = incremental.current_report()
        assert not [v for v in report if v.is_single_tuple]
        assert _multiset(report) == _multiset(incremental.recompute_full())

    def test_constant_rhs_with_null_lhs_cells(self, relation):
        cfds = [parse_cfd("r([cc='01', ac='908', phn] -> [city='mh'])")]
        incremental = IncrementalCFDDetector(relation, cfds)
        report = incremental.current_report()
        assert sorted(v.tids for v in report if v.is_single_tuple) == [(1,), (4,)]
        assert _multiset(report) == _multiset(incremental.recompute_full())

    def test_tid_breaking_two_constant_patterns(self, relation):
        # one merged CFD, two constant-RHS patterns
        cfds = [parse_cfd("r([cc='01', ac='908'] -> [city='mh'])"),
                parse_cfd("r([cc='01', ac] -> [city='nyc'])")]
        incremental = IncrementalCFDDetector(relation, cfds)
        report = incremental.current_report()
        singles = [v for v in report if v.is_single_tuple]
        assert [v.tids[0] for v in singles] == [0, 1, 1, 3, 4]  # tids ascend
        mh, nyc = (v.pattern for v in singles if v.tids == (1,))
        assert (mh.constant("city"), nyc.constant("city")) == ("mh", "nyc")
        assert _multiset(report) == _multiset(incremental.recompute_full())


class TestCINDDetection:
    @pytest.fixture
    def database(self):
        db = Database()
        cd_schema = RelationSchema("cd", [Attribute("album"), Attribute("price"), Attribute("genre")])
        book_schema = RelationSchema("book", [Attribute("title"), Attribute("price"), Attribute("format")])
        db.create_from_dicts(cd_schema, [
            {"album": "war and peace", "price": "20", "genre": "a-book"},
            {"album": "abbey road", "price": "15", "genre": "rock"},
            {"album": "hamlet", "price": "10", "genre": "a-book"},
            {"album": NULL, "price": "5", "genre": "a-book"},
        ])
        db.create_from_dicts(book_schema, [
            {"title": "war and peace", "price": "20", "format": "audio"},
            {"title": "hamlet", "price": "10", "format": "hardcover"},
        ])
        return db

    CIND = parse_cind(
        "cd(album, price; genre='a-book') SUBSET book(title, price; format='audio')")

    def test_violations_found(self, database):
        report = detect_cind_violations(database, [self.CIND])
        tids = {v.tid for v in report.cind_violations()}
        # hamlet (wrong format) and the NULL-album audio book violate; war and
        # peace is fine; abbey road is not constrained.
        assert tids == {2, 3}

    def test_rhs_pattern_must_hold_on_partner(self, database):
        relaxed = parse_cind("cd(album, price; genre='a-book') SUBSET book(title, price)")
        report = detect_cind_violations(database, [relaxed])
        assert {v.tid for v in report.cind_violations()} == {3}

    def test_clean_database(self, database):
        cind = parse_cind("cd(album; genre='classical') SUBSET book(title)")
        assert detect_cind_violations(database, [cind]).is_clean()

    def test_reference_sql_mentions_not_exists(self, database):
        detector = CINDDetector(database, [self.CIND])
        sql = detector.reference_sql(self.CIND)
        assert "NOT EXISTS" in sql and "format" in sql

    def test_report_cells(self, database):
        report = detect_cind_violations(database, [self.CIND])
        assert (2, "album") in report.dirty_cells()

    def test_multiple_cinds(self, database):
        other = parse_cind("cd(price; genre='rock') SUBSET book(price)")
        report = detect_cind_violations(database, [self.CIND, other])
        assert len(report.count_by_constraint()) == 2
