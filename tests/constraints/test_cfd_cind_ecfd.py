"""Tests for CFDs, CINDs and eCFDs (structure and semantics)."""

import pytest

from repro.errors import ConstraintError
from repro.constraints.cfd import CFD, group_by_embedded_fd, merge_cfds
from repro.constraints.cind import CIND
from repro.constraints.ecfd import ECFD, AttributeCondition, ECFDPattern
from repro.constraints.fd import FunctionalDependency
from repro.constraints.tableau import PatternTuple
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema


@pytest.fixture
def customer():
    schema = RelationSchema("customer", [
        Attribute("cc"), Attribute("ac"), Attribute("phn"),
        Attribute("city"), Attribute("zip"), Attribute("street"),
    ])
    return Relation.from_dicts(schema, [
        {"cc": "44", "ac": "131", "phn": "1111", "city": "edi", "zip": "EH8", "street": "mayfield"},
        {"cc": "44", "ac": "131", "phn": "2222", "city": "edi", "zip": "EH8", "street": "mayfield"},
        {"cc": "44", "ac": "131", "phn": "3333", "city": "edi", "zip": "EH8", "street": "crichton"},
        {"cc": "01", "ac": "908", "phn": "4444", "city": "mh", "zip": "07974", "street": "mtn ave"},
        {"cc": "01", "ac": "908", "phn": "4444", "city": "nyc", "zip": "07974", "street": "mtn ave"},
    ])


class TestCFDStructure:
    def test_paper_example_uk_zip_determines_street(self, customer):
        cfd = CFD.single("customer", ["cc", "zip"], ["street"], {"cc": "44"})
        assert not cfd.holds_on(customer)

    def test_cfd_holds_when_pattern_excludes_dirty_part(self, customer):
        cfd = CFD.single("customer", ["cc", "zip"], ["street"], {"cc": "01"})
        assert cfd.holds_on(customer)

    def test_constant_rhs_pattern(self, customer):
        # US customers with area code 908 must live in city 'mh'
        cfd = CFD.single("customer", ["cc", "ac"], ["city"], {"cc": "01", "ac": "908", "city": "mh"})
        assert not cfd.holds_on(customer)

    def test_from_fd_is_all_wildcard(self):
        fd = FunctionalDependency("customer", ["zip"], ["city"])
        cfd = CFD.from_fd(fd)
        assert not cfd.is_constant()
        assert cfd.is_variable()

    def test_pattern_attribute_must_belong_to_fd(self):
        with pytest.raises(ConstraintError):
            CFD.single("customer", ["zip"], ["street"], {"country": "uk"})

    def test_is_constant(self):
        cfd = CFD.single("customer", ["cc"], ["city"], {"cc": "01", "city": "mh"})
        assert cfd.is_constant()
        assert not cfd.is_variable()

    def test_normalize_splits_rhs_and_patterns(self):
        cfd = CFD("customer", ["cc", "zip"], ["street", "city"],
                  [PatternTuple({"cc": "44"}), PatternTuple({"cc": "01"})])
        normalized = cfd.normalize()
        assert len(normalized) == 4
        assert all(len(n.rhs) == 1 and len(n.tableau) == 1 for n in normalized)

    def test_merge_requires_same_embedded_fd(self):
        a = CFD.single("customer", ["zip"], ["city"])
        b = CFD.single("customer", ["zip"], ["street"])
        with pytest.raises(ConstraintError):
            a.merge_with(b)

    def test_merge_cfds_groups_by_fd(self):
        a = CFD.single("customer", ["cc", "zip"], ["street"], {"cc": "44"})
        b = CFD.single("customer", ["cc", "zip"], ["street"], {"cc": "01"})
        c = CFD.single("customer", ["zip"], ["city"])
        merged = merge_cfds([a, b, c])
        assert len(merged) == 2
        sizes = sorted(len(m.tableau) for m in merged)
        assert sizes == [1, 2]
        assert len(group_by_embedded_fd([a, b, c])) == 2

    def test_repr_mentions_constants(self):
        cfd = CFD.single("customer", ["cc", "zip"], ["street"], {"cc": "44"}, name="phi1")
        text = repr(cfd)
        assert "cc='44'" in text and "phi1" in text


class TestCIND:
    @pytest.fixture
    def database(self):
        db = Database()
        cd_schema = RelationSchema("cd", [Attribute("album"), Attribute("price"), Attribute("genre")])
        book_schema = RelationSchema("book", [Attribute("title"), Attribute("price"), Attribute("format")])
        db.create_from_dicts(cd_schema, [
            {"album": "war and peace", "price": "20", "genre": "a-book"},
            {"album": "abbey road", "price": "15", "genre": "rock"},
            {"album": "hamlet", "price": "10", "genre": "a-book"},
        ])
        db.create_from_dicts(book_schema, [
            {"title": "war and peace", "price": "20", "format": "audio"},
            {"title": "hamlet", "price": "10", "format": "hardcover"},
        ])
        return db

    def test_paper_example(self, database):
        cind = CIND("cd", ["album", "price"], "book", ["title", "price"],
                    lhs_pattern={"genre": "a-book"}, rhs_pattern={"format": "audio"})
        # 'hamlet' has a book partner but with the wrong format -> violation
        assert not cind.holds_on(database)

    def test_condition_restricts_applicability(self, database):
        cind = CIND("cd", ["album"], "book", ["title"], lhs_pattern={"genre": "a-book"})
        # only audio books are constrained; 'abbey road' is irrelevant
        assert cind.holds_on(database)

    def test_standard_ind_degenerate(self, database):
        cind = CIND("cd", ["album"], "book", ["title"])
        assert cind.is_standard_ind()
        assert not cind.holds_on(database)

    def test_pattern_attributes_cannot_overlap_correspondence(self):
        with pytest.raises(ConstraintError):
            CIND("cd", ["album"], "book", ["title"], lhs_pattern={"album": "x"})

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ConstraintError):
            CIND("cd", ["album", "price"], "book", ["title"])

    def test_repr(self, database):
        cind = CIND("cd", ["album"], "book", ["title"], lhs_pattern={"genre": "a-book"},
                    name="psi1")
        assert "psi1" in repr(cind) and "genre" in repr(cind)


class TestECFD:
    def test_condition_semantics(self):
        cond = AttributeCondition.one_of(["44", "01"])
        assert cond.accepts("44") and not cond.accepts("86")
        neg = AttributeCondition.none_of(["86"])
        assert neg.accepts("44") and not neg.accepts("86")
        assert AttributeCondition.any().accepts(None)
        assert not cond.accepts(None)

    def test_empty_value_set_rejected(self):
        with pytest.raises(ConstraintError):
            AttributeCondition.one_of([])

    def test_disjunctive_lhs(self, customer):
        # for UK or US customers, zip -> street (dirty only within cc=44, EH8)
        ecfd = ECFD("customer", ["cc", "zip"], ["street"],
                    [{"cc": AttributeCondition.one_of(["44", "01"])}])
        violations = ecfd.violations(customer)
        assert violations and all(len(v) >= 2 for v in violations)

    def test_negation_excludes_dirty_part(self, customer):
        ecfd = ECFD("customer", ["cc", "zip"], ["street"],
                    [{"cc": AttributeCondition.none_of(["44"])}])
        assert ecfd.holds_on(customer)

    def test_rhs_condition_single_tuple_violation(self, customer):
        ecfd = ECFD("customer", ["cc", "ac"], ["city"],
                    [{"cc": AttributeCondition.equals("01"),
                      "ac": AttributeCondition.equals("908"),
                      "city": AttributeCondition.one_of(["mh"])}])
        violations = ecfd.violations(customer)
        assert (4,) in violations

    def test_from_cfd_equivalence(self, customer):
        cfd = CFD.single("customer", ["cc", "zip"], ["street"], {"cc": "44"})
        ecfd = ECFD.from_cfd(cfd)
        assert ecfd.holds_on(customer) == cfd.holds_on(customer)

    def test_unknown_attribute_raises(self, customer):
        ecfd = ECFD("customer", ["country"], ["city"])
        with pytest.raises(ConstraintError):
            ecfd.violations(customer)

    def test_pattern_repr(self):
        pattern = ECFDPattern({"cc": AttributeCondition.one_of(["44"])})
        assert "44" in repr(pattern)
