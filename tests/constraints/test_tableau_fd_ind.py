"""Tests for pattern tableaux, classical FDs and INDs."""

import pytest

from repro.errors import ConstraintError
from repro.constraints.fd import FunctionalDependency, closure, implies, minimal_cover
from repro.constraints.ind import InclusionDependency
from repro.constraints.tableau import UNDERSCORE, PatternTuple, is_wildcard, normalize_pattern
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL


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
    ])


class TestPatternTuple:
    def test_wildcard_normalization(self):
        assert normalize_pattern("_") is UNDERSCORE
        assert normalize_pattern(None) is UNDERSCORE
        assert normalize_pattern("44") == "44"

    def test_matches_constants(self, customer):
        pattern = PatternTuple({"cc": "44", "zip": UNDERSCORE})
        rows = customer.tuples()
        assert pattern.matches(rows[0])
        assert not pattern.matches(rows[3])

    def test_null_never_matches_constant(self, customer):
        tid = customer.insert_dict({"cc": NULL, "zip": "EH8"})
        pattern = PatternTuple({"cc": "44"})
        assert not pattern.matches(customer.tuple(tid))

    def test_constant_comparison_tolerates_numeric_strings(self, customer):
        pattern = PatternTuple({"cc": 44})
        assert pattern.matches(customer.tuples()[0])

    def test_unmentioned_attribute_is_wildcard(self):
        pattern = PatternTuple({"cc": "44"})
        assert is_wildcard(pattern.pattern("zip"))

    def test_constants_and_wildcard_accessors(self):
        pattern = PatternTuple({"cc": "44", "zip": "_"})
        assert pattern.constants() == {"cc": "44"}
        assert pattern.wildcard_attributes() == ["zip"]
        with pytest.raises(ConstraintError):
            pattern.constant("zip")

    def test_compatibility_and_generality(self):
        general = PatternTuple({"cc": UNDERSCORE, "zip": UNDERSCORE})
        specific = PatternTuple({"cc": "44", "zip": "EH8"})
        other = PatternTuple({"cc": "01"})
        assert general.more_general_than(specific, ["cc", "zip"])
        assert not specific.more_general_than(general, ["cc", "zip"])
        assert specific.is_compatible_with(general, ["cc", "zip"])
        assert not specific.is_compatible_with(other, ["cc"])

    def test_equality_and_hash(self):
        assert PatternTuple({"cc": "44"}) == PatternTuple({"CC": "44"})
        assert hash(PatternTuple({"cc": "44"})) == hash(PatternTuple({"CC": "44"}))
        # equal in Python, yet "1.0" matches only the second under ≍
        assert PatternTuple({"cc": 1}) != PatternTuple({"cc": 1.0})


class TestFunctionalDependency:
    def test_holds_on_clean_part(self, customer):
        fd = FunctionalDependency("customer", ["zip"], ["city"])
        assert fd.holds_on(customer)

    def test_detects_violation(self, customer):
        fd = FunctionalDependency("customer", ["zip"], ["street"])
        assert not fd.holds_on(customer)
        pairs = fd.violating_pairs(customer)
        assert len(pairs) == 2  # tuple 3 conflicts with tuples 1 and 2

    def test_violating_pairs_order(self):
        relation = Relation.from_rows(RelationSchema("r", ["a", "b"]), [
            ("1", "x"), ("2", "p"), ("1", "y"), ("2", "q"), ("1", "x"), ("2", "p"),
            ("1", "z")])
        fd = FunctionalDependency("r", ["a"], ["b"])
        # LHS classes by first occurrence; inside one, RHS groups pairwise
        assert fd.violating_pairs(relation) == [
            (0, 2), (2, 4), (0, 6), (4, 6), (2, 6), (1, 3), (3, 5)]
        relation.delete(0)  # a='2' now occurs first
        assert fd.violating_pairs(relation) == [(1, 3), (3, 5), (2, 4), (2, 6), (4, 6)]

    def test_violation_on_any_rhs_attribute(self):
        relation = Relation.from_rows(RelationSchema("r", ["a", "b", "c"]), [
            ("1", "x", "p"), ("1", "x", "q"), ("2", "y", "p"), ("2", "z", "p")])
        fd = FunctionalDependency("r", ["a"], ["b", "c"])
        assert not fd.holds_on(relation)
        assert fd.violating_pairs(relation) == [(0, 1), (2, 3)]  # a='1' splits on c only

    def test_unknown_attribute_raises(self, customer):
        fd = FunctionalDependency("customer", ["country"], ["city"])
        with pytest.raises(ConstraintError):
            fd.holds_on(customer)

    def test_rhs_subset_of_lhs_rejected(self):
        with pytest.raises(ConstraintError):
            FunctionalDependency("r", ["a", "b"], ["a"])

    def test_decompose(self):
        fd = FunctionalDependency("r", ["a"], ["b", "c"])
        parts = fd.decompose()
        assert len(parts) == 2 and all(len(p.rhs) == 1 for p in parts)

    def test_empty_sides_rejected(self):
        with pytest.raises(ConstraintError):
            FunctionalDependency("r", [], ["a"])
        with pytest.raises(ConstraintError):
            FunctionalDependency("r", ["a"], [])


class TestFDReasoning:
    def test_closure(self):
        fds = [FunctionalDependency("r", ["a"], ["b"]),
               FunctionalDependency("r", ["b"], ["c"])]
        assert closure(["a"], fds) == {"a", "b", "c"}

    def test_implies_transitivity(self):
        fds = [FunctionalDependency("r", ["a"], ["b"]),
               FunctionalDependency("r", ["b"], ["c"])]
        assert implies(fds, FunctionalDependency("r", ["a"], ["c"]))
        assert not implies(fds, FunctionalDependency("r", ["c"], ["a"]))

    def test_implication_is_per_relation(self):
        fds = [FunctionalDependency("s", ["a"], ["b"])]
        assert not implies(fds, FunctionalDependency("r", ["a"], ["b"]))

    def test_minimal_cover_removes_redundancy(self):
        fds = [FunctionalDependency("r", ["a"], ["b"]),
               FunctionalDependency("r", ["b"], ["c"]),
               FunctionalDependency("r", ["a"], ["c"])]
        cover = minimal_cover(fds)
        assert FunctionalDependency("r", ["a"], ["c"]) not in cover
        assert len(cover) == 2

    def test_minimal_cover_reduces_lhs(self):
        fds = [FunctionalDependency("r", ["a"], ["b"]),
               FunctionalDependency("r", ["a", "c"], ["b"])]
        cover = minimal_cover(fds)
        assert cover == [FunctionalDependency("r", ["a"], ["b"])]


class TestInclusionDependency:
    @pytest.fixture
    def database(self):
        db = Database()
        cd_schema = RelationSchema("cd", [Attribute("album"), Attribute("price"), Attribute("genre")])
        book_schema = RelationSchema("book", [Attribute("title"), Attribute("price"), Attribute("format")])
        db.create_from_dicts(cd_schema, [
            {"album": "x", "price": "9", "genre": "a-book"},
            {"album": "y", "price": "7", "genre": "rock"},
        ])
        db.create_from_dicts(book_schema, [
            {"title": "x", "price": "9", "format": "audio"},
        ])
        return db

    def test_holds(self, database):
        ind = InclusionDependency("cd", ["album"], "book", ["title"])
        assert not ind.holds_on(database)
        assert ind.violating_tids(database) == [1]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ConstraintError):
            InclusionDependency("cd", ["a", "b"], "book", ["x"])

    def test_null_lhs_skipped(self, database):
        database.relation("cd").insert_dict({"album": NULL, "price": "1", "genre": "rock"})
        ind = InclusionDependency("cd", ["album"], "book", ["title"])
        assert 2 not in ind.violating_tids(database)

    def test_unknown_attribute_raises(self, database):
        ind = InclusionDependency("cd", ["nope"], "book", ["title"])
        with pytest.raises(ConstraintError):
            ind.holds_on(database)
