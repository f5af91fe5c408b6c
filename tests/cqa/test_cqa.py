"""Tests for consistent query answering (repairs, rewriting, engine)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cqa.answer import CQAEngine, SelectionQuery
from repro.cqa.repairs import count_key_repairs, enumerate_key_repairs, key_conflict_groups
from repro.cqa.rewriting import certain_answers_rewriting
from repro.errors import CQAError, SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL


@pytest.fixture
def accounts():
    schema = RelationSchema("account", [
        Attribute("acct"), Attribute("owner"), Attribute("city"),
    ])
    return Relation.from_dicts(schema, [
        {"acct": "a1", "owner": "ann", "city": "edi"},
        {"acct": "a1", "owner": "ann", "city": "ldn"},   # conflicting city
        {"acct": "a2", "owner": "bob", "city": "nyc"},
        {"acct": "a3", "owner": "cid", "city": "edi"},
        {"acct": "a3", "owner": "cid", "city": "edi"},   # duplicate, not a conflict
    ])


class TestRepairs:
    def test_conflict_groups(self, accounts):
        groups = key_conflict_groups(accounts, ["acct"])
        assert groups == [[0, 1]]

    def test_count_and_enumerate(self, accounts):
        assert count_key_repairs(accounts, ["acct"]) == 2
        repairs = list(enumerate_key_repairs(accounts, ["acct"]))
        assert len(repairs) == 2
        for repaired in repairs:
            assert key_conflict_groups(repaired, ["acct"]) == []

    def test_clean_relation_has_one_repair(self, accounts):
        clean = accounts.filter(lambda t: t.tid != 1)
        repairs = list(enumerate_key_repairs(clean, ["acct"]))
        assert len(repairs) == 1
        assert len(repairs[0]) == len(clean)

    def test_enumeration_limit(self, accounts):
        with pytest.raises(CQAError):
            list(enumerate_key_repairs(accounts, ["acct"], max_repairs=1))

    def test_null_keys_not_conflicting(self, accounts):
        accounts.insert_dict({"acct": NULL, "owner": "x", "city": "a"})
        accounts.insert_dict({"acct": NULL, "owner": "y", "city": "b"})
        assert key_conflict_groups(accounts, ["acct"]) == [[0, 1]]


class TestCertainAnswers:
    def test_certain_vs_naive(self, accounts):
        engine = CQAEngine(accounts, ["acct"])
        query = SelectionQuery(project=("owner", "city"), equalities={"owner": "ann"})
        naive = engine.naive_answers(query)
        certain = engine.certain_answers(query)
        assert ("ann", "edi") in naive and ("ann", "ldn") in naive
        assert certain == set()  # the city of a1 is uncertain

    def test_projection_away_from_conflict_is_certain(self, accounts):
        engine = CQAEngine(accounts, ["acct"])
        query = SelectionQuery(project=("owner",), equalities={"owner": "ann"})
        assert engine.certain_answers(query) == {("ann",)}

    def test_untouched_tuples_are_certain(self, accounts):
        engine = CQAEngine(accounts, ["acct"])
        query = SelectionQuery(project=("owner", "city"), equalities={"city": "nyc"})
        assert engine.certain_answers(query) == {("bob", "nyc")}

    def test_possible_answers_superset(self, accounts):
        engine = CQAEngine(accounts, ["acct"])
        query = SelectionQuery(project=("owner", "city"))
        certain = engine.certain_answers(query)
        possible = engine.possible_answers(query)
        assert certain <= possible
        assert ("ann", "ldn") in possible

    def test_rewriting_matches_enumeration(self, accounts):
        engine = CQAEngine(accounts, ["acct"])
        for query in (
            SelectionQuery(project=("owner",)),
            SelectionQuery(project=("owner", "city")),
            SelectionQuery(project=("city",), equalities={"owner": "ann"}),
            SelectionQuery(project=("owner",), equalities={"city": "edi"}),
        ):
            assert engine.certain_answers(query) == engine.certain_answers_rewritten(query)

    def test_predicate_query(self, accounts):
        engine = CQAEngine(accounts, ["acct"])
        query = SelectionQuery(project=("owner",), predicate=lambda t: t["city"] != "nyc")
        assert ("cid",) in engine.certain_answers_rewritten(query)

    def test_empty_projection_rejected(self):
        with pytest.raises(CQAError):
            SelectionQuery(project=())

    @pytest.mark.parametrize("query", [
        SelectionQuery(project=("nope",)),
        SelectionQuery(project=("owner",), equalities={"nope": "edi"}),
    ], ids=["projected", "selected"])
    @pytest.mark.parametrize("empty", [True, False], ids=["empty", "filled"])
    def test_unknown_attribute_raises_schema_error(self, accounts, query, empty):
        if empty:
            accounts = Relation(accounts.schema)
        with pytest.raises(SchemaError):
            CQAEngine(accounts, ["acct"]).certain_answers_rewritten(query)

    owners = st.sampled_from(["ann", "bob", "cid"])
    cities = st.sampled_from(["edi", "ldn", "nyc"])
    rows = st.lists(st.tuples(st.sampled_from(["a1", "a2", "a3"]), owners, cities),
                    min_size=0, max_size=9)

    @given(rows)
    @settings(max_examples=40, deadline=None)
    def test_rewriting_equals_enumeration_randomized(self, data):
        schema = RelationSchema("account", [
            Attribute("acct"), Attribute("owner"), Attribute("city")])
        relation = Relation.from_rows(schema, data)
        query = SelectionQuery(project=("owner",), equalities={"city": "edi"})
        try:
            engine = CQAEngine(relation, ["acct"])
            enumerated = engine.certain_answers(query, max_repairs=100000)
        except CQAError:
            return  # too many repairs for the oracle; skip
        rewritten = certain_answers_rewriting(relation, ["acct"], query)
        assert enumerated == rewritten
