"""Certain answers against the definition: the intersection over every key repair."""

from hypothesis import given
from hypothesis import strategies as st

from oracle import definitions as oracle
from oracle.strategies import CONSTANTS, mutate, oracle_settings, relations
from repro.cqa.answer import CQAEngine, SelectionQuery


@oracle_settings(max_examples=200)
@given(data=st.data())
def test_certain_answers_match_the_definition(data):
    """Rewriting and repair enumeration both equal the definition, before and
    after inserts, deletes and cell updates (key cells included), so the
    maintained key index the rewriting probes must follow every mutation."""
    relation = data.draw(relations())
    names = [a.lower() for a in relation.schema.attribute_names]
    key = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    project = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3,
                                 unique=True))
    equalities = data.draw(st.dictionaries(st.sampled_from(names),
                                           st.sampled_from(CONSTANTS), max_size=2))
    query = SelectionQuery(project=tuple(project), equalities=equalities)
    engine = CQAEngine(relation, key)

    expected = oracle.certain_answers(relation, key, project, equalities)
    assert engine.certain_answers_rewritten(query) == expected
    assert engine.certain_answers(query) == expected

    mutate(relation, data)
    expected = oracle.certain_answers(relation, key, project, equalities)
    assert engine.certain_answers_rewritten(query) == expected
    assert engine.certain_answers(query) == expected
