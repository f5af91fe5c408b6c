"""The session's answer must not depend on whether an engine was requested.

Without ``engine=``/``workers=`` a session detects CFD violations by
generating SQL; with one it runs the direct detector on the chunked
engine.  Both must report exactly the violations the definitions give —
in particular a NULL RHS cell disagrees with every value in its group.
Relations use STRING attributes: the generated SQL compares typed
columns with quoted pattern constants, a known divergence (ROADMAP).
"""

from collections import Counter

from hypothesis import given

from oracle import definitions as oracle
from oracle.strategies import oracle_settings, relations_with_cfds
from repro.constraints.cfd import CFD
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.types import NULL
from repro.semandaq.session import SemandaqSession


def detected(relation, cfds, **engine):
    session = SemandaqSession(relation, **engine)
    session.register_cfds(cfds)
    return Counter((v.cfd, v.pattern, v.tids) for v in session.detect().violations)


def test_null_rhs_disagrees_with_a_value():
    relation = Relation.from_rows(RelationSchema("r", ["x", "y"]), [("1", "a"), ("1", NULL)])
    cfds = [CFD.single("r", ["x"], ["y"])]
    expected = Counter({(cfds[0], cfds[0].tableau[0], (0, 1)): 1})
    assert detected(relation, cfds) == expected
    assert detected(relation, cfds, engine="serial") == expected


@given(relations_with_cfds(typed=False))
@oracle_settings(40)
def test_sql_and_engine_sessions_match_definition(case):
    relation, cfds = case
    expected = Counter(oracle.cfd_violations(relation, cfds))
    assert detected(relation, cfds) == expected
    assert detected(relation, cfds, engine="serial") == expected
