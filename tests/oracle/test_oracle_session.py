"""The session's answers against the definitions.

A session detects CFD violations by generating SQL.  It must report
exactly the violations the definitions give, on typed relations too — in
particular a NULL RHS cell disagrees with every value in its group, and
a pattern constant matches a cell of any type exactly when ``≍`` says
so.  The generated statements run on the process-wide default SQL
engine (``REPRO_ENGINE``); the ``engine`` fixture runs each check under
every configuration, so statements straddle chunk boundaries and fan out
over real worker processes too.

Nor may an applied repair depend on what the session computed before:
proposing first fills the cost model's distance memo that the applied
repair then reads.
"""

from collections import Counter

import pytest
from hypothesis import given

from oracle import definitions as oracle
from oracle.strategies import (
    TYPED_CELLS,
    TYPED_IDS,
    oracle_settings,
    relations_with_cfds,
    typed_case,
)
from repro.constraints.cfd import CFD
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.types import NULL
from repro.semandaq.session import SemandaqSession


def detected(relation, cfds):
    session = SemandaqSession(relation)
    session.register_cfds(cfds)
    return Counter((v.cfd, v.pattern, v.tids) for v in session.detect().violations)


def test_null_rhs_disagrees_with_a_value(engine):
    relation = Relation.from_rows(RelationSchema("r", ["x", "y"]), [("1", "a"), ("1", NULL)])
    cfds = [CFD.single("r", ["x"], ["y"])]
    expected = Counter({(cfds[0], cfds[0].tableau[0], (0, 1)): 1})
    assert detected(relation, cfds) == expected


@given(relations_with_cfds())
@oracle_settings(40)
def test_session_detection_matches_definition(engine, case):
    relation, cfds = case
    assert detected(relation, cfds) == Counter(oracle.cfd_violations(relation, cfds))


@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("kind, cell, constant, matches", TYPED_CELLS, ids=TYPED_IDS)
def test_typed_constant_matches_like_the_definition(side, kind, cell, constant, matches,
                                                    engine):
    relation, cfds = typed_case(side, kind, cell, constant)
    expected = Counter(oracle.cfd_violations(relation, cfds))
    assert bool(expected) == (matches if side == "lhs" else not matches)
    assert detected(relation, cfds) == expected


def _fingerprint(repair, relation):
    changes = [(c.tid, c.attribute, repr(c.old_value), repr(c.new_value))
               for c in repair.changes]
    return changes, repr(repair.cost), repair.passes, repair.converged, oracle.rows(relation)


@given(relations_with_cfds(typed=False))
@oracle_settings(20)
def test_apply_after_propose_equals_apply_alone(case):
    relation, cfds = case
    alone = relation.copy()
    first = SemandaqSession(relation)
    first.register_cfds(cfds)
    proposal = first.propose_repair("r")
    confirmed = None
    if proposal.changes:
        confirmed = (proposal.changes[0].tid, proposal.changes[0].attribute)
        first.confirm_cell(*confirmed, "r")
    after_propose = first.apply_repair("r")

    second = SemandaqSession(alone)
    second.register_cfds(cfds)
    if confirmed is not None:
        second.confirm_cell(*confirmed, "r")
    applied_alone = second.apply_repair("r")
    assert _fingerprint(after_propose, relation) == _fingerprint(applied_alone, alone)
