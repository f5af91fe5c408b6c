"""The session's answer must not depend on whether an engine was requested.

Without ``engine=``/``workers=`` a session detects CFD violations by
generating SQL; with one it runs the direct detector on the chunked
engine.  Both must report exactly the violations the definitions give,
on typed relations too — in particular a NULL RHS cell disagrees with
every value in its group, and a pattern constant matches a cell of any
type exactly when ``≍`` says so.

Nor may an applied repair depend on what the session computed before:
proposing first fills the cost model's distance memo that the applied
repair then reads.
"""

import math
from collections import Counter

import pytest
from hypothesis import given

from oracle import definitions as oracle
from oracle.strategies import oracle_settings, relations_with_cfds
from repro import config
from repro.constraints.cfd import CFD
from repro.constraints.tableau import PatternTuple
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL, AttributeType
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


@given(relations_with_cfds())
@oracle_settings(40)
def test_sql_and_engine_sessions_match_definition(case):
    relation, cfds = case
    expected = Counter(oracle.cfd_violations(relation, cfds))
    assert detected(relation, cfds) == expected
    assert detected(relation, cfds, engine="serial") == expected


#: (column type, the tuple's cell, pattern constant, does the cell ≍ it)
TYPED_CELLS = [
    (AttributeType.INTEGER, 1, 1, True),
    (AttributeType.INTEGER, 1, "1", True),
    (AttributeType.INTEGER, 1, 1.0, True),
    (AttributeType.FLOAT, 1.0, 1, True),
    (AttributeType.FLOAT, 1.0, "1", False),
    (AttributeType.FLOAT, 1.0, 1.0, True),
    (AttributeType.STRING, "1", 1, True),
    (AttributeType.STRING, "1", "1", True),
    (AttributeType.STRING, "1", 1.0, False),
    (AttributeType.BOOLEAN, True, 1, True),
    (AttributeType.BOOLEAN, True, "1", False),
    (AttributeType.BOOLEAN, True, "True", True),
    # values float order cannot tell apart, and the infinities
    (AttributeType.INTEGER, 2 ** 53, 2 ** 53 + 1, False),
    (AttributeType.INTEGER, 2 ** 53 + 1, 2 ** 53, False),
    (AttributeType.INTEGER, 2 ** 53 + 1, str(2 ** 53 + 1), True),
    (AttributeType.INTEGER, 1, 10 ** 400, False),
    (AttributeType.FLOAT, 0.0, "-0.0", False),
    (AttributeType.FLOAT, -0.0, "0.0", True),  # a FLOAT -0.0 is stored as 0.0
    (AttributeType.FLOAT, 0.0, -0.0, True),
    (AttributeType.FLOAT, math.inf, "inf", True),
    (AttributeType.FLOAT, -math.inf, -math.inf, True),
    (AttributeType.FLOAT, math.inf, "-inf", False),
    (AttributeType.FLOAT, 1.0, math.inf, False),
]


@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("kind, cell, constant, matches", TYPED_CELLS,
                         ids=[f"{kind.value}-{cell!r:.20}-{constant!r:.20}"
                              for kind, cell, constant, _ in TYPED_CELLS])
def test_typed_constant_matches_like_the_definition(side, kind, cell, constant, matches,
                                                    engine, monkeypatch):
    # the generated SQL runs on the process-wide default engine
    monkeypatch.setenv(config.ENGINE_ENV, engine["engine"])
    if "workers" in engine:
        monkeypatch.setenv(config.WORKERS_ENV, str(engine["workers"]))
    # the typed column is the LHS of a -> b, or the RHS of a -> b
    if side == "lhs":
        attributes, row = [Attribute("a", kind), Attribute("b")], (cell, "y")
        pattern = {"a": constant, "b": "x"}
    else:
        attributes, row = [Attribute("a"), Attribute("b", kind)], ("x", cell)
        pattern = {"a": "x", "b": constant}
    relation = Relation.from_rows(RelationSchema("r", attributes), [row])
    cfds = [CFD("r", ["a"], ["b"], [PatternTuple(pattern)])]
    expected = Counter(oracle.cfd_violations(relation, cfds))
    assert bool(expected) == (matches if side == "lhs" else not matches)
    assert detected(relation, cfds) == expected
    assert detected(relation, cfds, **engine) == expected


def _fingerprint(repair, relation):
    changes = [(c.tid, c.attribute, repr(c.old_value), repr(c.new_value))
               for c in repair.changes]
    return changes, repr(repair.cost), repair.passes, repair.converged, oracle.rows(relation)


@given(relations_with_cfds(typed=False))
@oracle_settings(20)
def test_apply_after_propose_equals_apply_alone(engine, case):
    relation, cfds = case
    alone = relation.copy()
    first = SemandaqSession(relation, **engine)
    first.register_cfds(cfds)
    proposal = first.propose_repair("r")
    confirmed = None
    if proposal.changes:
        confirmed = (proposal.changes[0].tid, proposal.changes[0].attribute)
        first.confirm_cell(*confirmed, "r")
    after_propose = first.apply_repair("r")

    second = SemandaqSession(alone, **engine)
    second.register_cfds(cfds)
    if confirmed is not None:
        second.confirm_cell(*confirmed, "r")
    applied_alone = second.apply_repair("r")
    assert _fingerprint(after_propose, relation) == _fingerprint(applied_alone, alone)
