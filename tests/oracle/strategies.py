"""Hypothesis strategies for the oracle suites: tiny relations and constraints.

Relations have at most ten tuples over three or four attributes a–d.
Cells are drawn from small pools that include NULL and the colliding
forms ``1``, ``"1"`` and ``1.0`` (coerced per attribute type, so a
STRING column stores ``"1"`` for all three and a FLOAT column ``1.0``),
and, for FLOAT, ``0.0`` and ``-0.0`` (both stored as ``0.0``); pattern
constants use the same colliding forms uncoerced, so ``≍`` has to
compare across types.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.constraints.cfd import CFD
from repro.constraints.cind import CIND
from repro.constraints.tableau import UNDERSCORE, PatternTuple
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL, AttributeType

NAMES = ("a", "b", "c", "d")
MAX_ROWS = 10

#: cell pools per attribute type (every value coerces to the type)
CELLS = {
    AttributeType.STRING: (NULL, "1", 1, 1.0, "a", "b"),
    AttributeType.INTEGER: (NULL, 1, "1", 1.0, 2),
    AttributeType.FLOAT: (NULL, 1.0, 1, "1", 2.5, 0.0, -0.0),
}

#: pattern constants: the colliding forms plus values only some types hold
CONSTANTS = (1, "1", 1.0, "a", 2, 2.5)

#: pattern cells: mostly ``_`` so patterns still select groups
CELL_PATTERNS = st.one_of(st.just(UNDERSCORE), st.just(UNDERSCORE),
                          st.sampled_from(CONSTANTS))


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

#: pytest ids for :data:`TYPED_CELLS`
TYPED_IDS = [f"{kind.value}-{cell!r:.20}-{constant!r:.20}"
             for kind, cell, constant, _ in TYPED_CELLS]


def typed_case(side: str, kind: AttributeType, cell, constant) -> tuple[Relation, list[CFD]]:
    """One tuple and the CFD ``a -> b`` whose *side* column is typed *kind*.

    The pattern pairs *constant* on that column with ``"x"`` on the other
    one; the tuple holds *cell* there and ``"y"`` (LHS case) or ``"x"``
    (RHS case) on the other, so it violates the pattern exactly when
    *cell* ≍ *constant* (LHS) or when it does not (RHS).
    """
    if side == "lhs":
        attributes, row = [Attribute("a", kind), Attribute("b")], (cell, "y")
        pattern = {"a": constant, "b": "x"}
    else:
        attributes, row = [Attribute("a"), Attribute("b", kind)], ("x", cell)
        pattern = {"a": "x", "b": constant}
    relation = Relation.from_rows(RelationSchema("r", attributes), [row])
    return relation, [CFD("r", ["a"], ["b"], [PatternTuple(pattern)])]


def oracle_settings(max_examples: int):
    """Settings for an oracle suite (a function-scoped fixture is constant across examples)."""
    return settings(max_examples=max_examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])


@st.composite
def relations(draw, name: str = "r", typed: bool = True, min_rows: int = 0) -> Relation:
    arity = draw(st.integers(3, len(NAMES)))
    types = [draw(st.sampled_from(list(CELLS))) if typed else AttributeType.STRING
             for _ in range(arity)]
    schema = RelationSchema(name, [Attribute(n, t) for n, t in zip(NAMES, types)])
    cells = st.tuples(*[st.sampled_from(CELLS[t]) for t in types])
    return Relation.from_rows(schema, draw(st.lists(cells, min_size=min_rows,
                                                    max_size=MAX_ROWS)))


@st.composite
def patterns(draw, attributes) -> PatternTuple:
    return PatternTuple({a: draw(CELL_PATTERNS) for a in attributes})


@st.composite
def cfd_sets(draw, relation: Relation) -> list[CFD]:
    """One to three CFDs, each with one or two LHS and RHS attributes and patterns."""
    names = [a.lower() for a in relation.schema.attribute_names]
    found = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
        rhs = draw(st.lists(st.sampled_from([n for n in names if n not in lhs]),
                            min_size=1, max_size=2, unique=True))
        tableau = draw(st.lists(patterns(lhs + rhs), min_size=1, max_size=2,
                                unique=True))
        found.append(CFD(relation.name, lhs, rhs, tableau))
    return found


@st.composite
def relations_with_cfds(draw, typed: bool = True):
    relation = draw(relations(typed=typed))
    return relation, draw(cfd_sets(relation))


@st.composite
def databases_with_cinds(draw) -> tuple[Database, list[CIND]]:
    left, right = draw(relations("r")), draw(relations("s"))
    database = Database()
    database.add(left)
    database.add(right)
    left_names = [a.lower() for a in left.schema.attribute_names]
    right_names = [a.lower() for a in right.schema.attribute_names]
    cinds = []
    for _ in range(draw(st.integers(1, 2))):
        width = draw(st.integers(1, 2))
        x = draw(st.permutations(left_names))[:width]
        y = draw(st.permutations(right_names))[:width]
        condition = {a: draw(st.sampled_from(CONSTANTS))
                     for a in draw(st.sets(st.sampled_from(
                         [n for n in left_names if n not in x]), max_size=1))}
        consequence = {a: draw(st.sampled_from(CONSTANTS))
                       for a in draw(st.sets(st.sampled_from(
                           [n for n in right_names if n not in y]), max_size=1))}
        cinds.append(CIND("r", x, "s", y, condition, consequence))
    return database, cinds


def mutate(relation, data, steps: int = 6, incremental=None):
    """Random inserts, deletes and cell updates (through *incremental* when given)."""
    insert = incremental.insert_tuple if incremental else relation.insert_dict
    delete = incremental.delete_tuple if incremental else relation.delete
    update = incremental.update_cell if incremental else relation.update
    types = {a.name: a.type for a in relation.schema.attributes}
    for _ in range(data.draw(st.integers(1, steps))):
        tids = relation.tids()
        action = data.draw(st.sampled_from(["insert", "delete", "update"]
                                           if tids else ["insert"]))
        if action == "insert":
            insert({name: data.draw(st.sampled_from(CELLS[kind]))
                    for name, kind in types.items()})
        elif action == "delete":
            delete(data.draw(st.sampled_from(tids)))
        else:
            name = data.draw(st.sampled_from(sorted(types)))
            update(data.draw(st.sampled_from(tids)), name,
                   data.draw(st.sampled_from(CELLS[types[name]])))
