"""The column store is a relation's only storage.

A :class:`Relation` keeps each tuple once, as dictionary codes, and
decodes on demand.  The model test runs random sequences of inserts,
updates, deletes, copies and filters against a plain
``{tid: [coerced values]}`` dict and checks every read path, the live
counts and the maintained indexes after each step; a copy or filter and
its source must never see each other's writes.  Cells compare by ``repr``, so ``0.0`` against ``-0.0``
or ``1`` against ``1.0`` would show.

The memory guard pins what loading a CSV costs per cell, retained and at
the load's peak.
"""

import gc
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle.strategies import oracle_settings
from repro.datagen.customer import CUSTOMER_SCHEMA, CustomerGenerator
from repro.errors import RelationError, TypeMismatchError
from repro.relational.csvio import relation_from_csv, relation_to_csv
from repro.relational.database import Database
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType, coerce_value, is_null

SCHEMA = RelationSchema("r", [
    Attribute("s", AttributeType.STRING),
    Attribute("i", AttributeType.INTEGER),
    Attribute("f", AttributeType.FLOAT),
    Attribute("b", AttributeType.BOOLEAN),
])

#: per column, values that coerce to its type: NULL, the colliding forms
#: 1 / "1" / 1.0 and the two zeros
POOLS = [
    (NULL, None, "1", 1, 1.0, "a", "", -0.0, 0.0),
    (NULL, "1", 1, 1.0, 2, True, -0.0, ""),
    (NULL, 1.0, 1, "1", 2.5, 0.0, -0.0, "-0.0", True),
    (NULL, True, False, 1, "1", 1.0, 0, "false"),
]

#: a value per column that fails to coerce (STRING takes everything)
BAD = [None, "x", "x", "maybe"]

#: maintained indexes every relation of the test registers
INDEXED = (["s"], ["i", "f"], ["b", "s"])


def row_of(data):
    return [data.draw(st.sampled_from(pool)) for pool in POOLS]


def coerced(row):
    return [coerce_value(value, attribute.type)
            for value, attribute in zip(row, SCHEMA.attributes)]


def with_indexes(relation):
    for names in INDEXED:
        relation.columns.index(names)
    return relation


def check(relation, model):
    """Every read of *relation* agrees with the ``{tid: values}`` *model*."""
    tids = list(model)
    assert relation.tids() == tids
    assert len(relation) == len(model)
    assert all(tid in relation for tid in tids)
    assert not any(tid in relation for tid in range(relation.tid_bound + 2)
                   if tid not in model)
    assert [(row.tid, repr(row.values)) for row in relation] == \
        [(tid, repr(tuple(values))) for tid, values in model.items()]
    for tid, values in model.items():
        assert repr(relation.tuple(tid).values) == repr(tuple(values))
    store = relation.columns
    for position, name in enumerate(SCHEMA.attribute_names):
        cells = [values[position] for values in model.values()]
        for tid, values in model.items():
            assert repr(relation.value(tid, name)) == repr(values[position])
        assert repr(relation.column(name)) == repr(cells)
        assert sorted(map(repr, relation.active_domain(name))) == \
            sorted({repr(cell) for cell in cells if not is_null(cell)})
        assert relation.null_count(name) == sum(1 for cell in cells if is_null(cell))
        column = store.column(name)
        assert {repr(column.values[code]): count
                for code, count in enumerate(column.counts) if count} == \
            dict(Counter(map(repr, cells)))
    for names in INDEXED:
        index = store.index(names)
        assert not index.is_stale()
        assert dict(index.bucket_items()) == dict(HashIndex(relation, names).bucket_items())


@given(st.data())
@oracle_settings(80)
def test_relation_behaves_like_a_dict_of_coerced_rows(data):
    pairs = [(with_indexes(Relation(SCHEMA)), {})]
    for _ in range(data.draw(st.integers(1, 25))):
        relation, model = data.draw(st.sampled_from(pairs))
        action = data.draw(st.sampled_from(
            ["insert", "insert_dict", "update", "delete", "copy", "filter", "bad", "dead"]))
        live = list(model)
        if action == "insert":
            row = row_of(data)
            tid = relation.insert(row)
            assert tid not in model and tid == relation.tid_bound - 1
            model[tid] = coerced(row)
        elif action == "insert_dict":
            row = row_of(data)
            kept = data.draw(st.lists(st.sampled_from(range(len(POOLS))), unique=True))
            tid = relation.insert_dict({SCHEMA.attribute_names[p].upper(): row[p]
                                        for p in kept})
            model[tid] = coerced([row[p] if p in kept else NULL
                                  for p in range(len(POOLS))])
        elif action == "update" and live:
            tid = data.draw(st.sampled_from(live))
            position = data.draw(st.sampled_from(range(len(POOLS))))
            value = data.draw(st.sampled_from(POOLS[position]))
            old = relation.update(tid, SCHEMA.attribute_names[position], value)
            assert repr(old) == repr(model[tid][position])
            model[tid][position] = coerce_value(value, SCHEMA.attributes[position].type)
        elif action == "delete" and live:
            tid = data.draw(st.sampled_from(live))
            relation.delete(tid)
            del model[tid]
        elif action in ("copy", "filter") and len(pairs) < 4:
            # a filter keeps the tuples whose drawn attribute is not NULL
            position = data.draw(st.sampled_from(range(len(POOLS))))
            if action == "copy":
                clone = relation.copy()
            else:
                clone = relation.filter(lambda row: not is_null(row.at(position)))
            pairs.append((with_indexes(clone),
                          {tid: list(values) for tid, values in model.items()
                           if action == "copy" or not is_null(values[position])}))
            assert clone.tid_bound == relation.tid_bound
        elif action == "bad":
            # a value that fails to coerce changes nothing, not even the next tid
            position = data.draw(st.sampled_from(range(1, len(POOLS))))
            bound, version = relation.tid_bound, relation.version
            row = row_of(data)
            row[position] = BAD[position]
            with pytest.raises(TypeMismatchError):
                relation.insert(row)
            if live:
                with pytest.raises(TypeMismatchError):
                    relation.update(live[0], SCHEMA.attribute_names[position],
                                    BAD[position])
            assert (relation.tid_bound, relation.version) == (bound, version)
        elif action == "dead":
            dead = relation.tid_bound  # never assigned; deleted tids behave alike
            with pytest.raises(RelationError):
                relation.delete(dead)
            with pytest.raises(RelationError):
                relation.update(dead, "s", "a")
            with pytest.raises(RelationError):
                relation.value(dead, "s")
        for other, other_model in pairs:
            check(other, other_model)


def test_float_negative_zero_is_stored_as_zero():
    schema = RelationSchema("t", [Attribute("k", AttributeType.INTEGER),
                                  Attribute("x", AttributeType.FLOAT)])
    relation = Relation.from_rows(schema, [(1, 0.0), (2, -0.0)])
    database = Database()
    database.add(relation)
    engine = SQLEngine(database)
    result = engine.query("SELECT k, x FROM t")
    assert engine.last_plan == "code"
    # the row API and SQL read the one stored form
    assert [repr(row.values) for row in result] == ["(1, 0.0)", "(2, 0.0)"]
    assert repr(relation.value(1, "x")) == "0.0"
    assert repr(relation.tuple(1).values) == "(2, 0.0)"
    assert relation_to_csv(relation) == "k,x\n1,0\n2,0\n"


def test_csv_load_keeps_codes_not_rows():
    """5,000 customers loaded with their schema, then ``.columns``: at
    most 50 bytes per cell retained and 70 at the load's peak."""
    text = relation_to_csv(CustomerGenerator(seed=7).generate(5000))
    cells = 5000 * CUSTOMER_SCHEMA.arity
    gc.collect()
    tracemalloc.start()
    try:
        relation = relation_from_csv(text, "customer", schema=CUSTOMER_SCHEMA)
        relation.columns
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(relation) == 5000
    assert retained / cells <= 50, f"{retained / cells:.1f} bytes per cell retained"
    assert peak / cells <= 70, f"{peak / cells:.1f} bytes per cell at the peak"
