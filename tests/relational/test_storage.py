"""The column store is a relation's only storage.

A :class:`Relation` keeps each tuple once, as dictionary codes, and
decodes on demand.  The model test runs random sequences of inserts,
updates, deletes, copies and filters against a plain
``{tid: [coerced values]}`` dict and checks every read path, the live
counts and the maintained indexes after each step; a copy or filter and
its source must never see each other's writes.  Cells compare by ``repr``, so ``0.0`` against ``-0.0``
or ``1`` against ``1.0`` would show.

The batch tests run every bulk constructor (``insert_many``, ``from_rows``,
``from_dicts``, ``from_columns``, UNION results, CSV load with a declared
and an inferred schema) against inserting the same rows one by one, on
random typed rows with failing cells and arities: the state must be
byte-identical and a failure must raise the same error after the same
rows.

The memory guard pins what loading a CSV costs per cell, retained and at
the load's peak.
"""

import csv
import gc
import io
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle.strategies import oracle_settings
from repro.datagen.customer import CUSTOMER_SCHEMA, CustomerGenerator
from repro.errors import RelationError, SchemaError, TypeMismatchError
from repro.relational.csvio import relation_from_csv, relation_to_csv
from repro.relational.database import Database
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType, coerce_value, infer_type, is_null

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


# -- batches -----------------------------------------------------------------
#
# Every bulk constructor codes a batch a column at a time.  Each must leave
# exactly the state inserting the same rows one by one leaves, down to the
# dictionary order, the ``==``-lookup table, the maintained indexes' bucket
# order and the live matcher sets, and fail as the row-by-row insert fails.

NAN = float("nan")

#: per column, what a batch cell may be: the pool, the column's bad value,
#: the booleans (``True == 1 == 1.0``, yet a STRING column stores "true"),
#: both zeros, NaN (a STRING "nan", a FLOAT NULL, an error otherwise) and an
#: unhashable value that no type takes
CELLS = [pool + (BAD[position], True, False, -0.0, NAN, ["x"])
         for position, pool in enumerate(POOLS)]

#: live matchers the ``insert_many`` test registers: the ``≍`` test of a
#: pattern constant, as detection compiles one
MATCHED = {"s": "1", "i": 1, "f": 1.0, "b": True}


def with_matchers(relation):
    for name, constant in MATCHED.items():
        relation.columns.column(name).matcher(
            ("eq", constant), lambda value, constant=constant: str(value) == str(constant))
    return relation


def state(relation):
    """Everything a batch could get wrong, as one comparable value."""
    store = relation.columns
    columns = [(repr(column.values), column.codes, column.counts,
                repr(list(column._code_by_value.items())),
                {key: sorted(matcher.codes) for key, matcher in column._matchers.items()})
               for column in store.columns()]
    indexes = [(positions, [(key, list(bucket)) for key, bucket in index.bucket_items()],
                index.is_stale())
               for positions, index in store._indexes.items()]
    return relation.tids(), relation.version, relation.tid_bound, columns, indexes


def outcome(action):
    """``None``, or the type and message of what *action* raised."""
    try:
        action()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)
    return None


def valid(row):
    return len(row) == len(POOLS) and outcome(lambda: coerced(row)) is None


def one_by_one(relation, rows, insert=None):
    insert = insert or relation.insert
    return outcome(lambda: [insert(row) for row in rows])


class SourceFailed(Exception):
    pass


def failing_after(rows, count):
    """*rows*, then a failure after the first *count* of them (None: no failure)."""
    yield from rows[:count]
    if count is not None:
        raise SourceFailed(f"no row after {count}")


@st.composite
def batch_rows(draw, max_size=12):
    """Rows mostly from the pools, sometimes with a failing cell or arity."""
    rows = []
    for _ in range(draw(st.integers(0, max_size))):
        row = [draw(st.sampled_from(POOLS[p] if draw(st.integers(0, 9)) else CELLS[p]))
               for p in range(len(POOLS))]
        if not draw(st.integers(0, 19)):
            row = row[:draw(st.integers(0, len(row) - 1))] or row + ["extra"]
        rows.append(row)
    return rows


@pytest.fixture(params=[1, 3, 1024], ids=["batch1", "batch3", "batch1024"])
def batch_size(request, monkeypatch):
    """Small batches make several per example and a failure in a later one."""
    import repro.relational.relation as relation_module

    monkeypatch.setattr(relation_module, "_BATCH_ROWS", request.param)
    return request.param


@given(st.data())
@oracle_settings(120)
def test_insert_many_matches_inserting_row_by_row(batch_size, data):
    rows = data.draw(batch_rows())
    prefix = [row for row in data.draw(batch_rows(4)) if valid(row)]
    reference = with_matchers(with_indexes(Relation.from_rows(SCHEMA, [])))
    batched = with_matchers(with_indexes(Relation.from_rows(SCHEMA, [])))
    for relation in (reference, batched):
        for row in prefix:
            relation.insert(row)
    # reading the rows may fail too: the rows read before still go in first
    count = data.draw(st.one_of(st.none(), st.integers(0, len(rows))))
    expected = one_by_one(reference, failing_after(rows, count))
    assert outcome(lambda: batched.insert_many(failing_after(rows, count))) == expected
    assert state(batched) == state(reference)


@given(st.data())
@oracle_settings(120)
def test_bulk_constructors_match_inserting_row_by_row(batch_size, data):
    rows = data.draw(batch_rows())
    reference = Relation(SCHEMA)
    expected = one_by_one(reference, rows)
    built = []
    assert outcome(lambda: built.append(Relation.from_rows(SCHEMA, rows))) == expected
    if all(len(row) == len(POOLS) for row in rows):
        columns = [[row[p] for row in rows] for p in range(len(POOLS))]
        assert outcome(lambda: built.append(Relation.from_columns(SCHEMA, columns))) == expected
    for relation in built:
        assert state(relation) == state(reference)


@given(st.data())
@oracle_settings(80)
def test_from_dicts_matches_insert_dict(batch_size, data):
    dicts = []
    for row in data.draw(batch_rows()):
        # an unknown attribute fails the row: an earlier row's bad value must
        # still win, as it does one row at a time
        names = [name.upper() if data.draw(st.booleans()) else name
                 for name in SCHEMA.attribute_names] + ["zz"]
        row = (row + ["z"] * len(names))[:len(names)]
        unknown = not data.draw(st.integers(0, 5))  # "zz" may be kept
        positions = range(len(names) if unknown else len(names) - 1)
        kept = data.draw(st.lists(st.sampled_from(positions), unique=True))
        dicts.append({names[p]: row[p] for p in kept})
    reference = Relation(SCHEMA)
    expected = one_by_one(reference, dicts, reference.insert_dict)
    built = []
    assert outcome(lambda: built.append(Relation.from_dicts(SCHEMA, dicts))) == expected
    for relation in built:
        assert state(relation) == state(reference)


@given(st.data())
@oracle_settings(60)
def test_union_result_matches_inserting_row_by_row(batch_size, data):
    rows = [row for row in data.draw(batch_rows()) if valid(row)]
    database = Database()
    database.add(Relation.from_rows(SCHEMA, rows))
    every = data.draw(st.booleans())
    text = (f"SELECT s, i, f, b FROM r WHERE i IS NULL UNION {'ALL ' if every else ''}"
            f"SELECT s, i, f, b FROM r")
    result = SQLEngine(database).query(text)
    parts = [[row for row in database.relation("r") if is_null(row["i"])],
             list(database.relation("r"))]
    union = [row.values for part in parts for row in part]
    if not every:
        union = [values for position, values in enumerate(union)
                 if values not in union[:position]]
    reference = Relation(result.schema)
    for values in union:
        reference.insert(values)
    assert state(result) == state(reference)


#: CSV fields: blanks, numbers, booleans and strings a type rejects
FIELDS = ["", "1", "1.0", "-0.0", " 2 ", "true", "0", "no", "x", "nan", "a,b"]


def csv_text(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def csv_one_by_one(text, schema):
    """The row-at-a-time load, restated: infer from every value, then
    insert each row, blanks as NULL, after its arity check."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    header, data = [name.strip() for name in rows[0]], rows[1:]
    if schema is None:
        columns = list(zip(*data)) if data else [[] for _ in header]
        schema = RelationSchema("r", [Attribute(name, infer_type(list(column)))
                                      for name, column in zip(header, columns)])
    relation = Relation(schema)

    def load():
        for row in data:
            if len(row) != schema.arity:
                raise SchemaError(
                    f"CSV row {row!r} has {len(row)} fields, expected {schema.arity}")
            relation.insert([NULL if field == "" else field for field in row])
    return relation, outcome(load)


@given(st.data())
@oracle_settings(120)
def test_csv_load_matches_inserting_row_by_row(batch_size, data):
    header = list(SCHEMA.attribute_names)
    rows = []
    for _ in range(data.draw(st.integers(0, 12))):
        row = [data.draw(st.sampled_from(FIELDS)) for _ in header]
        if not data.draw(st.integers(0, 14)):
            row = row[:-1] if data.draw(st.booleans()) else row + ["x"]
        rows.append(row)
    text = csv_text(header, rows)
    for schema in (SCHEMA, None):
        reference, expected = csv_one_by_one(text, schema)
        loaded = []
        assert outcome(lambda: loaded.append(
            relation_from_csv(text, "r", schema=schema))) == expected
        for relation in loaded:
            assert relation.schema.attributes == reference.schema.attributes
            assert state(relation) == state(reference)


@pytest.mark.parametrize("first, second, error", [
    (["a", "x", "1.5", "true"], ["a", "1"], TypeMismatchError),
    (["a", "1"], ["a", "x", "1.5", "true"], SchemaError),
], ids=["coercion-first", "arity-first"])
def test_csv_reports_the_first_bad_row_of_a_batch(first, second, error):
    """A bad value in an earlier row wins over a short row later in the
    same batch, and the other way round."""
    text = csv_text(SCHEMA.attribute_names, [["a", "1", "1.5", "true"], first, second])
    reference, expected = csv_one_by_one(text, SCHEMA)
    assert expected[0] is error
    with pytest.raises(error) as raised:
        relation_from_csv(text, "r", schema=SCHEMA)
    assert str(raised.value) == expected[1]


def test_distinct_count_follows_inserts_updates_and_deletes():
    relation = Relation.from_rows(SCHEMA, [("a", 1, 1.0, True), ("b", 1, NULL, True),
                                           (NULL, 2, 2.5, False)])
    column = relation.columns.column("s")

    def definition():
        return len({value for value in relation.column("s") if not is_null(value)})

    assert column.distinct_count() == definition() == 2
    relation.update(1, "s", "a")          # "b" loses its last tuple
    assert column.distinct_count() == definition() == 1
    relation.insert(("c", 3, 3.0, False))
    relation.delete(0)                    # "a" keeps tid 1
    assert column.distinct_count() == definition() == 2
    relation.delete(1)                    # "a" loses its last tuple
    relation.update(2, "s", "c")          # NULL loses its last tuple
    assert column.distinct_count() == definition() == 1
    assert relation.columns.column("f").distinct_count() == 2
