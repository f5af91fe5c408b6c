"""The column store's maintained hash indexes against fresh scans and the oracle.

``relation.columns.index(...)`` is kept current by the relation's
mutations.  After every mutation — inserts, batch inserts, deletes, and
updates of key, tallied and other columns — its buckets must equal a
freshly built :class:`HashIndex`'s and the oracle's grouping on values,
and it must not report itself stale.  Its per-bucket statistics must
equal their definitions on the oracle's rows: each bucket's smallest tid
is the least tid of its value group, and each registered tally is a
``Counter`` of the group's values of the tallied columns, whether it was
registered before the writes or between them.  The store and its indexes
refer to the relation weakly, so registering an index never keeps a
dropped relation alive.
"""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import definitions as oracle
from oracle.strategies import CELLS, oracle_settings, relations
from repro.errors import RelationError
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema

#: one- and two-attribute indexes sharing column b; c (and d) stay unindexed
INDEXED = (["b"], ["a", "b"])
#: per index, the tallies registered before the writes: c is no key
#: column, a is a key column of the second index
TALLIED = ((["c"],), (["c", "a"],))
#: registered on the first index partway through the writes (a key
#: column of the other index only)
LATE_TALLY = ["a"]


def value_groups(relation, attributes):
    data = oracle.rows(relation)
    return {tuple(data[group[0]][a] for a in attributes): set(group)
            for group in oracle.groups(data, data, attributes)}


def row(relation, data):
    return [data.draw(st.sampled_from(CELLS[attribute.type]))
            for attribute in relation.schema.attributes]


def insert(relation, data):
    relation.insert(row(relation, data))


def decoded_tally(relation, index, attributes, tally):
    """A tally's counts with bucket keys and counted codes decoded to values."""
    dictionaries = [relation.columns.column(a).values for a in attributes]

    def value(item):
        if len(dictionaries) == 1:
            return dictionaries[0][item]
        return tuple(values[code] for values, code in zip(dictionaries, item))

    return {index.decode_key(key): Counter({value(item): count
                                            for item, count in counts.items()})
            for key, counts in tally.items()}


def assert_statistics_hold(relation, names, index, tallies):
    """Smallest tids and tallies against their definitions on the oracle's rows."""
    data = oracle.rows(relation)
    groups = value_groups(relation, names)
    assert {index.decode_key(key): tid for key, tid in index.smallest_tids().items()} == \
        {key: min(tids) for key, tids in groups.items()}
    for attributes, tally in tallies:
        assert index.tally(attributes) is tally
        expected = {key: Counter(tuple(data[tid][a] for a in attributes)
                                 if len(attributes) > 1 else data[tid][attributes[0]]
                                 for tid in tids)
                    for key, tids in groups.items()}
        assert decoded_tally(relation, index, attributes, tally) == expected
        assert all(sum(counts.values()) == len(index.bucket_view(key))
                   for key, counts in tally.items())


@given(relations(), st.data())
@oracle_settings(60)
def test_maintained_index_equals_a_fresh_one(relation, data):
    held = [relation.columns.index(names) for names in INDEXED]
    for index in held:
        index.smallest_tids()  # computed now, maintained by every write below
    tallies = [[(attributes, index.tally(attributes)) for attributes in tallied]
               for index, tallied in zip(held, TALLIED)]
    steps = data.draw(st.integers(1, 15))
    late = data.draw(st.integers(0, steps))
    attributes = relation.schema.attributes
    for step in range(steps):
        if step == late:
            tallies[0].append((LATE_TALLY, held[0].tally(LATE_TALLY)))
        tids = relation.tids()
        action = data.draw(st.sampled_from(["insert", "insert_many", "delete", "update"]
                                           if tids else ["insert", "insert_many"]))
        if action == "insert":
            insert(relation, data)
        elif action == "insert_many":
            relation.insert_many([row(relation, data)
                                  for _ in range(data.draw(st.integers(0, 3)))])
        elif action == "delete":
            relation.delete(data.draw(st.sampled_from(tids)))
        else:
            attribute = data.draw(st.sampled_from(attributes))
            relation.update(data.draw(st.sampled_from(tids)), attribute.name,
                            data.draw(st.sampled_from(CELLS[attribute.type])))
        for names, index, registered in zip(INDEXED, held, tallies):
            assert relation.columns.index(names) is index
            assert not index.is_stale()
            assert dict(index.bucket_items()) == \
                dict(HashIndex(relation, names).bucket_items())
            assert dict(index.groups()) == value_groups(relation, names)
            assert_statistics_hold(relation, names, index, registered)


def small_relation():
    schema = RelationSchema("r", [Attribute("a"), Attribute("b")])
    return Relation.from_rows(schema, [("x", "1"), ("y", "2"), ("x", "3")])


def test_dropped_relation_is_freed_without_the_cycle_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        original = small_relation()
        original.columns.index(["a"])
        clone = original.copy()
        clone.columns.index(["a", "b"])
        refs = [weakref.ref(original), weakref.ref(clone)]
        del original, clone
        assert [ref() for ref in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_dropped_indexes_stop_following_and_rebuild_on_request():
    relation = small_relation()
    index = relation.columns.index(["a"])
    relation.columns.drop_indexes()
    relation.update(0, "a", "y")
    assert index.bucket_view(index.encode_key(["y"])) == {1}  # no longer refiled
    fresh = relation.columns.index(["a"])
    assert fresh is not index
    assert dict(fresh.groups()) == value_groups(relation, ["a"])


def test_store_and_index_outliving_their_relation_raise():
    relation = small_relation()
    store = relation.columns
    index = store.index(["a"])
    del relation
    with pytest.raises(RelationError, match="column store no longer exists"):
        store.index(["b"])
    with pytest.raises(RelationError, match="hash index no longer exists"):
        index.is_stale()
