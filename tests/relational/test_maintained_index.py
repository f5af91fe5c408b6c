"""The column store's maintained hash indexes against fresh scans and the oracle.

``relation.columns.index(...)`` is kept current by the relation's
mutations.  After every mutation — inserts, deletes, and updates of
indexed and non-indexed columns — its buckets must equal a freshly built
:class:`HashIndex`'s and the oracle's grouping on values, and it must not
report itself stale.  The store and
its indexes refer to the relation weakly, so registering an index never
keeps a dropped relation alive.
"""

import gc
import weakref

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


def value_groups(relation, attributes):
    data = oracle.rows(relation)
    return {tuple(data[group[0]][a] for a in attributes): set(group)
            for group in oracle.groups(data, data, attributes)}


def insert(relation, data):
    relation.insert([data.draw(st.sampled_from(CELLS[attribute.type]))
                     for attribute in relation.schema.attributes])


@given(relations(), st.data())
@oracle_settings(60)
def test_maintained_index_equals_a_fresh_one(relation, data):
    held = [relation.columns.index(names) for names in INDEXED]
    attributes = relation.schema.attributes
    for _ in range(data.draw(st.integers(1, 15))):
        tids = relation.tids()
        action = data.draw(st.sampled_from(["insert", "delete", "update"]
                                           if tids else ["insert"]))
        if action == "insert":
            insert(relation, data)
        elif action == "delete":
            relation.delete(data.draw(st.sampled_from(tids)))
        else:
            attribute = data.draw(st.sampled_from(attributes))
            relation.update(data.draw(st.sampled_from(tids)), attribute.name,
                            data.draw(st.sampled_from(CELLS[attribute.type])))
        for names, index in zip(INDEXED, held):
            assert relation.columns.index(names) is index
            assert not index.is_stale()
            assert dict(index.bucket_items()) == \
                dict(HashIndex(relation, names).bucket_items())
            assert dict(index.groups()) == value_groups(relation, names)


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
