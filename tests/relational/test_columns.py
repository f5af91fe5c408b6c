"""Tests for the dictionary-encoded column store and the columnar index."""

import pytest

from oracle import definitions as oracle
from repro.discovery.partitions import partition_of
from repro.errors import SchemaError
from repro.relational.columns import NULL_CODE, TOMBSTONE
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.stats import collect_stats
from repro.relational.types import NULL, AttributeType, is_null, sort_key


SCHEMA = RelationSchema("people", [
    Attribute("name"), Attribute("city"), Attribute("age", AttributeType.INTEGER),
])

ROWS = [
    ("ada", "london", 36),
    ("alan", "london", 41),
    ("grace", "nyc", 85),
    ("ada", NULL, 36),
]


@pytest.fixture
def relation():
    return Relation.from_rows(SCHEMA, ROWS)


class TestColumnStore:
    def test_codes_decode_to_row_values(self, relation):
        store = relation.columns
        for row in relation:
            for position, column in enumerate(store.columns()):
                assert column.values[column.codes[row.tid]] == row.at(position)

    def test_equal_values_share_one_code(self, relation):
        name = relation.columns.column("name")
        codes = [name.codes[t] for t in relation.tids()]
        assert codes[0] == codes[3] and len(set(codes)) == 3

    def test_null_is_code_zero_in_every_column(self, relation):
        city = relation.columns.column("city")
        assert city.codes[3] == NULL_CODE
        assert is_null(city.values[NULL_CODE])

    def test_code_of_unknown_value_is_none(self, relation):
        assert relation.columns.column("city").code_of("paris") is None
        assert relation.columns.column("city").code_of(NULL) == NULL_CODE

    def test_unknown_attribute_raises_schema_error(self, relation):
        with pytest.raises(SchemaError):
            relation.columns.column("nope")

    def test_delete_leaves_tombstone_and_decrements_counts(self, relation):
        store = relation.columns
        city = store.column("city")
        code = city.codes[0]
        count_before = city.counts[code]
        relation.delete(0)
        assert city.codes[0] == TOMBSTONE
        assert city.counts[code] == count_before - 1

    def test_filter_and_copy_get_their_own_store(self, relation):
        _ = relation.columns
        clone = relation.copy()
        subset = relation.filter(lambda t: t["city"] == "london")
        assert clone.columns.column("name").distinct_count() == 3
        assert subset.columns.column("name").distinct_count() == 2

    def test_matcher_tracks_new_dictionary_values(self, relation):
        age = relation.columns.column("age")
        matcher = age.matcher("is-41-ish", lambda v: str(v) == "41")
        assert {age.values[c] for c in matcher.codes} == {41}
        relation.insert(("cantor", "halle", 41))  # already interned: unchanged
        relation.update(2, "age", 41)
        assert {age.values[c] for c in matcher.codes} == {41}
        # a genuinely new dictionary value that satisfies the predicate
        other = relation.columns.column("name")
        m2 = other.matcher("is-bob", lambda v: v == "bob")
        assert m2.codes == set()
        relation.insert(("bob", "york", 1))
        assert {other.values[c] for c in m2.codes} == {"bob"}

    def test_statistics_from_counts(self, relation):
        city = relation.columns.column("city")
        assert city.null_count() == 1
        assert city.distinct_count() == 2
        assert city.most_common() == ("london", 2)

    def test_most_common_tie_breaks_on_first_occurrence(self):
        relation = Relation.from_rows(SCHEMA, [("b", "x", 1), ("a", "y", 2)])
        assert relation.columns.column("name").most_common() == ("b", 1)

    def test_strings_cache_follows_dictionary(self, relation):
        age = relation.columns.column("age")
        strings = age.strings
        assert strings[age.codes[0]] == "36"
        relation.insert(("x", "y", 99))
        assert age.strings[age.codes[4]] == "99"


class TestCollectStatsColumnar:
    def test_matches_naive_scan(self, relation):
        relation.update(0, "city", NULL)
        stats = collect_stats(relation)
        values = relation.column("city")
        assert stats.column("city").nulls == sum(1 for v in values if is_null(v))
        assert stats.column("city").distinct == len(
            {v for v in values if not is_null(v)})
        assert stats.column("city").total == len(relation)
        assert stats.column("name").most_common == "ada"
        assert stats.column("name").most_common_count == 2


class TestPartitionColumnar:
    def test_matches_value_level_grouping(self, relation):
        relation.insert(("ada", "london", 36))
        for attributes in (["city"], ["name", "age"], ["name", "city", "age"]):
            partition = partition_of(relation, attributes)
            reference = {}
            for row in relation:
                reference.setdefault(row.project(attributes), set()).add(row.tid)
            expected = {frozenset(g) for g in reference.values() if len(g) > 1}
            assert {frozenset(g) for g in partition.groups} == expected


class TestColumnarIndexViews:
    def test_lookup_copy_and_view_agree(self, relation):
        index = HashIndex(relation, ["city"])
        copied = index.lookup(("london",))
        view = index.lookup_view(("london",))
        assert copied == set(view) == {0, 1}
        copied.add(99)  # mutating the copy must not affect the index
        assert index.lookup(("london",)) == {0, 1}

    def test_lookup_view_is_live(self, relation):
        index = relation.columns.index(["city"])
        view = index.lookup_view(("london",))
        assert relation.insert(("new", "london", 7)) == 4
        assert 4 in view
        relation.delete(0)
        assert 0 not in view

    def test_unknown_key_is_empty(self, relation):
        index = HashIndex(relation, ["city"])
        assert index.lookup(("atlantis",)) == set()
        assert len(index.lookup_view(("atlantis",))) == 0

    def test_groups_decode_to_values(self, relation):
        index = HashIndex(relation, ["city", "age"])
        groups = dict(index.groups())
        assert groups[("london", 36)] == {0}
        assert any(is_null(key[0]) for key in groups)

    def test_bucket_items_are_code_keys(self, relation):
        index = HashIndex(relation, ["city"])
        for key, tids in index.bucket_items():
            assert all(isinstance(code, int) for code in key)
            assert index.lookup(index.decode_key(key)) == tids

    def test_key_at_roundtrips_through_encode(self, relation):
        index = HashIndex(relation, ["city", "age"])
        key = index.key_at(2)
        assert index.encode_key(("nyc", 85)) == key
        assert index.decode_key(key) == ("nyc", 85)
        assert index.bucket_view(key) == {2}

    def test_groups_match_value_grouping(self, relation):
        index = HashIndex(relation, ["city"])
        data = oracle.rows(relation)
        expected = {(data[group[0]]["city"],): set(group)
                    for group in oracle.groups(data, data, ["city"])}
        assert dict(index.groups()) == expected
        assert index.lookup(("nyc",)) == expected[("nyc",)]


class TestColumnOrder:
    """The dictionary-order view: sorted codes, dense ranks, bisect ranges."""

    def test_sorted_codes_follow_value_order(self, relation):
        column = relation.columns.column("age")
        order = column.order()
        values = [column.values[code] for code in order.sorted_codes]
        assert values[0] is NULL or is_null(values[0])  # NULL sorts first
        rest = values[1:]
        assert rest == sorted(rest)

    def test_ranks_are_dense_and_order_isomorphic(self, relation):
        column = relation.columns.column("name")
        order = column.order()
        for a in range(len(column.values)):
            for b in range(len(column.values)):
                key_a, key_b = sort_key(column.values[a]), sort_key(column.values[b])
                if key_a < key_b:
                    assert order.ranks[a] < order.ranks[b]
                elif key_a == key_b:
                    assert order.ranks[a] == order.ranks[b]

    def test_range_queries_match_value_scan(self, relation):
        column = relation.columns.column("age")
        order = column.order()
        import operator as op
        ops = {"<": op.lt, "<=": op.le, ">": op.gt, ">=": op.ge}
        for symbol, fn in ops.items():
            for bound in (36, 41, 85, 0, 100, 40.5):
                expected = {code for code in range(1, len(column.values))
                            if fn(sort_key(column.values[code]), sort_key(bound))}
                assert order.codes_in_range(symbol, bound) == expected, (symbol, bound)

    def test_null_code_never_selected(self, relation):
        column = relation.columns.column("city")
        assert NULL_CODE not in column.order().codes_in_range("<", "zzz")
        assert NULL_CODE not in column.order().codes_in_range(">=", "")

    def test_view_rebuilds_after_intern(self, relation):
        column = relation.columns.column("city")
        stale = column.order()
        relation.insert(["new", "aberdeen", 1])
        fresh = column.order()
        assert fresh is not stale
        code = column.code_of("aberdeen")
        assert code in fresh.codes_in_range("<", "london")

    def test_view_cached_while_dictionary_unchanged(self, relation):
        column = relation.columns.column("city")
        assert column.order() is column.order()

    def test_unknown_operator_rejected(self, relation):
        with pytest.raises(ValueError):
            relation.columns.column("city").order().codes_in_range("!", "x")
