"""Unit tests for stripped partitions, the partition cache and the provider."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import definitions as oracle
from oracle.strategies import mutate, oracle_settings, relations
from repro.discovery.partitions import (
    Partition,
    PartitionProvider,
    partition_cache,
    partition_of,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL

SCHEMA = RelationSchema("r", [Attribute("a"), Attribute("b"), Attribute("c")])


@pytest.fixture
def relation():
    return Relation.from_rows(SCHEMA, [
        ("1", "x", "p"),
        ("1", "x", "p"),
        ("2", "y", "p"),
        ("3", "y", "q"),
        ("1", "z", "q"),
    ])


class TestStrippedRepresentation:
    def test_groups_are_tid_arrays(self, relation):
        partition = partition_of(relation, ["a"])
        assert partition.groups == [[0, 1, 4]]  # a='1'; singletons stripped
        assert partition.group_count == 1
        assert partition.error == 2

    def test_group_ids_cover_stripped_tids_only(self, relation):
        partition = partition_of(relation, ["b"])
        ids = partition.group_ids()
        assert ids == {0: 0, 1: 0, 2: 1, 3: 1}  # b='x' and b='y'; 'z' is a singleton
        assert partition.group_ids() is ids  # built once, cached

    def test_refinement_via_split_groups(self, relation):
        b, c, a = (relation.columns.column(name).codes for name in "bca")
        assert partition_of(relation, ["a"]).split_groups(b) == [[0, 1, 4]]  # a='1' splits on b
        assert partition_of(relation, ["b"]).split_groups(c) == [[2, 3]]
        assert partition_of(relation, ["c"]).split_groups(a) == [[0, 1, 2], [3, 4]]

    def test_refinement_detects_holding_fd(self):
        rows = [("1", "x", "p"), ("1", "x", "q"), ("2", "y", "p"), ("2", "y", "q")]
        relation = Relation.from_rows(SCHEMA, rows)
        b = relation.columns.column("b").codes
        assert partition_of(relation, ["a"]).split_groups(b) == []  # a -> b holds

    def test_product_matches_direct_partition(self, relation):
        for left_attrs, right_attrs in ((["a"], ["b"]), (["b"], ["c"]), (["a"], ["c"])):
            product = partition_of(relation, left_attrs).product(
                partition_of(relation, right_attrs))
            direct = partition_of(relation, sorted(left_attrs + right_attrs))
            assert ({frozenset(g) for g in product.groups}
                    == {frozenset(g) for g in direct.groups})
            assert product.error == direct.error

    def test_nulls_group_together(self):
        relation = Relation.from_rows(SCHEMA, [
            (NULL, "x", "p"), (NULL, "x", "q"), ("1", "y", "p")])
        partition = partition_of(relation, ["a"])
        assert partition.groups == [[0, 1]]

    def test_partitions_group_on_values_after_delete(self, relation):
        relation.delete(2)  # tombstone awareness on the code arrays
        for attributes in (["a"], ["a", "b"], ["a", "b", "c"]):
            partition = partition_of(relation, attributes)
            assert partition.groups == [list(g) for g in
                                        oracle.stripped_partition(relation, attributes)]
            assert partition.total_tuples == len(relation)


def assert_split_groups_decide_fds(relation):
    """For |X| <= 2 and A not in X, X's split groups by A decide X -> A,
    its B = b refinements and the drop in partition error."""
    data = oracle.rows(relation)
    names = oracle.attributes_of(relation)
    store = relation.columns
    for lhs in (x for size in (1, 2) for x in combinations(names, size)):
        partition = partition_of(relation, lhs)
        for rhs in names:
            if rhs in lhs:
                continue
            codes = store.column(rhs).codes
            split = partition.split_groups(codes)
            assert (not split) == oracle.fd_holds(data, lhs, rhs)
            lost = sum(len({codes[tid] for tid in group}) - 1 for group in split)
            product = partition.product(partition_of(relation, [rhs]))
            assert lost == partition.error - product.error
            for conditioning in lhs:
                column = store.column(conditioning)
                failing = {column.codes[group[0]] for group in split}
                for group in oracle.groups(data, data, [conditioning]):
                    value = data[group[0]][conditioning]
                    if value is NULL:
                        continue
                    subset = {tid: data[tid] for tid in group}
                    assert ((column.code_of(value) not in failing)
                            == oracle.fd_holds(subset, lhs, rhs))


class TestSplitGroups:
    @given(relations(), st.data())
    @oracle_settings(60)
    def test_split_groups_match_definitions_before_and_after_mutation(
            self, relation, data):
        assert_split_groups_decide_fds(relation)
        mutate(relation, data)  # deletes leave tombstones in the code arrays
        assert_split_groups_decide_fds(relation)


class TestPartitionCacheAndProvider:
    def test_partitions_cached_per_version(self, relation):
        provider = PartitionProvider(relation)
        first = provider.partition(frozenset(["a"]))
        assert provider.partition(frozenset(["a"])) is first
        relation.insert(("9", "w", "r"))
        assert provider.partition(frozenset(["a"])) is not first  # invalidated

    def test_cache_shared_across_providers(self, relation):
        first = PartitionProvider(relation).partition(frozenset(["a", "b"]))
        assert PartitionProvider(relation).partition(frozenset(["a", "b"])) is first
        assert partition_cache(relation) is partition_cache(relation)

    def test_levelwise_composition_uses_products(self, relation, monkeypatch):
        provider = PartitionProvider(relation)
        provider.partition(frozenset(["a"]))
        provider.partition(frozenset(["b"]))

        def no_scan(attributes):  # pragma: no cover - failure path
            raise AssertionError("expected composition from cached partitions")

        monkeypatch.setattr(provider, "_scan", no_scan)
        composed = provider.partition(frozenset(["a", "b"]))
        direct = partition_of(relation, ["a", "b"])
        assert ({frozenset(g) for g in composed.groups}
                == {frozenset(g) for g in direct.groups})

    def test_fd_discovery_reuses_cfd_discovery_partitions(self, relation):
        from repro.discovery.cfd_discovery import CFDDiscovery
        from repro.discovery.fd_discovery import FDDiscovery

        CFDDiscovery(relation, min_support=2, max_lhs_size=2).discover_variable_cfds()
        cached_before = len(partition_cache(relation))
        assert cached_before > 0
        FDDiscovery(relation, max_lhs_size=2).discover()
        # same relation version: the FD walk found every partition warm
        assert len(partition_cache(relation)) >= cached_before


class TestPartitionConstruction:
    def test_singletons_stripped_at_construction(self):
        partition = Partition([[1, 2], [3], [4, 5, 6], []], total_tuples=7)
        assert partition.groups == [[1, 2], [4, 5, 6]]
        assert partition.error == 3

    def test_empty_relation(self):
        relation = Relation(SCHEMA)
        partition = partition_of(relation, ["a"])
        assert partition.groups == [] and partition.error == 0
