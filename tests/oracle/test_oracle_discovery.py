"""Discovery against the definitions.

FDs and keys are checked against an exhaustive lattice search with
minimality, stripped partitions against grouping on values, itemsets,
free sets, closures and constant CFDs against counting, and variable
CFDs against conditioning every failed candidate FD on each ``B = b``.
"""

from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from oracle import definitions as oracle
from oracle.strategies import oracle_settings, relations
from repro.discovery.cfd_discovery import CFDDiscovery
from repro.discovery.fd_discovery import FDDiscovery
from repro.discovery.itemsets import ItemsetMiner
from repro.discovery.partitions import PartitionProvider, partition_of

nonempty_relations = relations(min_rows=1)


def attribute_sets(relation):
    names = oracle.attributes_of(relation)
    return [list(c) for size in range(1, len(names) + 1) for c in combinations(names, size)]


class TestFDDiscovery:
    @given(nonempty_relations, st.integers(1, 3))
    @oracle_settings(15)
    def test_minimal_fds_and_keys(self, relation, max_lhs_size):
        discovery = FDDiscovery(relation, max_lhs_size=max_lhs_size)
        fds = discovery.discover()
        assert len(fds) == len({(fd.lhs, fd.rhs) for fd in fds})
        assert {(fd.lhs, fd.rhs[0]) for fd in fds} == \
            oracle.minimal_fds(relation, max_lhs_size)
        keys = discovery.keys()
        assert len(keys) == len(set(keys))
        assert set(keys) == oracle.minimal_keys(relation, max_lhs_size)

    @given(nonempty_relations, st.integers(1, 3), st.sampled_from([0.1, 0.2, 0.34]))
    @oracle_settings(15)
    def test_minimal_approximate_fds(self, relation, max_lhs_size, error):
        fds = FDDiscovery(relation, max_lhs_size=max_lhs_size,
                          approximate_error=error).discover()
        assert {(fd.lhs, fd.rhs[0]) for fd in fds} == \
            oracle.minimal_fds(relation, max_lhs_size, approximate_error=error)


class TestPartitions:
    @given(relations())
    @oracle_settings(30)
    def test_base_partitions_group_on_values(self, relation):
        for attributes in attribute_sets(relation):
            groups = partition_of(relation, attributes).groups
            assert all(group == sorted(group) for group in groups)
            assert sorted(map(tuple, groups)) == \
                oracle.stripped_partition(relation, attributes)

    @given(relations())
    @oracle_settings(8)
    def test_provider_partitions_group_on_values(self, relation):
        provider = PartitionProvider(relation)
        for attributes in attribute_sets(relation):  # levelwise: products beyond level 1
            assert sorted(map(tuple, provider.partition(attributes).groups)) == \
                oracle.stripped_partition(relation, attributes)


class TestItemsets:
    @given(relations(), st.integers(1, 3), st.integers(1, 3))
    @oracle_settings(30)
    def test_frequent_free_and_closed(self, relation, min_support, max_size):
        miner = ItemsetMiner(relation, min_support=min_support, max_size=max_size)
        expected = oracle.frequent_itemsets(relation, min_support, max_size)
        frequent = miner.frequent_itemsets()
        assert len(frequent) == len(expected)
        assert {i.items: i.support for i in frequent} == expected
        baskets = oracle.transactions(relation)
        assert {i.items for i in miner.free_itemsets()} == \
            {items for items in expected if oracle.is_free(baskets, items)}
        for items in list(expected) + [frozenset()]:
            assert miner.closure_of(items) == oracle.closure(baskets, items)
            assert miner.support_of(items) == oracle.support(baskets, items)


class TestCFDDiscovery:
    @given(nonempty_relations, st.integers(1, 3), st.integers(1, 2))
    @oracle_settings(12)
    def test_constant_and_variable_cfds(self, relation, min_support,
                                        max_lhs_size):
        discovery = CFDDiscovery(relation, min_support=min_support,
                                 max_lhs_size=max_lhs_size)
        constant = [oracle.discovered_cfd_key(c) for c in discovery.discover_constant_cfds()]
        assert len(constant) == len(set(constant))
        assert set(constant) == oracle.constant_cfds(relation, min_support, max_lhs_size)
        variable = [oracle.discovered_cfd_key(c) for c in discovery.discover_variable_cfds()]
        assert len(variable) == len(set(variable))
        assert set(variable) == oracle.variable_cfds(relation, min_support, max_lhs_size)
