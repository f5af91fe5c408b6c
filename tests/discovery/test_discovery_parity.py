"""Randomized discovery checks against the definitions.

Discovery runs on dictionary codes and stripped array-backed partitions.
On randomized relations with NULLs and duplicates, and after interleaved
insert/delete/update streams, its FDs, keys, itemsets and constant and
variable CFDs must equal what :mod:`oracle.definitions` derives by brute
force.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import definitions as oracle
from repro.datagen.customer import CustomerGenerator
from repro.discovery.cfd_discovery import CFDDiscovery
from repro.discovery.fd_discovery import FDDiscovery
from repro.discovery.itemsets import ItemsetMiner
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL

SCHEMA = RelationSchema("r", [Attribute("a"), Attribute("b"),
                              Attribute("c"), Attribute("d")])


def random_relation(seed: int, size: int = 60, null_rate: float = 0.15) -> Relation:
    rng = random.Random(seed)
    relation = Relation(SCHEMA)
    for _ in range(size):
        relation.insert([
            NULL if rng.random() < null_rate else rng.choice("xyz"),
            NULL if rng.random() < null_rate else str(rng.randrange(4)),
            NULL if rng.random() < null_rate else rng.choice(("p", "q")),
            NULL if rng.random() < null_rate else str(rng.randrange(3)),
        ])
    return relation


def mutate(relation: Relation, seed: int, steps: int = 25) -> None:
    rng = random.Random(seed)
    for _ in range(steps):
        action = rng.random()
        tids = relation.tids()
        if action < 0.4 or not tids:
            relation.insert([rng.choice("xyz"), str(rng.randrange(4)),
                             rng.choice(("p", "q")), str(rng.randrange(3))])
        elif action < 0.7:
            relation.delete(rng.choice(tids))
        else:
            relation.update(rng.choice(tids), rng.choice("abcd"),
                            NULL if rng.random() < 0.2 else rng.choice("xyz"))


def cfd_keys(cfds) -> list[tuple]:
    return [oracle.discovered_cfd_key(cfd) for cfd in cfds]


def assert_discovery_matches_definition(relation: Relation, min_support: int = 2,
                                        max_lhs_size: int = 2) -> None:
    """FDs, keys, itemsets and CFDs equal the brute-force definitions."""
    fd = FDDiscovery(relation, max_lhs_size=max_lhs_size)
    assert {(f.lhs, f.rhs[0]) for f in fd.discover()} == \
        oracle.minimal_fds(relation, max_lhs_size)
    assert set(fd.keys()) == oracle.minimal_keys(relation, max_lhs_size)

    miner = ItemsetMiner(relation, min_support=min_support, max_size=max_lhs_size)
    expected = oracle.frequent_itemsets(relation, min_support, max_lhs_size)
    assert {i.items: i.support for i in miner.frequent_itemsets()} == expected
    baskets = oracle.transactions(relation)
    assert {i.items for i in miner.free_itemsets()} == \
        {items for items in expected if oracle.is_free(baskets, items)}

    cfds = CFDDiscovery(relation, min_support=min_support, max_lhs_size=max_lhs_size)
    constant = cfd_keys(cfds.discover_constant_cfds())
    variable = cfd_keys(cfds.discover_variable_cfds())
    assert len(set(constant)) == len(constant) and len(set(variable)) == len(variable)
    assert set(constant) == oracle.constant_cfds(relation, min_support, max_lhs_size)
    assert set(variable) == oracle.variable_cfds(relation, min_support, max_lhs_size)


class TestDefinition:
    @pytest.mark.parametrize("seed", [1, 7, 23, 91])
    def test_randomized_relations(self, seed):
        assert_discovery_matches_definition(random_relation(seed))

    @pytest.mark.parametrize("seed", [5, 17])
    def test_after_interleaved_mutations(self, seed):
        relation = random_relation(seed)
        relation.columns  # build the store early so the hooks maintain it
        mutate(relation, seed + 1)
        assert_discovery_matches_definition(relation)

    def test_customer_workload(self):
        relation = CustomerGenerator(seed=33).generate(150)
        assert_discovery_matches_definition(relation, min_support=5)

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xy"),
                              st.sampled_from("pq"), st.sampled_from("01")),
                    min_size=1, max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_fds_and_keys(self, rows):
        relation = Relation.from_rows(SCHEMA, rows)
        discovery = FDDiscovery(relation, max_lhs_size=3)
        assert {(f.lhs, f.rhs[0]) for f in discovery.discover()} == \
            oracle.minimal_fds(relation, 3)
        assert set(discovery.keys()) == oracle.minimal_keys(relation, 3)

