"""Tests for partitions, FD discovery, itemset mining and CFD discovery."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.fd import FunctionalDependency
from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.detection.cfd_detect import detect_cfd_violations
from repro.discovery.cfd_discovery import CFDDiscovery, discover_cfds, discover_constant_cfds
from repro.discovery.fd_discovery import FDDiscovery, discover_fds
from repro.discovery.itemsets import ItemsetMiner
from repro.discovery.partitions import partition_of
from repro.errors import DiscoveryError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema


@pytest.fixture
def simple():
    schema = RelationSchema("r", [Attribute("a"), Attribute("b"), Attribute("c")])
    return Relation.from_dicts(schema, [
        {"a": "1", "b": "x", "c": "p"},
        {"a": "1", "b": "x", "c": "p"},
        {"a": "2", "b": "y", "c": "p"},
        {"a": "3", "b": "y", "c": "q"},
    ])


class TestPartitions:
    def test_group_structure(self, simple):
        partition = partition_of(simple, ["a"])
        assert partition.group_count == 1  # only a=1 has more than one tuple
        assert partition.error == 1

    def test_key_has_zero_error(self, simple):
        assert partition_of(simple, ["a", "c"]).error in (0, 1)
        assert partition_of(simple, ["a", "b", "c"]).error == 1  # duplicate tuple

    def test_refinement_detects_fd(self, simple):
        store = simple.columns
        # a -> b holds: no group of the partition by a carries two b codes
        assert partition_of(simple, ["a"]).split_groups(store.column("b").codes) == []
        # b='y' (tids 2, 3) carries c='p' and c='q'
        assert partition_of(simple, ["b"]).split_groups(store.column("c").codes) == [[2, 3]]

    def test_product_matches_direct_partition(self, simple):
        left = partition_of(simple, ["a"])
        right = partition_of(simple, ["b"])
        product = left.product(right)
        direct = partition_of(simple, ["a", "b"])
        assert product.error == direct.error


class TestFDDiscovery:
    def test_discovers_expected_fds(self, simple):
        fds = discover_fds(simple, max_lhs_size=2)
        assert FunctionalDependency("r", ["a"], ["b"]) in fds
        assert FunctionalDependency("r", ["a"], ["c"]) in fds
        assert FunctionalDependency("r", ["b"], ["a"]) not in fds

    def test_minimality(self, simple):
        fds = discover_fds(simple, max_lhs_size=2)
        # a -> b is found, so (a, c) -> b must not be reported
        assert FunctionalDependency("r", ["a", "c"], ["b"]) not in fds

    def test_discovered_fds_hold(self, simple):
        for fd in discover_fds(simple, max_lhs_size=2):
            assert fd.holds_on(simple)

    def test_keys(self, simple):
        discovery = FDDiscovery(simple, max_lhs_size=2)
        keys = discovery.keys()
        assert all(isinstance(k, tuple) for k in keys)

    def test_empty_relation(self):
        schema = RelationSchema("r", [Attribute("a"), Attribute("b")])
        assert discover_fds(Relation(schema)) == []

    def test_bad_parameters(self, simple):
        with pytest.raises(DiscoveryError):
            FDDiscovery(simple, max_lhs_size=0)
        with pytest.raises(DiscoveryError):
            FDDiscovery(simple, approximate_error=1.5)

    def test_approximate_fd(self, simple):
        simple.insert_dict({"a": "1", "b": "z", "c": "p"})  # breaks a -> b once
        exact = discover_fds(simple, max_lhs_size=1)
        approximate = discover_fds(simple, max_lhs_size=1, approximate_error=0.25)
        assert FunctionalDependency("r", ["a"], ["b"]) not in exact
        assert FunctionalDependency("r", ["a"], ["b"]) in approximate

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xy")),
                    min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_discovered_fds_always_hold(self, rows):
        schema = RelationSchema("r", [Attribute("p"), Attribute("q")])
        relation = Relation.from_rows(schema, rows)
        for fd in discover_fds(relation, max_lhs_size=1):
            assert fd.holds_on(relation)


class TestItemsetMiner:
    def test_supports(self, simple):
        miner = ItemsetMiner(simple, min_support=2, max_size=2)
        assert miner.support_of([("a", "1")]) == 2
        assert miner.support_of([("a", "1"), ("b", "x")]) == 2
        assert miner.support_of([("a", "1"), ("b", "y")]) == 0

    def test_frequent_itemsets(self, simple):
        miner = ItemsetMiner(simple, min_support=2, max_size=2)
        itemsets = {frozenset(i.items) for i in miner.frequent_itemsets()}
        assert frozenset({("c", "p")}) in itemsets
        assert frozenset({("a", "1"), ("b", "x")}) in itemsets

    def test_closure(self, simple):
        miner = ItemsetMiner(simple, min_support=1, max_size=2)
        closure = miner.closure_of([("a", "1")])
        assert ("b", "x") in closure and ("c", "p") in closure

    def test_free_itemsets(self, simple):
        miner = ItemsetMiner(simple, min_support=2, max_size=2)
        free = {frozenset(i.items) for i in miner.free_itemsets()}
        # {a=1, b=x} has the same support as {a=1}, hence it is not free
        assert frozenset({("a", "1"), ("b", "x")}) not in free
        assert frozenset({("a", "1")}) in free

    def test_bad_parameters(self, simple):
        with pytest.raises(DiscoveryError):
            ItemsetMiner(simple, min_support=0)
        with pytest.raises(DiscoveryError):
            ItemsetMiner(simple, max_size=0)

    def test_closure_rejects_stale_snapshot(self, simple):
        miner = ItemsetMiner(simple, min_support=2, max_size=2)
        miner.closure_of([("a", "1")])  # fresh: fine
        simple.delete(simple.tids()[0])
        with pytest.raises(DiscoveryError):
            miner.closure_of([("a", "1")])


class TestCFDDiscovery:
    def test_constant_cfds_hold_on_data(self, simple):
        for cfd in discover_constant_cfds(simple, min_support=2, max_lhs_size=2):
            assert detect_cfd_violations(simple, [cfd]).is_clean()

    def test_constant_cfd_example(self, simple):
        cfds = discover_constant_cfds(simple, min_support=2, max_lhs_size=1)
        rendered = {repr(cfd) for cfd in cfds}
        assert any("a='1'" in text and "b" in text for text in rendered)

    def test_variable_cfds_hold_on_data(self):
        generator = CustomerGenerator(seed=21)
        relation = generator.generate(150)
        discovery = CFDDiscovery(relation, min_support=5, max_lhs_size=2)
        for cfd in discovery.discover_variable_cfds()[:20]:
            assert detect_cfd_violations(relation, [cfd]).is_clean()

    def test_discovery_on_customer_data_finds_zip_street_rule(self):
        generator = CustomerGenerator(seed=21)
        relation = generator.generate(200)
        cfds = discover_cfds(relation, min_support=5, max_lhs_size=2)
        assert any(set(cfd.lhs) <= {"cc", "zip", "ac"} and "street" in cfd.rhs
                   for cfd in cfds)

    def test_support_threshold_reduces_output(self):
        generator = CustomerGenerator(seed=21)
        relation = generator.generate(200)
        low = len(discover_constant_cfds(relation, min_support=3, max_lhs_size=1))
        high = len(discover_constant_cfds(relation, min_support=40, max_lhs_size=1))
        assert high <= low

    def test_bad_parameters(self, simple):
        with pytest.raises(DiscoveryError):
            CFDDiscovery(simple, min_support=0)
        with pytest.raises(DiscoveryError):
            CFDDiscovery(simple, max_lhs_size=0)

    def test_clean_session_relation_output_is_pinned(self):
        # the clean-session benchmark's profiling input (seed 7); the digest
        # pins names, reprs and order of all 81 discovered CFDs
        clean = CustomerGenerator(seed=7).generate(800)
        dirty = inject_noise(clean, rate=0.04, attributes=["street", "city"],
                             seed=8).dirty
        cfds = CFDDiscovery(dirty, min_support=40).discover()
        assert len(cfds) == 81
        lines = "\n".join(f"{cfd.name} {cfd!r}" for cfd in cfds)
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "324f041f0233d009265d76fc23000dddf935a2b86c7cb61bc3a53ac2ecc0ee60")
