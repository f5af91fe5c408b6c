"""Cache hit/miss/invalidate counters across the caching layers.

Each test drives a cache through hit, miss and (where applicable)
mutation-driven invalidation, asserting the obs counters move exactly
with the cache's behaviour.
"""

import pytest

from repro import obs
from repro.cqa.answer import CQAEngine, SelectionQuery
from repro.discovery.partitions import PartitionProvider
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.semandaq.session import SemandaqSession

SCHEMA = RelationSchema("r", [Attribute("a"), Attribute("b"), Attribute("c")])


@pytest.fixture
def relation():
    r = Relation(SCHEMA)
    for i in range(10):
        r.insert([f"a{i % 2}", f"b{i % 3}", f"c{i}"])
    return r


@pytest.fixture(autouse=True)
def enabled_obs(obs_state):
    obs.enable()


class TestPartitionCache:
    def test_hit_miss_and_mutation_invalidation(self, relation):
        provider = PartitionProvider(relation)
        provider.partition(frozenset(["a"]))
        misses_after_first = obs.counter("cache.partition.miss")
        assert misses_after_first >= 1

        provider.partition(frozenset(["a"]))
        assert obs.counter("discovery.partition.cache_hit") >= 1

        # mutation bumps the relation version: the cache clears on next access
        relation.update(0, "a", "a9")
        provider.partition(frozenset(["a"]))
        assert obs.counter("cache.partition.invalidate") >= 1
        assert obs.counter("cache.partition.miss") > misses_after_first

    def test_partition_product_vs_scan(self, relation):
        provider = PartitionProvider(relation)
        provider.partition(frozenset(["a"]))
        provider.partition(frozenset(["b"]))
        scans = obs.counter("discovery.partition.scan")
        assert scans >= 2
        # the pair composes from the cached singletons: product, not scan
        provider.partition(frozenset(["a", "b"]))
        assert obs.counter("discovery.partition.product") >= 1
        assert obs.counter("discovery.partition.scan") == scans


class TestColumnCaches:
    def test_matcher_miss_then_hit(self, relation):
        column = relation.columns.column("a")
        column.matcher("k", lambda value: value == "a0")
        assert obs.counter("cache.matcher.miss") == 1
        column.matcher("k", lambda value: value == "a0")
        assert obs.counter("cache.matcher.hit") == 1

    def test_order_build_then_reuse(self, relation):
        column = relation.columns.column("a")
        column.order()
        assert obs.counter("cache.order.build") == 1
        column.order()
        assert obs.counter("cache.order.reuse") == 1

    def test_bridge_build_valid_and_rebuilt(self, relation):
        other = Relation(SCHEMA.renamed_relation("s"))
        for i in range(4):
            other.insert([f"a{i % 2}", f"b{i}", f"c{i}"])
        source = relation.columns.column("a")
        target = other.columns.column("a")

        source.bridge_to(target)
        assert obs.counter("cache.bridge.build") == 1
        source.bridge_to(target)
        assert obs.counter("cache.bridge.valid") == 1

        # interning a new value in the target dictionary stales the bridge
        other.update(0, "a", "a7")
        source.bridge_to(target)
        assert obs.counter("cache.bridge.rebuilt") == 1


class TestHashIndexCounter:
    def test_rebuild_counted(self, relation):
        index = HashIndex(relation, ["a"])
        built = obs.counter("cache.index.rebuild")
        assert built >= 1
        # mutation stales the index; consumers rebuild before reading
        relation.update(0, "a", "a5")
        assert index.is_stale()
        index.rebuild()
        assert obs.counter("cache.index.rebuild") == built + 1

    def test_maintained_index_builds_once(self, relation):
        index = relation.columns.index(["a", "b"])
        assert obs.counter("cache.index.rebuild") == 1
        # the relation's mutations keep it current: they rebuild nothing
        relation.insert(["a9", "b9", "c9"])
        relation.update(0, "a", "a5")
        relation.update(1, "c", "c5")
        relation.delete(2)
        assert relation.columns.index(["a", "b"]) is index
        assert obs.counter("cache.index.rebuild") == 1
        # a copy carries no index: its first request builds one afresh
        # (the store refers to its relation weakly, so keep the copy alive)
        clone = relation.copy()
        assert clone.columns.index(["a", "b"]) is not index
        assert obs.counter("cache.index.rebuild") == 2


class TestCQAKeyIndex:
    def test_rewriting_probes_the_maintained_key_index(self, relation):
        engine = CQAEngine(relation, ["a"])
        query = SelectionQuery(project=("a",))
        engine.certain_answers_rewritten(query)
        assert obs.counter("cache.index.rebuild") == 1  # the key index, once
        engine.certain_answers_rewritten(query)
        assert obs.counter("cache.index.rebuild") == 1
        # a key cell moves one tid in the maintained index: no rebuild
        relation.update(4, "a", "a2")
        answers = engine.certain_answers_rewritten(query)
        assert obs.counter("cache.index.rebuild") == 1
        assert answers == {("a0",), ("a1",), ("a2",)}
        assert engine.certain_answers(query) == answers


class TestDistanceMemo:
    def test_apply_after_propose_computes_no_distance(self, relation):
        session = SemandaqSession(relation)
        session.register_cfds("r([a] -> [b])")
        proposal = session.propose_repair("r")
        assert proposal.changes
        misses = obs.counter("cache.distance.miss")
        assert misses >= 1
        hits = obs.counter("cache.distance.hit")
        # the session's cost model is shared, so its memo outlives the
        # proposal's working copy
        applied = session.apply_repair("r")
        assert obs.counter("cache.distance.miss") == misses
        assert obs.counter("cache.distance.hit") > hits
        assert [c.new_value for c in applied.changes] == \
            [c.new_value for c in proposal.changes]
