"""Unit tests for the engine building blocks: chunker, batches, pools."""

import pytest

from repro.engine.chunker import Chunk, Chunker, split_batches
from repro.engine.executor import (
    ENGINE_ENV,
    MultiprocessingPool,
    SerialPool,
    StateHandle,
    WORKERS_ENV,
    resolve_pool,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema

SCHEMA = RelationSchema("r", [Attribute("x"), Attribute("y")])


def relation_of(n):
    return Relation.from_rows(SCHEMA, [(str(i % 5), str(i % 3)) for i in range(n)])


def scan(allowed):
    """A plain ``sql_scan`` query keeping the tids whose column-0 code is allowed."""
    return {"filters": [(0, allowed)], "group": None, "aggs": []}


class TestChunker:
    def test_balanced_chunks_partition_the_live_tids(self):
        relation = relation_of(10)
        chunks = Chunker(relation, num_chunks=3).chunks()
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [tid for c in chunks for tid in c.tids] == relation.tids()

    def test_chunk_size_slicing(self):
        relation = relation_of(10)
        chunks = Chunker(relation, chunk_size=4).chunks()
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert [c.index for c in chunks] == [0, 1, 2]

    def test_more_chunks_than_tuples(self):
        relation = relation_of(3)
        chunks = Chunker(relation, num_chunks=10).chunks()
        assert [len(c) for c in chunks] == [1, 1, 1]

    def test_empty_relation_has_no_chunks(self):
        assert Chunker(Relation(SCHEMA), num_chunks=4).chunks() == []

    def test_chunks_skip_deleted_tids(self):
        relation = relation_of(8)
        for tid in (0, 3, 7):
            relation.delete(tid)
        chunks = Chunker(relation, num_chunks=2).chunks()
        assert [tid for c in chunks for tid in c.tids] == [1, 2, 4, 5, 6]

    def test_invalid_parameters(self):
        relation = relation_of(2)
        with pytest.raises(ValueError):
            Chunker(relation, chunk_size=0)
        with pytest.raises(ValueError):
            Chunker(relation, num_chunks=0)

    def test_chunk_repr_mentions_bounds(self):
        chunk = Chunk(0, [3, 4, 9])
        assert "[3..9]" in repr(chunk)


class TestSplitBatches:
    def test_contiguous_and_balanced(self):
        batches = split_batches(list(range(10)), 3)
        assert batches == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_fewer_items_than_parts(self):
        assert split_batches([1, 2], 5) == [[1], [2]]

    def test_empty(self):
        assert split_batches([], 3) == []


class TestResolvePool:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_pool() is None
        assert resolve_pool("sequential") is None

    def test_explicit_engines(self):
        assert isinstance(resolve_pool("serial"), SerialPool)
        pool = resolve_pool("parallel", workers=3)
        assert isinstance(pool, MultiprocessingPool)
        assert pool.workers == 3

    def test_workers_imply_an_engine(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert isinstance(resolve_pool(workers=2), MultiprocessingPool)
        assert isinstance(resolve_pool(workers=1), SerialPool)

    def test_environment_defaults(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "parallel")
        monkeypatch.setenv(WORKERS_ENV, "5")
        pool = resolve_pool()
        assert isinstance(pool, MultiprocessingPool)
        assert pool.workers == 5
        monkeypatch.setenv(ENGINE_ENV, "serial")
        assert isinstance(resolve_pool(), SerialPool)

    def test_explicit_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "parallel")
        assert resolve_pool("sequential") is None

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError):
            resolve_pool("warp-drive")


class TestPools:
    def test_state_handles_have_unique_tokens(self):
        state = {"a": 1}
        assert StateHandle(state).token != StateHandle(state).token

    def test_serial_pool_runs_tasks_in_order(self):
        pool = SerialPool()
        handle = StateHandle({"s": {"arrays": [[1, 2, 3]]}})
        results = pool.run(handle, [("sql_scan", ("s", scan({1, 3}), [0])),
                                    ("sql_scan", ("s", scan({1, 3}), [1, 2]))])
        assert results == [[0], [2]]

    def test_multiprocessing_pool_small_input_falls_back_in_process(self):
        pool = MultiprocessingPool(workers=2, min_rows=10_000)
        handle = StateHandle({"s": {"arrays": [[7, 8]]}})
        results = pool.run(handle, [("sql_scan", ("s", scan({8}), [0, 1]))], rows=2)
        assert results == [[1]]

    def test_multiprocessing_pool_real_processes(self):
        pool = MultiprocessingPool(workers=2, min_rows=0)
        handle = StateHandle({"s": {"arrays": [[5, 6, 7]]}})
        results = pool.run(handle, [("sql_scan", ("s", scan({5, 7}), [0])),
                                    ("sql_scan", ("s", scan({5, 7}), [1, 2]))], rows=3)
        assert results == [[0], [2]]

    def test_chunk_plan_prefers_explicit_chunk_size(self):
        assert SerialPool(chunk_size=7).chunk_plan(100) == {"chunk_size": 7}
        assert SerialPool().chunk_plan(100) == {"num_chunks": SerialPool.DEFAULT_CHUNKS}
        assert MultiprocessingPool(workers=3).chunk_plan(100) == {"num_chunks": 3}

