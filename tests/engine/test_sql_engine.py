"""Tests for the chunked SQL scan engine and its worker handlers."""

import pytest

from repro.engine.executor import MultiprocessingPool, SerialPool
from repro.engine.sql import AggregateMerger, ChunkedSQLEngine
from repro.engine.worker import run_local
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType

SCHEMA = RelationSchema("r", [
    Attribute("k", AttributeType.STRING),
    Attribute("v", AttributeType.INTEGER),
])

ROWS = [
    ("a", 3), ("b", 1), ("a", NULL), ("b", 4), ("a", 3),
    ("c", 9), (NULL, 2), ("b", 1),
]


@pytest.fixture
def relation():
    return Relation.from_rows(SCHEMA, ROWS)


def _state(relation):
    arrays = relation.columns.code_arrays(range(relation.schema.arity))
    return {"sql": {"arrays": arrays}}


def _query(relation, filters=(), group=None, aggs=()):
    aggs = list(aggs)
    resolved = []
    for spec in aggs:
        if spec[0] in ("min", "max"):
            ranks = relation.columns.column_at(spec[1]).order().ranks
            resolved.append((spec[0], spec[1], ranks))
        else:
            resolved.append(spec)
    return {"filters": list(filters), "group": group, "aggs": resolved}


class TestSqlScanWorker:
    def test_plain_scan_filters_by_code_membership(self, relation):
        column = relation.columns.column("k")
        allowed = {column.code_of("a"), column.code_of("b")}
        query = _query(relation, filters=[(0, allowed)])
        [tids] = run_local(_state(relation), [("sql_scan", ("sql", query, relation.tids()))])
        assert tids == [0, 1, 2, 3, 4, 7]

    def test_empty_filter_set_selects_nothing(self, relation):
        query = _query(relation, filters=[(0, set())])
        [tids] = run_local(_state(relation), [("sql_scan", ("sql", query, relation.tids()))])
        assert tids == []

    def test_grouped_scan_builds_partial_states(self, relation):
        query = _query(relation, group=(0,), aggs=[
            ("count_star",), ("count", 1), ("count_distinct", 1),
            ("sum", 1, False), ("min", 1), ("max", 1)])
        [groups] = run_local(_state(relation),
                             [("sql_scan", ("sql", query, relation.tids()))])
        k = relation.columns.column("k")
        v = relation.columns.column("v")
        entry = groups[k.code_of("a")]
        assert entry[0] == 0  # representative: first tid of the group
        assert entry[1] == 3  # COUNT(*)
        assert entry[2] == 2  # COUNT(v): the NULL v is skipped
        assert entry[3] == {v.code_of(3)}  # COUNT(DISTINCT v)
        assert entry[4] == [v.code_of(3), v.code_of(3)]  # SUM codes, scan order
        assert v.values[entry[5][1]] == 3 and v.values[entry[6][1]] == 3
        # NULL group key participates like any other value
        assert groups[k.code_of(NULL)][1] == 1

    def test_global_group_key_is_empty_tuple(self, relation):
        query = _query(relation, group=(), aggs=[("count_star",)])
        [groups] = run_local(_state(relation),
                             [("sql_scan", ("sql", query, relation.tids()))])
        assert set(groups) == {()} and groups[()][1] == len(ROWS)


class TestAggregateMerger:
    def test_combines_partials_like_one_chunk(self, relation):
        aggs = [("count_star",), ("count", 1), ("count_distinct", 1),
                ("sum", 1, False), ("min", 1), ("max", 1)]
        query = _query(relation, group=(0,), aggs=aggs)
        state = _state(relation)
        [whole] = run_local(state, [("sql_scan", ("sql", query, relation.tids()))])
        merger = AggregateMerger(query["aggs"])
        for chunk in ([0, 1, 2], [3, 4, 5], [6, 7]):
            [partial] = run_local(state, [("sql_scan", ("sql", query, chunk))])
            merger.add_chunk(partial)
        assert merger.groups == whole
        assert list(merger.groups) == list(whole)  # first-occurrence key order

    def test_min_ties_keep_first_occurrence(self):
        merger = AggregateMerger([("min", 0, [])])
        merger.add_chunk({1: [0, (5, 11)]})
        merger.add_chunk({1: [9, (5, 12)]})  # same rank, later chunk
        assert merger.groups[1] == [0, (5, 11)]


class TestChunkedSQLEngine:
    def _reference(self, relation, query):
        [result] = run_local(_state(relation),
                             [("sql_scan", ("sql", dict(query), relation.tids()))])
        return result

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 100])
    def test_plain_scan_matches_single_chunk(self, relation, chunk_size):
        column = relation.columns.column("v")
        query = _query(relation, filters=[(1, column.order().codes_in_range(">=", 2))])
        engine = ChunkedSQLEngine(relation, SerialPool(chunk_size=chunk_size))
        assert engine.scan(query) == self._reference(relation, query)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 100])
    def test_grouped_scan_matches_single_chunk(self, relation, chunk_size):
        query = _query(relation, group=(0,), aggs=[
            ("count_star",), ("sum", 1, False), ("min", 1)])
        engine = ChunkedSQLEngine(relation, SerialPool(chunk_size=chunk_size))
        assert engine.scan_grouped(query) == self._reference(relation, query)

    def test_empty_relation(self):
        relation = Relation(SCHEMA)
        engine = ChunkedSQLEngine(relation, SerialPool())
        assert engine.scan(_query(relation)) == []
        assert engine.scan_grouped(_query(relation, group=(0,),
                                          aggs=[("count_star",)])) == {}

    def test_handle_retokenises_on_mutation(self, relation):
        engine = ChunkedSQLEngine(relation, SerialPool())
        query = _query(relation, group=(0,), aggs=[("count_star",)])
        first = engine._ensure_handle()
        engine.scan_grouped(query)
        relation.insert(["a", 8])
        second = engine._ensure_handle()
        assert second.token != first.token and second.supersedes == first.token
        groups = engine.scan_grouped(_query(relation, group=(0,),
                                            aggs=[("count_star",)]))
        k = relation.columns.column("k")
        assert groups[k.code_of("a")][1] == 4

    def test_real_process_pool(self, relation, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        query = _query(relation, group=(0,), aggs=[
            ("count_star",), ("sum", 1, False), ("max", 1)])
        pool = MultiprocessingPool(workers=2, min_rows=0)
        engine = ChunkedSQLEngine(relation, pool)
        assert engine.scan_grouped(query) == self._reference(relation, query)

    def test_write_rebroadcasts_state_to_worker_processes(self, relation, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        database = Database()
        database.add(relation)
        query = "SELECT k, COUNT(*) AS n FROM r WHERE v > 1 GROUP BY k ORDER BY k"
        pooled = SQLEngine(database, engine="parallel", workers=2)

        def expected():
            return [row.values for row in SQLEngine(database, engine="sequential").query(query)]

        before = expected()
        assert [row.values for row in pooled.query(query)] == before
        relation.update(relation.tids()[1], "v", 7)  # ("b", 1) now passes the filter
        relation.insert(["c", 5])
        # workers still holding the old arrays would return the old counts
        assert expected() != before
        assert [row.values for row in pooled.query(query)] == expected()
