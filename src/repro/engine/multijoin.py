"""Chunked execution of code-native multiway (3+ table) joins.

The SQL executor's multiway plans
(:class:`~repro.relational.sql.columnar.MultiJoinPlan`) fan out over the
first join variable's candidate codes: the parent intersects the first
variable once, slices the candidate list into contiguous balanced
batches, and every batch is enumerated by the ``multiway_probe`` worker
(leapfrog intersection + descent over the remaining variables).  Each
worker returns its join tuples *sorted*, so merging the per-chunk sorted
runs reproduces the global ascending ``(tid_1, .., tid_N)`` enumeration —
the order the row path's left-deep pipeline emits — for every chunk size
and worker count.

Grouped statements run a second fan-out: the sorted tuple list is sliced
into contiguous batches (global tuple order = chunk order) and the
``multiway_fold`` worker groups + aggregates each slice;
:class:`~repro.engine.sql.AggregateMerger` stitches the partials, so
float folds and group first-occurrence order stay byte-identical to the
in-process path.

The broadcast state holds *all* participating relations' code arrays
(live views, shipped once per version tuple — a mutation of any relation
re-tokenises the handle).  Level groups, bridge translations and the
candidate slices ride in the task payloads: they are query-scoped, like
hash-join buckets.

On the parallel backend every fan-out here runs supervised (see
:mod:`repro.engine.executor`): per-task timeouts, retries and the
in-process fallback guarantee these results even when worker
processes raise, hang or die mid-run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro import obs
from repro.engine.chunker import split_batches
from repro.engine.executor import ExecutorPool, StateHandle
from repro.engine.sql import AggregateMerger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.relation import Relation

#: the spec id of the multiway broadcast state (one relation tuple per engine).
MULTI_SPEC = "multijoin"


def multi_join_state(relations: tuple) -> dict[str, Any]:
    """The multiway broadcast state of one relation tuple (live views).

    Shared by :class:`ChunkedMultiJoinEngine` and the executor's
    in-process (poolless) path, so the worker contract has one source of
    truth.
    """
    return {MULTI_SPEC: {"tables": tuple(
        relation.columns.code_arrays(range(relation.schema.arity))
        for relation in relations)}}


class ChunkedMultiJoinEngine:
    """Chunk-parallel multiway join execution over one relation tuple."""

    def __init__(self, relations: tuple, pool: ExecutorPool) -> None:
        self._relations = tuple(relations)
        self._pool = pool
        self._handle: StateHandle | None = None
        self._versions: tuple[int, ...] = ()

    @property
    def relations(self) -> tuple:
        return self._relations

    def _ensure_handle(self) -> StateHandle:
        """The broadcast handle, re-tokenised when any relation changed."""
        versions = tuple(relation.version for relation in self._relations)
        if self._handle is None:
            if obs.enabled:
                obs.inc("engine.broadcast.build")
            self._handle = StateHandle(multi_join_state(self._relations))
        elif versions != self._versions:
            if obs.enabled:
                obs.inc("engine.broadcast.retokenize")
            self._handle = StateHandle(self._handle.state,
                                       supersedes=self._handle.token)
        elif obs.enabled:
            obs.inc("engine.broadcast.reuse")
        self._versions = versions
        return self._handle

    # -- execution ---------------------------------------------------------

    def _batches(self, items: list) -> list[list]:
        plan = self._pool.chunk_plan(len(items))
        size = plan.get("chunk_size")
        if size:
            return [items[start:start + size]
                    for start in range(0, len(items), size)]
        return split_batches(items, plan.get("num_chunks", 1))

    def probe(self, query: dict[str, Any],
              candidates: list[int]) -> tuple[list[tuple[int, ...]], list[int]]:
        """Join tuples in global ascending order + per-level candidate counts."""
        with obs.span("sql.multiway.probe",
                      tables=len(self._relations)):
            depth = len(query["levels"])
            batches = self._batches(candidates)
            if not batches:
                return [], [0] * depth
            if obs.enabled:
                obs.inc("engine.multijoin.runs")
                obs.observe("engine.multijoin.chunks", len(batches))
            handle = self._ensure_handle()
            rows = sum(len(relation) for relation in self._relations)
            tasks: list[tuple[str, Any]] = [
                ("multiway_probe", (MULTI_SPEC, query, batch))
                for batch in batches]
            results = self._pool.run_stream(handle, tasks, rows)
            combos: list[tuple[int, ...]] = []
            counts = [0] * depth
            for partial_combos, partial_counts in results:
                combos.extend(partial_combos)
                for level, count in enumerate(partial_counts):
                    counts[level] += count
            # per-chunk runs are sorted; timsort merges them near-linearly
            combos.sort()
            return combos, counts

    def probe_factorised(self, query: dict[str, Any], candidates: list[int]
                         ) -> tuple[dict[Any, list], int, int, list[int]]:
        """Factorised grouped probe: one fan-out, no tuple enumeration.

        Workers descend the leapfrog levels exactly like ``multiway_probe``
        but fold each fully bound block by semiring multiplication
        (``factorised_fold``).  Returns ``(merged groups, semiring folds,
        enumerated tuples replaced, per-level candidate counts)``; group
        representatives are min-merged and the caller re-sorts groups by
        representative to restore the sorted enumeration's
        first-occurrence order.
        """
        with obs.span("sql.factorised.fold",
                      tables=len(self._relations)):
            depth = len(query["levels"])
            merger = AggregateMerger(query["aggs"], factorised=True,
                                     ordered_reps=True)
            counts = [0] * depth
            partials = 0
            tuples = 0
            batches = self._batches(candidates)
            if batches:
                if obs.enabled:
                    obs.inc("engine.multijoin.runs")
                    obs.observe("engine.multijoin.chunks", len(batches))
                handle = self._ensure_handle()
                rows = sum(len(relation) for relation in self._relations)
                tasks: list[tuple[str, Any]] = [
                    ("factorised_fold", (MULTI_SPEC, query, batch))
                    for batch in batches]
                for groups, chunk_partials, chunk_tuples, chunk_counts \
                        in self._pool.run_stream(handle, tasks, rows):
                    merger.add_chunk(groups)
                    partials += chunk_partials
                    tuples += chunk_tuples
                    for level, count in enumerate(chunk_counts):
                        counts[level] += count
            return merger.groups, partials, tuples, counts

    def fold(self, query: dict[str, Any],
             combos: list[tuple[int, ...]]) -> dict[Any, list]:
        """Merged ``code key -> [first tuple, aggregate states...]`` groups."""
        with obs.span("sql.multiway.fold",
                      tables=len(self._relations)):
            merger = AggregateMerger(query["aggs"])
            batches = self._batches(combos)
            if batches:
                handle = self._ensure_handle()
                tasks: list[tuple[str, Any]] = [
                    ("multiway_fold", (MULTI_SPEC, query, batch))
                    for batch in batches]
                for partial in self._pool.run_stream(handle, tasks, len(combos)):
                    merger.add_chunk(partial)
            return merger.groups

    def __repr__(self) -> str:
        names = " ⋈ ".join(relation.name for relation in self._relations)
        return f"ChunkedMultiJoinEngine({names}, pool={self._pool.name})"
