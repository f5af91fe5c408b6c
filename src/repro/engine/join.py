"""Chunked execution of code-native hash-join probes over a relation pair.

The SQL executor's join plans (:class:`~repro.relational.sql.columnar.JoinPlan`)
run their probe phase on the same chunk/merge machinery as everything
else: the probe side's live tids are sliced into contiguous chunks, every
chunk is probed once by the ``join_probe`` worker, and the parent stitches
the per-chunk results back together in chunk order.

* A **pair probe** (probe side = left) returns joined ``(left tid, right
  tid)`` pairs per chunk; concatenating them in chunk order replays the
  sequential left-major join order exactly.
* A **match probe** (probe side = right, used when the left side is the
  smaller build side) returns ``left tid -> [right tids]`` partials;
  merging concatenates each left tid's right tids in chunk order —
  ascending, like the sequential probe — and the executor re-emits pairs
  in left scan order.
* A **grouped probe** returns ``sql_scan``-shaped partial groups (the
  representative is the group's first pair);
  :class:`~repro.engine.sql.AggregateMerger` combines them, so grouped
  join results — floats included — are byte-identical to the in-process
  path for every chunk size and worker count.

The broadcast state holds both relations' code arrays (live views, shipped
once per *version pair* — a mutation of either relation re-tokenises the
handle).  Build-side buckets and bridge translation arrays ride in each
task payload instead: they are query-scoped and usually far smaller
than the relations, and keeping them
out of the broadcast state means steady-state joins over unchanged
relations never re-fork the pool.

On the parallel backend every fan-out here runs supervised (see
:mod:`repro.engine.executor`): per-task timeouts, retries and the
in-process fallback guarantee these results even when worker
processes raise, hang or die mid-run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro import obs
from repro.engine.chunker import Chunker
from repro.engine.executor import ExecutorPool, StateHandle
from repro.engine.sql import AggregateMerger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.relation import Relation

#: the spec id of the ``join_probe`` broadcast state (one pair per engine).
JOIN_SPEC = "join"


def join_state(left: "Relation", right: "Relation") -> dict[str, Any]:
    """The ``join_probe`` broadcast state of one relation pair (live views).

    Shared by :class:`ChunkedJoinEngine` and the executor's in-process
    (poolless) probe, so the worker contract has one source of truth.
    """
    return {JOIN_SPEC: {"sides": (
        left.columns.code_arrays(range(left.schema.arity)),
        right.columns.code_arrays(range(right.schema.arity)),
    )}}


class ChunkedJoinEngine:
    """Chunk-parallel ``join_probe`` execution over one relation pair."""

    def __init__(self, left: "Relation", right: "Relation",
                 pool: ExecutorPool) -> None:
        self._relations = (left, right)
        self._pool = pool
        self._handle: StateHandle | None = None
        self._versions: tuple[int, int] = (-1, -1)

    @property
    def relations(self) -> tuple:
        return self._relations

    def _ensure_handle(self) -> StateHandle:
        """The broadcast handle, re-tokenised when either relation changed."""
        versions = tuple(relation.version for relation in self._relations)
        if self._handle is None:
            if obs.enabled:
                obs.inc("engine.broadcast.build")
            self._handle = StateHandle(join_state(*self._relations))
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

    def _run(self, query: dict[str, Any], handler: str = "join_probe"):
        probe = self._relations[query["probe_side"]]
        rows = len(probe)
        chunks = Chunker(probe, **self._pool.chunk_plan(rows)).chunks()
        if not chunks:
            return None
        if obs.enabled:
            obs.inc("engine.join.runs")
            obs.observe("engine.join.chunks", len(chunks))
        handle = self._ensure_handle()
        tasks: list[tuple[str, Any]] = [
            (handler, (JOIN_SPEC, query, chunk.tids)) for chunk in chunks]
        return self._pool.run_stream(handle, tasks, rows)

    def probe_pairs(self, query: dict[str, Any]) -> list[tuple[int, int]]:
        """Joined (left tid, right tid) pairs, global left-major order."""
        with obs.span("sql.join.probe",
                      relation=self._relations[query["probe_side"]].name):
            results = self._run(query)
            pairs: list[tuple[int, int]] = []
            if results is not None:
                for partial in results:
                    pairs.extend(partial)
            return pairs

    def probe_matches(self, query: dict[str, Any]) -> dict[int, list[int]]:
        """Merged ``left (build) tid -> [right tids]`` match lists."""
        with obs.span("sql.join.probe",
                      relation=self._relations[query["probe_side"]].name):
            results = self._run(query)
            matches: dict[int, list[int]] = {}
            if results is not None:
                for partial in results:
                    for build_tid, tids in partial.items():
                        seen = matches.get(build_tid)
                        if seen is None:
                            matches[build_tid] = tids
                        else:
                            seen.extend(tids)
            return matches

    def probe_grouped(self, query: dict[str, Any]) -> dict[Any, list]:
        """Merged ``code key -> [first pair, aggregate states...]`` groups."""
        with obs.span("sql.join.probe",
                      relation=self._relations[query["probe_side"]].name):
            merger = AggregateMerger(query["aggs"])
            results = self._run(query)
            if results is not None:
                for partial in results:
                    merger.add_chunk(partial)
            return merger.groups

    def probe_factorised(self, query: dict[str, Any]
                         ) -> tuple[dict[Any, list], int, int]:
        """Factorised grouped probe: semiring folds, no tuple enumeration.

        Returns ``(merged groups, semiring folds performed, enumerated
        tuples those folds replaced)``; the groups are byte-identical to
        :meth:`probe_grouped`'s for every chunk size and worker count.
        """
        with obs.span("sql.factorised.fold",
                      relation=self._relations[0].name):
            merger = AggregateMerger(query["aggs"], factorised=True)
            partials = 0
            tuples = 0
            results = self._run(query, handler="factorised_fold")
            if results is not None:
                for groups, chunk_partials, chunk_tuples, _ in results:
                    merger.add_chunk(groups)
                    partials += chunk_partials
                    tuples += chunk_tuples
            return merger.groups, partials, tuples

    def __repr__(self) -> str:
        left, right = self._relations
        return (f"ChunkedJoinEngine({left.name} ⋈ {right.name}, "
                f"pool={self._pool.name})")
