"""Chunked execution of code-native SQL scans over column partitions.

The SQL executor's code-native plans (single-table scan → filter → group
→ aggregate on dictionary codes, see
:mod:`repro.relational.sql.columnar`) can fan out over a process pool:
every chunk of live tids is scanned once by the ``sql_scan`` worker, and
the parent stitches the per-chunk results back together in chunk order.

* A **plain scan** returns surviving tids per chunk; concatenating them
  in chunk order replays the in-process scan order exactly.
* A **grouped scan** returns partial aggregate states keyed by code
  tuples; :class:`AggregateMerger` combines them so merged keys appear
  in global first-occurrence order, counts add, distinct-code sets
  union, MIN/MAX keep the best dictionary-order rank (ties keeping the
  earliest chunk, i.e. the first occurrence), and SUM/AVG concatenate
  their code lists so the parent folds values in global tuple order.
  Every combination is exact — grouped results (floats included) are
  byte-identical to the in-process scan for every chunk size and worker
  count.

The broadcast state is one spec holding every code array of the relation,
shipped once per relation version; all query-specific inputs (filters,
group positions, aggregate specs) ride in the task payloads, so running
many different queries against an unchanged relation costs no re-broadcast
and no re-fork.

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.relation import Relation

#: the spec id of the ``sql_scan`` broadcast state (one relation per engine).
SQL_SPEC = "sql"


def broadcast_state(relation: Any) -> dict[str, Any]:
    """The ``sql_scan`` broadcast state of one relation (live array views).

    Shared by :class:`ChunkedSQLEngine` and the executor's in-process
    (poolless) scan, so the worker contract has one source of truth.
    """
    arrays = relation.columns.code_arrays(range(relation.schema.arity))
    return {SQL_SPEC: {"arrays": arrays}}


class AggregateMerger:
    """Combines per-chunk ``sql_scan`` group partials (call in chunk order).

    With ``factorised=True`` the merger combines ``factorised_fold``
    semiring partials instead: counts stay additive, code sets (which
    also back DISTINCT SUM/AVG) union, non-DISTINCT SUM/AVG merge their
    exact ``[total, count]`` pairs elementwise, MIN/MAX keep the best
    rank.  ``ordered_reps=True`` additionally min-merges each group's
    representative tuple (multiway chunks see groups out of enumeration
    order; the parent re-sorts by representative afterwards).
    """

    __slots__ = ("_kinds", "_groups", "_ordered_reps")

    def __init__(self, aggs: list[tuple], factorised: bool = False,
                 ordered_reps: bool = False) -> None:
        if factorised:
            self._kinds = [self._factorised_kind(spec) for spec in aggs]
        else:
            self._kinds = [spec[0] for spec in aggs]
        self._groups: dict[Any, list] = {}
        self._ordered_reps = ordered_reps

    @staticmethod
    def _factorised_kind(spec: tuple) -> str:
        kind = spec[0]
        if kind in ("sum", "avg"):
            # DISTINCT folds are code sets (merged like COUNT(DISTINCT));
            # non-DISTINCT folds are exact [total, count] pairs.
            return "count_distinct" if spec[3] else "pair"
        if kind == "count_star":
            return "count"
        return kind

    def add_chunk(self, partial: dict[Any, list]) -> None:
        """Fold one chunk's partial groups in."""
        groups = self._groups
        kinds = self._kinds
        ordered_reps = self._ordered_reps
        for key, entry in partial.items():
            mine = groups.get(key)
            if mine is None:
                groups[key] = entry  # first occurrence: representative tid rides along
                continue
            if ordered_reps and entry[0] < mine[0]:
                mine[0] = entry[0]  # the enumeration-order first tuple wins
            for index, kind in enumerate(kinds, start=1):
                theirs = entry[index]
                if kind in ("count_star", "count"):
                    mine[index] += theirs
                elif kind == "count_distinct":
                    mine[index] |= theirs
                elif kind == "pair":  # factorised exact [total, count]
                    pair = mine[index]
                    pair[0] += theirs[0]
                    pair[1] += theirs[1]
                elif kind in ("sum", "avg"):
                    mine[index].extend(theirs)
                elif theirs is not None:  # min | max: strictly better rank wins
                    best = mine[index]
                    if best is None or (theirs[0] < best[0] if kind == "min"
                                        else theirs[0] > best[0]):
                        mine[index] = theirs

    @property
    def groups(self) -> dict[Any, list]:
        """Merged groups, keys in global first-occurrence order."""
        return self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def __repr__(self) -> str:
        return f"AggregateMerger({len(self._groups)} groups)"


class ChunkedSQLEngine:
    """Chunk-parallel ``sql_scan`` execution over one relation."""

    def __init__(self, relation: "Relation", pool: ExecutorPool) -> None:
        self._relation = relation
        self._pool = pool
        self._handle: StateHandle | None = None
        self._version = -1

    @property
    def relation(self) -> "Relation":
        return self._relation

    # -- state broadcast ---------------------------------------------------

    def _ensure_handle(self) -> StateHandle:
        """The broadcast handle, re-tokenised when the relation changed.

        The state references the column store's live arrays, so it is
        built once and its contents are always current.  A fresh token
        tells the multiprocessing backend that worker-side snapshots are
        stale and the state must ship again, and *supersedes* lets it
        retire the stale pool instead of waiting for LRU eviction.
        """
        if self._handle is None:
            if obs.enabled:
                obs.inc("engine.broadcast.build")
            self._handle = StateHandle(broadcast_state(self._relation))
        elif self._version != self._relation.version:
            if obs.enabled:
                obs.inc("engine.broadcast.retokenize")
            self._handle = StateHandle(self._handle.state,
                                       supersedes=self._handle.token)
        elif obs.enabled:
            obs.inc("engine.broadcast.reuse")
        self._version = self._relation.version
        return self._handle

    # -- execution ---------------------------------------------------------

    def _run(self, query: dict[str, Any]):
        rows = len(self._relation)
        chunks = Chunker(self._relation, **self._pool.chunk_plan(rows)).chunks()
        if not chunks:
            return None
        if obs.enabled:
            obs.inc("engine.sql.runs")
            obs.observe("engine.sql.chunks", len(chunks))
        handle = self._ensure_handle()
        tasks: list[tuple[str, Any]] = [
            ("sql_scan", (SQL_SPEC, query, chunk.tids)) for chunk in chunks]
        return self._pool.run_stream(handle, tasks, rows)

    def scan(self, query: dict[str, Any]) -> list[int]:
        """Surviving tids of a plain (ungrouped) scan, in global scan order."""
        results = self._run(query)
        tids: list[int] = []
        if results is not None:
            for partial in results:
                tids.extend(partial)
        return tids

    def scan_grouped(self, query: dict[str, Any]) -> dict[Any, list]:
        """Merged ``code key -> [first tid, aggregate states...]`` groups."""
        merger = AggregateMerger(query["aggs"])
        results = self._run(query)
        if results is not None:
            for partial in results:
                merger.add_chunk(partial)
        return merger.groups

    def __repr__(self) -> str:
        return (f"ChunkedSQLEngine({self._relation.name}, "
                f"pool={self._pool.name})")
