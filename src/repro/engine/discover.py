"""Chunked computation of discovery partitions over column partitions.

Discovery's base operation — group the live tids of a relation by the
code key of an attribute set — runs on the same chunk/merge machinery as
detection: every chunk is scanned once by the ``partition_scan`` worker
(partial groups keyed by code tuples, tids in chunk order) and a
:class:`~repro.engine.merge.GroupMerger` stitches groups spanning chunk
boundaries back together in first-occurrence order.  The merged groups
are exactly what the sequential
:meth:`~repro.relational.columns.ColumnStore.partition_groups` scan
produces — same keys, same order, same ascending tid lists — so the
stripped partitions (and every FD/CFD/key discovered from them) are
identical for every chunk size and worker count.

The broadcast state is one spec holding *every* code array of the
relation, shipped once per relation version: a levelwise lattice walk
requests partitions for many attribute sets, and each request is just a
tuple of schema positions riding in the task payload — no per-attribute-
set re-broadcast, no re-fork.  Only these base scans fan out: deciding
``X → A`` and its conditioned refinements reads the split groups of the
merged partition in-process
(:meth:`~repro.discovery.partitions.Partition.split_groups`).

On the parallel backend every fan-out here runs supervised (see
:mod:`repro.engine.executor`): per-task timeouts, retries and the
in-process fallback guarantee these results even when worker
processes raise, hang or die mid-run.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro import obs
from repro.engine.broadcast import RelationBroadcastEngine
from repro.engine.chunker import Chunker
from repro.engine.merge import GroupMerger

#: the single spec id of the broadcast state (one relation per engine).
_SPEC = "partition"


class ChunkedPartitionEngine(RelationBroadcastEngine):
    """Chunk-parallel grouping of one relation's live tids by code keys."""

    # -- state broadcast ---------------------------------------------------

    def _build_state(self) -> dict[str, Any]:
        """One spec holding every code array of the relation (live views)."""
        store = self._relation.columns
        arrays = store.code_arrays(range(self._relation.schema.arity))
        return {_SPEC: {"arrays": arrays}}

    # -- execution ---------------------------------------------------------

    def groups_of(self, attributes: Sequence[str]) -> list[list[int]]:
        """All live-tid groups keyed by *attributes*' codes, merged across chunks.

        Groups come back in global first-occurrence order with ascending
        tids (singletons included — the caller strips).
        """
        positions = tuple(self._relation.schema.positions(list(attributes)))
        rows = len(self._relation)
        chunks = Chunker(self._relation, **self._pool.chunk_plan(rows)).chunks()
        if not chunks:
            return []
        if obs.enabled:
            obs.inc("engine.partition.runs")
            obs.observe("engine.partition.chunks", len(chunks))
        handle = self._ensure_handle()
        tasks: list[tuple[str, Any]] = [
            ("partition_scan", (_SPEC, positions, chunk.tids)) for chunk in chunks]
        merger = GroupMerger()
        for partial in self._pool.run_stream(handle, tasks, rows):
            merger.add_chunk(partial)
        return list(merger.groups.values())
