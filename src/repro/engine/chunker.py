"""Slicing the live tid range of a relation into balanced chunks.

A :class:`Chunk` is a contiguous slice of a relation's *live* tuple ids in
ascending order.  Because tids are assigned monotonically and never
reused, ``Relation.tids()`` is always ascending, so concatenating chunks
in index order replays exactly the scan order of the in-process SQL
executor — the property the merge steps rely on to keep query results
byte-identical.

The :class:`Chunker` balances either by an explicit ``chunk_size`` (the
last chunk may be short) or by a target ``num_chunks`` (chunk lengths
differ by at most one tuple).  Empty chunks are never produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.relation import Relation


def split_batches(items: list[Any], parts: int) -> list[list[Any]]:
    """Split *items* into at most *parts* contiguous, balanced batches.

    Contiguity keeps concatenated per-batch results in the original
    order; lengths differ by at most one.
    """
    if not items:
        return []
    parts = max(1, min(parts, len(items)))
    base, extra = divmod(len(items), parts)
    batches: list[list[Any]] = []
    start = 0
    for i in range(parts):
        length = base + (1 if i < extra else 0)
        batches.append(items[start:start + length])
        start += length
    return batches


@dataclass(frozen=True)
class Chunk:
    """One contiguous slice of a relation's live tuple ids."""

    index: int
    tids: list[int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.tids)

    def __repr__(self) -> str:
        lo = self.tids[0] if self.tids else None
        hi = self.tids[-1] if self.tids else None
        return f"Chunk({self.index}, {len(self.tids)} tids, [{lo}..{hi}])"


class Chunker:
    """Splits the live tids of a relation into balanced contiguous chunks."""

    def __init__(self, relation: "Relation", chunk_size: int | None = None,
                 num_chunks: int | None = None) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if num_chunks is not None and num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
        self._relation = relation
        self._chunk_size = chunk_size
        self._num_chunks = num_chunks

    def chunks(self) -> list[Chunk]:
        """The live tids split into chunks (empty list on an empty relation)."""
        tids = self._relation.tids()
        if not tids:
            return []
        if self._chunk_size is not None:
            return self._by_size(tids, self._chunk_size)
        return self._balanced(tids, self._num_chunks or 1)

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self.chunks())

    @staticmethod
    def _by_size(tids: list[int], size: int) -> list[Chunk]:
        return [Chunk(i, tids[start:start + size])
                for i, start in enumerate(range(0, len(tids), size))]

    @staticmethod
    def _balanced(tids: list[int], count: int) -> list[Chunk]:
        return [Chunk(i, part) for i, part in enumerate(split_batches(tids, count))]
