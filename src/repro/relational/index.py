"""Hash indexes over one or more attributes of a relation.

Indexes map a key (the indexed attributes of a tuple) to the set of tuple
ids having that key.  They are the workhorse of direct CFD violation
detection (group tuples by the LHS attributes), of hash joins in the
algebra/SQL layers, and of incremental detection and repair.

Buckets are keyed by tuples of integer codes from the relation's
:class:`~repro.relational.columns.ColumnStore` (the relation's only
storage), so a rebuild is a single pass of integer array reads and key
comparison never touches raw values.

The *value*-level API (:meth:`lookup`, :meth:`groups`, :meth:`keys`)
translates keys at the boundary; code-level accessors (:meth:`key_at`,
:meth:`bucket_view`, :meth:`bucket_items`) expose the internal keys for
hot paths.

An index comes in two kinds:

* a *fresh* index, ``HashIndex(relation, attributes)``, is a snapshot: it
  remembers the relation ``version`` it was built against, reports
  staleness, and its callers rebuild it.  Its buckets appear in
  first-occurrence order, which consumers that emit ordered output (the
  detectors' reports, discovery, CQA) rely on;
* a *maintained* index, ``relation.columns.index(attributes)``, is owned
  by the column store; every insert, delete and update of the relation
  moves the one tid it touches.
  After mutations its bucket order is insertion order, not
  first-occurrence order.  Probe its buckets, or iterate them only where
  the output is then ordered by each bucket's smallest tid (live tids
  ascend, so that is a fresh index's first-occurrence order), as
  :class:`~repro.detection.cfd_detect.CFDDetector` orders its groups.

A maintained index also keeps two per-bucket statistics current, each
computed on its first request, so a snapshot that never asks pays
nothing for them:

* the bucket's *smallest tid* (:meth:`HashIndex.smallest_tids`), which
  orders buckets into first-occurrence order and names a group's oldest
  member.  Filing a tid lowers it; unfiling recomputes it with
  ``min(bucket)`` only when the smallest tid itself leaves, which is
  amortised O(1) under random deletes (a delete stream in tid order pays
  O(bucket) a delete);
* *tallies* (:meth:`HashIndex.tally`): per bucket, a count of each code
  (or code tuple) of given columns.  Counts are a ring over the integers,
  so a delete subtracts what an insert added and an update moves one
  count, and a group's distinct-value count is the size of its tally
  instead of a rescan of its bucket.

Either kind refers to its relation weakly (the relation owns the store
that owns a maintained index), so dropping a relation frees it at once;
an index that outlives its relation raises
:class:`~repro.errors.RelationError` when it needs it.
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Any, Iterator, Sequence

from repro import obs
from repro.errors import RelationError
from repro.relational.columns import Column
from repro.relational.relation import Relation

_EMPTY: frozenset[int] = frozenset()


class HashIndex:
    """Hash index of a relation on a list of attributes."""

    def __init__(self, relation: Relation, attribute_names: Sequence[str]) -> None:
        # weak, like the column store's: a maintained index must not keep
        # its relation alive through the store that owns the index
        self._relation = weakref.ref(relation)
        self._attribute_names = [relation.schema.canonical_name(a) for a in attribute_names]
        self._positions = relation.schema.positions(attribute_names)
        self._columns: list[Column] = []
        self._arrays: list[list[int]] = []
        self._buckets: dict[tuple[Any, ...], set[int]] = {}
        #: each bucket's smallest tid, once requested (see smallest_tids)
        self._smallest: dict[tuple[Any, ...], int] | None = None
        #: registered tallies, by the schema positions they count
        self._tallies: dict[tuple[int, ...], _Tally] = {}
        #: the positions some tally counts (a write to one moves a count)
        self._tallied: frozenset[int] = frozenset()
        #: the relation version the buckets reflect; the relation's
        #: mutations stamp it on every change they apply to a maintained index
        self._built_version = -1
        self.rebuild()

    @property
    def relation(self) -> Relation:
        """The indexed relation; raises once it was freed."""
        relation = self._relation()
        if relation is None:
            raise RelationError("the relation of this hash index no longer exists")
        return relation

    # -- construction / maintenance ---------------------------------------

    def rebuild(self) -> None:
        """Re-scan the relation and rebuild all buckets."""
        if obs.enabled:
            obs.inc("cache.index.rebuild")
        buckets: dict[tuple[Any, ...], set[int]] = {}
        relation = self.relation
        store = relation.columns
        self._columns = [store.column_at(p) for p in self._positions]
        self._arrays = arrays = [column.codes for column in self._columns]
        tids = relation.tids()
        if len(arrays) == 1:
            codes = arrays[0]
            for tid in tids:
                key = (codes[tid],)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {tid}
                else:
                    bucket.add(tid)
        else:
            # the keys are read a column at a time, then zipped
            keys = zip(*[map(codes.__getitem__, tids) for codes in arrays])
            for tid, key in zip(tids, keys):
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {tid}
                else:
                    bucket.add(tid)
        self._buckets = buckets
        self._smallest = None
        for tally in self._tallies.values():
            tally.recount(buckets)
        self._built_version = relation.version

    def is_stale(self) -> bool:
        """Whether the underlying relation changed since the index was built."""
        return self._built_version != self.relation.version

    # Upkeep of a maintained index, called only by the relation's mutations
    # while the tid's codes are live (after an insert has appended them,
    # before a delete tombstones them).

    def _file(self, tid: int) -> None:
        """Put tuple *tid* in the bucket of its current key."""
        key = self.key_at(tid)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {tid}
        else:
            bucket.add(tid)
        smallest = self._smallest
        if smallest is not None and (bucket is None or tid < smallest[key]):
            smallest[key] = tid
        for tally in self._tallies.values():
            tally.add(key, tid)

    def _unfile(self, tid: int) -> None:
        """Take tuple *tid* out of the bucket of its current key."""
        key = self.key_at(tid)
        bucket = self._buckets[key]
        bucket.discard(tid)
        smallest = self._smallest
        if not bucket:
            del self._buckets[key]
            if smallest is not None:
                del smallest[key]
        elif smallest is not None and smallest[key] == tid:
            smallest[key] = min(bucket)
        for tally in self._tallies.values():
            tally.remove(key, tid)

    def _uncount(self, tid: int, position: int) -> None:
        """Before a write to non-key *position* of *tid*: take its tally counts out."""
        key = self.key_at(tid)
        for tally in self._tallies.values():
            if position in tally.positions:
                tally.remove(key, tid)

    def _count(self, tid: int, position: int) -> None:
        """After a write to non-key *position* of *tid*: count its new codes."""
        key = self.key_at(tid)
        for tally in self._tallies.values():
            if position in tally.positions:
                tally.add(key, tid)

    # -- key encoding ------------------------------------------------------

    @property
    def attribute_names(self) -> list[str]:
        return list(self._attribute_names)

    def key_at(self, tid: int) -> tuple[int, ...]:
        """The *internal* (code) bucket key of live tuple *tid*."""
        return tuple([codes[tid] for codes in self._arrays])

    def encode_key(self, key: Sequence[Any]) -> tuple[Any, ...] | None:
        """Translate a *value* key to the internal key, or ``None`` if unseen."""
        key = tuple(key)
        if len(key) != len(self._columns):
            return None
        codes = []
        for column, value in zip(self._columns, key):
            code = column.code_of(value)
            if code is None:
                return None
            codes.append(code)
        return tuple(codes)

    def decode_key(self, key: tuple[Any, ...]) -> tuple[Any, ...]:
        """Translate an internal bucket key back to attribute values."""
        return tuple(column.values[code] for column, code in zip(self._columns, key))

    # -- per-bucket statistics -----------------------------------------------

    def smallest_tids(self) -> dict[tuple[Any, ...], int]:
        """Each internal bucket key's smallest tid, **read-only** and kept current.

        Computed on the first request (one ``min`` per bucket), then
        maintained by every write of a maintained index.  Live tids
        ascend, so ordering buckets by it gives a fresh scan's
        first-occurrence order.
        """
        smallest = self._smallest
        if smallest is None:
            smallest = self._smallest = {key: min(bucket)
                                         for key, bucket in self._buckets.items()}
        return smallest

    def tally(self, attribute_names: Sequence[str]) -> dict[tuple[Any, ...], Counter]:
        """Per internal bucket key, a count of each code of *attribute_names*.

        One attribute counts bare codes, several count code tuples in the
        given order; NULL is a code like any other.  The first request
        counts every bucket and registers the tally with the index for
        its lifetime; from then on every write of a maintained index
        keeps it current (an insert adds the tuple's count, a delete
        subtracts it, an update of a key column moves it with the tuple
        and an update of a counted column moves it between entries), and
        a later request returns the same mapping.  So
        ``len(tally[key])`` is the number of distinct values in the
        bucket, and a bucket's counts sum to its size.  The mapping and
        its counters are live storage: read them, never write them.
        """
        positions = tuple(self.relation.schema.positions(attribute_names))
        tally = self._tallies.get(positions)
        if tally is None:
            store = self.relation.columns
            tally = _Tally(positions, store.code_arrays(positions))
            tally.recount(self._buckets)
            self._tallies[positions] = tally
            self._tallied = self._tallied.union(positions)
        return tally.counts

    # -- lookups -----------------------------------------------------------

    def lookup(self, key: Sequence[Any]) -> set[int]:
        """Tuple ids whose indexed attributes equal the *value* key *key*.

        Returns a fresh, caller-owned set (a copy).  Hot paths that only
        read should use :meth:`lookup_view` / :meth:`bucket_view` instead.
        """
        return set(self.lookup_view(key))

    def lookup_view(self, key: Sequence[Any]) -> set[int] | frozenset[int]:
        """Non-copying :meth:`lookup`: the internal bucket set, **read-only**.

        The returned set is live storage — it reflects later index updates
        and must not be mutated by the caller.
        """
        encoded = self.encode_key(key)
        if encoded is None:
            return _EMPTY
        return self._buckets.get(encoded, _EMPTY)

    def bucket_view(self, key: tuple[Any, ...]) -> set[int] | frozenset[int]:
        """The bucket of an *internal* key (from :meth:`key_at`), **read-only**."""
        return self._buckets.get(key, _EMPTY)

    def groups(self) -> Iterator[tuple[tuple[Any, ...], set[int]]]:
        """Iterate over ``(value key, tids)`` buckets.

        Keys are decoded to attribute values and the tid sets are copies,
        so the result is safe to keep or mutate; hot paths should iterate
        :meth:`bucket_items` instead.
        """
        for key, tids in self._buckets.items():
            yield self.decode_key(key), set(tids)

    def bucket_items(self) -> Iterator[tuple[tuple[Any, ...], set[int]]]:
        """Non-copying iteration over the raw ``(internal key, tids)`` buckets.

        Keys are code tuples (NULL is
        :data:`~repro.relational.columns.NULL_CODE` in every component).
        The tid sets are live storage and must not be mutated.
        """
        return iter(self._buckets.items())

    def keys(self) -> list[tuple[Any, ...]]:
        """All distinct value keys present in the relation."""
        return [self.decode_key(key) for key in self._buckets]

    def group_count(self) -> int:
        """Number of distinct keys."""
        return len(self._buckets)

    def largest_group(self) -> tuple[tuple[Any, ...] | None, int]:
        """The value key with the most tuples and its cardinality."""
        if not self._buckets:
            return None, 0
        key = max(self._buckets, key=lambda k: len(self._buckets[k]))
        return self.decode_key(key), len(self._buckets[key])

    def __len__(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:
        return (
            f"HashIndex({self.relation.name}[{', '.join(self._attribute_names)}], "
            f"{len(self._buckets)} keys)"
        )


class _Tally:
    """Per bucket key, the count of each code (tuple) of some columns."""

    __slots__ = ("positions", "arrays", "counts")

    def __init__(self, positions: tuple[int, ...], arrays: list[list[int]]) -> None:
        self.positions = positions
        self.arrays = arrays
        self.counts: dict[tuple[Any, ...], Counter] = {}

    def recount(self, buckets: dict[tuple[Any, ...], set[int]]) -> None:
        """Count every bucket afresh, in place (holders keep the same mapping)."""
        arrays = self.arrays
        counts = self.counts
        counts.clear()
        if len(arrays) == 1:
            codes = arrays[0]
            for key, bucket in buckets.items():
                counts[key] = Counter(map(codes.__getitem__, bucket))
        else:
            for key, bucket in buckets.items():
                counts[key] = Counter(zip(*[map(codes.__getitem__, bucket)
                                            for codes in arrays]))

    def _item(self, tid: int) -> Any:
        arrays = self.arrays
        if len(arrays) == 1:
            return arrays[0][tid]
        return tuple([codes[tid] for codes in arrays])

    def add(self, key: tuple[Any, ...], tid: int) -> None:
        item = self._item(tid)
        counts = self.counts.get(key)
        if counts is None:
            self.counts[key] = Counter((item,))
        else:
            counts[item] = counts.get(item, 0) + 1

    def remove(self, key: tuple[Any, ...], tid: int) -> None:
        item = self._item(tid)
        counts = self.counts[key]
        left = counts[item] - 1
        if left:
            counts[item] = left
        elif len(counts) > 1:
            del counts[item]
        else:  # the bucket's last tuple
            del self.counts[key]
