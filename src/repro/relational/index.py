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
  :class:`~repro.detection.batch.BatchCFDDetector` orders its groups.

Either kind refers to its relation weakly (the relation owns the store
that owns a maintained index), so dropping a relation frees it at once;
an index that outlives its relation raises
:class:`~repro.errors.RelationError` when it needs it.
"""

from __future__ import annotations

import weakref
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

    def _unfile(self, tid: int) -> None:
        """Take tuple *tid* out of the bucket of its current key."""
        key = self.key_at(tid)
        bucket = self._buckets[key]
        bucket.discard(tid)
        if not bucket:
            del self._buckets[key]

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
