"""Stripped partitions — the core data structure of TANE-style FD discovery.

The *partition* of a relation by an attribute set ``X`` groups tuple ids
by their ``X`` values; the *stripped* partition drops singleton groups
(they can never witness an FD violation).  Two facts drive discovery:

* the FD ``X → A`` holds iff no group of the partition by ``X`` carries
  two codes of ``A``'s code array (a violating pair agrees on ``X``, so
  both tuples sit in one non-singleton group) — see
  :meth:`Partition.split_groups`;
* the partition of ``X ∪ Y`` is the product of the partitions of ``X`` and
  ``Y``, so partitions for larger attribute sets are computed
  incrementally level by level.

The representation is array-backed: a partition is a list of tid lists
(singletons already stripped) plus a lazily built tid → group-id map.
Products compose the group-id map of one operand with the group arrays of
the other.  No frozensets are built anywhere on the hot path.

:func:`partition_of` computes the base partitions: it reads dictionary
code arrays straight off the relation's column store — a single
tombstone-aware pass of integer reads, with no value hashing or
stringification.

:class:`PartitionProvider` is what the discovery algorithms use: it
caches partitions per relation *version* (one shared
:class:`PartitionCache` per relation, so FD and CFD discovery over the
same data reuse each other's work), composes higher lattice levels from
cached lower ones via :meth:`Partition.product`, and computes the rest
with :func:`partition_of`.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Sequence

from repro import obs
from repro.relational.relation import Relation


class Partition:
    """A stripped partition: array-backed groups of tuple ids (singletons dropped)."""

    __slots__ = ("groups", "total_tuples", "_group_ids")

    def __init__(self, groups: Iterable[Sequence[int]], total_tuples: int) -> None:
        self.groups: list[list[int]] = [list(g) for g in groups if len(g) > 1]
        self.total_tuples = total_tuples
        self._group_ids: dict[int, int] | None = None

    @property
    def group_count(self) -> int:
        """Number of (non-singleton) groups."""
        return len(self.groups)

    @property
    def error(self) -> int:
        """``|stripped tuples| - |groups|``: 0 means X is a key (every group singleton)."""
        return sum(len(g) for g in self.groups) - len(self.groups)

    def group_ids(self) -> dict[int, int]:
        """The tid → group-index map over the stripped tuples (built once, cached).

        Tids in singleton groups are absent — that is what makes the
        refinement check and the product linear in the *stripped* sizes.
        """
        ids = self._group_ids
        if ids is None:
            ids = {}
            for index, group in enumerate(self.groups):
                for tid in group:
                    ids[tid] = index
            self._group_ids = ids
        return ids

    def split_groups(self, codes: Sequence[int]) -> list[list[int]]:
        """The groups whose tids carry more than one code of *codes*.

        *codes* is one column's code array (indexed by tid).  The FD
        ``X → A`` holds iff the partition by ``X`` has no group split by
        ``A``'s codes; each group is constant on ``X``, so the split
        groups also decide ``X → A`` on every ``B = b`` subset for
        ``B ∈ X``.  Each group is scanned only up to its first tid whose
        code differs from the group's first, which on failing candidates
        is usually the second tid.
        """
        split: list[list[int]] = []
        for group in self.groups:
            first = codes[group[0]]
            for tid in group:
                if codes[tid] != first:
                    split.append(group)
                    break
        return split

    def product(self, other: "Partition") -> "Partition":
        """The partition of the union of the two attribute sets.

        Composes ``self``'s group-id map with ``other``'s group arrays:
        each product group is the set of tids sharing both group ids.
        Tids stripped from either operand are singletons in the product
        and never materialise.
        """
        membership = self.group_ids()
        buckets: dict[tuple[int, int], list[int]] = {}
        for index, group in enumerate(other.groups):
            for tid in group:
                own = membership.get(tid)
                if own is None:
                    continue
                key = (own, index)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [tid]
                else:
                    bucket.append(tid)
        return Partition(
            (b for b in buckets.values() if len(b) > 1), self.total_tuples)

    def __repr__(self) -> str:
        return f"Partition({self.group_count} groups, error={self.error})"


def partition_of(relation: Relation, attributes: Sequence[str]) -> Partition:
    """The stripped partition of *relation* by *attributes*.

    Groups tids by dictionary codes (assigned by value equality) in one
    tombstone-aware pass over the code arrays
    (:meth:`~repro.relational.columns.ColumnStore.partition_groups`), in
    first-occurrence order.
    """
    positions = relation.schema.positions(attributes)
    buckets = relation.columns.partition_groups(positions)
    return Partition(buckets.values(), len(relation))


class PartitionCache:
    """A version-checked memo of stripped partitions keyed by attribute set.

    Entries are valid for exactly one relation *version*: callers pass the
    current version on every access and any mismatch clears the memo
    wholesale, so partitions never outlive a mutation.  The cache holds no
    relation reference — the registry below keys caches weakly by
    relation, and discovery over the same (unchanged) relation reuses
    partitions across :class:`PartitionProvider` instances.
    """

    __slots__ = ("_version", "_entries")

    def __init__(self) -> None:
        self._version = -1
        self._entries: dict[frozenset[str], Partition] = {}

    def _current(self, version: int) -> dict[frozenset[str], Partition]:
        if version != self._version:
            if obs.enabled and self._entries:
                obs.inc("cache.partition.invalidate")
            self._entries.clear()
            self._version = version
        return self._entries

    def lookup(self, attributes: frozenset[str], version: int) -> Partition | None:
        """The cached partition for *attributes* at *version*, if any."""
        partition = self._current(version).get(attributes)
        if obs.enabled:
            obs.inc("cache.partition.hit" if partition is not None
                    else "cache.partition.miss")
        return partition

    def store(self, attributes: frozenset[str], version: int,
              partition: Partition) -> None:
        """Memoize *partition* for *attributes* at *version*."""
        self._current(version)[attributes] = partition

    def __len__(self) -> int:
        return len(self._entries)


#: one shared cache per relation; weak keys, and caches hold no relation
#: reference, so a dropped relation releases its partitions with it.
_CACHES: "weakref.WeakKeyDictionary[Relation, PartitionCache]" = \
    weakref.WeakKeyDictionary()


def partition_cache(relation: Relation) -> PartitionCache:
    """The shared per-relation partition cache (created on first use)."""
    cache = _CACHES.get(relation)
    if cache is None:
        cache = PartitionCache()
        _CACHES[relation] = cache
    return cache


class PartitionProvider:
    """Caching source of stripped partitions.

    The discovery algorithms request partitions by attribute *set*; the
    provider serves them from the shared per-relation cache, composes a
    multi-attribute partition from a cached subset pair via
    :meth:`Partition.product` when the lattice walk already produced one
    (levelwise search always has, beyond level 1), and otherwise scans
    the code arrays (:func:`partition_of`).
    """

    def __init__(self, relation: Relation) -> None:
        self._relation = relation
        self._cache = partition_cache(relation)

    @property
    def relation(self) -> Relation:
        return self._relation

    def partition(self, attributes: frozenset[str] | Iterable[str]) -> Partition:
        """The stripped partition by *attributes* (cached per relation version)."""
        attributes = frozenset(attributes)
        version = self._relation.version
        cached = self._cache.lookup(attributes, version)
        if cached is not None:
            if obs.enabled:
                obs.inc("discovery.partition.cache_hit")
            return cached
        partition = self._compose(attributes, version)
        if partition is None:
            partition = self._scan(attributes)
            if obs.enabled:
                obs.inc("discovery.partition.scan")
        elif obs.enabled:
            obs.inc("discovery.partition.product")
        self._cache.store(attributes, version, partition)
        return partition

    def _compose(self, attributes: frozenset[str], version: int) -> Partition | None:
        """Product of a cached one-smaller subset and a cached singleton."""
        if len(attributes) < 2:
            return None
        for attribute in sorted(attributes):
            rest = self._cache.lookup(attributes - {attribute}, version)
            if rest is None:
                continue
            single = self._cache.lookup(frozenset((attribute,)), version)
            if single is not None:
                return rest.product(single)
        return None

    def _scan(self, attributes: frozenset[str]) -> Partition:
        return partition_of(self._relation, sorted(attributes))

    def __repr__(self) -> str:
        return f"PartitionProvider({self._relation.name}, {len(self._cache)} cached)"
