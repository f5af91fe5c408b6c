"""Frequent, closed and free itemset mining over ``attribute = value`` items.

CFDMiner reduces constant-CFD discovery to the relationship between *free*
(generator) itemsets and their *closures*: an item in the closure of a
free itemset but not in the itemset itself is determined by it.  The miner
here is a straightforward Apriori-style levelwise search — adequate for
the relation sizes of the experiments — with helpers for closures and
freeness.

Support is served from **memoized per-item tid sets** built in one pass
over the dictionary code arrays (one ``str`` per distinct value via the
per-code string cache): ``support_of`` intersects tid sets (smallest
first) instead of rescanning rows, and ``closure_of`` checks value
agreement over the matching tids only.  The miner is a snapshot of the
relation at construction time: mine with a fresh miner after mutating the
relation (a version check enforces this where it reads the live code
arrays).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import DiscoveryError
from repro.relational.columns import NULL_CODE
from repro.relational.relation import Relation

Item = tuple[str, str]
"""An item is an (attribute, value) pair (values compared as strings)."""


@dataclass(frozen=True)
class Itemset:
    """A set of items together with its support (number of matching tuples)."""

    items: frozenset[Item]
    support: int

    def attributes(self) -> set[str]:
        return {attribute for attribute, _ in self.items}

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        rendered = ", ".join(f"{a}={v}" for a, v in sorted(self.items))
        return f"Itemset({{{rendered}}}, support={self.support})"


class ItemsetMiner:
    """Apriori-style miner over one relation."""

    def __init__(self, relation: Relation, min_support: int = 2,
                 max_size: int = 3) -> None:
        if min_support < 1:
            raise DiscoveryError("min_support must be at least 1")
        if max_size < 1:
            raise DiscoveryError("max_size must be at least 1")
        self._relation = relation
        self._min_support = min_support
        self._max_size = max_size
        self._attributes = [a.lower() for a in relation.schema.attribute_names]
        self._version = relation.version
        self._tids = relation.tids()
        store = relation.columns
        self._columns = [store.column_at(p) for p in range(relation.schema.arity)]
        # item -> the set of tids carrying it, keys in first-occurrence
        # (tid-major, then schema attribute) order — the order level-1
        # mining, and therefore the whole result list, follows.
        self._item_tids: dict[Item, set[int]] = {}
        per_attribute = [(attribute, column.codes, column.strings)
                         for attribute, column in zip(self._attributes, self._columns)]
        for tid in self._tids:
            for attribute, codes, strings in per_attribute:
                code = codes[tid]
                if code == NULL_CODE:
                    continue
                tids = self._item_tids.get((attribute, strings[code]))
                if tids is None:
                    self._item_tids[(attribute, strings[code])] = {tid}
                else:
                    tids.add(tid)

    # -- support ----------------------------------------------------------------

    def _matching_tids(self, items: Iterable[Item]) -> set[int] | None:
        """The tids carrying every item, or ``None`` for "all tuples" (no items)."""
        tid_sets = []
        for item in items:
            tids = self._item_tids.get(item)
            if not tids:
                return set()
            tid_sets.append(tids)
        if not tid_sets:
            return None
        tid_sets.sort(key=len)
        matching = tid_sets[0]
        for tids in tid_sets[1:]:
            matching = matching & tids
            if not matching:
                break
        return set(matching) if matching is tid_sets[0] else matching

    def support_of(self, items: Iterable[Item]) -> int:
        """Number of tuples containing every item."""
        items = list(items)
        if len(items) == 1:  # the is_free hot loop: no set copy, just a length
            tids = self._item_tids.get(items[0])
            return len(tids) if tids else 0
        matching = self._matching_tids(items)
        return len(self._tids) if matching is None else len(matching)

    def closure_of(self, items: Iterable[Item]) -> frozenset[Item]:
        """All items present in *every* tuple containing *items*."""
        items = list(items)
        if self._relation.version != self._version:
            # the tid sets are a snapshot but the code arrays are live:
            # after a mutation the two disagree (deleted tids read the
            # tombstone), so fail loudly instead of agreeing on garbage
            raise DiscoveryError(
                "the relation changed since this ItemsetMiner was built; "
                "mine with a fresh miner")
        matching = self._matching_tids(items)
        if matching is None:
            matching = set(self._tids)
        if not matching:
            return frozenset(items)
        closed: set[Item] = set()
        for position, attribute in enumerate(self._attributes):
            value = self._agreed_value(position, matching)
            if value is not None:
                closed.add((attribute, value))
        return frozenset(closed | set(items))

    def _agreed_value(self, position: int, matching: set[int]) -> str | None:
        """The one (non-NULL) string the attribute carries on every matching tid."""
        column = self._columns[position]
        codes, strings = column.codes, column.strings
        iterator = iter(matching)
        first = codes[next(iterator)]
        if first == NULL_CODE:
            return None
        target = strings[first]
        for tid in iterator:
            code = codes[tid]
            if code != first and (code == NULL_CODE or strings[code] != target):
                return None
        return target

    def is_free(self, items: Iterable[Item]) -> bool:
        """Whether no proper subset has the same support (generator itemset)."""
        items = list(items)
        support = self.support_of(items)
        for index in range(len(items)):
            subset = items[:index] + items[index + 1:]
            if self.support_of(subset) == support:
                return False
        return True

    # -- mining ------------------------------------------------------------------

    def _singleton_supports(self) -> dict[Item, int]:
        """Level-1 supports, items in first-occurrence (tid-major) order."""
        return {item: len(tids) for item, tids in self._item_tids.items()}

    def frequent_itemsets(self) -> list[Itemset]:
        """All frequent itemsets up to ``max_size`` (levelwise Apriori)."""
        current = {
            frozenset([item]): count
            for item, count in self._singleton_supports().items()
            if count >= self._min_support
        }
        result = [Itemset(items, support) for items, support in current.items()]

        for _ in range(2, self._max_size + 1):
            candidates: set[frozenset[Item]] = set()
            frequent_keys = list(current.keys())
            for i, left in enumerate(frequent_keys):
                for right in frequent_keys[i + 1:]:
                    union = left | right
                    if len(union) != len(left) + 1:
                        continue
                    attributes = [a for a, _ in union]
                    if len(set(attributes)) != len(attributes):
                        continue  # two values for the same attribute never co-occur
                    candidates.add(union)
            next_level: dict[frozenset[Item], int] = {}
            for candidate in candidates:
                support = self.support_of(candidate)
                if support >= self._min_support:
                    next_level[candidate] = support
            result.extend(Itemset(items, support) for items, support in next_level.items())
            if not next_level:
                break
            current = next_level
        return result

    def free_itemsets(self) -> list[Itemset]:
        """The frequent itemsets that are free (generators)."""
        return [itemset for itemset in self.frequent_itemsets()
                if self.is_free(itemset.items)]
