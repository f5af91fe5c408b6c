"""CFD discovery: constant CFDs via CFDMiner and variable CFDs via conditional refinement.

Two discovery procedures are provided, mirroring the profiling activities
the tutorial mentions (§2):

* **Constant CFDs** (:func:`discover_constant_cfds`, the CFDMiner idea):
  for every *free* frequent itemset ``X`` and every item ``(A, a)`` in the
  closure of ``X`` but not in ``X`` (with ``A`` not among ``X``'s
  attributes), the constant CFD ``(attrs(X) → A, (values(X) ‖ a))`` holds
  with support ``supp(X)``.

* **Variable CFDs by conditional refinement**
  (:meth:`CFDDiscovery.discover_variable_cfds`): for every candidate FD
  ``X → A`` that does *not* hold globally, try conditioning on a constant
  pattern for one attribute ``B ∈ X``; if the FD holds on the subset
  matching ``B = b`` with enough support, the CFD
  ``(X → A, (B=b, _ ... ‖ _))`` is emitted.  This is a pragmatic subset of
  full CTANE (which explores arbitrary pattern tableaux); DESIGN.md calls
  out the simplification.  The global verdict and every conditioned one
  are read off the same *split groups* of ``X``'s stripped partition
  (:meth:`~repro.discovery.partitions.Partition.split_groups`, the groups
  carrying two ``A`` codes): ``X → A`` holds iff there are none, and —
  every group being constant on each ``B ∈ X`` — it holds on ``B = b``
  iff no split group carries ``b``'s code on ``B``.

Both procedures run on the columnar substrate: stripped partitions come
from the cached
:class:`~repro.discovery.partitions.PartitionProvider`, and itemset
mining reads dictionary code arrays.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro import obs
from repro.constraints.cfd import CFD
from repro.constraints.tableau import PatternTuple
from repro.discovery.itemsets import ItemsetMiner
from repro.discovery.partitions import PartitionProvider
from repro.errors import DiscoveryError
from repro.relational.columns import NULL_CODE
from repro.relational.relation import Relation


class CFDDiscovery:
    """Discovers constant and variable CFDs from a relation."""

    def __init__(self, relation: Relation, min_support: int = 3,
                 max_lhs_size: int = 2) -> None:
        if min_support < 1:
            raise DiscoveryError("min_support must be at least 1")
        if max_lhs_size < 1:
            raise DiscoveryError("max_lhs_size must be at least 1")
        self._relation = relation
        self._min_support = min_support
        self._max_lhs_size = max_lhs_size
        self._attributes = [a.lower() for a in relation.schema.attribute_names]
        self._provider = PartitionProvider(relation)
        # conditioning values per attribute, computed once per relation
        # version (refinement conditions every failed FD whose LHS
        # contains the attribute on the same values)
        self._groups_version = -1
        self._groups_by_attribute: dict[str, list[tuple[Any, int, int]]] = {}

    # -- constant CFDs (CFDMiner) --------------------------------------------------

    def discover_constant_cfds(self) -> list[CFD]:
        """Constant CFDs with support at least ``min_support``."""
        with obs.span("discovery.constant_cfds", relation=self._relation.name):
            return self._discover_constant_cfds()

    def _discover_constant_cfds(self) -> list[CFD]:
        miner = ItemsetMiner(self._relation, min_support=self._min_support,
                             max_size=self._max_lhs_size)
        discovered: list[CFD] = []
        seen: set[tuple] = set()
        for itemset in miner.free_itemsets():
            closure = miner.closure_of(itemset.items)
            lhs_attributes = sorted(itemset.attributes())
            lhs_constants = {attribute: value for attribute, value in itemset.items}
            for attribute, value in sorted(closure - itemset.items):
                if attribute in lhs_attributes:
                    continue
                key = (tuple(lhs_attributes), tuple(sorted(lhs_constants.items())),
                       attribute, value)
                if key in seen:
                    continue
                seen.add(key)
                pattern = dict(lhs_constants)
                pattern[attribute] = value
                discovered.append(CFD(self._relation.name, lhs_attributes, [attribute],
                                      [PatternTuple(pattern)],
                                      name=f"const_{len(discovered)}"))
        return discovered

    # -- variable CFDs by conditional refinement -------------------------------------

    def discover_variable_cfds(self) -> list[CFD]:
        """Variable CFDs: FDs that fail globally but hold on a conditioned subset."""
        with obs.span("discovery.variable_cfds", relation=self._relation.name):
            discovered: list[CFD] = []
            candidates = self._candidate_fds()
            if obs.enabled:
                obs.gauge("discovery.candidate_fds", len(candidates))
            store = self._relation.columns
            for lhs, rhs in candidates:
                split = self._provider.partition(lhs).split_groups(
                    store.column(rhs).codes)
                if not split:
                    # a plain FD: emit it as an all-wildcard CFD
                    discovered.append(CFD(self._relation.name, sorted(lhs), [rhs],
                                          name=f"fd_{len(discovered)}"))
                    continue
                discovered.extend(self._refine(lhs, rhs, split, len(discovered)))
            return discovered

    def discover(self) -> list[CFD]:
        """Constant plus variable CFDs."""
        return self.discover_constant_cfds() + self.discover_variable_cfds()

    # -- helpers --------------------------------------------------------------------

    def _candidate_fds(self) -> list[tuple[frozenset[str], str]]:
        candidates = []
        for size in range(1, self._max_lhs_size + 1):
            for lhs in itertools.combinations(self._attributes, size):
                for rhs in self._attributes:
                    if rhs not in lhs:
                        candidates.append((frozenset(lhs), rhs))
        return candidates

    def _conditioning_groups(self, attribute: str) -> list[tuple[Any, int, int]]:
        """Non-NULL ``(value, code, support)`` of one attribute, first-occurrence order.

        Read off one
        :meth:`~repro.relational.columns.ColumnStore.partition_groups`
        scan of the attribute's code array, decoding each value once, and
        memoized per relation version (every failed FD whose LHS contains
        the attribute conditions on the same values).
        """
        if self._groups_version != self._relation.version:
            self._groups_by_attribute.clear()
            self._groups_version = self._relation.version
        groups = self._groups_by_attribute.get(attribute)
        if groups is None:
            store = self._relation.columns
            position = self._relation.schema.position(attribute)
            values = store.column_at(position).values
            groups = [(values[code], code, len(tids))
                      for code, tids in store.partition_groups([position]).items()
                      if code != NULL_CODE]
            self._groups_by_attribute[attribute] = groups
        return groups

    def _refine(self, lhs: frozenset[str], rhs: str, split: list[list[int]],
                offset: int) -> list[CFD]:
        """Condition the failed FD on constants of one LHS attribute.

        *split* holds the groups of the partition by ``X`` that carry two
        ``A`` codes.  Each group is constant on every ``B ∈ X``, so the
        groups of the subset ``B = b`` are exactly the groups with ``b``'s
        code on ``B``, and ``X → A`` holds there iff none of them is
        split: one pass over *split* per ``B`` collects the failing codes,
        and a value with enough support is accepted iff its code is not
        among them.
        """
        lhs_list = sorted(lhs)
        store = self._relation.columns
        refined: list[CFD] = []
        for conditioning in lhs_list:
            codes = store.column(conditioning).codes
            failing = {codes[group[0]] for group in split}
            for value, code, support in self._conditioning_groups(conditioning):
                if support >= self._min_support and code not in failing:
                    refined.append(CFD(
                        self._relation.name, lhs_list, [rhs],
                        [PatternTuple({conditioning: value})],
                        name=f"cond_{offset + len(refined)}"))
        return refined


def discover_constant_cfds(relation: Relation, min_support: int = 3,
                           max_lhs_size: int = 2) -> list[CFD]:
    """Convenience wrapper: constant CFDs only."""
    return CFDDiscovery(relation, min_support, max_lhs_size).discover_constant_cfds()


def discover_cfds(relation: Relation, min_support: int = 3,
                  max_lhs_size: int = 2) -> list[CFD]:
    """Convenience wrapper: constant plus variable CFDs."""
    return CFDDiscovery(relation, min_support, max_lhs_size).discover()
