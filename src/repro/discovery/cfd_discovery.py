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
  out the simplification.

Both procedures run on the columnar substrate: candidate FDs are
validated on cached stripped partitions
(:class:`~repro.discovery.partitions.PartitionProvider`, optionally
chunk-parallel via ``engine=``/``workers=``), and itemset mining reads
dictionary code arrays.
"""

from __future__ import annotations

import itertools
from typing import Any, Sequence

from repro import obs
from repro.constraints.cfd import CFD
from repro.constraints.tableau import PatternTuple
from repro.discovery.itemsets import ItemsetMiner
from repro.discovery.partitions import PartitionProvider
from repro.errors import DiscoveryError
from repro.relational.columns import NULL_CODE
from repro.relational.index import HashIndex
from repro.relational.relation import Relation


class CFDDiscovery:
    """Discovers constant and variable CFDs from a relation."""

    def __init__(self, relation: Relation, min_support: int = 3,
                 max_lhs_size: int = 2,
                 engine: str | None = None, workers: int | None = None,
                 task_timeout: float | None = None,
                 task_retries: int | None = None) -> None:
        if min_support < 1:
            raise DiscoveryError("min_support must be at least 1")
        if max_lhs_size < 1:
            raise DiscoveryError("max_lhs_size must be at least 1")
        self._relation = relation
        self._min_support = min_support
        self._max_lhs_size = max_lhs_size
        self._attributes = [a.lower() for a in relation.schema.attribute_names]
        self._provider = PartitionProvider(relation, engine=engine, workers=workers,
                                           task_timeout=task_timeout,
                                           task_retries=task_retries)
        # conditioning groups per attribute, computed once per relation
        # version (refinement retries every failed FD whose LHS contains
        # the attribute against the same groups)
        self._groups_version = -1
        self._groups_by_attribute: dict[str, list[tuple[Any, set[int]]]] = {}

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
            for lhs, rhs in candidates:
                if self._fd_holds(lhs, rhs):
                    # a plain FD: emit it as an all-wildcard CFD
                    discovered.append(CFD(self._relation.name, sorted(lhs), [rhs],
                                          name=f"fd_{len(discovered)}"))
                    continue
                discovered.extend(self._refine(lhs, rhs, len(discovered)))
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

    def _fd_holds(self, lhs: frozenset[str], rhs: str) -> bool:
        coarse = self._provider.partition(lhs)
        fine = self._provider.partition(lhs | {rhs})
        return coarse.refines_without_splitting(fine)

    def _conditioning_groups(self, attribute: str) -> list[tuple[Any, set[int]]]:
        """Non-NULL ``(value, tids)`` groups of one attribute, scan order.

        Reads a freshly built code-keyed :class:`HashIndex`, decodes each
        group's representative value once, and memoizes the groups per
        relation version (every failed FD whose LHS contains the
        attribute conditions on the same groups).
        """
        if self._groups_version != self._relation.version:
            self._groups_by_attribute.clear()
            self._groups_version = self._relation.version
        groups = self._groups_by_attribute.get(attribute)
        if groups is None:
            index = HashIndex(self._relation, [attribute])
            column = self._relation.columns.column(attribute)
            groups = [(column.values[key[0]], tids)
                      for key, tids in index.bucket_items()
                      if key[0] != NULL_CODE]
            self._groups_by_attribute[attribute] = groups
        return groups

    def _refine(self, lhs: frozenset[str], rhs: str, offset: int) -> list[CFD]:
        """Condition the failed FD on constants of one LHS attribute.

        With an engine requested, the per-group subset checks fan out
        across the worker pool
        (:meth:`~repro.engine.discover.ChunkedPartitionEngine.refine_subsets`)
        — one batch of conditioning groups per worker, verdicts stitched
        back in input order, so the emitted CFD list (names included) is
        identical to the sequential walk.  Wide relations generate one
        candidate FD per attribute pair and retry each failure against
        every conditioning group, which is exactly the workload the
        fan-out amortises.
        """
        lhs_list = sorted(lhs)
        candidates: list[tuple[str, Any, Any]] = []
        for conditioning in lhs_list:
            for value, tids in self._conditioning_groups(conditioning):
                if len(tids) >= self._min_support:
                    candidates.append((conditioning, value, tids))
        chunked = self._provider.chunked
        if chunked is not None:
            verdicts = chunked.refine_subsets(
                lhs_list, rhs, [list(tids) for _, _, tids in candidates])
        else:
            verdicts = [self._holds_on_subset(lhs_list, rhs, tids)
                        for _, _, tids in candidates]
        refined: list[CFD] = []
        for (conditioning, value, _), holds in zip(candidates, verdicts):
            if holds:
                refined.append(CFD(
                    self._relation.name, lhs_list, [rhs],
                    [PatternTuple({conditioning: value})],
                    name=f"cond_{offset + len(refined)}"))
        return refined

    def _holds_on_subset(self, lhs: Sequence[str], rhs: str,
                         tids: set[int] | frozenset[int] | list[int]) -> bool:
        positions = self._relation.schema.positions(lhs)
        rhs_position = self._relation.schema.position(rhs)
        store = self._relation.columns
        arrays = store.code_arrays(positions)
        rhs_codes = store.column_at(rhs_position).codes
        seen: dict[Any, int] = {}
        if len(arrays) == 1:
            codes = arrays[0]
            for tid in tids:
                rhs_code = rhs_codes[tid]
                previous = seen.setdefault(codes[tid], rhs_code)
                if previous != rhs_code:
                    return False
            return True
        for tid in tids:
            key = tuple(codes[tid] for codes in arrays)
            rhs_code = rhs_codes[tid]
            previous = seen.setdefault(key, rhs_code)
            if previous != rhs_code:
                return False
        return True


def discover_constant_cfds(relation: Relation, min_support: int = 3,
                           max_lhs_size: int = 2,
                           engine: str | None = None,
                           workers: int | None = None) -> list[CFD]:
    """Convenience wrapper: constant CFDs only."""
    return CFDDiscovery(relation, min_support, max_lhs_size,
                        engine=engine, workers=workers).discover_constant_cfds()


def discover_cfds(relation: Relation, min_support: int = 3,
                  max_lhs_size: int = 2,
                  engine: str | None = None,
                  workers: int | None = None) -> list[CFD]:
    """Convenience wrapper: constant plus variable CFDs."""
    return CFDDiscovery(relation, min_support, max_lhs_size,
                        engine=engine, workers=workers).discover()
