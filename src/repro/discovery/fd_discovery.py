"""Levelwise (TANE-style) discovery of minimal functional dependencies.

The search walks the lattice of attribute sets level by level.  At level
``k`` every left-hand side ``X`` of size ``k`` is tested against each
``A ∉ X``: the FD ``X → A`` holds iff no group of ``X``'s stripped
partition carries two codes of ``A``
(:meth:`~repro.discovery.partitions.Partition.split_groups`), so only
the partitions of left-hand sides are ever built.  Minimality pruning:
once ``Y → A`` is emitted, no superset of ``Y`` is reported for the same
RHS.

Partitions come from a :class:`~repro.discovery.partitions.PartitionProvider`:
base partitions are computed from dictionary code arrays, and higher
lattice levels are composed from cached lower ones via partition
products.

An optional ``max_lhs_size`` bounds the level (the experiments only need
small left-hand sides), and ``approximate_error`` allows *approximate* FDs
— dependencies violated by at most a fraction of tuples — which is what
discovery on dirty data requires.  The approximate test reads the same
split groups: a group ``c`` of ``X``'s partition adds ``|c| − 1`` to the
partition error ``e(X)`` and ``|c| − k_c`` to ``e(X ∪ {A})``, where
``k_c`` is the number of distinct ``A`` codes in ``c``, so
``e(X) − e(X ∪ {A})`` is the sum of ``k_c − 1`` over the split groups.
"""

from __future__ import annotations

import itertools
import math

from repro import obs
from repro.constraints.fd import FunctionalDependency
from repro.discovery.partitions import Partition, PartitionProvider
from repro.errors import DiscoveryError
from repro.relational.relation import Relation


class FDDiscovery:
    """Discovers minimal FDs of a relation."""

    def __init__(self, relation: Relation, max_lhs_size: int = 3,
                 approximate_error: float = 0.0) -> None:
        if max_lhs_size < 1:
            raise DiscoveryError("max_lhs_size must be at least 1")
        if not 0.0 <= approximate_error < 1.0:
            raise DiscoveryError("approximate_error must be in [0, 1)")
        self._relation = relation
        self._attributes = [a.lower() for a in relation.schema.attribute_names]
        self._max_lhs_size = min(max_lhs_size, len(self._attributes) - 1)
        self._approximate_error = approximate_error
        self._provider = PartitionProvider(relation)

    # -- partitions --------------------------------------------------------------

    def _partition(self, attributes: frozenset[str]) -> Partition:
        return self._provider.partition(attributes)

    def _holds(self, lhs: frozenset[str], rhs: str) -> bool:
        codes = self._relation.columns.column(rhs).codes
        split = self._partition(lhs).split_groups(codes)
        if self._approximate_error == 0.0:
            return not split
        # e(X) − e(X ∪ {A}): each split group loses (distinct A codes − 1)
        lost = sum(len(set(map(codes.__getitem__, group))) - 1 for group in split)
        return lost / max(len(self._relation), 1) <= self._approximate_error

    # -- discovery -----------------------------------------------------------------

    def discover(self) -> list[FunctionalDependency]:
        """All minimal FDs with LHS size up to ``max_lhs_size``."""
        if len(self._relation) == 0:
            return []
        with obs.span("discovery.fds", relation=self._relation.name):
            return self._discover_levelwise()

    def _discover_levelwise(self) -> list[FunctionalDependency]:
        found: list[FunctionalDependency] = []
        # found_lhs[rhs] = list of minimal LHS sets already emitted for rhs
        found_lhs: dict[str, list[frozenset[str]]] = {a: [] for a in self._attributes}

        for size in range(1, self._max_lhs_size + 1):
            if obs.enabled:
                obs.gauge(f"discovery.lattice.level{size}.size",
                          math.comb(len(self._attributes), size))
            for lhs_tuple in itertools.combinations(self._attributes, size):
                lhs = frozenset(lhs_tuple)
                for rhs in self._attributes:
                    if rhs in lhs:
                        continue
                    if any(existing <= lhs for existing in found_lhs[rhs]):
                        continue  # a smaller LHS already determines rhs
                    if self._holds(lhs, rhs):
                        found_lhs[rhs].append(lhs)
                        found.append(FunctionalDependency(
                            self._relation.name, sorted(lhs), [rhs]))
        return found

    def keys(self) -> list[tuple[str, ...]]:
        """Minimal candidate keys with up to ``max_lhs_size`` attributes."""
        result: list[tuple[str, ...]] = []
        for size in range(1, self._max_lhs_size + 1):
            for combination in itertools.combinations(self._attributes, size):
                candidate = frozenset(combination)
                if any(set(existing) <= candidate for existing in result):
                    continue
                if self._partition(candidate).error == 0:
                    result.append(tuple(sorted(candidate)))
        return result


def discover_fds(relation: Relation, max_lhs_size: int = 3,
                 approximate_error: float = 0.0) -> list[FunctionalDependency]:
    """Convenience wrapper around :class:`FDDiscovery`."""
    return FDDiscovery(relation, max_lhs_size=max_lhs_size,
                       approximate_error=approximate_error).discover()
