"""The repair cost model.

Following Cong et al., the cost of changing the value of cell ``(t, A)``
from ``v`` to ``v'`` is ``w(t, A) · dist(v, v')`` where ``w`` is a
per-cell confidence weight (1.0 by default — the user trusts every cell
equally) and ``dist`` is a normalized distance in ``[0, 1]`` (here:
normalized edit distance).  The cost of a repair is the sum over all
changed cells; BatchRepair picks target values that minimize this sum.

:meth:`CostModel.change_cost` prices one change of raw values (the cost
of a finished repair).  Target selection works on dictionary codes:
:meth:`CostModel.code_distance` and :meth:`CostModel.cheapest_target_code`
take codes of one :class:`~repro.relational.columns.Column` and memoise
every ``(code, code)`` distance on the column itself — codes are decoded
only on a cache miss, so repeated repair passes over the same groups
never recompute a pair.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Mapping

from repro import obs
from repro.matching.similarity import normalized_edit_distance
from repro.relational.columns import Column, NULL_CODE
from repro.relational.types import is_null


class CostModel:
    """Per-cell weights plus a value-distance function."""

    def __init__(self, default_weight: float = 1.0,
                 distance: Callable[[Any, Any], float] | None = None) -> None:
        if default_weight < 0:
            raise ValueError("default_weight must be non-negative")
        self._default_weight = default_weight
        self._weights: dict[tuple[int, str], float] = {}
        self._distance = distance or normalized_edit_distance
        # Column-level memos are shared between models with the same
        # distance *behaviour*: the concrete class participates so a
        # subclass overriding distance() can never poison the memo of a
        # plain model (and vice versa), while models passing the same
        # function reuse one memo instead of growing a fresh one each.
        self._distance_key: Hashable = (type(self), self._distance)

    # -- weights ------------------------------------------------------------

    def set_weight(self, tid: int, attribute: str, weight: float) -> None:
        """Set the confidence weight of one cell (higher = more trusted)."""
        if weight < 0:
            raise ValueError("weights must be non-negative")
        self._weights[(tid, attribute.lower())] = weight

    def set_weights(self, weights: Mapping[tuple[int, str], float]) -> None:
        """Bulk version of :meth:`set_weight`."""
        for (tid, attribute), weight in weights.items():
            self.set_weight(tid, attribute, weight)

    def weight(self, tid: int, attribute: str) -> float:
        """Confidence weight of cell ``(tid, attribute)``."""
        return self._weights.get((tid, attribute.lower()), self._default_weight)

    # -- costs ---------------------------------------------------------------

    def distance(self, old_value: Any, new_value: Any) -> float:
        """Distance in [0, 1] between two values (0 when equal)."""
        if is_null(old_value) and is_null(new_value):
            return 0.0
        return self._distance(old_value, new_value)

    def change_cost(self, tid: int, attribute: str, old_value: Any, new_value: Any) -> float:
        """Cost of changing one cell."""
        return self.weight(tid, attribute) * self.distance(old_value, new_value)

    # -- code-level costs ----------------------------------------------------

    def code_distance(self, column: Column, code: int, target_code: int) -> float:
        """:meth:`distance` between two dictionary codes of one column.

        Memoised in the column's :meth:`~repro.relational.columns.Column.
        distance_cache` under this model's distance identity; the pair is
        decoded (and the distance computed) only on the first encounter.
        Equal codes short-circuit to ``0.0`` — which also covers the
        NULL/NULL case, since NULL is one shared code.
        """
        if code == target_code:
            return 0.0
        cache = column.distance_cache(self._distance_key)
        key = (code, target_code)
        value = cache.get(key)
        if value is None:
            if obs.enabled:
                obs.inc("cache.distance.miss")
            value = self.distance(column.value_of(code), column.value_of(target_code))
            cache[key] = value
        elif obs.enabled:
            obs.inc("cache.distance.hit")
        return value

    def code_target_cost(self, attribute: str, column: Column,
                         cells: Iterable[tuple[int, int]], target_code: int) -> float:
        """Cost of moving every ``(tid, code)`` cell of *column* to *target_code*."""
        return sum(self.weight(tid, attribute) * self.code_distance(column, code, target_code)
                   for tid, code in cells)

    def cheapest_target_code(self, attribute: str, column: Column,
                             cells: list[tuple[int, int]],
                             candidates: Iterable[int] | None = None) -> tuple[int, float]:
        """The code minimizing :meth:`code_target_cost` over *candidates*.

        When *candidates* is omitted the pool is the distinct current codes
        of the cells, deduplicated by their per-code string form in first
        occurrence order (the optimal target of the weighted-majority
        resolution; ties go to the earliest).
        """
        if not cells:
            raise ValueError("cheapest_target_code needs at least one cell")
        pool = list(candidates) if candidates is not None else []
        if not pool:
            strings = column.strings
            seen: set[str | None] = set()
            for _, code in cells:
                key = strings[code] if code != NULL_CODE else None
                if key not in seen:
                    seen.add(key)
                    pool.append(code)
        best_code, best_cost = NULL_CODE, float("inf")
        for candidate in pool:
            cost = self.code_target_cost(attribute, column, cells, candidate)
            if cost < best_cost:
                best_code, best_cost = candidate, cost
        return best_code, best_cost
