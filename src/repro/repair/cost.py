"""The repair cost model.

Following Cong et al., the cost of changing the value of cell ``(t, A)``
from ``v`` to ``v'`` is ``w(t, A) · dist(v, v')`` where ``w`` is a
per-cell confidence weight (1.0 by default — the user trusts every cell
equally) and ``dist`` is a normalized distance in ``[0, 1]`` (here:
normalized edit distance).  The cost of a repair is the sum over all
changed cells; BatchRepair picks target values that minimize this sum.

A model computes each distance once: :meth:`CostModel.distance` keeps a
memo of every pair it was asked, keyed by the type and the value of both
sides (INTEGER ``1`` and FLOAT ``1.0`` are ``==`` but print differently,
so they never share an entry).  Everything prices through it:
:meth:`CostModel.change_cost` (the cost of a finished repair) and the
code-level face that target selection uses,
:meth:`CostModel.code_distance` and :meth:`CostModel.cheapest_target_code`,
which take codes of one :class:`~repro.relational.columns.Column` and
decode them to look the pair up.  A session keeps one model per relation,
so a proposed repair and the applied one share the memo.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

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
        #: (type, value, type, value) -> distance, filled by distance()
        self._memo: dict[tuple[Any, Any, Any, Any], float] = {}

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
        """Distance in [0, 1] between two values (0 when equal), memoised."""
        old_type, new_type = old_value.__class__, new_value.__class__
        if old_type is float or new_type is float:
            # FLOAT 0.0 and -0.0 are == but print differently; repr tells
            # every float apart
            key = (old_type, repr(old_value), new_type, repr(new_value))
        else:
            key = (old_type, old_value, new_type, new_value)
        value = self._memo.get(key)
        if value is None:
            if obs.enabled:
                obs.inc("cache.distance.miss")
            if is_null(old_value) and is_null(new_value):
                value = 0.0
            else:
                value = self._distance(old_value, new_value)
            self._memo[key] = value
        elif obs.enabled:
            obs.inc("cache.distance.hit")
        return value

    def change_cost(self, tid: int, attribute: str, old_value: Any, new_value: Any) -> float:
        """Cost of changing one cell."""
        return self.weight(tid, attribute) * self.distance(old_value, new_value)

    # -- code-level costs ----------------------------------------------------

    def code_distance(self, column: Column, code: int, target_code: int) -> float:
        """:meth:`distance` between two dictionary codes of one column.

        Equal codes short-circuit to ``0.0`` (NULL is one shared code, so
        this covers NULL/NULL too); any other pair is decoded and looked
        up in the model's memo.
        """
        if code == target_code:
            return 0.0
        values = column.values
        return self.distance(values[code], values[target_code])

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
        # each cell's weight once; the products and their order are those
        # of code_target_cost, so every sum is bit-identical to it
        weighted = [(self.weight(tid, attribute), code) for tid, code in cells]
        code_distance = self.code_distance
        best_code, best_cost = NULL_CODE, float("inf")
        for candidate in pool:
            cost = sum(weight * code_distance(column, code, candidate)
                       for weight, code in weighted)
            if cost < best_cost:
                best_code, best_cost = candidate, cost
        return best_code, best_cost
