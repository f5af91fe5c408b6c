"""Equivalence classes of cells — the core data structure of BatchRepair.

Cong et al.'s repair algorithm never assigns values to individual cells
directly.  Instead it maintains *equivalence classes* of cells; all cells
in one class must receive the same value in the final repair.  Resolving a
variable-CFD violation merges the RHS cells of the conflicting tuples into
one class; resolving a constant-CFD violation pins the class of the
offending cell to the pattern's constant.  Only at the end is each class
assigned its cheapest target value and written back to the relation.

:class:`CodeEquivalenceClasses` is a union–find with per-class metadata
(a pinned target, if any) over dictionary-coded cells: cells are
``(tid, column position)`` pairs and pinned targets are dictionary
*codes* of the owning column, so every comparison is an integer
comparison.
"""

from __future__ import annotations

from typing import Any

from repro.errors import RepairError

CodeCell = tuple[int, int]
"""A cell addressed by ``(tid, column position)``."""


class CodeEquivalenceClasses:
    """Union–find over ``(tid, column position)`` cells pinned to dictionary codes.

    The repair registers cells by schema position and pins classes to
    *codes* of the owning column's dictionary — candidate targets stay
    encoded until a repair value is actually written back.  Distinct codes
    are treated as conflicting targets; callers that consider two codes
    equivalent (e.g. equal under the column's per-code string cache) must
    compare through that cache before pinning.
    """

    def __init__(self) -> None:
        self._parent: dict[CodeCell, CodeCell] = {}
        self._rank: dict[CodeCell, int] = {}
        self._pinned: dict[CodeCell, Any] = {}  # root -> pinned target

    # -- union-find ---------------------------------------------------------

    def add(self, cell: CodeCell) -> CodeCell:
        """Register a cell (idempotent); returns its representative."""
        return self.find(cell)

    def find(self, cell: CodeCell) -> CodeCell:
        """Representative of the class containing *cell* (with path compression)."""
        parent = self._parent
        if cell not in parent:
            parent[cell] = cell
            self._rank[cell] = 0
            return cell
        root = cell
        while parent[root] != root:
            root = parent[root]
        while parent[cell] != root:
            parent[cell], cell = root, parent[cell]
        return root

    def union(self, first: CodeCell, second: CodeCell) -> CodeCell:
        """Merge the classes of the two cells; returns the new representative.

        Raises :class:`~repro.errors.RepairError` if both classes are pinned
        to conflicting targets (the conflict the repair algorithm must then
        resolve by editing an LHS attribute instead).
        """
        root_a, root_b = self.find(first), self.find(second)
        if root_a == root_b:
            return root_a
        pin_a, pin_b = self._pinned.get(root_a), self._pinned.get(root_b)
        if pin_a is not None and pin_b is not None and pin_a != pin_b:
            raise RepairError(
                f"cannot merge classes pinned to different targets "
                f"({pin_a!r} vs {pin_b!r})")
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1
        surviving_pin = pin_a if pin_a is not None else pin_b
        self._pinned.pop(root_b, None)
        if surviving_pin is not None:
            self._pinned[root_a] = surviving_pin
        return root_a

    def same_class(self, first: CodeCell, second: CodeCell) -> bool:
        """Whether the two cells are in the same class."""
        return self.find(first) == self.find(second)

    # -- pinning --------------------------------------------------------------

    def pin(self, cell: CodeCell, value: Any) -> None:
        """Pin the class of *cell* to a target code.

        Pinning an already-pinned class to a conflicting target raises
        :class:`~repro.errors.RepairError`.
        """
        root = self.find(cell)
        existing = self._pinned.get(root)
        if existing is not None and existing != value:
            raise RepairError(
                f"class of {cell} already pinned to {existing!r}, cannot repin to {value!r}")
        self._pinned[root] = value

    def pinned_value(self, cell: CodeCell) -> Any | None:
        """The target the class of *cell* is pinned to, if any."""
        return self._pinned.get(self.find(cell))

    def is_pinned(self, cell: CodeCell) -> bool:
        return self.pinned_value(cell) is not None

    # -- enumeration -------------------------------------------------------------

    def cells(self) -> list[CodeCell]:
        """All registered cells."""
        return list(self._parent.keys())

    def members(self, cell: CodeCell) -> list[CodeCell]:
        """All cells in the same class as *cell*."""
        root = self.find(cell)
        return [c for c in self._parent if self.find(c) == root]

    def classes(self) -> dict[CodeCell, list[CodeCell]]:
        """Mapping representative → member cells."""
        result: dict[CodeCell, list[CodeCell]] = {}
        for cell in self._parent:
            result.setdefault(self.find(cell), []).append(cell)
        return result

    def class_count(self) -> int:
        """Number of distinct classes."""
        return len({self.find(cell) for cell in self._parent})

    def __len__(self) -> int:
        return len(self._parent)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({len(self._parent)} cells, "
                f"{self.class_count()} classes)")
