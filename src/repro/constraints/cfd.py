"""Conditional functional dependencies (CFDs), following Fan et al. (TODS).

A CFD ``φ = (R: X → Y, Tp)`` consists of an embedded FD ``X → Y`` and a
pattern tableau ``Tp`` over ``X ∪ Y`` whose cells are constants or the
unnamed variable ``_``.  An instance satisfies ``φ`` when for every pair
of tuples ``t1, t2`` and every pattern ``tp ∈ Tp``: if ``t1[X] = t2[X] ≍
tp[X]`` then ``t1[Y] = t2[Y] ≍ tp[Y]``.

Two useful special cases:

* a **constant CFD** has a single pattern that is constant on all of
  ``X ∪ Y`` — a single tuple can violate it;
* a **variable CFD** has a wildcard on the RHS — violations always involve
  a pair of tuples.

This module provides the CFD class itself; detection lives in
:mod:`repro.detection.cfd_detect` and static analyses in
:mod:`repro.constraints.reasoning`.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ConstraintError
from repro.constraints.fd import FunctionalDependency
from repro.constraints.tableau import Pattern, PatternTuple, UNDERSCORE, is_wildcard
from repro.relational.relation import Relation


class CFD:
    """A conditional functional dependency ``(R: X → Y, Tp)``."""

    def __init__(self, relation_name: str, lhs: Sequence[str], rhs: Sequence[str],
                 patterns: Sequence[PatternTuple | Mapping[str, Pattern]] | None = None,
                 name: str | None = None) -> None:
        self.embedded_fd = FunctionalDependency(relation_name, lhs, rhs)
        self.name = name
        normalized: list[PatternTuple] = []
        for pattern in (patterns or [PatternTuple({})]):
            if isinstance(pattern, PatternTuple):
                normalized.append(pattern)
            else:
                normalized.append(PatternTuple(pattern))
        if not normalized:
            normalized = [PatternTuple({})]
        for pattern in normalized:
            known = set(self.attributes())
            for attribute in pattern.attributes():
                if attribute not in known:
                    raise ConstraintError(
                        f"pattern attribute {attribute!r} is not part of the embedded FD "
                        f"{self.embedded_fd}"
                    )
        self.tableau: tuple[PatternTuple, ...] = tuple(normalized)

    # -- convenient constructors ---------------------------------------------

    @classmethod
    def single(cls, relation_name: str, lhs: Sequence[str], rhs: Sequence[str],
               pattern: Mapping[str, Pattern] | None = None, name: str | None = None) -> "CFD":
        """A CFD with exactly one pattern tuple (the common case)."""
        return cls(relation_name, lhs, rhs, [PatternTuple(pattern or {})], name=name)

    @classmethod
    def from_fd(cls, fd: FunctionalDependency, name: str | None = None) -> "CFD":
        """Embed a classical FD as a CFD with the all-wildcard pattern."""
        return cls(fd.relation_name, list(fd.lhs), list(fd.rhs), name=name)

    # -- structure ---------------------------------------------------------------

    @property
    def relation_name(self) -> str:
        return self.embedded_fd.relation_name

    @property
    def lhs(self) -> tuple[str, ...]:
        return self.embedded_fd.lhs

    @property
    def rhs(self) -> tuple[str, ...]:
        return self.embedded_fd.rhs

    def attributes(self) -> tuple[str, ...]:
        """All attributes of the embedded FD."""
        return self.embedded_fd.attributes()

    def validate_against(self, relation: Relation) -> None:
        """Raise :class:`ConstraintError` if the CFD mentions unknown attributes."""
        self.embedded_fd.validate_against(relation)

    def is_constant(self) -> bool:
        """Whether every pattern pins every attribute of ``X ∪ Y`` to a constant."""
        return all(
            all(pattern.is_constant_on(a) for a in self.attributes())
            for pattern in self.tableau
        )

    def is_variable(self) -> bool:
        """Whether every pattern has only wildcards on the RHS."""
        return all(
            all(not pattern.is_constant_on(a) for a in self.rhs)
            for pattern in self.tableau
        )

    def normalize(self) -> list["CFD"]:
        """Equivalent CFDs each with a single RHS attribute and a single pattern.

        This is the normal form used by the reasoning and detection
        algorithms of Fan et al.
        """
        result: list[CFD] = []
        for pattern in self.tableau:
            for attribute in self.rhs:
                cells = {a: pattern.pattern(a) for a in self.lhs}
                cells[attribute] = pattern.pattern(attribute)
                result.append(CFD(self.relation_name, list(self.lhs), [attribute],
                                  [PatternTuple(cells)], name=self.name))
        return result

    def merge_with(self, other: "CFD") -> "CFD":
        """Merge two CFDs sharing the same embedded FD into one tableau."""
        if (self.relation_name.lower(), set(self.lhs), set(self.rhs)) != (
                other.relation_name.lower(), set(other.lhs), set(other.rhs)):
            raise ConstraintError("can only merge CFDs with the same embedded FD")
        patterns = list(dict.fromkeys(self.tableau + other.tableau))
        return CFD(self.relation_name, list(self.lhs), list(self.rhs), patterns,
                   name=self.name or other.name)

    # -- semantics ------------------------------------------------------------------

    def holds_on(self, relation: Relation) -> bool:
        """Whether *relation* satisfies this CFD (delegates to the detector)."""
        from repro.detection.cfd_detect import CFDDetector

        report = CFDDetector(relation, [self]).detect()
        return report.is_clean()

    # -- dunder ------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CFD):
            return NotImplemented
        return (
            self.relation_name.lower() == other.relation_name.lower()
            and self.lhs == other.lhs and self.rhs == other.rhs
            and set(self.tableau) == set(other.tableau)
        )

    def __hash__(self) -> int:
        return hash((self.relation_name.lower(), self.lhs, self.rhs, frozenset(self.tableau)))

    def __repr__(self) -> str:
        def render(pattern: PatternTuple, attributes: Iterable[str]) -> str:
            parts = []
            for attribute in attributes:
                value = pattern.pattern(attribute)
                parts.append(attribute if is_wildcard(value) else f"{attribute}={value!r}")
            return ", ".join(parts)

        rendered = " | ".join(
            f"([{render(p, self.lhs)}] -> [{render(p, self.rhs)}])" for p in self.tableau
        )
        label = f"{self.name}: " if self.name else ""
        return f"{label}{self.relation_name}{rendered}"


def group_by_embedded_fd(cfds: Sequence[CFD]) -> dict[tuple, list[CFD]]:
    """Group CFDs sharing the same embedded FD (used by merged-tableau detection)."""
    groups: dict[tuple, list[CFD]] = {}
    for cfd in cfds:
        key = (cfd.relation_name.lower(), cfd.lhs, cfd.rhs)
        groups.setdefault(key, []).append(cfd)
    return groups


def merge_cfds(cfds: Sequence[CFD]) -> list[CFD]:
    """Merge CFDs sharing an embedded FD into single CFDs with larger tableaux."""
    merged: list[CFD] = []
    for group in group_by_embedded_fd(cfds).values():
        combined = group[0]
        for cfd in group[1:]:
            combined = combined.merge_with(cfd)
        merged.append(combined)
    return merged
