"""Classical functional dependencies (FDs).

An FD ``R: X → Y`` requires any two tuples of ``R`` agreeing on the
attributes ``X`` to also agree on ``Y``.  FDs are both a baseline for the
conditional formalisms and the target language of the discovery module.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ConstraintError
from repro.relational.columns import NULL_CODE
from repro.relational.relation import Relation


class FunctionalDependency:
    """``relation: lhs → rhs`` over attribute name lists."""

    def __init__(self, relation_name: str, lhs: Sequence[str], rhs: Sequence[str]) -> None:
        if not relation_name:
            raise ConstraintError("an FD needs a relation name")
        if not lhs:
            raise ConstraintError("an FD needs at least one LHS attribute")
        if not rhs:
            raise ConstraintError("an FD needs at least one RHS attribute")
        self.relation_name = relation_name
        self.lhs = tuple(dict.fromkeys(a.lower() for a in lhs))
        self.rhs = tuple(dict.fromkeys(a.lower() for a in rhs))
        overlap = set(self.lhs) & set(self.rhs)
        if overlap:
            self.rhs = tuple(a for a in self.rhs if a not in overlap)
            if not self.rhs:
                raise ConstraintError("FD right-hand side is contained in its left-hand side")

    # -- structure ----------------------------------------------------------

    def attributes(self) -> tuple[str, ...]:
        """All attributes mentioned by the FD."""
        return tuple(dict.fromkeys(self.lhs + self.rhs))

    def decompose(self) -> list["FunctionalDependency"]:
        """Equivalent FDs with a single RHS attribute each."""
        return [FunctionalDependency(self.relation_name, self.lhs, [a]) for a in self.rhs]

    def validate_against(self, relation: Relation) -> None:
        """Raise :class:`ConstraintError` if an attribute is missing from *relation*."""
        for attribute in self.attributes():
            if not relation.schema.has_attribute(attribute):
                raise ConstraintError(
                    f"FD {self} refers to unknown attribute {attribute!r} of {relation.name!r}"
                )

    # -- semantics ------------------------------------------------------------

    def holds_on(self, relation: Relation, treat_null_as_value: bool = True) -> bool:
        """Whether the FD is satisfied by *relation*.

        With ``treat_null_as_value=False`` tuples containing a NULL in the
        LHS are skipped (they can never witness a violation).
        """
        self.validate_against(relation)
        split = self._split_classes(relation)
        if treat_null_as_value:
            return not split
        lhs_arrays = relation.columns.code_arrays(relation.schema.positions(self.lhs))
        return all(any(codes[group[0]] == NULL_CODE for codes in lhs_arrays)
                   for group in split)

    def violating_pairs(self, relation: Relation) -> list[tuple[int, int]]:
        """All (tid, tid) pairs violating the FD (each unordered pair once)."""
        self.validate_against(relation)
        rhs_arrays = relation.columns.code_arrays(relation.schema.positions(self.rhs))
        pairs: list[tuple[int, int]] = []
        for tids in self._split_classes(relation):
            by_rhs: dict[tuple[int, ...], list[int]] = {}
            for tid in tids:
                by_rhs.setdefault(tuple(codes[tid] for codes in rhs_arrays), []).append(tid)
            groups = list(by_rhs.values())
            for i, group in enumerate(groups):
                for other in groups[i + 1:]:
                    for tid_a in group:
                        for tid_b in other:
                            pairs.append((min(tid_a, tid_b), max(tid_a, tid_b)))
        return pairs

    def _split_classes(self, relation: Relation) -> list[list[int]]:
        """The classes of the LHS partition that carry two codes of an RHS attribute.

        A violating pair agrees on the LHS, so it lies inside one class of
        the stripped partition by the LHS; the classes come back in
        partition order (first occurrence, ascending tids).
        """
        # a module-level import would cycle through repro.discovery
        from repro.discovery.partitions import partition_of

        partition = partition_of(relation, self.lhs)
        store = relation.columns
        split = {group[0] for attribute in self.rhs
                 for group in partition.split_groups(store.column(attribute).codes)}
        return [group for group in partition.groups if group[0] in split]

    # -- dunder ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunctionalDependency):
            return NotImplemented
        return (self.relation_name.lower(), set(self.lhs), set(self.rhs)) == (
            other.relation_name.lower(), set(other.lhs), set(other.rhs))

    def __hash__(self) -> int:
        return hash((self.relation_name.lower(), frozenset(self.lhs), frozenset(self.rhs)))

    def __repr__(self) -> str:
        return f"{self.relation_name}: [{', '.join(self.lhs)}] -> [{', '.join(self.rhs)}]"


def closure(attributes: Iterable[str], fds: Sequence[FunctionalDependency]) -> set[str]:
    """Attribute closure of *attributes* under classical FDs (Armstrong rules)."""
    result = {a.lower() for a in attributes}
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if set(fd.lhs) <= result and not set(fd.rhs) <= result:
                result |= set(fd.rhs)
                changed = True
    return result


def implies(fds: Sequence[FunctionalDependency], candidate: FunctionalDependency) -> bool:
    """Classical FD implication via attribute closure."""
    relevant = [fd for fd in fds if fd.relation_name.lower() == candidate.relation_name.lower()]
    return set(candidate.rhs) <= closure(candidate.lhs, relevant)


def minimal_cover(fds: Sequence[FunctionalDependency]) -> list[FunctionalDependency]:
    """A minimal cover of *fds*: singleton RHS, no redundant FDs, reduced LHS."""
    singletons: list[FunctionalDependency] = []
    for fd in fds:
        singletons.extend(fd.decompose())

    # remove extraneous LHS attributes
    reduced: list[FunctionalDependency] = []
    for fd in singletons:
        lhs = list(fd.lhs)
        for attribute in list(lhs):
            if len(lhs) == 1:
                break
            trial = [a for a in lhs if a != attribute]
            if implies(singletons, FunctionalDependency(fd.relation_name, trial, fd.rhs)):
                lhs = trial
        reduced.append(FunctionalDependency(fd.relation_name, lhs, fd.rhs))

    # drop redundant FDs
    cover = list(dict.fromkeys(reduced))
    index = 0
    while index < len(cover):
        candidate = cover[index]
        rest = cover[:index] + cover[index + 1:]
        if implies(rest, candidate):
            cover = rest
        else:
            index += 1
    return cover
