"""Incremental CFD violation detection.

Re-running full detection after every change is wasteful when updates are
small — one of the open problems the tutorial lists (§6(d)) and evaluated
by the incremental-detection experiments of Fan et al.  The idea: a CFD
violation can only appear or disappear inside the *group* of tuples that
agree on the embedded FD's LHS with an inserted or deleted tuple, so only
those groups need re-checking.

:class:`IncrementalCFDDetector` keeps, per embedded FD, a map
``group key → violations`` where the key is the dictionary-code LHS key;
the groups themselves are read off the relation's maintained LHS indexes
(:meth:`~repro.relational.columns.ColumnStore.index`), which the column
store keeps current under every mutation made through
:class:`~repro.relational.relation.Relation` — the detector never patches
an index itself, and :class:`~repro.repair.inc_repair.IncRepair` probes
the same indexes.  Pattern tableaux are compiled to code-level tests once
at construction and stay valid as the column store grows.
:meth:`insert_tuple`, :meth:`delete_tuple` and :meth:`update_cell`
re-check only the affected groups and return the violation delta.  A
re-check is one :meth:`~repro.detection.columnar.CompiledPattern.group_violates`
per pattern, and it does not rescan the group: the LHS constants are
tested on one tuple of the group, and the number of distinct
wildcard-RHS codes is the size of the group's tally, a per-bucket count
that the maintained index registers for the detector at build (the
build's one count of every bucket) and keeps current under every write
(see :meth:`~repro.relational.index.HashIndex.tally`).  A touched group
thus costs O(patterns), not O(group), and only a violating group has its
tids sorted (into the violation).  The
global report is always available via :meth:`current_report` and is kept
equal, as a multiset, to what full re-detection would produce (verified by
tests and by experiment E4); :meth:`recompute_full` is that re-detection,
on a fresh index that reads no tally.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping, Sequence

from repro.constraints.cfd import CFD, merge_cfds
from repro.constraints.violations import CFDViolation, ViolationReport
from repro.detection.cfd_detect import CFDDetector
from repro.detection.columnar import NULL_CODE, compile_tableau
from repro.relational.index import HashIndex
from repro.relational.relation import Relation


class IncrementalCFDDetector:
    """Maintains CFD violations of a relation under inserts, deletes and updates.

    Groups are read from the relation's maintained LHS indexes, so a tuple
    inserted through :class:`~repro.relational.relation.Relation` is
    already in its bucket before :meth:`notify_inserted` registers it (and
    a group re-checked in between sees it).  The order of
    :meth:`current_report` is not part of the contract: it equals full
    re-detection as a multiset of violations.
    """

    def __init__(self, relation: Relation, cfds: Sequence[CFD]) -> None:
        for cfd in cfds:
            cfd.validate_against(relation)
        self._relation = relation
        self._merged = merge_cfds(cfds)
        self._compiled = [compile_tableau(cfd, relation) for cfd in self._merged]
        # per merged CFD and pattern: the tally of its wildcard RHS on the
        # LHS index (None for a pattern without one), and the indexes the
        # tallies were registered on
        self._tallies: list[list[dict[tuple[Any, ...], Counter] | None]] = []
        self._tallied_on: list[HashIndex] = []
        # per merged CFD: encoded group key -> list of violations in that group
        self._group_violations: dict[int, dict[tuple[Any, ...], list[CFDViolation]]] = {}
        # single-tuple violations per merged CFD, keyed by tid
        self._single_violations: dict[int, dict[int, list[CFDViolation]]] = {}
        self._build()

    # -- initial build -----------------------------------------------------------

    def _indexes(self) -> list[HashIndex]:
        """The maintained LHS index of each merged CFD, fetched per call.

        Each pattern's wildcard-RHS tally is registered on its index; an
        index the store built anew (after ``drop_indexes``) gets them
        again.  Indexes compare by identity.
        """
        store = self._relation.columns
        indexes = [store.index(cfd.lhs) for cfd in self._merged]
        if indexes != self._tallied_on:
            self._tallies = [[index.tally(compiled.variable_rhs) if compiled.variable_rhs
                              else None for compiled in patterns]
                             for index, patterns in zip(indexes, self._compiled)]
            self._tallied_on = indexes
        return indexes

    def _build(self) -> None:
        for position, (cfd, index) in enumerate(zip(self._merged, self._indexes())):
            group_map: dict[tuple[Any, ...], list[CFDViolation]] = {}
            for key, tids in index.bucket_items():
                found = self._check_group(position, cfd, key, tids)
                if found:
                    group_map[key] = found
            self._group_violations[position] = group_map
            self._single_violations[position] = self._build_singles(position, cfd)

    def _build_singles(self, position: int, cfd: CFD) -> dict[int, list[CFDViolation]]:
        """The single-tuple violations of one merged CFD, selected a column at a time.

        Each tid's list keeps pattern order, and tids ascend, as a
        per-tid check would leave them.
        """
        tids = self._relation.tids()
        singles: dict[int, list[CFDViolation]] = {}
        for compiled in self._compiled[position]:
            for tid in compiled.single_violators(tids):
                singles.setdefault(tid, []).append(
                    CFDViolation(cfd, compiled.pattern, (tid,)))
        return dict(sorted(singles.items()))

    # -- checking helpers -----------------------------------------------------------

    def _check_single(self, position: int, cfd: CFD, tid: int) -> list[CFDViolation]:
        violations = []
        for compiled in self._compiled[position]:
            if not compiled.rhs_tests:
                continue
            if compiled.lhs_matches(tid) and not compiled.rhs_constants_match(tid):
                violations.append(CFDViolation(cfd, compiled.pattern, (tid,)))
        return violations

    def _check_group(self, position: int, cfd: CFD, key: tuple[Any, ...],
                     tids: set[int] | frozenset[int]) -> list[CFDViolation]:
        if len(tids) < 2 or NULL_CODE in key:
            return []
        # one test per pattern, read off the bucket's tally; a violation
        # sorts its tids
        return [CFDViolation(cfd, compiled.pattern, tuple(tids))
                for compiled, tally in zip(self._compiled[position], self._tallies[position])
                if tally is not None and compiled.group_violates(tids, tally[key])]

    # -- updates ------------------------------------------------------------------------

    def insert_tuple(self, values: Mapping[str, Any]) -> list[CFDViolation]:
        """Insert a new tuple into the relation and return the *new* violations."""
        tid = self._relation.insert_dict(values)
        return self._after_insert(tid)

    def notify_inserted(self, tid: int) -> list[CFDViolation]:
        """Register an externally inserted tuple (already in the relation)."""
        return self._after_insert(tid)

    def _after_insert(self, tid: int) -> list[CFDViolation]:
        self._relation.tuple(tid)  # an unknown tid raises
        new_violations: list[CFDViolation] = []
        for position, (cfd, index) in enumerate(zip(self._merged, self._indexes())):
            key = index.key_at(tid)
            singles = self._check_single(position, cfd, tid)
            if singles:
                self._single_violations[position][tid] = singles
                new_violations.extend(singles)
            previous = self._group_violations[position].get(key, [])
            current = self._check_group(position, cfd, key, index.bucket_view(key))
            if current:
                self._group_violations[position][key] = current
            else:
                self._group_violations[position].pop(key, None)
            new_violations.extend(v for v in current if v not in previous)
        return new_violations

    def delete_tuple(self, tid: int) -> list[CFDViolation]:
        """Delete a tuple and return the violations that *disappeared*."""
        self._relation.tuple(tid)  # an unknown tid raises before anything moves
        indexes = self._indexes()
        keys = [index.key_at(tid) for index in indexes]
        self._relation.delete(tid)
        removed: list[CFDViolation] = []
        for position, (cfd, index, key) in enumerate(zip(self._merged, indexes, keys)):
            gone_singles = self._single_violations[position].pop(tid, [])
            removed.extend(gone_singles)
            previous = self._group_violations[position].get(key, [])
            current = self._check_group(position, cfd, key, index.bucket_view(key))
            if current:
                self._group_violations[position][key] = current
            else:
                self._group_violations[position].pop(key, None)
            removed.extend(v for v in previous if v not in current)
        return removed

    def update_cell(self, tid: int, attribute: str, value: Any) -> list[CFDViolation]:
        """Update one cell; re-checks the tuple's old and new groups."""
        self._relation.tuple(tid)  # an unknown tid raises before anything moves
        indexes = self._indexes()
        old_keys = [index.key_at(tid) for index in indexes]
        self._relation.update(tid, attribute, value)
        changed: list[CFDViolation] = []
        for position, (cfd, index, old_key) in enumerate(zip(self._merged, indexes,
                                                             old_keys)):
            # re-check the old and new groups plus the tuple's single violations
            self._single_violations[position].pop(tid, None)
            singles = self._check_single(position, cfd, tid)
            if singles:
                self._single_violations[position][tid] = singles
                changed.extend(singles)
            for key in {old_key, index.key_at(tid)}:
                current = self._check_group(position, cfd, key, index.bucket_view(key))
                if current:
                    self._group_violations[position][key] = current
                    changed.extend(current)
                else:
                    self._group_violations[position].pop(key, None)
        return changed

    # -- reporting ------------------------------------------------------------------------

    def current_report(self) -> ViolationReport:
        """The full violation report reflecting all updates so far."""
        report = ViolationReport(self._relation.name, tuples_checked=len(self._relation))
        for position in range(len(self._merged)):
            for violations in self._single_violations[position].values():
                report.extend(violations)
            for violations in self._group_violations[position].values():
                report.extend(violations)
        return report

    def recompute_full(self) -> ViolationReport:
        """Full re-detection from scratch (the baseline incremental detection beats)."""
        return CFDDetector(self._relation, self._merged).detect()
