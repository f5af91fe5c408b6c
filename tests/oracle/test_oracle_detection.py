"""CFD and CIND detection against the definitions.

The reports are compared as multisets of ``(constraint, pattern, tids)``
fingerprints with what :mod:`oracle.definitions` derives from the rows
directly; report order is pinned separately (the repair's working-copy
detector against a fresh one, below).  SQL-generated detection runs
under every SQL engine configuration of the ``engine`` fixture.
"""

from collections import Counter

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oracle import definitions as oracle
from oracle.strategies import (
    CELLS,
    TYPED_CELLS,
    TYPED_IDS,
    databases_with_cinds,
    mutate,
    oracle_settings,
    relations,
    relations_with_cfds,
    typed_case,
)
from repro.constraints.cfd import CFD, merge_cfds
from repro.constraints.fd import FunctionalDependency
from repro.constraints.tableau import UNDERSCORE
from repro.detection.cfd_detect import CFDDetector, SQLCFDDetector
from repro.detection.cind_detect import CINDDetector
from repro.detection.incremental import IncrementalCFDDetector
from repro.errors import TypeMismatchError
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType, coerce_value
from repro.repair.batch_repair import _WorkingCopyDetector
from repro.repair.inc_repair import IncRepair

#: patterns differing only in a constant's type: "1" matches b=1, not b=1.0
TYPE_COLLISION = (
    Relation.from_rows(RelationSchema("r", ["a", "b", "c"]), [("x", "1", "y")]),
    [CFD.single("r", ["a"], ["b"], {"b": 1}), CFD.single("r", ["a"], ["b"], {"b": 1.0})],
)


def cfd_fingerprint(violations):
    return Counter((v.cfd, v.pattern, v.tids) for v in violations)


def cind_fingerprint(violations):
    return Counter((v.cind, v.tid) for v in violations)


def merged_fingerprint(violations):
    """Violations keyed by embedded FD, as detectors that merge tableaux report them."""
    keys = [(v.cfd.lhs, v.cfd.rhs, v.pattern, v.tids) for v in violations]
    assert len(keys) == len(set(keys))
    return set(keys)


def definition_by_embedded_fd(relation, cfds):
    return {(cfd.lhs, cfd.rhs, pattern, tids)
            for cfd, pattern, tids in oracle.cfd_violations(relation, cfds)}


class TestCFDDetection:
    @given(relations_with_cfds())
    @oracle_settings(20)
    def test_detector_matches_definition(self, case):
        relation, cfds = case
        report = CFDDetector(relation, cfds).detect()
        assert cfd_fingerprint(report) == Counter(oracle.cfd_violations(relation, cfds))

    @given(relations_with_cfds())
    @example(case=TYPE_COLLISION)
    @oracle_settings(12)
    def test_merged_tableaux_match_definition(self, case):
        relation, cfds = case
        report = CFDDetector(relation, merge_cfds(cfds)).detect()
        assert merged_fingerprint(report) == definition_by_embedded_fd(relation, cfds)

    @given(relations_with_cfds(), st.data())
    @oracle_settings(10)
    def test_reused_detector_follows_mutations(self, case, data):
        relation, cfds = case
        relation.columns  # the store exists before the mutations, so hooks maintain it
        detector = CFDDetector(relation, cfds)
        detector.detect()
        mutate(relation, data)
        assert cfd_fingerprint(detector.detect()) == \
            Counter(oracle.cfd_violations(relation, cfds))

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    @pytest.mark.parametrize("kind, cell, constant, matches", TYPED_CELLS, ids=TYPED_IDS)
    def test_typed_constant_matches_like_the_definition(self, side, kind, cell, constant,
                                                        matches):
        relation, cfds = typed_case(side, kind, cell, constant)
        expected = Counter(oracle.cfd_violations(relation, cfds))
        assert bool(expected) == (matches if side == "lhs" else not matches)
        assert cfd_fingerprint(CFDDetector(relation, cfds).detect()) == expected


def sql_detector(relation, cfds):
    database = Database()
    database.add(relation)
    return SQLCFDDetector(database, cfds)


class TestSQLCFDDetection:
    """The generated statements, matched back to tids, on each SQL engine."""

    @given(relations_with_cfds())
    @oracle_settings(20)
    def test_detector_matches_definition(self, engine, case):
        relation, cfds = case
        report = sql_detector(relation, cfds).detect()
        assert cfd_fingerprint(report) == Counter(oracle.cfd_violations(relation, cfds))

    @given(relations_with_cfds())
    @example(case=TYPE_COLLISION)
    @oracle_settings(12)
    def test_merged_tableaux_match_definition(self, engine, case):
        relation, cfds = case
        report = sql_detector(relation, merge_cfds(cfds)).detect()
        assert merged_fingerprint(report) == definition_by_embedded_fd(relation, cfds)

    @given(relations_with_cfds(), st.data())
    @oracle_settings(10)
    def test_reused_detector_follows_mutations(self, engine, case, data):
        relation, cfds = case
        relation.columns  # the store exists before the mutations, so hooks maintain it
        detector = sql_detector(relation, cfds)
        detector.detect()  # a pooled engine has broadcast the relation by now
        mutate(relation, data)
        assert cfd_fingerprint(detector.detect()) == \
            Counter(oracle.cfd_violations(relation, cfds))


#: values no generated cell holds, two per type so written tuples can meet
FRESH = {AttributeType.STRING: ("new", "newer"), AttributeType.INTEGER: (7, 8),
         AttributeType.FLOAT: (7.5, 8.5)}


def _coerces(value, kind):
    try:
        coerce_value(value, kind)
    except TypeMismatchError:
        return False
    return True


def repair_writes(relation, cfds, data):
    """Random writes as a repair pass makes them: RHS values, pattern
    constants (new to the dictionary, often) on either side, and fresh
    LHS values."""
    types = {a.name.lower(): a.type for a in relation.schema.attributes}
    constants = [cell for cfd in cfds for pattern in cfd.tableau
                 for cell in oracle.pattern_cells(pattern).values() if cell is not UNDERSCORE]
    for _ in range(data.draw(st.integers(1, 4))):
        cfd = data.draw(st.sampled_from(cfds))
        kind = data.draw(st.sampled_from(["rhs", "constant", "fresh"]))
        if kind == "rhs":
            attribute = data.draw(st.sampled_from(list(cfd.rhs)))
            pool = list(CELLS[types[attribute]])
        elif kind == "constant":
            attribute = data.draw(st.sampled_from(list(cfd.lhs + cfd.rhs)))
            pool = [c for c in constants if _coerces(c, types[attribute])]
        else:
            attribute = data.draw(st.sampled_from(list(cfd.lhs)))
            pool = list(FRESH[types[attribute]])
        if pool:
            relation.update(data.draw(st.sampled_from(relation.tids())), attribute,
                            data.draw(st.sampled_from(pool)))


class TestWorkingCopyDetection:
    """The repair's detector groups on maintained LHS indexes, whose buckets
    come in insertion order after writes; it still reports exactly what a
    fresh scan reports, in the same order — the order decides a repair pass."""

    @given(relations_with_cfds(), st.data())
    @oracle_settings(40)
    def test_detection_after_writes_equals_fresh_detection(self, case, data):
        relation, cfds = case
        assume(len(relation))
        merged = merge_cfds(cfds)
        detector = _WorkingCopyDetector(relation, merged)
        detector.detect()
        for _ in range(data.draw(st.integers(2, 3))):
            repair_writes(relation, cfds, data)
            report = detector.detect()
            fresh = CFDDetector(relation, merged).detect()
            assert [(v.cfd, v.pattern, v.tids) for v in report] == \
                [(v.cfd, v.pattern, v.tids) for v in fresh]
            assert merged_fingerprint(report) == definition_by_embedded_fd(relation, cfds)


class TestIncrementalDetection:
    @given(relations_with_cfds(), st.data())
    @oracle_settings(30)
    def test_maintained_report_matches_definition(self, case, data):
        relation, cfds = case
        incremental = IncrementalCFDDetector(relation, cfds)
        mutate(relation, data, steps=12, incremental=incremental)
        assert merged_fingerprint(incremental.current_report()) == \
            definition_by_embedded_fd(relation, cfds)

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    @pytest.mark.parametrize("kind, cell, constant, matches", TYPED_CELLS, ids=TYPED_IDS)
    def test_typed_constant_matches_like_the_definition(self, side, kind, cell, constant,
                                                        matches):
        relation, cfds = typed_case(side, kind, cell, constant)
        expected = definition_by_embedded_fd(relation, cfds)
        # built over the stored tuple: the column-at-a-time single check
        built = IncrementalCFDDetector(relation, cfds)
        assert merged_fingerprint(built.current_report()) == expected
        # inserted into an empty relation: the per-tuple check of a write
        empty = Relation(relation.schema)
        inserted = IncrementalCFDDetector(empty, cfds)
        tid = relation.tids()[0]
        returned = inserted.insert_tuple({name: relation.value(tid, name)
                                          for name in relation.schema.attribute_names})
        assert merged_fingerprint(returned) == expected
        assert oracle.rows(empty) == oracle.rows(relation)


class TestIncrementalWriteDeltas:
    """What each write returns: ``insert_tuple`` the violations the write
    added to the definition's report, ``delete_tuple`` those it took away
    (as multisets, on the merged CFDs the detector reports)."""

    @given(relations_with_cfds(), st.data())
    @oracle_settings(60)
    def test_insert_and_delete_return_the_report_delta(self, case, data):
        relation, cfds = case
        merged = merge_cfds(cfds)
        detector = IncrementalCFDDetector(relation, cfds)
        constants = [cell for cfd in cfds for pattern in cfd.tableau
                     for cell in oracle.pattern_cells(pattern).values()
                     if cell is not UNDERSCORE]
        # NULLs, cells already stored, values new to the dictionary and
        # pattern constants
        pools = {a.name: [c for c in CELLS[a.type] + FRESH[a.type] + tuple(constants)
                          if _coerces(c, a.type)]
                 for a in relation.schema.attributes}
        for _ in range(data.draw(st.integers(1, 10))):
            before = Counter(oracle.cfd_violations(relation, merged))
            tids = relation.tids()
            action = data.draw(st.sampled_from(["insert", "near-copy", "delete"]
                                               if tids else ["insert"]))
            if action == "delete":
                returned = detector.delete_tuple(data.draw(st.sampled_from(tids)))
                expected = before - Counter(oracle.cfd_violations(relation, merged))
                assert cfd_fingerprint(returned) == expected
                continue
            row = {name: data.draw(st.sampled_from(pool)) for name, pool in pools.items()}
            if action == "near-copy":  # joins a stored tuple's groups
                changed = data.draw(st.sampled_from(sorted(pools)))
                copied = relation.tuple(data.draw(st.sampled_from(tids)))
                row = {name: row[name] if name == changed else copied[name]
                       for name in pools}
            returned = detector.insert_tuple(row)
            expected = Counter(oracle.cfd_violations(relation, merged)) - before
            assert cfd_fingerprint(returned) == expected


def repair_summary(repair):
    changes = [(c.tid, c.attribute, c.old_value, c.new_value) for c in repair.changes]
    return changes, repair.cost, repair.passes, repair.converged


class TestSharedIndexes:
    """IncRepair and the incremental detector probing one relation's maintained
    LHS indexes, in update-stream's order: insert through ``Relation``,
    ``repair_delta``, ``notify_inserted``, ``update_cell``, ``delete_tuple``."""

    @given(relations_with_cfds(typed=False), st.data())
    @oracle_settings(15)
    def test_update_stream_batches(self, case, data):
        relation, cfds = case
        detector = IncrementalCFDDetector(relation, cfds)
        repair = IncRepair(relation, cfds)
        names = [a.lower() for a in relation.schema.attribute_names]
        cells = st.sampled_from(CELLS[AttributeType.STRING])
        for _ in range(data.draw(st.integers(1, 4))):
            delta = [relation.insert([data.draw(cells) for _ in names])
                     for _ in range(data.draw(st.integers(1, 3)))]
            # a copy has no index: its repair probes one built at first use
            twin = relation.copy()
            assert repair_summary(repair.repair_delta(delta)) == \
                repair_summary(IncRepair(twin, cfds).repair_delta(delta))
            assert oracle.rows(relation) == oracle.rows(twin)
            for tid in delta:
                detector.notify_inserted(tid)
            for _ in range(data.draw(st.integers(0, 2))):
                detector.update_cell(data.draw(st.sampled_from(relation.tids())),
                                     data.draw(st.sampled_from(names)), data.draw(cells))
            for tid in data.draw(st.lists(st.sampled_from(relation.tids()),
                                          max_size=2, unique=True)):
                detector.delete_tuple(tid)
            report = detector.current_report()
            assert cfd_fingerprint(report) == cfd_fingerprint(detector.recompute_full())
            assert merged_fingerprint(report) == definition_by_embedded_fd(relation, cfds)


class TestCINDDetection:
    @given(databases_with_cinds())
    @oracle_settings(15)
    def test_detector_matches_definition(self, case):
        database, cinds = case
        report = CINDDetector(database, cinds).detect()
        assert cind_fingerprint(report.violations) == \
            Counter(oracle.cind_violations(database, cinds))

    @given(databases_with_cinds(), st.data())
    @oracle_settings(8)
    def test_reused_detector_follows_mutations(self, case, data):
        database, cinds = case
        for relation in database:
            relation.columns
        detector = CINDDetector(database, cinds)
        detector.detect()
        mutate(database.relation(data.draw(st.sampled_from(["r", "s"]))), data)
        assert cind_fingerprint(detector.detect().violations) == \
            Counter(oracle.cind_violations(database, cinds))


class TestFunctionalDependency:
    """``holds_on`` in both NULL modes and ``violating_pairs``, before and
    after inserts, deletes and updates."""

    @given(relations(), st.data())
    @oracle_settings(40)
    def test_holds_on_and_violating_pairs_match_definition(self, relation, data):
        names = oracle.attributes_of(relation)
        lhs = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2,
                                 unique=True))
        rhs = data.draw(st.lists(st.sampled_from([n for n in names if n not in lhs]),
                                 min_size=1, max_size=2, unique=True))
        fd = FunctionalDependency(relation.name, lhs, rhs)

        def check():
            rows = oracle.rows(relation)
            pairs = fd.violating_pairs(relation)
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == oracle.fd_violating_pairs(rows, lhs, rhs)
            assert fd.holds_on(relation) == (not pairs)
            assert fd.holds_on(relation, treat_null_as_value=False) == (
                not oracle.fd_violating_pairs(rows, lhs, rhs, skip_null_lhs=True))

        check()
        mutate(relation, data)
        check()
