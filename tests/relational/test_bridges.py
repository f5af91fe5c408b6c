"""Unit tests for cross-relation dictionary bridges.

A :class:`~repro.relational.columns.DictionaryBridge` translates one
column's dictionary codes into another's — the substrate under
code-native joins and CIND anti-joins.  These tests cover the
translation semantics (value vs string mode, NULL, missing partners),
the per-column cache, and staleness: a bridge must rebuild whenever
*either* side's dictionary grows, and the mutation-then-join /
mutation-then-CIND regressions assert the end-to-end paths pick the
rebuilt translations up.
"""

import pytest

from oracle import definitions as oracle
from repro.constraints.cind import CIND
from repro.constraints.tableau import PatternTuple
from repro.detection.cind_detect import CINDDetector
from repro.relational.columns import (
    NO_PARTNER,
    NULL_CODE,
    Column,
    DictionaryBridge,
)
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.sql.engine import SQLEngine
from repro.relational.types import NULL, AttributeType


def column_from(values, name="x"):
    column = Column(name)
    for value in values:
        code = column.intern(value)
        column.codes.append(code)
        column.counts[code] += 1
    return column


class TestTranslation:
    def test_value_mode_maps_shared_values_and_marks_missing_ones(self):
        left = column_from(["a", "b", "c"])
        right = column_from(["c", "a"])
        bridge = left.bridge_to(right)
        assert bridge.translation[NULL_CODE] == NULL_CODE
        assert bridge.translation[left.code_of("b")] == NO_PARTNER
        for value in ("a", "c"):
            assert bridge.translation[left.code_of(value)] == right.code_of(value)

    def test_value_mode_distinguishes_types_string_mode_does_not(self):
        ints = column_from([1, 2])
        strs = column_from(["1", "2"])
        assert ints.bridge_to(strs).translation[ints.code_of(1)] == NO_PARTNER
        by_string = ints.bridge_to(strs, mode="string")
        assert by_string.translation[ints.code_of(1)] == strs.code_of("1")

    def test_string_self_bridge_canonicalises_to_the_first_code(self):
        column = column_from([1, "1", 2])
        canon = column.bridge_to(column, mode="string").translation
        assert canon[column.code_of("1")] == column.code_of(1)
        assert canon[column.code_of(1)] == column.code_of(1)
        assert canon[column.code_of(2)] == column.code_of(2)

    def test_bridges_are_cached_per_target_and_mode(self):
        left, right = column_from(["a"]), column_from(["a"])
        assert left.bridge_to(right) is left.bridge_to(right)
        assert left.bridge_to(right) is not left.bridge_to(right, mode="string")

    def test_unknown_mode_is_rejected(self):
        column = column_from(["a"])
        with pytest.raises(ValueError):
            DictionaryBridge(column, column, "fuzzy")


class TestStaleness:
    def test_source_dictionary_growth_extends_the_translation(self):
        left = column_from(["a"])
        right = column_from(["a", "b"])
        bridge = left.bridge_to(right)
        assert len(bridge.translation) == 2  # NULL + "a"
        left.intern("b")
        assert bridge.is_stale()
        assert left.bridge_to(right) is bridge and not bridge.is_stale()
        assert bridge.translation[left.code_of("b")] == right.code_of("b")

    def test_target_dictionary_growth_fills_missing_partners(self):
        left = column_from(["a", "b"])
        right = column_from(["a"])
        bridge = left.bridge_to(right)
        assert bridge.translation[left.code_of("b")] == NO_PARTNER
        right.intern("b")
        assert left.bridge_to(right).translation[left.code_of("b")] == right.code_of("b")


class TestComposition:
    def test_composed_bridge_chains_two_hops(self):
        a = column_from(["x", "y", "z"])
        b = column_from(["y", "z", "x"])
        c = column_from(["z", "x", "w"])
        composed = a.bridge_to(b).compose(b.bridge_to(c))
        assert composed.source is a and composed.target is c
        assert composed.translation[NULL_CODE] == NULL_CODE
        for value in ("x", "z"):
            assert composed.translation[a.code_of(value)] == c.code_of(value)
        # "y" survives the first hop but has no partner in c
        assert composed.translation[a.code_of("y")] == NO_PARTNER

    def test_no_partner_propagates_without_negative_indexing(self):
        # "q" is missing from the *intermediate* dictionary: the first hop
        # yields NO_PARTNER (-1), which must propagate — not index the
        # second hop's translation from the end
        a = column_from(["x", "q"])
        b = column_from(["x"])
        c = column_from(["x", "q"])
        composed = a.bridge_to(b).compose(b.bridge_to(c))
        assert composed.translation[a.code_of("q")] == NO_PARTNER
        assert composed.translation[a.code_of("x")] == c.code_of("x")

    def test_three_hop_chain_composes_left_to_right(self):
        a, b = column_from(["v", "u"]), column_from(["u", "v"])
        c, d = column_from(["v", "u", "t"]), column_from(["u", "t", "v"])
        composed = a.bridge_to(b).compose(b.bridge_to(c)).compose(c.bridge_to(d))
        assert len(composed.hops) == 3
        assert composed.source is a and composed.target is d
        for value in ("v", "u"):
            assert composed.translation[a.code_of(value)] == d.code_of(value)

    def test_mismatched_hops_are_rejected(self):
        a, b, c = column_from(["x"]), column_from(["x"]), column_from(["x"])
        with pytest.raises(ValueError):
            a.bridge_to(b).compose(a.bridge_to(c))  # b is not a's target... chain breaks

    def test_intermediate_growth_marks_the_chain_stale(self):
        a = column_from(["x", "y"])
        b = column_from(["x"])
        c = column_from(["x", "y"])
        composed = a.bridge_to(b).compose(b.bridge_to(c))
        assert composed.translation[a.code_of("y")] == NO_PARTNER
        b.intern("y")  # only the *middle* dictionary grows
        assert composed.is_stale()
        composed.ensure_fresh()
        assert not composed.is_stale()
        assert composed.translation[a.code_of("y")] == c.code_of("y")

    def test_endpoint_growth_marks_the_chain_stale(self):
        a = column_from(["x"])
        b = column_from(["x", "y"])
        c = column_from(["x", "y"])
        composed = a.bridge_to(b).compose(b.bridge_to(c))
        assert not composed.is_stale()
        a.intern("y")
        assert composed.is_stale()
        composed.ensure_fresh()
        assert composed.translation[a.code_of("y")] == c.code_of("y")
        c.intern("z")  # target-side growth also invalidates
        assert composed.is_stale()

    def test_translation_list_identity_survives_rebuilds(self):
        # in-place rebuild: broadcast state holding the list sees updates
        a = column_from(["x", "y"])
        b = column_from(["x", "y"])
        c = column_from(["x"])
        composed = a.bridge_to(b).compose(b.bridge_to(c))
        translation = composed.translation
        c.intern("y")
        composed.ensure_fresh()
        assert composed.translation is translation
        assert translation[a.code_of("y")] == c.code_of("y")


JOIN_SCHEMAS = (
    RelationSchema("orders", [Attribute("zip", AttributeType.STRING),
                              Attribute("amount", AttributeType.INTEGER)]),
    RelationSchema("zips", [Attribute("zip", AttributeType.STRING),
                            Attribute("region", AttributeType.STRING)]),
)


def join_database():
    database = Database()
    database.add(Relation.from_rows(JOIN_SCHEMAS[0],
                                    [("EH8", 10), ("NYC", 20), ("SFO", 30)]))
    database.add(Relation.from_rows(JOIN_SCHEMAS[1],
                                    [("EH8", "uk"), ("NYC", "us")]))
    return database


def rows(result):
    return [tuple(t.values) for t in result]


class TestMutationRegressions:
    def test_mutation_then_join_sees_the_new_codes(self):
        database = join_database()
        code = SQLEngine(database)
        sql = ("SELECT o.zip, z.region FROM orders o JOIN zips z "
               "ON o.zip = z.zip ORDER BY zip")
        assert rows(code.query(sql)) == oracle.select(database, sql)[2]
        assert code.last_plan == "join"
        # both dictionaries grow: the cached bridge must rebuild
        database.relation("orders").insert(("PEK", 40))
        database.relation("zips").insert(("PEK", "cn"))
        database.relation("zips").insert(("SFO", "us"))
        assert rows(code.query(sql)) == oracle.select(database, sql)[2]
        assert ("PEK", "cn") in rows(code.query(sql))

    def test_mutation_then_cind_sees_the_new_codes(self):
        database = join_database()
        cind = CIND("orders", ["zip"], "zips", ["zip"],
                    PatternTuple({}), PatternTuple({}))
        detector = CINDDetector(database, [cind])

        def tids():
            found = [v.tid for v in detector.detect().violations]
            assert found == [tid for _, tid in oracle.cind_violations(database, [cind])]
            return found

        assert tids() == [2]  # SFO has no zip row
        database.relation("zips").insert(("SFO", "us"))  # repairs tid 2
        database.relation("orders").insert((NULL, 50))   # NULL key: new violation
        assert tids() == [3]
