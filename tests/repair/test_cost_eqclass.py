"""Tests for the repair cost model and the equivalence-class structure."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RepairError
from repro.relational.columns import NULL_CODE
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL
from repro.repair.cost import CostModel
from repro.repair.eqclass import CodeEquivalenceClasses


class TestCostModel:
    def test_no_change_costs_nothing(self):
        model = CostModel()
        assert model.change_cost(0, "city", "edi", "edi") == 0.0

    def test_change_cost_uses_weight(self):
        model = CostModel()
        model.set_weight(0, "city", 2.0)
        base = CostModel().change_cost(0, "city", "edi", "ldn")
        assert model.change_cost(0, "city", "edi", "ldn") == pytest.approx(2 * base)

    def test_negative_weight_rejected(self):
        model = CostModel()
        with pytest.raises(ValueError):
            model.set_weight(0, "city", -1.0)
        with pytest.raises(ValueError):
            CostModel(default_weight=-0.1)

    def test_distance_is_normalized(self):
        model = CostModel()
        assert 0.0 <= model.distance("edinburgh", "x") <= 1.0
        assert model.distance(NULL, NULL) == 0.0
        assert model.distance("a", NULL) == 1.0


def _column(values, attribute="x"):
    """A dictionary-encoded column over one STRING attribute."""
    schema = RelationSchema("r", [Attribute(attribute)])
    relation = Relation.from_rows(schema, [[v] for v in values])
    return relation.columns.column(attribute)


class TestCodeLevelCost:
    def test_code_distance_matches_value_distance(self):
        model = CostModel()
        column = _column(["edi", "ldn", NULL])
        a, b = column.code_of("edi"), column.code_of("ldn")
        assert model.code_distance(column, a, b) == model.distance("edi", "ldn")
        assert model.code_distance(column, a, a) == 0.0
        assert model.code_distance(column, NULL_CODE, NULL_CODE) == 0.0
        assert model.code_distance(column, a, NULL_CODE) == model.distance("edi", NULL)

    def test_code_distance_is_memoised_per_model(self):
        calls = []

        def counting(left, right):
            calls.append((left, right))
            return 0.5

        model = CostModel(distance=counting)
        column = _column(["a", "b"])
        a, b = column.code_of("a"), column.code_of("b")
        assert model.code_distance(column, a, b) == 0.5
        assert model.code_distance(column, a, b) == 0.5
        # another column (say, a repair's working copy) decodes to the same
        # values and shares the model's memo; so does change_cost
        copy = _column(["b", "a"])
        assert model.code_distance(copy, copy.code_of("a"), copy.code_of("b")) == 0.5
        assert model.change_cost(0, "x", "a", "b") == 0.5
        assert len(calls) == 1  # every later call hits the model's memo

    def test_equal_codes_of_two_columns_keep_apart(self):
        model = CostModel()
        cities, streets = _column(["edi", "ldn"]), _column(["abc", "abd"])
        # both columns give their values codes 1 and 2: the memo keys values
        assert model.code_distance(cities, 1, 2) == pytest.approx(2 / 3)
        assert model.code_distance(streets, 1, 2) == pytest.approx(1 / 3)

    def test_integer_and_float_keep_apart(self):
        model = CostModel()
        # == values of different types print differently: 1/1 vs 1/3 edits
        assert model.distance(1, 2) == 1.0
        assert model.distance(1.0, 2.0) == pytest.approx(1 / 3)
        assert model.distance(1, 2) == 1.0
        # a FLOAT -0.0 prints with its sign: 2 edits of 4 vs 1 of 3
        assert model.distance(-0.0, 1.0) == 0.5
        assert model.distance(0.0, 1.0) == pytest.approx(1 / 3)
        assert model.distance(1, 1) == 0.0
        assert model.distance(True, 1) == 1.0  # "True" vs "1"

    def test_custom_distances_do_not_share_memos(self):
        column = _column(["a", "b"])
        a, b = column.code_of("a"), column.code_of("b")
        first = CostModel(distance=lambda left, right: 0.25)
        second = CostModel(distance=lambda left, right: 0.75)
        assert first.code_distance(column, a, b) == 0.25
        assert second.code_distance(column, a, b) == 0.75

    def test_subclass_override_does_not_poison_default_memo(self):
        class Overridden(CostModel):
            def distance(self, old_value, new_value):
                return 0.9

        column = _column(["edi", "ldn"])
        a, b = column.code_of("edi"), column.code_of("ldn")
        assert Overridden().code_distance(column, a, b) == 0.9
        model = CostModel()
        assert model.code_distance(column, a, b) == model.distance("edi", "ldn")

    def test_cheapest_target_code_prefers_majority(self):
        model = CostModel()
        values = ["edi", "edi", "ldn"]
        column = _column(values)
        cells = [(tid, column.code_of(value)) for tid, value in enumerate(values)]
        target_code, cost = model.cheapest_target_code("x", column, cells)
        assert column.value_of(target_code) == "edi"
        assert cost == pytest.approx(model.change_cost(2, "x", "ldn", "edi"))

    def test_cheapest_target_code_respects_weights(self):
        model = CostModel()
        model.set_weight(2, "x", 10.0)
        column = _column(["edi", "edi", "ldn"])
        cells = [(0, column.code_of("edi")), (1, column.code_of("edi")),
                 (2, column.code_of("ldn"))]
        target_code, _ = model.cheapest_target_code("x", column, cells)
        assert column.value_of(target_code) == "ldn"

    def test_cheapest_target_code_with_candidates(self):
        model = CostModel()
        column = _column(["edi", "mh"])
        cells = [(0, column.code_of("edi"))]
        target_code, _ = model.cheapest_target_code(
            "x", column, cells, candidates=[column.code_of("mh")])
        assert column.value_of(target_code) == "mh"

    def test_cheapest_target_code_empty_rejected(self):
        with pytest.raises(ValueError):
            CostModel().cheapest_target_code("x", _column(["a"]), [])

    @given(st.lists(st.sampled_from(["a", "b", "c", NULL]), min_size=1, max_size=20))
    def test_cheapest_target_code_is_optimal(self, values):
        model = CostModel()
        column = _column(values)
        cells = [(tid, column.codes[tid]) for tid in range(len(values))]
        target_code, cost = model.cheapest_target_code("x", column, cells)
        assert cost == pytest.approx(sum(
            model.change_cost(tid, "x", value, column.value_of(target_code))
            for tid, value in enumerate(values)))
        for candidate in set(column.codes[:len(values)]):
            assert cost <= model.code_target_cost("x", column, cells, candidate) + 1e-9

    @given(st.lists(st.tuples(st.sampled_from(["edi", "ldn", "nyc", "mh", NULL]),
                              st.floats(0.0, 8.0)), min_size=1, max_size=20),
           st.lists(st.integers(0, 19), max_size=6))
    def test_cheapest_target_code_equals_per_candidate_sums(self, weighted, picks):
        """Reading each cell's weight once picks the same (code, cost), to the
        bit, as pricing every candidate with code_target_cost."""
        model = CostModel()
        column = _column([value for value, _ in weighted])
        cells = [(tid, column.codes[tid]) for tid in range(len(weighted))]
        for tid, (_, weight) in enumerate(weighted):
            model.set_weight(tid, "x", weight)
        first_seen = list(dict.fromkeys(code for _, code in cells))
        explicit = [cells[pick % len(cells)][1] for pick in picks]
        for candidates, pool in ((None, first_seen), (explicit, explicit)):
            if not pool:
                continue
            expected = (NULL_CODE, float("inf"))
            for candidate in pool:
                cost = model.code_target_cost("x", column, cells, candidate)
                if cost < expected[1]:
                    expected = (candidate, cost)
            assert model.cheapest_target_code("x", column, cells, candidates) == expected


class TestCodeEquivalenceClasses:
    def test_cells_are_position_pairs(self):
        classes = CodeEquivalenceClasses()
        root = classes.add((0, 3))
        assert classes.find((0, 3)) == root
        assert classes.cells() == [(0, 3)]

    def test_pin_codes_and_conflict(self):
        classes = CodeEquivalenceClasses()
        classes.pin((0, 1), 7)
        assert classes.pinned_value((0, 1)) == 7
        with pytest.raises(RepairError):
            classes.pin((0, 1), 8)

    def test_pin_survives_union(self):
        classes = CodeEquivalenceClasses()
        classes.pin((0, 1), 7)
        classes.union((0, 1), (4, 1))
        assert classes.pinned_value((4, 1)) == 7

    def test_union_of_conflicting_codes_rejected(self):
        classes = CodeEquivalenceClasses()
        classes.pin((0, 1), 7)
        classes.pin((1, 1), 8)
        with pytest.raises(RepairError):
            classes.union((0, 1), (1, 1))

    def test_repin_same_code_allowed(self):
        classes = CodeEquivalenceClasses()
        classes.pin((0, 1), 7)
        classes.pin((0, 1), 7)
        assert classes.pinned_value((0, 1)) == 7

    def test_union_merges(self):
        classes = CodeEquivalenceClasses()
        classes.union((0, 1), (1, 1))
        assert classes.same_class((0, 1), (1, 1))
        assert not classes.same_class((0, 1), (2, 1))

    def test_union_is_transitive(self):
        classes = CodeEquivalenceClasses()
        classes.union((0, 1), (1, 1))
        classes.union((1, 1), (2, 1))
        assert classes.same_class((0, 1), (2, 1))
        assert classes.class_count() == 1

    def test_members_and_classes(self):
        classes = CodeEquivalenceClasses()
        classes.union((0, 1), (1, 1))
        classes.add((2, 0))
        assert sorted(classes.members((0, 1))) == [(0, 1), (1, 1)]
        assert classes.class_count() == 2
        assert len(classes) == 3
        assert sorted(map(sorted, classes.classes().values())) == \
            [[(0, 1), (1, 1)], [(2, 0)]]

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=40))
    def test_union_find_invariant(self, pairs):
        classes = CodeEquivalenceClasses()
        for a, b in pairs:
            classes.union((a, 0), (b, 0))
        # transitivity: representatives are consistent
        for a, b in pairs:
            assert classes.same_class((a, 0), (b, 0))
