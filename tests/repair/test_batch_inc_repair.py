"""Tests for BatchRepair, IncRepair and repair-quality metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.cfd import CFD, merge_cfds
from repro.constraints.parse import parse_cfd
from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.detection.cfd_detect import CFDDetector, detect_cfd_violations
from repro.errors import RepairError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.repair.batch_repair import BatchRepair, repair_relation
from repro.repair.cost import CostModel
from repro.repair.inc_repair import IncRepair
from repro.repair.quality import evaluate_repair


CUSTOMER_SCHEMA = RelationSchema("customer", [
    Attribute("cc"), Attribute("ac"), Attribute("phn"),
    Attribute("city"), Attribute("zip"), Attribute("street"),
])

ROWS = [
    {"cc": "44", "ac": "131", "phn": "1111", "city": "edi", "zip": "EH8", "street": "mayfield"},
    {"cc": "44", "ac": "131", "phn": "2222", "city": "edi", "zip": "EH8", "street": "mayfield"},
    {"cc": "44", "ac": "131", "phn": "3333", "city": "ldn", "zip": "EH8", "street": "crichton"},
    {"cc": "01", "ac": "908", "phn": "4444", "city": "mh", "zip": "07974", "street": "mtn ave"},
    {"cc": "01", "ac": "908", "phn": "4444", "city": "nyc", "zip": "07974", "street": "mtn ave"},
]

CFDS = [
    parse_cfd("customer([cc='44', zip] -> [street])"),
    parse_cfd("customer([cc='44', zip] -> [city])"),
    parse_cfd("customer([cc='01', ac='908'] -> [city='mh'])"),
]


@pytest.fixture
def customer():
    return Relation.from_dicts(CUSTOMER_SCHEMA, ROWS)


class TestBatchRepair:
    def test_repair_produces_clean_relation(self, customer):
        result = BatchRepair(customer, CFDS).repair()
        assert result.converged
        assert detect_cfd_violations(result.relation, CFDS).is_clean()

    def test_repaired_copy_carries_no_index(self, customer):
        # the passes group on the copy's maintained indexes; the copy
        # handed back keeps none, like any other copy
        result = BatchRepair(customer, CFDS).repair()
        assert result.passes > 1
        assert "0 maintained indexes" in repr(result.relation.columns)

    def test_original_relation_untouched(self, customer):
        before = [t.as_dict() for t in customer]
        BatchRepair(customer, CFDS).repair()
        assert [t.as_dict() for t in customer] == before

    def test_majority_value_wins(self, customer):
        result = BatchRepair(customer, CFDS).repair()
        # two 'mayfield'/'edi' tuples vs one 'crichton'/'ldn' tuple: majority wins
        assert result.relation.value(2, "street") == "mayfield"
        assert result.relation.value(2, "city") == "edi"

    def test_constant_pattern_enforced(self, customer):
        result = BatchRepair(customer, CFDS).repair()
        assert result.relation.value(4, "city") == "mh"

    def test_changes_and_cost_recorded(self, customer):
        result = BatchRepair(customer, CFDS).repair()
        changed = result.changed_cells
        assert (2, "street") in changed and (4, "city") in changed
        assert result.cost > 0
        assert "changed" in result.summary()

    def test_clean_input_needs_no_changes(self, customer):
        clean_cfd = parse_cfd("customer([cc='86', zip] -> [street])")
        result = BatchRepair(customer, [clean_cfd]).repair()
        assert result.changes == [] and result.cost == 0 and result.converged

    def test_weights_steer_the_repair(self, customer):
        model = CostModel()
        # trust the 'crichton' cell a lot more than the 'mayfield' ones
        model.set_weight(2, "street", 25.0)
        model.set_weight(2, "city", 25.0)
        result = BatchRepair(customer, CFDS[:2], cost_model=model).repair()
        assert result.relation.value(0, "street") == "crichton"

    def test_ordering_option_validated(self, customer):
        with pytest.raises(RepairError):
            BatchRepair(customer, CFDS, ordering="nonsense")

    def test_both_orderings_produce_clean_repairs(self, customer):
        for ordering in BatchRepair.ORDERINGS:
            result = BatchRepair(customer, CFDS, ordering=ordering).repair()
            assert detect_cfd_violations(result.relation, CFDS).is_clean()

    def test_conflicting_constants_are_resolved_by_breaking_lhs(self):
        schema = RelationSchema("r", [Attribute("a"), Attribute("b")])
        relation = Relation.from_dicts(schema, [{"a": "k", "b": "x"}])
        conflicting = [
            CFD.single("r", ["a"], ["b"], {"a": "k", "b": "v1"}),
            CFD.single("r", ["a"], ["b"], {"a": "k", "b": "v2"}),
        ]
        result = BatchRepair(relation, conflicting).repair()
        assert detect_cfd_violations(result.relation, conflicting).is_clean()

    def test_interacting_cfds_cascade(self):
        schema = RelationSchema("r", [Attribute("a"), Attribute("b"), Attribute("c")])
        relation = Relation.from_dicts(schema, [
            {"a": "1", "b": "x", "c": "p"},
            {"a": "1", "b": "y", "c": "q"},
            {"a": "1", "b": "x", "c": "p"},
        ])
        cfds = [CFD.single("r", ["a"], ["b"]), CFD.single("r", ["b"], ["c"])]
        result = BatchRepair(relation, cfds).repair()
        assert detect_cfd_violations(result.relation, cfds).is_clean()

    def test_repair_relation_wrapper(self, customer):
        result = repair_relation(customer, CFDS)
        assert detect_cfd_violations(result.relation, CFDS).is_clean()

    values = st.sampled_from(["a", "b", "c"])
    rows = st.lists(st.tuples(values, values, values), min_size=0, max_size=25)

    @given(rows)
    @settings(max_examples=20, deadline=None)
    def test_repair_always_reaches_satisfaction(self, data):
        schema = RelationSchema("r", [Attribute("x"), Attribute("y"), Attribute("z")])
        relation = Relation.from_rows(schema, data)
        cfds = [CFD.single("r", ["x"], ["y"]),
                CFD.single("r", ["x"], ["z"], {"x": "a", "z": "c"})]
        result = BatchRepair(relation, cfds).repair()
        assert detect_cfd_violations(result.relation, cfds).is_clean()


class TestRepairQuality:
    def test_quality_on_generated_workload(self):
        generator = CustomerGenerator(seed=3)
        clean = generator.generate(300)
        cfds = generator.canonical_cfds()
        noise = inject_noise(clean, rate=0.03, attributes=["street", "city"], seed=5)
        result = BatchRepair(noise.dirty, cfds).repair()
        quality = evaluate_repair(clean, noise.dirty, result.relation)
        assert quality.errors > 0
        assert quality.recall > 0.5
        assert quality.precision > 0.5
        assert 0.0 <= quality.f1 <= 1.0

    def test_quality_perfect_when_nothing_to_do(self):
        generator = CustomerGenerator(seed=3)
        clean = generator.generate(50)
        quality = evaluate_repair(clean, clean.copy(), clean.copy())
        assert quality.precision == 1.0 and quality.recall == 1.0

    def test_schema_mismatch_rejected(self):
        generator = CustomerGenerator(seed=3)
        clean = generator.generate(10)
        other = Relation(RelationSchema("x", [Attribute("a")]))
        with pytest.raises(RepairError):
            evaluate_repair(clean, clean, other)


class TestIncRepair:
    def _workload(self, base_size=200, delta_size=20):
        generator = CustomerGenerator(seed=9)
        clean = generator.generate(base_size + delta_size)
        cfds = generator.canonical_cfds()
        noise = inject_noise(clean, rate=0.05, attributes=["street", "city"], seed=17)
        dirty = noise.dirty
        tids = dirty.tids()
        base_tids, delta_tids = tids[:base_size], tids[base_size:]
        # the base part is repaired up front (it plays the role of the clean DB)
        base_only = dirty.filter(lambda t: t.tid in set(base_tids), name="customer")
        repaired_base = BatchRepair(base_only, cfds).repair().relation
        combined = repaired_base.copy(name="customer")
        for tid in delta_tids:
            assert combined.insert(list(dirty.tuple(tid).values)) is not None
        return combined, cfds, clean

    def test_increpair_only_touches_delta(self):
        generator = CustomerGenerator(seed=9)
        clean = generator.generate(100)
        cfds = generator.canonical_cfds()
        base = BatchRepair(clean, cfds).repair().relation
        delta_tids = []
        delta_tids.append(base.insert_dict({
            "cc": "01", "ac": "908", "phn": "999", "name": "joe",
            "street": "elsewhere", "city": "nyc", "zip": "07974"}))
        before = {tid: base.tuple(tid).as_dict() for tid in base.tids() if tid not in delta_tids}
        result = IncRepair(base, cfds).repair_delta(delta_tids)
        for tid, row in before.items():
            assert base.tuple(tid).as_dict() == row
        assert all(change.tid in delta_tids for change in result.changes)

    def test_increpair_fixes_constant_violation(self):
        generator = CustomerGenerator(seed=9)
        clean = generator.generate(50)
        cfds = generator.canonical_cfds()
        base = BatchRepair(clean, cfds).repair().relation
        tid = base.insert_dict({
            "cc": "01", "ac": "908", "phn": "999", "name": "joe",
            "street": "mountain ave", "city": "boston", "zip": "07974"})
        IncRepair(base, cfds).repair_delta([tid])
        assert base.value(tid, "city") == "mh"

    def test_increpair_adopts_base_group_value(self):
        generator = CustomerGenerator(seed=9)
        clean = generator.generate(50)
        cfds = generator.canonical_cfds()
        base = BatchRepair(clean, cfds).repair().relation
        # find an existing UK zip and insert a delta tuple disagreeing on street
        uk_row = next(t for t in base if t["cc"] == "44")
        tid = base.insert_dict({
            "cc": "44", "ac": uk_row["ac"], "phn": "777", "name": "amy",
            "street": "wrong street", "city": uk_row["city"], "zip": uk_row["zip"]})
        IncRepair(base, cfds).repair_delta([tid])
        assert base.value(tid, "street") == uk_row["street"]

    def test_increpair_leaves_delta_clean(self):
        combined, cfds, _ = self._workload()
        delta_tids = combined.tids()[200:]
        result = IncRepair(combined, cfds).repair_delta(delta_tids)
        report = CFDDetector(combined, merge_cfds(cfds)).detect()
        assert not (report.violating_tids() & set(delta_tids))
        assert result.converged
