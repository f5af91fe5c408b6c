"""Repairs checked against the repair postconditions.

``BatchRepair``/``IncRepair`` results must satisfy the postconditions of
:mod:`oracle.definitions` — input untouched, ``changes`` equal to an
independent diff, ``cost`` the sum of the change costs, only RHS (or
fresh-marker LHS) cells edited, and a converged result free of
violations — across E1-style dirty workloads, interacting CFDs and
weighted cost models.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import definitions as oracle
from repro.constraints.cfd import CFD
from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.repair.batch_repair import BatchRepair, Repair
from repro.repair.cost import CostModel
from repro.repair.inc_repair import IncRepair

MAX_PASSES = 25  # BatchRepair's default


def checked_repair(relation, cfds, cost_model=None, **kwargs) -> Repair:
    """Run BatchRepair and assert its postconditions."""
    model = cost_model or CostModel()
    before = oracle.rows(relation)
    result = BatchRepair(relation, cfds, cost_model=model, **kwargs).repair()
    oracle.assert_repair_postconditions(before, relation, cfds, result, model,
                                        kwargs.get("max_passes", MAX_PASSES))
    return result


def _customer_workload(size: int, rate: float = 0.06, seed: int = 11):
    generator = CustomerGenerator(seed=seed)
    clean = generator.generate(size)
    dirty = inject_noise(clean, rate=rate,
                         attributes=["street", "city"], seed=seed + 1).dirty
    return dirty, generator.canonical_cfds()


class TestBatchRepair:
    def test_customer_workload(self):
        dirty, cfds = _customer_workload(300)
        result = checked_repair(dirty, cfds)
        assert result.changes  # the workload is actually dirty
        assert result.converged

    def test_arbitrary_ordering(self):
        dirty, cfds = _customer_workload(200, seed=23)
        assert checked_repair(dirty, cfds, ordering="arbitrary").converged

    def test_weighted_cost_model(self):
        dirty, cfds = _customer_workload(200, seed=5)
        model = CostModel()
        model.set_weights({(tid, "street"): 8.0 for tid in list(dirty.tids())[::3]})
        assert checked_repair(dirty, cfds, cost_model=model).converged

    def test_conflicting_constants_break_lhs(self):
        schema = RelationSchema("r", [Attribute("a"), Attribute("b")])
        relation = Relation.from_dicts(schema, [{"a": "k", "b": "x"},
                                                {"a": "k", "b": "y"}])
        conflicting = [
            CFD.single("r", ["a"], ["b"], {"a": "k", "b": "v1"}),
            CFD.single("r", ["a"], ["b"], {"a": "k", "b": "v2"}),
        ]
        result = checked_repair(relation, conflicting)
        assert result.converged
        assert any(c.attribute == "a" and c.new_value.startswith(oracle.FRESH_PREFIX)
                   for c in result.changes)

    values = st.sampled_from(["a", "b", "c"])
    rows = st.lists(st.tuples(values, values, values), min_size=0, max_size=25)

    @given(rows)
    @settings(max_examples=25, deadline=None)
    def test_randomized_interacting_cfds(self, data):
        # cascading CFDs ([x]->[y] feeds [y]->[z]) plus a constant pattern:
        # the shape that exercises pins, group equalization and multi-pass
        # fixpoints together
        schema = RelationSchema("r", [Attribute("x"), Attribute("y"), Attribute("z")])
        relation = Relation.from_rows(schema, data)
        cfds = [CFD.single("r", ["x"], ["y"]),
                CFD.single("r", ["y"], ["z"]),
                CFD.single("r", ["x"], ["z"], {"x": "a", "z": "c"})]
        checked_repair(relation, cfds)


class TestIncRepair:
    def _delta_workload(self, base_size=150, delta_size=25, seed=9):
        generator = CustomerGenerator(seed=seed)
        clean = generator.generate(base_size + delta_size)
        cfds = generator.canonical_cfds()
        dirty = inject_noise(clean, rate=0.08,
                             attributes=["street", "city"], seed=seed + 1).dirty
        tids = dirty.tids()
        base_tids = set(tids[:base_size])
        base_only = dirty.filter(lambda t: t.tid in base_tids, name="customer")
        repaired_base = BatchRepair(base_only, cfds).repair().relation
        combined = repaired_base.copy(name="customer")
        delta_tids = [combined.insert(list(dirty.tuple(tid).values))
                      for tid in tids[base_size:]]
        return combined, cfds, delta_tids

    @staticmethod
    def checked_delta_repair(relation, cfds, delta_tids) -> Repair:
        """Run IncRepair on a clean base and assert its postconditions."""
        assert oracle.cfd_violations(relation.filter(lambda t: t.tid not in delta_tids,
                                                     name=relation.name), cfds) == []
        model = CostModel()
        before = oracle.rows(relation)
        result = IncRepair(relation, cfds, cost_model=model).repair_delta(delta_tids)
        oracle.assert_inc_repair_postconditions(before, relation, cfds, delta_tids,
                                                result, model)
        return result

    def test_delta_repair(self):
        combined, cfds, delta_tids = self._delta_workload()
        result = self.checked_delta_repair(combined, cfds, delta_tids)
        assert result.changes  # the delta is actually dirty
        assert result.converged

    def test_delta_group_equalization(self):
        # several delta tuples share an unseen LHS key and disagree: the
        # cost-minimal equalization moves the minority to the majority
        combined, cfds, _ = self._delta_workload(base_size=60, delta_size=0, seed=17)
        fresh = [{"cc": "44", "ac": "999", "phn": str(7000 + i), "name": f"n{i}",
                  "street": street, "city": "edi", "zip": "ZZ9"}
                 for i, street in enumerate(["high st", "high st", "low st"])]
        delta_tids = [combined.insert_dict(row) for row in fresh]
        result = self.checked_delta_repair(combined, cfds, delta_tids)
        assert [(c.tid, c.attribute, c.new_value) for c in result.changes] == \
            [(delta_tids[2], "street", "high st")]

