"""BatchRepair and IncRepair against the repair postconditions.

Repairs may oscillate between interacting CFDs (the repair module
documents this), so convergence is not asserted: a run that stops at
``max_passes`` must only say so.  Relations use STRING attributes —
repairs write pattern constants and fresh ``__repair_fresh_*`` markers,
which typed columns would refuse.  The cost a repair reports is priced
with the definitions' own edit distance, which the bit-parallel kernel
must equal.
"""

from hypothesis import assume, given
from hypothesis import strategies as st

from oracle import definitions as oracle
from oracle.strategies import CELLS, oracle_settings, relations_with_cfds
from repro.matching.similarity import levenshtein_distance
from repro.relational.types import AttributeType
from repro.repair.batch_repair import BatchRepair
from repro.repair.cost import CostModel
from repro.repair.inc_repair import IncRepair

MAX_PASSES = 8


def cost_model(data, relation):
    """The default model, or one trusting some random cells more."""
    model = CostModel()
    for tid in data.draw(st.lists(st.sampled_from(relation.tids()), unique=True)
                         if len(relation) else st.just([])):
        model.set_weight(tid, data.draw(st.sampled_from(relation.schema.attribute_names)),
                         data.draw(st.sampled_from([0.5, 4.0])))
    return model


class TestBatchRepair:
    @given(relations_with_cfds(typed=False), st.sampled_from(BatchRepair.ORDERINGS),
           st.data())
    @oracle_settings(15)
    def test_postconditions(self, case, ordering, data):
        relation, cfds = case
        model = cost_model(data, relation)
        before = oracle.rows(relation)
        result = BatchRepair(relation, cfds, cost_model=model, ordering=ordering,
                             max_passes=MAX_PASSES).repair()
        oracle.assert_repair_postconditions(before, relation, cfds, result, model,
                                            MAX_PASSES)


class TestIncRepair:
    @given(relations_with_cfds(typed=False), st.data())
    @oracle_settings(15)
    def test_postconditions_on_a_clean_base(self, case, data):
        dirty, cfds = case
        base = BatchRepair(dirty, cfds, max_passes=MAX_PASSES).repair()
        assume(base.converged)
        relation = base.relation
        cells = st.sampled_from(CELLS[AttributeType.STRING])
        delta = [relation.insert([data.draw(cells) for _ in relation.schema.attributes])
                 for _ in range(data.draw(st.integers(1, 4)))]
        before = oracle.rows(relation)
        model = CostModel()
        result = IncRepair(relation, cfds, cost_model=model).repair_delta(delta)
        oracle.assert_inc_repair_postconditions(before, relation, cfds, delta, result,
                                                model)


#: a few letters, a non-ASCII one and an astral one; up to 150 characters,
#: so the kernel's bit vectors cross 64 bits
TEXTS = st.text(alphabet=st.sampled_from("abcé\U0001F600"), max_size=150)


@st.composite
def text_pairs(draw):
    left = draw(TEXTS)
    return left, draw(st.one_of(TEXTS, st.just(left), st.just("")))


class TestEditDistance:
    @given(text_pairs())
    @oracle_settings(300)
    def test_bit_parallel_kernel_equals_the_dynamic_program(self, pair):
        left, right = pair
        assert levenshtein_distance(left, right) == oracle.edit_distance(left, right)
        assert levenshtein_distance(right, left) == oracle.edit_distance(left, right)
