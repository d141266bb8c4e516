import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnisched.config import load_cost_model
from omnisched.errors import ConfigError, InvalidSpecError, TooFewLayersError, TooFewUnitsError
from omnisched.sharding import (
    EncoderSpec,
    ParallelLayout,
    StagePlan,
    build_units,
    naive_plan,
    plan_balanced_stages,
    plan_imbalance,
    unit_labels,
)
from omnisched.workload import Modality

from oracles import partition_optimum, plan_balanced_stages_reference


def encoder(costs, divisible=None, modality=Modality.TEXT):
    if divisible is None:
        divisible = [True] * len(costs)
    return EncoderSpec(modality=modality, unit_costs=tuple(costs), tp_divisible=tuple(divisible))


def layout(dp=1, pp=1, tp=1):
    return ParallelLayout(dp=dp, pp=pp, tp=tp)


class TestBalancedPlan:
    def test_reference_instance(self):
        # units [5,1,1,5] split best as [5,1 | 1,5]
        plan = plan_balanced_stages([encoder([5, 1, 1, 5])], [1.0], layout(pp=2))
        # oracle over all cut points agrees on the optimum
        opt, _ = partition_optimum([5, 1, 1, 5, 1], 2)
        assert max(plan.stage_cost) == opt == 7.0

    def test_reference_instance_encoders_only_shape(self):
        # the canonical 4-unit example, realized with llm layers as the units
        plan = plan_balanced_stages([], [5.0, 1.0, 1.0, 5.0], layout(pp=2))
        assert plan.boundaries == (2, 4)
        assert plan.stage_cost == (6.0, 6.0)

    def test_symmetric_split(self):
        plan = plan_balanced_stages([], [3.0, 3.0, 3.0, 3.0], layout(pp=2))
        assert plan.stage_cost == (6.0, 6.0)

    def test_single_stage_takes_everything(self):
        plan = plan_balanced_stages([encoder([2, 3])], [1.0, 1.0], layout(pp=1))
        assert plan.stage_cost == (7.0,)

    def test_too_few_units(self):
        with pytest.raises(TooFewUnitsError):
            plan_balanced_stages([encoder([1.0])], [1.0], layout(pp=3))

    def test_tp_divides_only_flagged_units(self):
        enc = encoder([4.0, 4.0], divisible=[True, False])
        plan = plan_balanced_stages([enc], [2.0, 2.0], layout(pp=1, tp=4))
        # 4/4 + 4 + 2/4 + 2/4 = 6.0
        assert plan.stage_cost == (6.0,)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        pp = int(rng.integers(1, min(n, 4) + 1))
        costs = [float(c) for c in rng.integers(1, 20, size=n)]
        plan = plan_balanced_stages([], costs, layout(pp=pp))
        opt, cuts = partition_optimum(costs, pp)
        assert max(plan.stage_cost) == opt
        assert plan.boundaries == cuts  # lexicographically smallest tie-break

    def test_contiguous_assignment(self):
        encs = [encoder([1, 2], modality=Modality.IMAGE), encoder([3], modality=Modality.AUDIO)]
        plan = plan_balanced_stages(encs, [1.0, 1.0, 1.0], layout(pp=3))
        labels = unit_labels(encs, [1.0, 1.0, 1.0])
        assert labels == ["image.0", "image.1", "audio.0", "llm.0", "llm.1", "llm.2"]
        assert plan.boundaries == (2, 3, 6)
        stages = [stage["units"] for stage in plan.to_dict(labels)["stages"]]
        assert stages == [["image.0", "image.1"], ["audio.0"], ["llm.0", "llm.1", "llm.2"]]


@st.composite
def cost_models(draw):
    """Encoders with mixed tp divisibility plus LLM layers, all costs either
    arbitrary floats or small integers full of ties, and a tp degree."""
    if draw(st.booleans()):
        cost = st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False)
    else:
        cost = st.integers(min_value=1, max_value=3).map(float)
    encs = []
    for modality in draw(st.lists(st.sampled_from(list(Modality)), max_size=3)):
        costs = draw(st.lists(cost, min_size=1, max_size=4))
        divisible = draw(st.lists(st.booleans(), min_size=len(costs), max_size=len(costs)))
        encs.append(encoder(costs, divisible, modality))
    llm = draw(st.lists(cost, min_size=1, max_size=12))
    return encs, llm, draw(st.integers(min_value=1, max_value=4))


@settings(max_examples=200, deadline=None)
@given(cost_models())
def test_balanced_plan_matches_loop_reference(model):
    # the vectorized DP must equal the plain-loop DP bit for bit, for every pp
    encs, llm, tp = model
    eff = [
        c / tp if div else c
        for e in encs
        for c, div in zip(e.unit_costs, e.tp_divisible)
    ] + [c / tp for c in llm]
    for pp in range(1, len(eff) + 1):
        plan = plan_balanced_stages(encs, llm, layout(pp=pp, tp=tp))
        boundaries, stage_cost = plan_balanced_stages_reference(eff, pp)
        assert plan.boundaries == boundaries
        assert plan.stage_cost == stage_cost


class TestNaivePlan:
    def test_reference_instance(self):
        encs = [encoder([6.0])]
        plan = naive_plan(encs, [1.0, 1.0, 1.0, 1.0], layout(pp=2))
        assert plan.stage_cost == (8.0, 2.0)

    def test_too_few_layers(self):
        with pytest.raises(TooFewLayersError):
            naive_plan([encoder([1.0])], [1.0], layout(pp=2))

    def test_pp1_matches_balanced_cost(self):
        encs = [encoder([2.0, 1.0])]
        llm = [1.0, 2.0]
        naive = naive_plan(encs, llm, layout(pp=1))
        balanced = plan_balanced_stages(encs, llm, layout(pp=1))
        assert naive.stage_cost == balanced.stage_cost

    def test_remainder_layers_go_early(self):
        plan = naive_plan([encoder([1.0])], [1.0] * 5, layout(pp=2))
        labels = unit_labels([encoder([1.0])], [1.0] * 5)
        stages = [stage["units"] for stage in plan.to_dict(labels)["stages"]]
        assert plan.boundaries == (4, 6)
        sizes = [sum(1 for u in stage if u.startswith("llm.")) for stage in stages]
        assert sizes == [3, 2]


class TestImbalance:
    def test_reference_values(self):
        def plan_with_costs(costs):
            return StagePlan(
                layout=layout(pp=len(costs)),
                stage_cost=tuple(costs),
                boundaries=tuple(range(1, len(costs) + 1)),
            )

        assert plan_imbalance(plan_with_costs([8.0, 2.0])) == pytest.approx(1.6)
        assert plan_imbalance(plan_with_costs([5.0, 5.0])) == 1.0
        assert plan_imbalance(plan_with_costs([6.0, 6.0, 6.0])) == 1.0

    @pytest.mark.parametrize("seed", range(25))
    def test_balanced_never_worse_than_naive(self, seed):
        rng = np.random.default_rng(1000 + seed)
        encs = [
            encoder(
                [float(c) for c in rng.uniform(0.2, 5.0, size=int(rng.integers(1, 5)))],
                modality=m,
            )
            for m in (Modality.TEXT, Modality.IMAGE)
        ]
        llm = [float(c) for c in rng.uniform(0.5, 2.0, size=int(rng.integers(4, 12)))]
        pp = int(rng.integers(1, 5))
        lay = layout(pp=pp, tp=int(rng.integers(1, 3)))
        balanced = plan_balanced_stages(encs, llm, lay)
        naive = naive_plan(encs, llm, lay)
        assert plan_imbalance(balanced) <= plan_imbalance(naive) + 1e-12


def test_tp_scaling_exact():
    enc = encoder([3.0, 6.0], divisible=[True, False])
    for k in (1, 2, 3, 4):
        assert build_units([enc], [2.0], k) == [3.0 / k, 6.0, 2.0 / k]


def test_layout_validation_and_parse():
    assert ParallelLayout.parse("2x4x8") == ParallelLayout(dp=2, pp=4, tp=8)
    with pytest.raises(ConfigError):
        ParallelLayout.parse("2x4")
    with pytest.raises(InvalidSpecError):
        ParallelLayout(dp=0, pp=1, tp=1)


def test_encoder_validation():
    with pytest.raises(InvalidSpecError):
        EncoderSpec(modality=Modality.TEXT, unit_costs=(), tp_divisible=())
    with pytest.raises(InvalidSpecError):
        EncoderSpec(modality=Modality.TEXT, unit_costs=(1.0,), tp_divisible=(True, False))
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidSpecError):
            EncoderSpec(modality=Modality.TEXT, unit_costs=(bad,), tp_divisible=(True,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
def test_non_finite_layer_cost_rejected(bad):
    # NaN passes a plain ``c <= 0`` check and would give a finite, wrong plan
    for planner in (plan_balanced_stages, naive_plan):
        with pytest.raises(InvalidSpecError):
            planner([encoder([1.0])], [1.0, bad, 1.0], layout(pp=2))


def test_cost_model_round_trip(tmp_path):
    doc = {
        "encoders": [
            {"modality": "image", "unit_costs": [1.0, 2.0], "tp_divisible": [False, True]},
            {"modality": "text", "unit_costs": [0.5]},
        ],
        "llm_layer_costs": [1.0, 1.0],
    }
    p = tmp_path / "cost.json"
    p.write_text(json.dumps(doc))
    encoders, layers = load_cost_model(p)
    assert encoders[0].modality is Modality.IMAGE
    assert encoders[0].tp_divisible == (False, True)
    assert encoders[1].tp_divisible == (True,)  # defaults to divisible
    assert layers == [1.0, 1.0]
    with pytest.raises(ConfigError):
        load_cost_model(tmp_path / "missing.json")
