import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnisched.errors import InvalidSpecError, RoutingError
from omnisched.moe import (
    ROUTE_CSV_FIELDS,
    GaussianLogitSource,
    MoEParamSpec,
    RouterConfig,
    aux_loss,
    bias_update,
    moe_param_counts,
    route_batch,
    route_topk,
    search_param_grid,
    simulate_routing,
)

from oracles import simulate_routing_reference

# dyadic rationals keep every addition exact, so a bias shift can neither
# create nor absorb score ties the way raw floats can
dyadic = st.integers(min_value=-5120, max_value=5120).map(lambda n: n / 1024)


class TestRouteTopk:
    def test_plain_argmax(self):
        idx, w = route_topk([2.0, 1.0, 0.5], [0.0, 0.0, 0.0], k=1)
        assert idx == [0]
        assert w == [1.0]

    def test_bias_flips_selection_not_weights(self):
        idx, w = route_topk([2.0, 1.0, 0.5], [0.0, 1.5, 0.0], k=1)
        assert idx == [1]
        assert w == [1.0]

    def test_tie_goes_to_lowest_index(self):
        idx, _ = route_topk([1.0, 1.0], [0.0, 0.0], k=1)
        assert idx == [0]

    def test_weights_from_original_logits(self):
        # bias large enough to change ranking inside the selected set is
        # irrelevant: weights use the raw logits of the selected experts
        logits = [1.0, 0.0, -1.0]
        idx, w = route_topk(logits, [0.0, 0.0, 5.0], k=2)
        assert set(idx) == {0, 2}
        expected = np.exp([1.0, -1.0])
        expected = expected / expected.sum()
        assert w[idx.index(0)] == pytest.approx(expected[0])

    def test_rejects_bad_input(self):
        with pytest.raises(RoutingError):
            route_topk([np.nan, 1.0], [0.0, 0.0], k=1)
        with pytest.raises(RoutingError):
            route_topk([1.0, 2.0], [0.0, 0.0], k=2)  # k must stay below E
        with pytest.raises(RoutingError):
            route_topk([1.0, 2.0, 3.0], [0.0, 0.0], k=1)

    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda e: st.tuples(
                st.lists(dyadic, min_size=e, max_size=e),
                st.lists(dyadic, min_size=e, max_size=e),
                st.integers(min_value=1, max_value=e - 1),
                dyadic,
            )
        )
    )
    @settings(max_examples=200)
    def test_invariants(self, case):
        logits, bias, k, shift = case
        idx, w = route_topk(logits, bias, k)
        # weights normalize and stay positive
        assert sum(w) == pytest.approx(1.0, abs=1e-12)
        assert all(x > 0 for x in w)
        # adding a constant to every bias never changes the selection
        idx2, w2 = route_topk(logits, [b + shift for b in bias], k)
        assert idx2 == idx
        # same selected set -> identical weights (bias is selection-only)
        assert w2 == w


class TestAuxLoss:
    def test_uniform_reaches_alpha(self):
        f = [0.25] * 4
        assert aux_loss(f, f, alpha=0.01) == pytest.approx(0.01, abs=1e-15)

    def test_fully_concentrated(self):
        v = [1.0, 0.0, 0.0, 0.0]
        assert aux_loss(v, v, alpha=0.01) == pytest.approx(0.04)

    def test_mixed_example(self):
        assert aux_loss([0.5, 0.5], [0.9, 0.1], alpha=1.0) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(RoutingError):
            aux_loss([0.5, 0.5], [1.0 / 3] * 3, alpha=1.0)

    def test_non_probability_rejected(self):
        with pytest.raises(RoutingError):
            aux_loss([0.9, 0.4], [0.5, 0.5], alpha=1.0)
        with pytest.raises(RoutingError):
            aux_loss([1.5, -0.5], [0.5, 0.5], alpha=1.0)

    @pytest.mark.parametrize("E", [2, 4, 8, 64])
    def test_lower_bound_on_cosorted_pairs(self, E):
        # load tracks router probability in practice, so the two vectors rank
        # experts the same way; under that coupling the loss is >= alpha.
        rng = np.random.default_rng(E)
        for _ in range(200):
            f = np.sort(rng.dirichlet(np.ones(E)))[::-1]
            pbar = np.sort(rng.dirichlet(np.ones(E)))[::-1]
            perm = rng.permutation(E)
            assert aux_loss(f[perm], pbar[perm], alpha=1.0) >= 1.0 - 1e-12


class TestBiasUpdate:
    def test_sign_rule(self):
        bias = np.zeros(2)
        new = bias_update(bias, [0.75, 0.25], u=0.01)
        assert new.tolist() == [-0.01, 0.01]
        assert bias.tolist() == [0.0, 0.0]  # a new array; the old bias is left as it was

    def test_uniform_load_leaves_bias(self):
        new = bias_update(np.zeros(4), [0.25] * 4, u=0.01)
        assert new.tolist() == [0.0] * 4

    def test_updates_accumulate(self):
        bias = np.zeros(2)
        for _ in range(2):
            bias = bias_update(bias, [0.75, 0.25], u=0.01)
        assert bias.tolist() == pytest.approx([-0.02, 0.02])

    def test_dimension_mismatch(self):
        with pytest.raises(RoutingError):
            bias_update(np.zeros(4), [0.5, 0.5], u=0.01)


class TestSimulateRouting:
    def test_cov_decreases_under_skew(self):
        config = RouterConfig(num_experts=8, top_k=2, bias_step=0.01)
        source = GaussianLogitSource([1.0] + [0.0] * 7, seed=5)
        run = simulate_routing(config, source, tokens_per_step=4096, steps=200)
        early = np.median(run["cov"][:10])
        late = np.median(run["cov"][150:200])
        assert late < 0.5 * early

    def test_zero_step_keeps_bias_flat(self):
        config = RouterConfig(num_experts=4, top_k=1, bias_step=0.0)
        source = GaussianLogitSource([0.5, 0.0, 0.0, 0.0], seed=2)
        run = simulate_routing(config, source, tokens_per_step=512, steps=20)
        assert run["bias"].shape == (20, 4)
        assert np.all(run["bias"] == 0.0)

    def test_symmetric_two_experts_stay_near_half(self):
        config = RouterConfig(num_experts=2, top_k=1, bias_step=0.01)
        source = GaussianLogitSource([0.0, 0.0], seed=11)
        run = simulate_routing(config, source, tokens_per_step=4096, steps=50)
        assert run["f"].shape == (50, 2)
        for f in run["f"]:
            assert 0.45 <= f[0] <= 0.55

    def test_deterministic_under_seed(self):
        config = RouterConfig(num_experts=8, top_k=2)

        def run():
            source = GaussianLogitSource([1.0] + [0.0] * 7, seed=9)
            return simulate_routing(config, source, tokens_per_step=256, steps=5)

        a, b = run(), run()
        assert np.array_equal(a["f"], b["f"])
        assert np.array_equal(a["bias"], b["bias"])

    def test_runs_on_one_source_are_the_same_run(self):
        # a source holds no generator: every run and every draw reads its
        # seeded stream from the start
        config = RouterConfig(num_experts=8, top_k=2)
        source = GaussianLogitSource([1.0] + [0.0] * 7, seed=9)
        first = source.draw(16)
        a = simulate_routing(config, source, tokens_per_step=256, steps=5)
        b = simulate_routing(config, source, tokens_per_step=256, steps=5)
        for name in a:
            assert np.array_equal(a[name], b[name])
        assert np.array_equal(source.draw(16), first)

    def test_report_vectors_are_probabilities(self):
        config = RouterConfig(num_experts=8, top_k=2)
        source = GaussianLogitSource([0.5] * 4 + [0.0] * 4, seed=1)
        run = simulate_routing(config, source, tokens_per_step=1024, steps=5)
        for f, pbar, cov in zip(run["f"], run["pbar"], run["cov"]):
            assert float(f.sum()) == pytest.approx(1.0, abs=1e-9)
            assert float(pbar.sum()) == pytest.approx(1.0, abs=1e-9)
            assert cov >= 0


class TestSimulateRoutingMatchesReference:
    """``simulate_routing`` (in-place scaling and softmax, the tie recount
    skipped when no row is over k) gives, bit for bit, what the loop with a
    fresh array per intermediate gives."""

    @staticmethod
    def assert_matches(num_experts, k, offsets, seed, std, tokens, steps):
        config = RouterConfig(num_experts=num_experts, top_k=k, aux_coefficient=0.02, bias_step=0.03)
        source = GaussianLogitSource(offsets, seed=seed, std=std)
        run = simulate_routing(config, source, tokens, steps)
        expected = simulate_routing_reference(k, 0.02, 0.03, offsets, seed, std, tokens, steps)
        assert list(run) == ROUTE_CSV_FIELDS[2:]
        assert len(run["cov"]) == len(expected) == steps
        for t, (f, pbar, bias, cov, aux) in enumerate(expected):
            assert np.array_equal(run["f"][t], f)
            assert np.array_equal(run["pbar"][t], pbar)
            assert np.array_equal(run["bias"][t], bias)
            assert run["cov"][t] == cov and run["aux_loss"][t] == aux

    @pytest.mark.parametrize("E,k,std", [(8, 2, 0.7), (16, 5, 2.5), (64, 8, 1.3)])
    def test_gaussian_logits(self, E, k, std):
        offsets = np.random.default_rng(E).normal(scale=0.5, size=E)
        self.assert_matches(E, k, offsets, seed=E + k, std=std, tokens=257, steps=6)

    @pytest.mark.parametrize("steps", [7, 8])
    def test_buffers_reused_over_steps(self, steps):
        # each of the two logit buffers serves several steps, and the run
        # ends on either one
        offsets = np.random.default_rng(5).normal(scale=0.5, size=64)
        self.assert_matches(64, 8, offsets, seed=11, std=1.0, tokens=2048, steps=steps)

    @pytest.mark.parametrize("E,k", [(4, 2), (8, 3), (12, 5), (64, 8)])
    def test_tied_logits(self, E, k):
        # noise far below the offsets' spacing leaves logits == offsets, so
        # experts sharing an offset tie in every row
        offsets = [float(i % 3) for i in range(E)]
        self.assert_matches(E, k, offsets, seed=k, std=1e-300, tokens=64, steps=5)

    @given(
        shape=st.integers(min_value=2, max_value=12).flatmap(
            lambda E: st.tuples(st.just(E), st.integers(min_value=1, max_value=E - 1))
        ),
        seed=st.integers(min_value=0, max_value=2**32),
        std=st.sampled_from([0.3, 1.0, 2.5, 1e-300]),
        offset_scale=st.sampled_from([0.0, 0.5, 1.0]),
        tokens=st.integers(min_value=1, max_value=40),
        steps=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_scenarios(self, shape, seed, std, offset_scale, tokens, steps):
        E, k = shape
        offsets = [offset_scale * (i % 4) for i in range(E)]
        self.assert_matches(E, k, offsets, seed, std, tokens, steps)

    def test_draw_matches_normal(self):
        offsets = np.linspace(-1.0, 2.0, 6)
        drawn = GaussianLogitSource(offsets, seed=4, std=1.7).draw(50)
        rng = np.random.Generator(np.random.PCG64(4))
        assert np.array_equal(drawn, rng.normal(0.0, 1.7, size=(50, 6)) + offsets)


class TestSimulateRoutingThread:
    """The helper thread that draws the next step's logits."""

    @staticmethod
    def route(std=1.0, steps=4):
        config = RouterConfig(num_experts=4, top_k=1)
        return simulate_routing(config, GaussianLogitSource([1.0, 0, 0, 0], seed=3, std=std), 16, steps)

    def test_no_thread_outlives_a_run(self):
        before = threading.active_count()
        self.route()
        assert threading.active_count() == before
        with pytest.raises(InvalidSpecError, match="column pbar"):
            self.route(std=1e308)
        assert threading.active_count() == before

    def test_draw_error_reaches_the_caller(self, monkeypatch):
        error = RuntimeError("draw failed")
        calls = []

        def fail_on_third(out):
            calls.append(out)
            if len(calls) == 3:
                raise error
            out.fill(0.0)
            return out

        monkeypatch.setattr(GaussianLogitSource, "_stream", lambda self: fail_on_third)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            self.route(steps=5)
        assert caught.value is error and len(calls) == 3
        assert threading.active_count() == before

    def test_concurrent_runs_under_a_short_switch_interval(self):
        # more runs than cores, each with its own helper thread, switching
        # threads as often as the interpreter allows
        offsets = [0.5, 0.0, 0.25, 0.0, 1.0, 0.0]
        config = RouterConfig(num_experts=6, top_k=2, aux_coefficient=0.02, bias_step=0.03)
        runs = {}

        def route(seed):
            runs[seed] = simulate_routing(config, GaussianLogitSource(offsets, seed=seed), 64, 9)

        threads = [threading.Thread(target=route, args=(seed,)) for seed in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed, run in runs.items():
            expected = simulate_routing_reference(2, 0.02, 0.03, offsets, seed, 1.0, 64, 9)
            for t, (f, pbar, bias, cov, aux) in enumerate(expected):
                assert np.array_equal(run["f"][t], f) and np.array_equal(run["pbar"][t], pbar)
                assert np.array_equal(run["bias"][t], bias)
                assert run["cov"][t] == cov and run["aux_loss"][t] == aux
        assert sorted(runs) == [0, 1, 2]


def test_load_accounting():
    config = RouterConfig(num_experts=8, top_k=2)
    bias = np.zeros(config.num_experts)
    rng = np.random.default_rng(0)
    for _ in range(5):
        counts = route_batch(bias, rng.normal(size=(100, 8)), config.top_k)
        assert int(counts.sum()) == config.top_k * 100


class TestRouteBatchMatchesRouteTopk:
    """``route_batch`` counts equal the summed one-token ``route_topk`` selections."""

    @staticmethod
    def summed_topk(logits, bias, k):
        counts = np.zeros(logits.shape[1], dtype=np.int64)
        for row in logits:
            idx, _ = route_topk(row, bias, k)
            counts[idx] += 1
        return counts

    @pytest.mark.parametrize("E,k", [(2, 1), (8, 2), (16, 5), (64, 8)])
    def test_random_float_logits(self, E, k):
        rng = np.random.default_rng(E * 100 + k)
        logits = rng.normal(size=(300, E))
        bias = rng.normal(scale=0.1, size=E)
        counts = route_batch(bias, logits, k)
        assert counts.tolist() == self.summed_topk(logits, bias, k).tolist()

    @pytest.mark.parametrize("E,k", [(2, 1), (4, 2), (8, 3), (64, 8)])
    def test_tied_integer_logits_go_to_lowest_index(self, E, k):
        rng = np.random.default_rng(E * 100 + k)
        logits = rng.integers(0, 3, size=(300, E)).astype(float)
        bias = np.zeros(E)
        counts = route_batch(bias, logits, k)
        assert counts.tolist() == self.summed_topk(logits, bias, k).tolist()
        # lowest-index rule, spelled out: the k largest (score, -index) pairs
        expected = np.zeros(E, dtype=np.int64)
        for row in logits:
            ranked = sorted(range(E), key=lambda i: (-row[i], i))
            expected[ranked[:k]] += 1
        assert counts.tolist() == expected.tolist()

    def test_all_scores_tied(self):
        counts = route_batch(np.zeros(6), np.ones((10, 6)), 2)
        assert counts.tolist() == [10, 10, 0, 0, 0, 0]


class TestParamCounts:
    def test_arithmetic(self):
        spec = MoEParamSpec(shared_params=1e9, per_expert_params=1e9, num_experts=9, top_k=2)
        total, activated = moe_param_counts(spec)
        assert total == pytest.approx(10e9)
        assert activated == pytest.approx(3e9)

    def test_dense_limit(self):
        spec = MoEParamSpec(shared_params=2e9, per_expert_params=0.5e9, num_experts=4, top_k=4)
        total, activated = moe_param_counts(spec)
        assert activated == total

    def test_grid_search_hits_known_targets(self):
        spec, terr, aerr = search_param_grid(100e9, 6.1e9)
        total, activated = moe_param_counts(spec)
        assert abs(total - 100e9) / 100e9 <= 0.05
        assert abs(activated - 6.1e9) / 6.1e9 <= 0.05
        assert spec.top_k < spec.num_experts <= 512
        assert terr <= 0.05 and aerr <= 0.05

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            MoEParamSpec(shared_params=0, per_expert_params=1, num_experts=2, top_k=1)
        with pytest.raises(InvalidSpecError):
            MoEParamSpec(shared_params=1, per_expert_params=1, num_experts=2, top_k=3)


def test_router_config_validation():
    with pytest.raises(InvalidSpecError):
        RouterConfig(num_experts=1, top_k=1)
    with pytest.raises(InvalidSpecError):
        RouterConfig(num_experts=4, top_k=4)
    with pytest.raises(InvalidSpecError):
        RouterConfig(num_experts=4, top_k=2, aux_coefficient=-0.1)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: RouterConfig(num_experts=4, top_k=2, aux_coefficient=NAN),
    lambda: RouterConfig(num_experts=4, top_k=2, aux_coefficient=INF),
    lambda: RouterConfig(num_experts=4, top_k=2, bias_step=NAN),
    lambda: RouterConfig(num_experts=4, top_k=2, bias_step=INF),
    lambda: GaussianLogitSource([0.0, 0.0], seed=1, std=NAN),
    lambda: GaussianLogitSource([0.0, 0.0], seed=1, std=INF),
    lambda: GaussianLogitSource([0.0, NAN], seed=1),
    lambda: GaussianLogitSource([-INF, 0.0], seed=1),
])
def test_non_finite_parameters_rejected(make):
    with pytest.raises(InvalidSpecError):
        make()
