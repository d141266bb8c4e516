"""Acceptance suite: one test per shipped guarantee, each printing a
PASS line with its headline numbers. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import filecmp
import json
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

from omnisched import cli
from omnisched.memsim import events_from_batches, events_from_samples, simulate_allocator
from omnisched.moe import (
    GaussianLogitSource,
    RouterConfig,
    aux_loss,
    moe_param_counts,
    route_topk,
    search_param_grid,
    simulate_routing,
)
from omnisched.packing import pack_ffd
from omnisched.pipeline import MicroBatches, bubble_fraction_analytic, simulate_1f1b
from omnisched.sharding import ParallelLayout, StagePlan, naive_plan, plan_balanced_stages, plan_imbalance
from omnisched.workload import Modality, WorkloadTrace

from oracles import check_packing_columns, min_bins_exhaustive, onef1b_longest_path, partition_optimum


def plan_with_costs(costs):
    pp = len(costs)
    return StagePlan(
        layout=ParallelLayout(dp=1, pp=pp, tp=1),
        stage_cost=tuple(float(c) for c in costs),
        boundaries=tuple(range(1, pp + 1)),
    )


def trace_of(lengths):
    return WorkloadTrace(range(len(lengths)), [Modality.TEXT] * len(lengths), lengths)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"exceeded time budget: {self.elapsed:.2f}s >= {self.seconds}s"
            )
        return False


def test_criterion_1_bubble_formula_agreement():
    with Budget(5.0) as b:
        worst = 0.0
        for pp in range(1, 9):
            for m in range(1, 33):
                mbs = MicroBatches([1] * m, [1] * m)
                result = simulate_1f1b(plan_with_costs([1.0] * pp), mbs, backward_ratio=2.0)
                err = abs(result.bubble_fraction - bubble_fraction_analytic(pp, m))
                worst = max(worst, err)
        assert worst <= 1e-9
    print(f"\n[acceptance] criterion 1: PASS (max |sim - analytic| = {worst:.2e}, {b.elapsed:.2f}s)")


def test_criterion_2_schedule_matches_dag_oracle():
    with Budget(10.0) as b:
        rng = np.random.default_rng(20251103)
        for _ in range(200):
            pp = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            costs = rng.uniform(0.05, 10.0, size=pp)
            tokens = rng.integers(1, 100, size=m)
            beta = float(rng.uniform(0.5, 3.0))
            mbs = MicroBatches(tokens.tolist(), tokens.tolist())
            result = simulate_1f1b(plan_with_costs(costs), mbs, backward_ratio=beta)
            fwd = [[c * int(t) for t in tokens] for c in costs]
            bwd = [[beta * f for f in row] for row in fwd]
            assert result.makespan == onef1b_longest_path(pp, fwd, bwd)
    print(f"\n[acceptance] criterion 2: PASS (200 instances exact, {b.elapsed:.2f}s)")


def _check_packing_instance(lengths, capacity):
    batches, report = pack_ffd(trace_of(lengths), capacity)
    check_packing_columns(batches, range(len(lengths)))
    opt = min_bins_exhaustive(lengths, capacity)
    assert report.batch_count <= (11 / 9) * opt + 1
    return report.batch_count, opt


def test_criterion_3_packing_oracle():
    with Budget(30.0) as b:
        checked = 0
        # exhaustive small grid: every length multiset of size <= 4
        for capacity in (4, 6, 8, 12):
            for r in range(1, 5):
                for lengths in combinations_with_replacement(range(1, capacity + 1), r):
                    _check_packing_instance(list(lengths), capacity)
                    checked += 1
        # plus random instances up to 10 samples
        rng = np.random.default_rng(7)
        for _ in range(500):
            capacity = int(rng.integers(2, 13))
            n = int(rng.integers(1, 11))
            lengths = rng.integers(1, capacity + 1, size=n).tolist()
            _check_packing_instance(lengths, capacity)
            checked += 1
    print(f"\n[acceptance] criterion 3: PASS ({checked} instances within 11/9*OPT+1, {b.elapsed:.2f}s)")


def test_criterion_4_partition_oracle():
    with Budget(10.0) as b:
        rng = np.random.default_rng(41)
        for _ in range(500):
            n = int(rng.integers(1, 13))
            pp = int(rng.integers(1, min(n, 4) + 1))
            costs = [float(c) for c in rng.uniform(0.1, 10.0, size=n)]
            plan = plan_balanced_stages([], costs, ParallelLayout(1, pp, 1))
            opt, _ = partition_optimum(costs, pp)
            assert max(plan.stage_cost) == opt
            naive = naive_plan([], costs, ParallelLayout(1, pp, 1))
            assert plan_imbalance(plan) <= plan_imbalance(naive) + 1e-12
    print(f"\n[acceptance] criterion 4: PASS (500 instances optimal, {b.elapsed:.2f}s)")


def test_criterion_5_routing_balance_and_invariants():
    with Budget(60.0) as b:
        config = RouterConfig(num_experts=8, top_k=2, bias_step=0.01)
        offsets = [1.0] + [0.0] * 7  # magnitude-1 skew
        improved = 0
        for seed in range(20):
            source = GaussianLogitSource(offsets, seed=seed)
            run = simulate_routing(config, source, tokens_per_step=4096, steps=200)
            early = float(np.median(run["cov"][:10]))
            late = float(np.median(run["cov"][150:200]))
            if late < 0.5 * early:
                improved += 1
        assert improved >= 19

        rng = np.random.default_rng(5)
        for _ in range(100_000):
            E = int(rng.integers(2, 13))
            logits = rng.normal(size=E)
            bias = rng.normal(size=E)
            k = int(rng.integers(1, E))
            idx, w = route_topk(logits, bias, k)
            assert abs(sum(w) - 1.0) <= 1e-12
            assert all(x > 0 for x in w)
            idx2, w2 = route_topk(logits, bias + float(rng.normal()), k)
            assert idx2 == idx and w2 == w
    print(f"\n[acceptance] criterion 5: PASS ({improved}/20 seeds halve CoV; 1e5 routing calls clean, {b.elapsed:.2f}s)")


def test_criterion_6_aux_loss_analytic():
    for E in (2, 4, 8, 64):
        uniform = np.full(E, 1.0 / E)
        assert aux_loss(uniform, uniform, alpha=0.01) == 0.01
    rng = np.random.default_rng(6)
    # pairs ranked consistently, the regime the loss operates in
    for _ in range(10_000):
        E = int(rng.integers(2, 17))
        f = np.sort(rng.dirichlet(np.ones(E)))
        pbar = np.sort(rng.dirichlet(np.ones(E)))
        perm = rng.permutation(E)
        assert aux_loss(f[perm], pbar[perm], alpha=0.37) >= 0.37 - 1e-12
    print("\n[acceptance] criterion 6: PASS (uniform exact for E in {2,4,8,64}; 1e4 pairs >= alpha)")


def test_criterion_7_param_count_feasibility():
    with Budget(10.0) as b:
        spec, total_err, act_err = search_param_grid(100e9, 6.1e9, max_experts=512, max_k=16)
        total, activated = moe_param_counts(spec)
        assert abs(total - 100e9) / 100e9 <= 0.05
        assert abs(activated - 6.1e9) / 6.1e9 <= 0.05
    print(
        f"\n[acceptance] criterion 7: PASS (S={spec.shared_params:.2e}, Pe={spec.per_expert_params:.2e}, "
        f"E={spec.num_experts}, k={spec.top_k} -> total {total:.3e}, active {activated:.3e}, {b.elapsed:.2f}s)"
    )


def test_criterion_8_throughput_claim(tmp_path):
    with Budget(30.0) as b:
        assert cli.main(["reproduce", "--out", str(tmp_path / "run")]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        ratios = {label: doc["throughput_ratio"] for label, doc in summary["layouts"].items()}
        assert set(ratios) == {"1x4x1", "1x4x2"}
        for label, ratio in ratios.items():
            assert ratio > 2.0, f"layout {label} ratio {ratio} fails the 2.0 bar"
        assert summary["throughput_ratio_min"] > 2.0
    pretty = ", ".join(f"{k}: {v:.2f}x" for k, v in sorted(ratios.items()))
    print(f"\n[acceptance] criterion 8: PASS ({pretty}, {b.elapsed:.2f}s)")


def test_criterion_9_fragmentation_direction():
    rng = np.random.default_rng(9)
    lengths = rng.integers(1, 4097, size=320).tolist()
    trace = trace_of(lengths)

    varying = events_from_samples(trace, bytes_per_token=2, round_to=64)
    distinct_sizes = len(set(varying))
    baseline = simulate_allocator(varying, "exact_reuse_cache")
    assert baseline.fragmentation_ratio > 0
    assert baseline.new_blocks == distinct_sizes

    batches, _ = pack_ffd(trace, capacity=4096)
    packed = simulate_allocator(events_from_batches(batches, 2), "exact_reuse_cache")
    assert packed.fragmentation_ratio == 0.0
    assert packed.new_blocks == 1
    print(
        f"\n[acceptance] criterion 9: PASS (baseline frag {baseline.fragmentation_ratio:.3f} over "
        f"{distinct_sizes} sizes; packed frag 0.0 with 1 block)"
    )


def test_criterion_10_reproduce_determinism(tmp_path):
    a = tmp_path / "run_a"
    b = tmp_path / "run_b"
    assert cli.main(["reproduce", "--out", str(a)]) == 0
    assert cli.main(["reproduce", "--out", str(b)]) == 0
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    match, mismatch, errors = filecmp.cmpfiles(a, b, files_a, shallow=False)
    assert mismatch == [] and errors == []
    print(f"\n[acceptance] criterion 10: PASS ({len(match)} files byte-identical)")
