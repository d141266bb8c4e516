import dataclasses
import io
import math
import re
import sys
import tempfile
import tokenize
import tracemalloc
import weakref
from array import array
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnisched import cli, pipeline
from omnisched.errors import EmptyMicrobatchError, InvalidSpecError
from omnisched.packing import pack_ffd, pack_padded
from omnisched.pipeline import (
    MicroBatches,
    bubble_fraction_analytic,
    compare_configs,
    microbatches_from_batches,
    simulate_1f1b,
    stage_op_order,
)
from omnisched.sharding import EncoderSpec, ParallelLayout, StagePlan
from omnisched.workload import Modality, WorkloadTrace, load_trace, save_trace

from oracles import (
    csv_bytes_reference,
    onef1b_longest_path,
    simulate_1f1b_reference,
    timeline_rows_reference,
)

def plan_with_costs(costs, dp=1, tp=1):
    pp = len(costs)
    return StagePlan(
        layout=ParallelLayout(dp=dp, pp=pp, tp=tp),
        stage_cost=tuple(float(c) for c in costs),
        boundaries=tuple(range(1, pp + 1)),
    )


def unit_microbatches(m):
    return MicroBatches([1] * m, [1] * m)


def microbatches_of(tokens):
    """Fully used microbatches of the given token counts."""
    tokens = [int(t) for t in tokens]
    return MicroBatches(tokens, tokens)


class TestSimulate1f1b:
    def test_uniform_matches_analytic_reference(self):
        result = simulate_1f1b(plan_with_costs([1.0] * 4), unit_microbatches(8), backward_ratio=1.0)
        assert result.bubble_fraction == pytest.approx(3 / 11, abs=1e-12)

    def test_single_stage_has_no_bubble(self):
        for m in (1, 3, 9):
            result = simulate_1f1b(plan_with_costs([2.5]), unit_microbatches(m))
            assert result.bubble_fraction == 0.0
            assert result.makespan == pytest.approx(result.ideal_time)

    def test_matches_dag_oracle_reference(self):
        # stage forwards [2,1], backwards [4,2], two microbatches
        plan = plan_with_costs([2.0, 1.0])
        result = simulate_1f1b(plan, unit_microbatches(2), backward_ratio=2.0)
        fwd = [[2.0, 2.0], [1.0, 1.0]]
        bwd = [[4.0, 4.0], [2.0, 2.0]]
        assert result.makespan == onef1b_longest_path(2, fwd, bwd)
        assert result.makespan == 13.0

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_dag_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        pp = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        costs = rng.uniform(0.1, 5.0, size=pp)
        tokens = rng.integers(1, 50, size=m)
        beta = float(rng.uniform(0.5, 3.0))
        comm = float(rng.choice([0.0, 0.3]))
        mbs = microbatches_of(tokens)
        result = simulate_1f1b(plan_with_costs(costs), mbs, backward_ratio=beta, comm_latency=comm)
        fwd = [[c * t for t in tokens] for c in costs]
        bwd = [[beta * f for f in row] for row in fwd]
        assert result.makespan == onef1b_longest_path(pp, fwd, bwd, comm)

    def test_work_conservation(self):
        rng = np.random.default_rng(7)
        costs = rng.uniform(0.5, 2.0, size=3)
        mbs = microbatches_of(rng.integers(1, 20, size=6))
        result = simulate_1f1b(plan_with_costs(costs), mbs, backward_ratio=2.0)
        expected = sum(3.0 * c * t for c in costs for t in mbs.tokens)  # f + 2f per (stage, mb)
        assert sum(result.stage_busy) == pytest.approx(expected, rel=1e-12)

    def test_makespan_monotone_in_microbatches(self):
        rng = np.random.default_rng(11)
        costs = rng.uniform(0.5, 2.0, size=4)
        tokens = rng.integers(1, 30, size=12)
        prev = 0.0
        for m in range(1, 13):
            mbs = microbatches_of(tokens[:m])
            result = simulate_1f1b(plan_with_costs(costs), mbs)
            assert result.makespan >= prev
            prev = result.makespan

    def test_uniform_bubble_positive_when_pp_gt_1(self):
        result = simulate_1f1b(plan_with_costs([1.0, 1.0, 1.0]), unit_microbatches(16))
        assert result.bubble_fraction > 0

    def test_deterministic(self):
        plan = plan_with_costs([1.0, 2.0])
        mbs = unit_microbatches(5)
        a = simulate_1f1b(plan, mbs)
        b = simulate_1f1b(plan, mbs)
        assert a == b

    def test_timeline_events_non_overlapping(self):
        rng = np.random.default_rng(3)
        costs = rng.uniform(0.2, 3.0, size=4)
        mbs = microbatches_of(rng.integers(1, 9, size=7))
        result = simulate_1f1b(plan_with_costs(costs), mbs)
        for starts, ends in zip(result.op_starts, result.op_ends):
            cursor = 0.0
            for start, end in zip(starts, ends):
                assert start >= cursor
                assert end > start
                cursor = end

    def test_empty_microbatch_error(self):
        with pytest.raises(EmptyMicrobatchError):
            simulate_1f1b(plan_with_costs([1.0]), unit_microbatches(0))

    def test_comm_latency_stretches_makespan(self):
        plan = plan_with_costs([1.0, 1.0])
        mbs = unit_microbatches(4)
        without = simulate_1f1b(plan, mbs, comm_latency=0.0)
        with_comm = simulate_1f1b(plan, mbs, comm_latency=0.5)
        assert with_comm.makespan > without.makespan


def assert_matches_reference(costs, tokens, beta, comm):
    """The recorded walk's every event, and each walk's busy times and
    makespan, equal the reference's exactly."""
    mbs = microbatches_of(tokens)
    plan = plan_with_costs(costs)
    timelines, busy, makespan = simulate_1f1b_reference(plan.stage_cost, tokens, beta, comm)
    pp, m = len(costs), len(tokens)
    for record in (True, False):
        result = simulate_1f1b(plan, mbs, beta, comm, record)
        if record:
            # exact float equality of every event, not approx
            got = [
                [("F", op, start, end) if op >= 0 else ("B", ~op, start, end)
                 for op, start, end in zip(stage_op_order(pp, s, m), result.op_starts[s], result.op_ends[s])]
                for s in range(pp)
            ]
            assert got == timelines
        else:
            assert result.op_starts == result.op_ends == ()
        assert result.stage_busy == busy
        assert result.makespan == makespan


SCHEDULE_CASES = dict(
    costs=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=9),
    tokens=st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=40),
    beta=st.floats(min_value=0.1, max_value=4.0),
    comm=st.sampled_from([0.0, 0.1, 0.3, 1.7]),
)


def summary_bits(result):
    """The result's summary numbers as ``float.hex`` strings: equal lists are
    equal bit for bit (``==`` would take -0.0 for 0.0)."""
    numbers = (result.makespan, result.ideal_time, result.bubble_fraction, result.idle_fraction,
               result.throughput, *result.stage_busy)
    return [float.hex(x) for x in numbers]


class TestMatchesDictReference:
    @given(**SCHEDULE_CASES)
    @example(costs=[1.3], tokens=[7], beta=2.0, comm=0.3)  # pp = m = 1
    @example(costs=[0.5, 2.0, 1.1, 0.7, 3.0], tokens=[4, 9], beta=1.5, comm=0.1)  # m < pp
    @example(costs=[1.0, 2.5, 0.3, 1.7], tokens=[3, 1, 4, 1], beta=2.0, comm=1.7)  # m = pp
    @example(costs=[0.9, 0.2, 2.2], tokens=[5, 2, 6, 3], beta=0.7, comm=0.3)  # m = pp + 1
    @settings(max_examples=200, deadline=None)
    def test_random_schedules(self, costs, tokens, beta, comm):
        assert_matches_reference(costs, tokens, beta, comm)

    @pytest.mark.parametrize("pp, m", [(1, 1), (1, 7), (5, 1), (5, 4), (4, 300), (16, 40)])
    def test_shapes(self, pp, m):
        rng = np.random.default_rng(pp * 1000 + m)
        costs = rng.uniform(0.05, 3.0, size=pp).tolist()
        tokens = rng.integers(1, 4097, size=m).tolist()
        assert_matches_reference(costs, tokens, 1.37, 0.25)

    def test_walk_order_matches_stage_op_order(self):
        # the walk's times, labelled by stage_op_order, against a reference
        # whose order comes from oracles.stage_sequence: any disagreement
        # between the walk and stage_op_order mislabels an op and fails here
        rng = np.random.default_rng(12)
        for pp in range(1, 9):
            for m in range(1, 13):
                costs = rng.uniform(0.05, 3.0, size=pp).tolist()
                tokens = rng.integers(1, 4097, size=m).tolist()
                assert_matches_reference(costs, tokens, float(rng.uniform(0.5, 2.5)), 0.3)


class TestUnrecordedWalk:
    """``record=False`` keeps no op times and changes no summary number."""

    @given(**SCHEDULE_CASES)
    @example(costs=[0.5, 2.0, 1.1, 0.7, 3.0], tokens=[4, 9, 2, 7, 7, 1, 3], beta=1.5, comm=0.0)
    @example(costs=[0.5, 2.0, 1.1, 0.7, 3.0], tokens=[4, 9, 2, 7, 7, 1, 3], beta=1.5, comm=0.3)
    @settings(max_examples=200, deadline=None)
    def test_same_summary_as_the_recorded_walk(self, costs, tokens, beta, comm):
        plan, mbs = plan_with_costs(costs), microbatches_of(tokens)
        recorded = simulate_1f1b(plan, mbs, beta, comm, True)
        unrecorded = simulate_1f1b(plan, mbs, beta, comm, False)
        assert summary_bits(unrecorded) == summary_bits(recorded)
        assert unrecorded == dataclasses.replace(recorded, op_starts=(), op_ends=())

    def test_timeline_rows_need_a_recorded_schedule(self):
        result = simulate_1f1b(plan_with_costs([1.0, 2.0]), unit_microbatches(3), 2.0, 0.0, False)
        with pytest.raises(InvalidSpecError, match="not recorded"):
            result.timeline_rows()

    def test_working_set_does_not_grow_with_m(self):
        # the whole call's peak traced bytes, nothing subtracted: without op
        # arrays, the walk keeps W ring slots and one busy time per stage
        def peak(m):
            plan = plan_with_costs([1.0, 0.5, 2.0, 1.5])
            mbs = microbatches_of(np.random.default_rng(m).integers(1, 4097, size=m))
            tracemalloc.start()
            try:
                simulate_1f1b(plan, mbs, 1.7, 0.3, False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40_000) - peak(20_000) < 256 * 1024


class TestPowerOfTwoScaling:
    """Stage costs and ``comm_latency`` times ``2**j``, every value normal:
    each time scales exactly, and each fraction is bit-identical (rounding
    commutes with a power-of-two scale in the normal range)."""

    @given(
        costs=SCHEDULE_CASES["costs"],
        tokens=st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=20),
        beta=SCHEDULE_CASES["beta"],
        comm=SCHEDULE_CASES["comm"],
        j=st.integers(min_value=-40, max_value=40),
        record=st.booleans(),
    )
    @example(costs=[1.3, 0.2, 2.7], tokens=[5, 1, 8, 3], beta=1.5, comm=0.3, j=-7, record=True)
    @example(costs=[1.3, 0.2, 2.7], tokens=[5, 1, 8, 3], beta=1.5, comm=0.3, j=9, record=False)
    @settings(max_examples=150, deadline=None)
    def test_times_scale_and_fractions_stay(self, costs, tokens, beta, comm, j, record):
        def times(r):
            return [r.makespan, r.ideal_time, *r.stage_busy, *(t for ops in r.op_starts + r.op_ends for t in ops)]

        scale = math.ldexp(1.0, j)
        mbs = microbatches_of(tokens)
        base = simulate_1f1b(plan_with_costs(costs), mbs, beta, comm, record)
        scaled = simulate_1f1b(plan_with_costs([c * scale for c in costs]), mbs, beta, comm * scale, record)
        assert [float.hex(t) for t in times(scaled)] == [float.hex(t * scale) for t in times(base)]
        assert float.hex(scaled.throughput) == float.hex(base.throughput / scale)
        assert float.hex(scaled.bubble_fraction) == float.hex(base.bubble_fraction)
        assert float.hex(scaled.idle_fraction) == float.hex(base.idle_fraction)
        assert len(scaled.op_starts) == (len(costs) if record else 0)


class TestDependencyRing:
    """The F and B finish times live in per-stage rings of W slots, W the
    smallest power of two >= pp; m far above W wraps each ring many times."""

    @pytest.mark.parametrize("comm", [0.0, 0.45])
    @pytest.mark.parametrize("pp", [1, 2, 4, 8, 16, 3, 5, 9, 17])
    def test_wrapping_ring_matches_reference(self, pp, comm):
        ring = 1 << (pp - 1).bit_length()
        rng = np.random.default_rng(pp * 10 + int(comm > 0))
        costs = rng.uniform(0.05, 3.0, size=pp).tolist()
        tokens = rng.integers(1, 4097, size=6 * ring + 3).tolist()
        assert_matches_reference(costs, tokens, 1.37, comm)  # recorded and unrecorded

    @pytest.mark.parametrize("comm", [0.0, 0.3])
    def test_wrapping_ring_makespan_is_the_longest_path(self, comm):
        # pp = 5 rounds up to a ring of 8 slots; 150 microbatches wrap it 18 times
        rng = np.random.default_rng(5)
        costs = rng.uniform(0.1, 5.0, size=5)
        tokens = rng.integers(1, 50, size=150)
        beta = 1.6
        fwd = [[c * t for t in tokens] for c in costs]
        bwd = [[beta * f for f in row] for row in fwd]
        for record in (True, False):
            result = simulate_1f1b(plan_with_costs(costs), microbatches_of(tokens), beta, comm, record)
            assert result.makespan == onef1b_longest_path(5, fwd, bwd, comm)

    def test_working_set_does_not_grow_with_m(self):
        # peak traced bytes of one call, less the op arrays it returns: the
        # dependency times take W slots per stage whatever m is
        def working_set(m):
            plan = plan_with_costs([1.0, 0.5, 2.0, 1.5])
            mbs = microbatches_of(np.random.default_rng(m).integers(1, 4097, size=m))
            tracemalloc.start()
            try:
                result = simulate_1f1b(plan, mbs, backward_ratio=1.7, comm_latency=0.3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - sum(map(sys.getsizeof, result.op_starts + result.op_ends))

        assert working_set(40_000) - working_set(20_000) < 256 * 1024


class TestGeneratedWalk:
    """Every tick runs in the walk generated per ``(pp, record, uniform)``:
    the steady tick pairs ``pp - 1 .. m - 1`` bare, the warm-up and drain
    pairs (every pair when ``m < pp``) with each op's range tested. The
    reference's every op time."""

    @given(
        data=st.data(),
        pp=st.integers(min_value=1, max_value=20),
        uniform=st.booleans(),
        beta=st.sampled_from([0.5, 1.0, 1.37, 2.0, 3.25]),
        comm=st.sampled_from([0.0, 0.0, 0.3, 1.7]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, data, pp, uniform, beta, comm):
        # m from no steady tick pair (m < pp) through one (m = pp) to many
        m = data.draw(st.one_of(st.sampled_from([1, max(pp - 2, 1), max(pp - 1, 1), pp, pp + 1, 3 * pp + 3]),
                                st.integers(min_value=1, max_value=3 * pp + 3)), label="m")
        costs = data.draw(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=pp, max_size=pp),
                          label="costs")
        width = st.integers(min_value=1, max_value=5000)
        tokens = ([data.draw(width, label="width")] * m if uniform
                  else data.draw(st.lists(width, min_size=m, max_size=m), label="tokens"))
        assert_matches_reference(costs, tokens, beta, comm)  # recorded and unrecorded

    def test_source_holds_only_integer_literals_and_fixed_names(self, monkeypatch):
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)

        pipeline._walk.cache_clear()
        monkeypatch.setattr(pipeline, "compile", spy, raising=False)
        try:
            # the last case, m < pp, meets the key of the one before it
            for pp, tokens in [(1, [77] * 3), (3, [5123, 9, 2, 8, 8]), (6, [4099] * 9), (6, [4095, 3] * 6),
                               (6, [4095, 3])]:
                plan = plan_with_costs([0.1 + 0.7 * s for s in range(pp)])
                for record in (True, False, True):  # a key met again compiles nothing
                    simulate_1f1b(plan, microbatches_of(tokens), 1.37, 0.3, record)
        finally:
            pipeline._walk.cache_clear()
        assert len(sources) == 8
        for source in sources:
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                assert token.type not in (tokenize.STRING, tokenize.ERRORTOKEN)
                if token.type == tokenize.NUMBER:
                    assert token.string.isdigit()
                if token.type == tokenize.NAME:
                    assert re.fullmatch(r"[a-z_]+[0-9]*", token.string)
            for text in ("0.1", "0.8", "1.37", "0.3", "77", "5123", "4099", "4095"):
                assert text not in source

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("uniform", [False, True])
    def test_source_grows_linearly_in_pp(self, monkeypatch, record, uniform):
        # the warm-up and drain are O(pp^2) ops: unrolled, they would show here
        lines = []

        def spy(source, *args):
            lines.append(source.count("\n"))
            return compile(source, *args)

        monkeypatch.setattr(pipeline, "compile", spy, raising=False)
        for pp in (16, 32):
            pipeline._walk.__wrapped__(pp, record, uniform)
        assert lines[1] <= 2.2 * lines[0]


class TestTickRule:
    """The walk's one tick rule: forward i of stage s at tick s + 2i, backward
    i at 2pp - 1 - s + 2i, in the op codes of ``stage_op_order``."""

    @staticmethod
    def tick(pp, s, op):
        return s + 2 * op if op >= 0 else 2 * pp - 1 - s + 2 * ~op

    @staticmethod
    def dependencies(pp, s, op):
        """The (stage, op) pairs whose finish times op reads from the rings."""
        if op >= 0:
            return [(s - 1, op)] if s > 0 else []
        return [(s, ~op)] + ([(s + 1, op)] if s < pp - 1 else [])

    @pytest.mark.parametrize("pp", range(1, 10))
    def test_ticks_order_each_stage_and_its_dependencies(self, pp):
        ring = 1 << (pp - 1).bit_length()
        for m in [*range(1, 14), 6 * ring + 3]:
            readers = {}  # (stage, op) -> ticks of the ops that read its finish time
            for s in range(pp):
                order = stage_op_order(pp, s, m)
                ticks = [self.tick(pp, s, op) for op in order]
                # sorting by tick gives the order, and each op follows the stage's previous one
                assert all(a < b for a, b in zip(ticks, ticks[1:]))
                forward_ticks = {t for t, op in zip(ticks, order) if op >= 0}
                assert forward_ticks.isdisjoint(t for t, op in zip(ticks, order) if op < 0)
                for op, t in zip(order, ticks):
                    for dep in self.dependencies(pp, s, op):
                        assert self.tick(pp, *dep) < t
                        readers.setdefault(dep, []).append(t)
            # op i + W of a stage overwrites op i's ring slot after its last reader
            for (s, op), reader_ticks in readers.items():
                i = op if op >= 0 else ~op
                if i + ring < m:
                    overwriter = op + ring if op >= 0 else op - ring
                    assert max(reader_ticks) < self.tick(pp, s, overwriter)


class TestScheduleResult:
    def test_equality_covers_op_times(self):
        result = simulate_1f1b(plan_with_costs([1.0, 2.0]), unit_microbatches(3))
        starts = list(result.op_starts)
        starts[1] = array("d", [t + 0.5 for t in starts[1]])
        shifted = dataclasses.replace(result, op_starts=tuple(starts))
        assert shifted.makespan == result.makespan
        assert shifted != result

    def test_timeline_rows_cover_makespan(self):
        result = simulate_1f1b(plan_with_costs([1.0, 3.0, 2.0]), unit_microbatches(4), comm_latency=0.2)
        lines = result.timeline_rows()
        assert all(line.endswith("\r\n") for line in lines)
        rows = [line[:-2].split(",") for line in lines]
        rows = [(int(s), kind, float(start), float(end), mb) for s, kind, start, end, mb in rows]
        for s in range(3):
            stage_rows = [r for r in rows if r[0] == s]
            assert stage_rows[0][2] == 0.0
            assert stage_rows[-1][3] == result.makespan
            assert all(a[3] == b[2] for a, b in zip(stage_rows, stage_rows[1:]))
            assert sum(r[1] != "idle" for r in stage_rows) == 8


TIMELINE_FIELDS = ["stage", "kind", "start", "end", "microbatch"]


def timeline_file_bytes(result):
    """The timeline CSV ``cli`` writes for ``result``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "timeline.csv"
        cli._write_csv(path, TIMELINE_FIELDS, result.timeline_rows())
        return path.read_bytes()


def simulate_case(costs, tokens, beta, comm):
    mbs = microbatches_of(tokens)
    return simulate_1f1b(plan_with_costs(costs), mbs, backward_ratio=beta, comm_latency=comm)


# tiny costs with comm_latency > 0: idle rows and exponent reprs such as 1e-05
IDLE_AND_EXPONENT_CASE = dict(costs=[1e-05, 3e-06, 2.5e-05], tokens=[1, 3], beta=1.37, comm=0.3)


class TestTimelineText:
    """Timeline CSV bytes equal ``csv.writer`` over the reference tuple rows."""

    @given(
        costs=st.lists(
            st.one_of(st.floats(min_value=0.01, max_value=10.0), st.floats(min_value=1e-8, max_value=1e-4)),
            min_size=1, max_size=6,
        ),
        tokens=st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=20),
        beta=st.floats(min_value=0.1, max_value=4.0),
        comm=st.sampled_from([0.0, 0.1, 0.3, 1.7]),
    )
    @example(costs=[1e-05], tokens=[1], beta=2.0, comm=0.0)  # pp = m = 1, exponent reprs
    @example(**IDLE_AND_EXPONENT_CASE)
    @settings(max_examples=200, deadline=None)
    def test_file_bytes_match_csv_writer(self, costs, tokens, beta, comm):
        result = simulate_case(costs, tokens, beta, comm)
        expected = csv_bytes_reference(TIMELINE_FIELDS, timeline_rows_reference(result))
        assert timeline_file_bytes(result) == expected

    def test_idle_and_exponent_case_has_both(self):
        text = timeline_file_bytes(simulate_case(**IDLE_AND_EXPONENT_CASE)).decode()
        assert ",idle," in text and "e-05" in text


class TestAnalyticBubble:
    def test_values(self):
        assert bubble_fraction_analytic(4, 8) == pytest.approx(3 / 11)
        assert bubble_fraction_analytic(1, 5) == 0.0
        assert bubble_fraction_analytic(4, 1) == pytest.approx(3 / 4)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidSpecError):
            bubble_fraction_analytic(0, 5)


class TestThroughput:
    def test_arithmetic(self):
        result = simulate_1f1b(plan_with_costs([1.0]), microbatches_of([50]))
        # makespan = 50 * (1 + 2)
        assert result.makespan == 150.0
        assert result.throughput == pytest.approx(50 / 150)
        wide = simulate_1f1b(plan_with_costs([1.0], dp=4), microbatches_of([50]))
        assert wide.throughput == pytest.approx(4 * 50 / 150)

    def test_padding_halves_throughput_at_equal_makespan(self):
        plan = plan_with_costs([1.0, 1.0])
        padded = MicroBatches([20, 20], [10, 10])
        full = microbatches_of([20, 20])
        r_padded = simulate_1f1b(plan, padded)
        r_full = simulate_1f1b(plan, full)
        assert r_padded.makespan == r_full.makespan
        assert r_padded.throughput == pytest.approx(r_full.throughput / 2)


def small_trace(seed, n=40, max_len=32):
    rng = np.random.default_rng(seed)
    mods = list(Modality)
    drawn = [(mods[int(rng.integers(0, 4))], int(rng.integers(1, max_len + 1))) for _ in range(n)]
    return WorkloadTrace(range(n), *zip(*drawn))


def cost_model():
    encoders = [
        EncoderSpec(Modality.IMAGE, (1.0, 1.0, 1.0), (False, True, True)),
        EncoderSpec(Modality.AUDIO, (0.5, 0.5), (True, True)),
    ]
    return encoders, [1.0] * 8


class TestCompareConfigs:
    def test_identical_policy_ratio_is_one(self):
        encoders, llm = cost_model()
        row, = compare_configs(
            small_trace(0), 32, encoders, llm,
            [ParallelLayout(1, 2, 1)],
            packing_policies=("padded",), plan_policies=("naive",),
        )
        assert (row["layout"], row["packing_policy"], row["plan_policy"]) == ("1x2x1", "padded", "naive")
        assert row["ratio_vs_baseline"] == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_balanced_cell_dominates_naive_cell(self, seed):
        encoders, llm = cost_model()
        rows = compare_configs(
            small_trace(seed), 32, encoders, llm,
            [ParallelLayout(1, 2, 1), ParallelLayout(1, 4, 1)],
            packing_policies=("ffd",), plan_policies=("naive", "balanced"),
        )
        cells = {(r["layout"], r["packing_policy"], r["plan_policy"]): r for r in rows}
        assert len(cells) == len(rows) == 4
        for layout in ("1x2x1", "1x4x1"):
            naive = cells[layout, "ffd", "naive"]
            balanced = cells[layout, "ffd", "balanced"]
            assert naive["ratio_vs_baseline"] <= balanced["ratio_vs_baseline"] + 1e-12

    def test_dp_scales_throughput_linearly(self):
        encoders, llm = cost_model()
        trace = small_trace(5)
        rows = {}
        for dp in (1, 4):
            row, = compare_configs(
                trace, 32, encoders, llm, [ParallelLayout(dp, 2, 1)],
                packing_policies=("ffd",), plan_policies=("balanced",),
            )
            rows[dp] = row["throughput"]
        assert rows[4] == pytest.approx(4 * rows[1])

    def test_packs_each_policy_once_across_layouts(self, monkeypatch):
        from omnisched import packing

        packed, converted = [], []
        for name, fn in list(packing.POLICIES.items()):
            monkeypatch.setitem(
                packing.POLICIES, name,
                lambda trace, capacity, fn=fn, name=name: packed.append(name) or fn(trace, capacity),
            )
        to_mbs = pipeline.microbatches_from_batches
        monkeypatch.setattr(
            pipeline, "microbatches_from_batches", lambda batches: converted.append(1) or to_mbs(batches)
        )
        encoders, llm = cost_model()
        compare_configs(
            small_trace(1), 32, encoders, llm,
            [ParallelLayout(1, 2, 1), ParallelLayout(1, 4, 1), ParallelLayout(2, 2, 1)],
            packing_policies=("padded", "ffd"), plan_policies=("naive", "balanced"),
        )
        assert sorted(packed) == ["ffd", "padded"] and len(converted) == 2

    def test_simulates_the_requested_cells_and_the_baseline(self, monkeypatch):
        simulated = []
        simulate = pipeline.simulate_1f1b
        monkeypatch.setattr(
            pipeline, "simulate_1f1b", lambda plan, *rest: simulated.append(plan.layout.label()) or simulate(plan, *rest)
        )
        encoders, llm = cost_model()
        rows = compare_configs(
            small_trace(2), 32, encoders, llm, [ParallelLayout(1, 2, 1), ParallelLayout(1, 4, 1)],
            packing_policies=("ffd",), plan_policies=("balanced",),
        )
        assert len(rows) == 2
        # per layout, the one requested cell, then the baseline: not the 2 x 2
        # product of the requested and the baseline policies
        assert simulated == ["1x2x1", "1x2x1", "1x4x1", "1x4x1"]


COSTS = st.lists(st.floats(min_value=0.05, max_value=8.0), min_size=1, max_size=4)


@given(
    encoder_costs=st.lists(COSTS, min_size=1, max_size=3),
    divisible=st.lists(st.booleans(), min_size=4, max_size=4),
    llm=st.lists(st.floats(min_value=0.05, max_value=8.0), min_size=4, max_size=10),
    layouts=st.lists(st.tuples(st.integers(1, 2), st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=3,
                     unique=True),
    beta=st.floats(min_value=0.5, max_value=3.0),
    comm=st.sampled_from([0.0, 0.3]) | st.floats(min_value=0.01, max_value=2.0),
    seed=st.integers(0, 2**16),
    j=st.integers(min_value=-40, max_value=40),
)
@example(encoder_costs=[[1.0, 1.0, 1.0], [0.5, 0.5]], divisible=[False, True, True, True], llm=[1.0] * 8,
         layouts=[(1, 2, 1), (1, 4, 2)], beta=2.0, comm=0.0, seed=1, j=-40)
@settings(max_examples=60, deadline=None)
def test_cost_scaling_through_compare_configs(encoder_costs, divisible, llm, layouts, beta, comm, seed, j):
    """Every unit cost, LLM layer cost and ``comm_latency`` times ``2**j``,
    every value normal: the planners cut at the same boundaries, stage costs
    and makespans scale by ``2**j`` and throughputs by ``2**-j``, and every
    other column of each row is bit-identical."""
    scale = math.ldexp(1.0, j)

    def compare(factor):
        encoders = [EncoderSpec(modality, tuple(c * factor for c in costs), tuple(divisible[:len(costs)]))
                    for modality, costs in zip(Modality, encoder_costs)]
        plans = []

        def cell(key, plan, *simulation):  # a plan as the cell function receives it
            plans.append(plan)
            return pipeline.simulate_cell(key, plan, *simulation)

        rows = compare_configs(small_trace(seed), 32, encoders, [c * factor for c in llm],
                               [ParallelLayout(*layout) for layout in layouts], backward_ratio=beta,
                               comm_latency=comm * factor, cell=cell)
        return rows, plans

    (rows, plans), (scaled_rows, scaled_plans) = compare(1.0), compare(scale)
    assert [p.boundaries for p in scaled_plans] == [p.boundaries for p in plans]
    assert [[c.hex() for c in p.stage_cost] for p in scaled_plans] == [
        [(c * scale).hex() for c in p.stage_cost] for p in plans]
    for row, scaled in zip(rows, scaled_rows, strict=True):
        for key in ("max_stage_cost", "makespan"):
            assert scaled[key].hex() == (row[key] * scale).hex()
        assert scaled["throughput"].hex() == (row["throughput"] / scale).hex()
        same = [k for k in row if k not in ("max_stage_cost", "makespan", "throughput")]
        assert [repr(scaled[k]) for k in same] == [repr(row[k]) for k in same]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_shuffled_trace_lines_keep_ffd_and_padded(tmp_path_factory, data):
    """Trace order is metamorphic for FFD (it sorts by length, ties by id) and
    for padded batches (each costs the full capacity): shuffling the file's
    lines leaves the FFD packing and every padded and ffd row bit for bit."""
    n = data.draw(st.integers(1, 40))
    ids = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True))
    modalities = data.draw(st.lists(st.sampled_from(list(Modality)), min_size=n, max_size=n))
    lengths = data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))  # many equal lengths
    order = data.draw(st.permutations(range(n)))
    d = tmp_path_factory.mktemp("order")
    save_trace(WorkloadTrace(ids, modalities, lengths), d / "trace.ndjson")
    lines = (d / "trace.ndjson").read_text().splitlines(keepends=True)
    (d / "shuffled.ndjson").write_text("".join(lines[k] for k in order))
    encoders, llm = cost_model()
    packings, rows = [], []
    for name in ("trace.ndjson", "shuffled.ndjson"):
        trace = load_trace(d / name)
        packing, _ = pack_ffd(trace, 16)
        packings.append(dataclasses.astuple(packing))
        cells = compare_configs(trace, 16, encoders, llm, [ParallelLayout(1, 2, 1), ParallelLayout(1, 4, 1)])
        # repr round-trips a float, so equal texts are equal bits
        rows.append([repr(row) for row in cells if row["packing_policy"] != "stream"])
    assert packings[0] == packings[1]
    assert len(rows[0]) == 8 and rows[0] == rows[1]


def simulate_spy(monkeypatch):
    """Wrap ``pipeline.simulate_1f1b``: each call first records how many of
    the earlier results are still alive, then keeps a weak reference to its
    own."""
    refs, alive = [], []
    simulate = pipeline.simulate_1f1b

    def spy(*args):
        alive.append(sum(ref() is not None for ref in refs))
        result = simulate(*args)
        refs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(pipeline, "simulate_1f1b", spy)
    return refs, alive


class TestCellsAlive:
    def compare(self, **kwargs):
        encoders, llm = cost_model()
        return compare_configs(
            small_trace(3), 32, encoders, llm, [ParallelLayout(1, 2, 1), ParallelLayout(1, 4, 1)],
            packing_policies=("ffd", "stream"), plan_policies=("balanced",), **kwargs,
        )

    def test_without_schedules_one_cell_is_alive_at_a_time(self, monkeypatch):
        _, alive = simulate_spy(monkeypatch)
        assert len(self.compare()) == 4
        assert alive == [0] * 6  # 2 layouts x (2 cells + the baseline)

    def test_recording_cell_gives_the_same_rows_and_keeps_no_schedule(self, monkeypatch):
        refs, _ = simulate_spy(monkeypatch)
        rows = self.compare()
        recorded = self.compare(cell=partial(pipeline.simulate_cell, record=True))
        assert recorded == rows
        assert len(refs) == 12 and all(ref() is None for ref in refs)

    def test_reproduce_holds_one_cell_at_a_time(self, monkeypatch, tmp_path):
        _, alive = simulate_spy(monkeypatch)
        assert cli.main(["reproduce", "--out", str(tmp_path / "out")]) == 0
        assert len(alive) > 1 and alive == [0] * len(alive)


def test_microbatches_from_batches_padded_cost():
    trace = WorkloadTrace((0, 1), (Modality.TEXT, Modality.TEXT), (3, 8))
    padded, _ = pack_padded(trace, 8)
    mbs = microbatches_from_batches(padded)
    assert list(zip(mbs.tokens, mbs.useful_tokens)) == [(8, 3), (8, 8)]
    packed, _ = pack_ffd(trace, 8)
    mbs = microbatches_from_batches(packed)
    assert list(mbs.tokens) == list(mbs.useful_tokens)


@pytest.mark.parametrize("tokens, useful, error", [
    (np.array([3, 4, 5]), [3, 4, 5], "microbatch 0: tokens"),
    ([3, 4, 5], [3, np.float64(4.0), 5], "microbatch 1: useful_tokens"),
    ([3, 4, np.int64(5)], [3, 4, 5], "microbatch 2: tokens"),
    ([3, True], [3, 1], "microbatch 1: tokens"),
])
def test_microbatch_entries_must_be_python_numbers(tokens, useful, error):
    # a numpy entry would pass the range checks and leak np.float64 into results and CSV text
    with pytest.raises(InvalidSpecError, match=error):
        MicroBatches(tokens, useful)


@pytest.mark.parametrize("kwargs", [
    {"backward_ratio": float("nan")},
    {"backward_ratio": float("inf")},
    {"comm_latency": float("nan")},
    {"comm_latency": float("inf")},
    {"comm_latency": -0.5},
])
def test_non_finite_or_negative_timing_rejected(kwargs):
    # NaN passes a plain ``<= 0`` check and gives NaN makespans and bubble fractions
    with pytest.raises(InvalidSpecError):
        simulate_1f1b(plan_with_costs([1.0, 1.0]), unit_microbatches(2), **kwargs)


@pytest.mark.parametrize("costs,kwargs", [
    ([1.0, 1.0], {"backward_ratio": 1e308}),  # an infinite makespan, so zero throughput
    ([5e307, 5e307], {"backward_ratio": 0.5}),  # a finite makespan of 1.5e308 on 2 stages
    ([1e-320, 1e-320], {}),  # an infinite throughput
])
def test_schedule_out_of_float_range_rejected(costs, kwargs):
    with pytest.raises(InvalidSpecError):
        simulate_1f1b(plan_with_costs(costs), unit_microbatches(1), **kwargs)
