import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnisched.errors import OversizeSampleError
from omnisched.packing import Packing, pack_ffd, pack_padded, pack_stream
from omnisched.workload import Modality, WorkloadTrace

from oracles import check_packing_columns, min_bins_exhaustive, pack_ffd_reference
from records import records


def trace_of(lengths):
    return WorkloadTrace(range(len(lengths)), [Modality.TEXT] * len(lengths), lengths)


def batch_pairs(packing):
    """Each batch's ``(sample_id, length)`` pairs, read from the columns."""
    ids, lengths, starts = packing.sample_ids, packing.lengths, packing.starts
    return [list(zip(ids[lo:hi], lengths[lo:hi])) for lo, hi in zip(starts, starts[1:])]


def batch_lengths(packing):
    return [[length for _, length in pairs] for pairs in batch_pairs(packing)]


class TestFfd:
    def test_reference_instance(self):
        batches, report = pack_ffd(trace_of([7, 5, 4, 3, 1]), capacity=8)
        assert batch_lengths(batches) == [[7, 1], [5, 3], [4]]
        assert report.batch_count == 3
        assert report.fill_fraction == pytest.approx(20 / 24)
        # exhaustive oracle agrees this is optimal
        assert min_bins_exhaustive([7, 5, 4, 3, 1], 8) == 3

    def test_single_full_sample(self):
        batches, report = pack_ffd(trace_of([8]), capacity=8)
        assert report.batch_count == 1
        assert report.fill_fraction == 1.0

    def test_oversize_sample_names_id(self):
        with pytest.raises(OversizeSampleError) as exc:
            pack_ffd(trace_of([3, 9, 2]), capacity=8)
        assert exc.value.context["sample_id"] == 1

    def test_tie_break_by_ascending_id(self):
        # equal lengths placed in id order
        batches, _ = pack_ffd(trace_of([4, 4, 4]), capacity=8)
        ids = [[sid for sid, _ in pairs] for pairs in batch_pairs(batches)]
        assert ids == [[0, 1], [2]]


@st.composite
def ffd_cases(draw):
    capacity = draw(st.integers(min_value=1, max_value=64))
    # a small pool of lengths gives many ties; capacity itself is always a candidate
    pool = draw(st.lists(st.integers(min_value=1, max_value=capacity), min_size=1, max_size=4))
    lengths = draw(st.lists(st.sampled_from(pool + [capacity]), min_size=0, max_size=80))
    return lengths, capacity


@given(ffd_cases())
@settings(max_examples=300)
def test_ffd_matches_linear_scan_reference(case):
    # the max-tree first fit must reproduce the O(n * bins) scan batch for batch
    lengths, capacity = case
    trace = trace_of(lengths)
    batches, report = pack_ffd(trace, capacity)
    assert batch_pairs(batches) == pack_ffd_reference(records(trace), capacity)
    assert batches.capacity == capacity and not batches.padded
    assert report.batch_count == len(batches)


@pytest.mark.parametrize(
    "lengths, capacity",
    [([], 8), ([5], 8), ([8], 8), ([8] * 5, 8), ([3] * 11, 8), ([1] * 64, 1), ([8, 1, 7, 2, 6, 3, 5, 4] * 3, 8)],
)
def test_ffd_matches_linear_scan_reference_edges(lengths, capacity):
    trace = trace_of(lengths)
    batches, _ = pack_ffd(trace, capacity)
    assert batch_pairs(batches) == pack_ffd_reference(records(trace), capacity)


def test_ffd_matches_linear_scan_reference_large():
    rng = np.random.default_rng(2024)
    lengths = rng.integers(1, 4097, size=3000).tolist()
    trace = trace_of(lengths)
    batches, _ = pack_ffd(trace, 4096)
    assert batch_pairs(batches) == pack_ffd_reference(records(trace), 4096)


@pytest.mark.parametrize("columns", [
    dict(sample_ids=[0, 1], lengths=[3, 2], starts=[0, 2], used=[5]),  # overfull
    dict(sample_ids=[0, 1], lengths=[3, 1], starts=[0, 2], used=[3]),  # used is not the sum
    dict(sample_ids=[0, 1], lengths=[3, 1], starts=[0, 0, 2], used=[0, 4]),  # empty batch
    dict(sample_ids=[0, 1], lengths=[3, 1], starts=[0, 1], used=[3]),  # starts stop short of n
    dict(sample_ids=[0, 0], lengths=[3, 1], starts=[0, 1, 2], used=[3, 1]),  # a sample placed twice
])
def test_column_invariants_catch_broken_packings(columns):
    with pytest.raises(AssertionError):
        check_packing_columns(Packing(capacity=4, padded=False, **columns), [0, 1])


class TestStream:
    def test_reference_instance(self):
        batches, report = pack_stream(trace_of([5, 4, 5]), capacity=8)
        assert batch_lengths(batches) == [[5], [4], [5]]
        assert report.fill_fraction == pytest.approx(14 / 24)

    def test_exact_fit_pairs(self):
        _, report = pack_stream(trace_of([4, 4, 4, 4]), capacity=8)
        assert report.batch_count == 2

    def test_empty_trace(self):
        batches, report = pack_stream(WorkloadTrace((), (), ()), capacity=8)
        assert len(batches) == 0 and list(batches.starts) == [0]
        assert report.batch_count == 0
        assert report.fill_fraction == 0.0
        assert report.padding_tokens == 0


class TestPaddedBaseline:
    def test_reference_instance(self):
        _, report = pack_padded(trace_of([7, 5, 4, 3, 1]), capacity=8)
        assert report.batch_count == 5
        assert report.fill_fraction == pytest.approx(0.5)

    def test_full_batches(self):
        _, report = pack_padded(trace_of([8, 8]), capacity=8)
        assert report.fill_fraction == 1.0

    def test_single_tiny_sample(self):
        _, report = pack_padded(trace_of([1]), capacity=8)
        assert report.fill_fraction == pytest.approx(0.125)

    def test_batches_flagged_padded(self):
        batches, _ = pack_padded(trace_of([3, 5]), capacity=8)
        assert batches.padded
        assert list(batches.used) == [3, 5]


@st.composite
def length_lists(draw):
    capacity = draw(st.integers(min_value=1, max_value=30))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=capacity), min_size=0, max_size=30))
    return lengths, capacity


@given(length_lists())
@settings(max_examples=150)
def test_conservation_capacity_offsets(case):
    lengths, capacity = case
    trace = trace_of(lengths)
    for packer in (pack_ffd, pack_stream, pack_padded):
        batches, report = packer(trace, capacity)
        check_packing_columns(batches, trace.ids)
        assert report.batch_count == len(batches)
        assert report.padding_tokens == report.batch_count * capacity - report.total_tokens
        if report.batch_count:
            assert 0 < report.fill_fraction <= 1


@given(length_lists())
@settings(max_examples=150)
def test_stream_never_worse_than_padded(case):
    # next-fit opens at most one batch per sample
    lengths, capacity = case
    trace = trace_of(lengths)
    _, stream = pack_stream(trace, capacity)
    _, padded = pack_padded(trace, capacity)
    if lengths:
        assert stream.fill_fraction >= padded.fill_fraction


@pytest.mark.parametrize("seed", range(20))
def test_ffd_beats_stream_on_random_traces(seed):
    # holds on generic traces; an adversarial arrival order can invert it
    # (see the documented counterexample below), so this stays seeded.
    rng = np.random.default_rng(seed)
    capacity = int(rng.integers(8, 64))
    lengths = rng.integers(1, capacity + 1, size=int(rng.integers(1, 60))).tolist()
    trace = trace_of(lengths)
    _, ffd = pack_ffd(trace, capacity)
    _, stream = pack_stream(trace, capacity)
    assert ffd.fill_fraction >= stream.fill_fraction


def test_ffd_stream_dominance_counterexample():
    # A next-fit-friendly arrival order can beat FFD outright: FFD needs 4
    # batches here while next-fit's arrival order tiles 3 exactly. Kept as a
    # regression pin so nobody "fixes" the seeded test above into a universal
    # claim.
    lengths = [4, 3, 3, 4, 3, 3, 5, 5]
    trace = trace_of(lengths)
    _, ffd = pack_ffd(trace, 10)
    _, stream = pack_stream(trace, 10)
    assert ffd.batch_count == 4
    assert stream.batch_count == 3
    assert stream.fill_fraction > ffd.fill_fraction


@pytest.mark.parametrize("seed", range(10))
def test_ffd_quality_bound_random(seed):
    rng = np.random.default_rng(100 + seed)
    capacity = int(rng.integers(2, 13))
    lengths = rng.integers(1, capacity + 1, size=int(rng.integers(1, 11))).tolist()
    _, report = pack_ffd(trace_of(lengths), capacity)
    opt = min_bins_exhaustive(lengths, capacity)
    assert report.batch_count <= (11 / 9) * opt + 1
