import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnisched.errors import AllocatorError
from omnisched.memsim import ALLOCATOR_POLICIES, events_from_batches, events_from_samples, simulate_allocator
from omnisched.packing import pack_ffd, pack_padded
from omnisched.workload import Modality, WorkloadTrace
from oracles import simulate_allocator_reference


def trace_of(lengths):
    return WorkloadTrace(range(len(lengths)), [Modality.TEXT] * len(lengths), lengths)


class TestEventsFromBatches:
    def test_fixed_capacity_stream(self):
        # two batches, both filled to the 8-token capacity, 4 bytes per token
        batches, _ = pack_ffd(trace_of([5, 3, 4, 4]), capacity=8)
        assert list(batches.used) == [8, 8]
        assert events_from_batches(batches, bytes_per_token=4) == [32, 32]

    def test_empty_batch_list(self):
        batches, _ = pack_ffd(trace_of([]), capacity=8)
        assert events_from_batches(batches, bytes_per_token=4) == []

    def test_padded_batches_also_capacity_sized(self):
        batches, _ = pack_padded(trace_of([1, 7, 3]), capacity=8)
        assert events_from_batches(batches, bytes_per_token=2) == [16, 16, 16]


class TestEventsFromSamples:
    def test_per_sample_sizes(self):
        assert events_from_samples(trace_of([5, 9]), bytes_per_token=2) == [10, 18]

    def test_bucket_rounding(self):
        assert events_from_samples(trace_of([5, 9, 64]), bytes_per_token=1, round_to=64) == [64, 64, 64]


class TestSimulateAllocator:
    def test_exact_reuse(self):
        report = simulate_allocator([100, 100], "exact_reuse_cache")
        assert report.reuse_hits == 1
        assert report.new_blocks == 1
        assert report.peak_reserved == 100
        assert report.fragmentation_ratio == 0.0

    def test_size_mismatch_grows_reserved(self):
        report = simulate_allocator([100, 120], "exact_reuse_cache")
        assert report.reuse_hits == 0
        assert report.new_blocks == 2
        assert report.peak_reserved == 220
        assert report.fragmentation_ratio == pytest.approx(100 / 220)

    def test_no_cache_never_fragments(self):
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 1000, size=50).tolist()
        report = simulate_allocator(sizes, "no_cache")
        assert report.fragmentation_ratio == 0.0
        assert report.reuse_hits == 0
        assert report.new_blocks == 50

    def test_fixed_shape_stream_is_fragmentation_free(self):
        report = simulate_allocator([64] * 20, "exact_reuse_cache")
        assert report.new_blocks == 1
        assert report.fragmentation_ratio == 0.0

    def test_distinct_sizes_each_get_a_block(self):
        report = simulate_allocator([10, 20, 30, 10, 20, 30, 40], "exact_reuse_cache")
        assert report.new_blocks == 4  # one per distinct size
        assert report.reuse_hits == 3
        assert report.fragmentation_ratio > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_cache_reserves_at_least_no_cache(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 64, size=40).tolist()
        cached = simulate_allocator(sizes, "exact_reuse_cache")
        plain = simulate_allocator(sizes, "no_cache")
        assert cached.peak_reserved >= plain.peak_reserved

    def test_bad_event_construction(self):
        # a size that is not a positive int is rejected, naming the buffer's index
        for size in (0, 1.5, math.inf, True):
            for policy in ALLOCATOR_POLICIES:
                with pytest.raises(AllocatorError, match="buffer 1: size must be a positive integer") as exc:
                    simulate_allocator([8, size, 8], policy)
                assert exc.value.context == {"index": 1}

    def test_unknown_policy_rejected(self):
        with pytest.raises(AllocatorError, match="unknown allocator policy 'buddy'"):
            simulate_allocator([8], "buddy")


SIZES = st.integers(1, 2**70)
SIZE_STREAMS = st.one_of(
    st.just([]),
    st.builds(lambda size, n: [size] * n, SIZES, st.integers(1, 200)),
    st.lists(SIZES, max_size=200, unique=True),
    # a few sizes, many repeats
    st.lists(SIZES, min_size=1, max_size=8).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=200)),
)


@settings(max_examples=300, deadline=None)
@given(SIZE_STREAMS)
def test_replay_matches_list_reference(sizes):
    for policy in ALLOCATOR_POLICIES:
        assert simulate_allocator(sizes, policy).to_dict() == simulate_allocator_reference(sizes, policy)


def test_packing_contrast_end_to_end():
    # the whole point: dynamic per-sample shapes fragment, fixed batches do not
    lengths = [100, 200, 300, 150, 250, 100, 200]
    trace = trace_of(lengths)
    varying = simulate_allocator(events_from_samples(trace, 2), "exact_reuse_cache")
    batches, _ = pack_ffd(trace, capacity=512)
    packed = simulate_allocator(events_from_batches(batches, 2), "exact_reuse_cache")
    assert varying.fragmentation_ratio > 0
    assert varying.new_blocks == len(set(lengths))
    assert packed.fragmentation_ratio == 0.0
    assert packed.new_blocks == 1
