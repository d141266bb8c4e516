import math

import numpy as np
import pytest

from omnisched.errors import AllocatorError, DoubleFreeError, UnknownTagError
from omnisched.memsim import events_from_batches, events_from_samples, simulate_allocator
from omnisched.packing import pack_ffd, pack_padded
from omnisched.workload import Modality, WorkloadTrace


def trace_of(lengths):
    return WorkloadTrace(range(len(lengths)), [Modality.TEXT] * len(lengths), lengths)


def alloc_free_stream(sizes):
    events = []
    for i, s in enumerate(sizes):
        events.append(("alloc", f"t{i}", s))
        events.append(("free", f"t{i}", 0))
    return events


class TestEventsFromBatches:
    def test_fixed_capacity_stream(self):
        # two batches, both filled to the 8-token capacity, 4 bytes per token
        batches, _ = pack_ffd(trace_of([5, 3, 4, 4]), capacity=8)
        assert list(batches.used) == [8, 8]
        events = events_from_batches(batches, bytes_per_token=4)
        assert len(events) == 2 * len(batches)
        assert [(kind, size) for kind, _, size in events] == [
            ("alloc", 32), ("free", 0), ("alloc", 32), ("free", 0),
        ]

    def test_empty_batch_list(self):
        batches, _ = pack_ffd(trace_of([]), capacity=8)
        assert events_from_batches(batches, bytes_per_token=4) == []

    def test_padded_batches_also_capacity_sized(self):
        batches, _ = pack_padded(trace_of([1, 7, 3]), capacity=8)
        events = events_from_batches(batches, bytes_per_token=2)
        sizes = [size for kind, _, size in events if kind == "alloc"]
        assert sizes == [16, 16, 16]


class TestEventsFromSamples:
    def test_per_sample_sizes(self):
        events = events_from_samples(trace_of([5, 9]), bytes_per_token=2)
        sizes = [size for kind, _, size in events if kind == "alloc"]
        assert sizes == [10, 18]

    def test_bucket_rounding(self):
        events = events_from_samples(trace_of([5, 9, 64]), bytes_per_token=1, round_to=64)
        sizes = [size for kind, _, size in events if kind == "alloc"]
        assert sizes == [64, 64, 64]


class TestSimulateAllocator:
    def test_exact_reuse(self):
        report = simulate_allocator(alloc_free_stream([100, 100]), "exact_reuse_cache")
        assert report.reuse_hits == 1
        assert report.new_blocks == 1
        assert report.peak_reserved == 100
        assert report.fragmentation_ratio == 0.0

    def test_size_mismatch_grows_reserved(self):
        report = simulate_allocator(alloc_free_stream([100, 120]), "exact_reuse_cache")
        assert report.reuse_hits == 0
        assert report.new_blocks == 2
        assert report.peak_reserved == 220
        assert report.fragmentation_ratio == pytest.approx(100 / 220)

    def test_no_cache_never_fragments(self):
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 1000, size=50).tolist()
        report = simulate_allocator(alloc_free_stream(sizes), "no_cache")
        assert report.fragmentation_ratio == 0.0
        assert report.reuse_hits == 0
        assert report.new_blocks == 50

    def test_fixed_shape_stream_is_fragmentation_free(self):
        report = simulate_allocator(alloc_free_stream([64] * 20), "exact_reuse_cache")
        assert report.new_blocks == 1
        assert report.fragmentation_ratio == 0.0

    def test_distinct_sizes_each_get_a_block(self):
        sizes = [10, 20, 30, 10, 20, 30, 40]
        report = simulate_allocator(alloc_free_stream(sizes), "exact_reuse_cache")
        assert report.new_blocks == 4  # one per distinct size
        assert report.reuse_hits == 3
        assert report.fragmentation_ratio > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_cache_reserves_at_least_no_cache(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 64, size=40).tolist()
        events = alloc_free_stream(sizes)
        cached = simulate_allocator(events, "exact_reuse_cache")
        plain = simulate_allocator(events, "no_cache")
        assert cached.peak_reserved >= plain.peak_reserved

    def test_balanced_stream_ends_with_zero_live(self):
        report = simulate_allocator(alloc_free_stream([5, 6, 7]), "exact_reuse_cache")
        assert report.final_live == 0

    def test_interleaved_live_allocations(self):
        events = [
            ("alloc", "a", 10),
            ("alloc", "b", 20),
            ("free", "a", 0),
            ("alloc", "c", 10),  # exact reuse of a's block
            ("free", "b", 0),
            ("free", "c", 0),
        ]
        report = simulate_allocator(events, "exact_reuse_cache")
        assert report.reuse_hits == 1
        assert report.new_blocks == 2
        assert report.peak_live == 30
        assert report.peak_reserved == 30

    def test_free_of_unknown_tag(self):
        with pytest.raises(UnknownTagError):
            simulate_allocator([("free", "ghost", 0)], "no_cache")

    def test_double_free(self):
        events = [("alloc", "a", 10), ("free", "a", 0), ("free", "a", 0)]
        with pytest.raises(DoubleFreeError):
            simulate_allocator(events, "exact_reuse_cache")

    def test_duplicate_live_tag_rejected(self):
        events = [("alloc", "a", 10), ("alloc", "a", 10)]
        with pytest.raises(AllocatorError):
            simulate_allocator(events, "no_cache")

    def test_bad_event_construction(self):
        # a size that is not a positive int, or a kind other than alloc/free
        bad = [("alloc", "a", 0), ("alloc", "a", 1.5), ("alloc", "a", math.inf), ("alloc", "a", True),
               ("realloc", "a", 5)]
        for event in bad:
            for policy in ("exact_reuse_cache", "no_cache"):
                with pytest.raises(AllocatorError, match="positive integer|must be alloc or free"):
                    simulate_allocator([event, ("free", "a", 0)], policy)


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
