"""The columnar packings and microbatches against the object-building code
they replaced (``tests/oracles.py``), and a pin that planning builds no
per-batch objects."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnisched import memsim, packing
from omnisched.errors import InvalidSpecError
from omnisched.packing import POLICIES, PackEntry, PackedBatch
from omnisched.pipeline import (
    MicroBatch,
    MicroBatches,
    compare_configs,
    microbatches_from_batches,
    simulate_1f1b,
)
from omnisched.sharding import EncoderSpec, ParallelLayout
from omnisched.workload import Modality, ModalitySample, WorkloadTrace

from oracles import (
    batch_from_pairs,
    microbatches_from_batches_reference,
    pack_ffd_reference,
    pack_padded_reference,
    pack_stream_reference,
    packing_report_reference,
)
from test_pipeline import plan_with_costs

REFERENCES = {
    "ffd": lambda samples, capacity: [
        batch_from_pairs(capacity, pairs) for pairs in pack_ffd_reference(samples, capacity)
    ],
    "stream": pack_stream_reference,
    "padded": pack_padded_reference,
}


@st.composite
def traces(draw):
    capacity = draw(st.integers(min_value=1, max_value=64))
    # a small pool of lengths gives many ties; capacity itself is always a candidate
    pool = draw(st.lists(st.integers(min_value=1, max_value=capacity), min_size=1, max_size=4))
    lengths = draw(st.lists(st.sampled_from(pool + [capacity]), min_size=0, max_size=60))
    # unique ids in any order, so FFD's tie break by id differs from arrival order
    ids = draw(st.lists(st.integers(min_value=0, max_value=10**6), min_size=len(lengths),
                        max_size=len(lengths), unique=True))
    samples = tuple(ModalitySample(i, Modality.TEXT, n) for i, n in zip(ids, lengths))
    return WorkloadTrace(samples=samples), capacity


def view_fields(batches):
    return [
        (b.capacity, b.padded, b.used, [(e.sample_id, e.offset, e.length) for e in b.entries])
        for b in batches
    ]


@given(traces())
@example((WorkloadTrace(samples=()), 8))
@example((WorkloadTrace(samples=tuple(ModalitySample(i, Modality.TEXT, 8) for i in range(5))), 8))
@settings(max_examples=300, deadline=None)
def test_columns_match_object_references(case):
    trace, capacity = case
    for policy, reference in REFERENCES.items():
        columns, report = POLICIES[policy](trace, capacity)
        expected = reference(trace.samples, capacity)
        assert len(columns) == len(expected)
        assert view_fields(columns) == view_fields(expected)
        assert columns == expected
        assert list(columns.used) == [b.used for b in expected]
        assert report == packing_report_reference(policy, expected, capacity)
        if expected:
            assert columns[-1] == expected[-1]

        mbs = microbatches_from_batches(columns)
        reference_mbs = microbatches_from_batches_reference(expected)
        assert len(mbs) == len(reference_mbs)
        assert list(mbs.tokens) == [mb.tokens for mb in reference_mbs]
        assert list(mbs.useful_tokens) == [mb.useful_tokens for mb in reference_mbs]
        assert list(mbs) == reference_mbs
        if expected:
            # the columns and the reference MicroBatch list simulate alike
            plan = plan_with_costs([1.0, 0.5])
            expected_result = simulate_1f1b(plan, reference_mbs, comm_latency=0.1)
            assert simulate_1f1b(plan, mbs, comm_latency=0.1) == expected_result


def test_view_index_out_of_range():
    columns, _ = packing.pack_stream(WorkloadTrace(samples=(ModalitySample(0, Modality.TEXT, 3),)), 8)
    with pytest.raises(IndexError):
        columns[1]
    with pytest.raises(IndexError):
        microbatches_from_batches(columns)[-2]


@pytest.mark.parametrize("tokens, useful", [([0], [0]), ([4], [5]), ([4], [-1]), ([4, 4], [4])])
def test_microbatch_columns_reject_what_a_microbatch_rejects(tokens, useful):
    with pytest.raises(InvalidSpecError):
        MicroBatches(tokens, useful)


def test_planning_builds_no_per_batch_objects(monkeypatch):
    built = []
    for cls in (PackEntry, PackedBatch, MicroBatch):
        def spy(self, *args, init=cls.__init__, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spy)
    trace = WorkloadTrace(
        samples=tuple(ModalitySample(i, Modality.TEXT, 1 + (7 * i) % 32) for i in range(60))
    )
    encoders = [EncoderSpec(Modality.IMAGE, (1.0, 1.0), (False, True))]
    table = compare_configs(
        trace, 32, encoders, [1.0] * 4, [ParallelLayout(1, 2, 1)],
        packing_policies=("padded", "stream", "ffd"), plan_policies=("naive", "balanced"),
    )
    ffd, _ = packing.pack(trace, 32, "ffd")
    events = memsim.events_from_batches(ffd, bytes_per_token=2)
    assert len(table.cells) == 6 and len(events) == 2 * len(ffd)
    assert built == []
    first = ffd[0]  # views are built on demand
    microbatches_from_batches(ffd)[0]
    assert built == [PackEntry] * len(first.entries) + [PackedBatch, MicroBatch]
