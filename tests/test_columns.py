"""The columnar packings and microbatches against the plain-list references
they replaced (``tests/oracles.py``)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnisched.errors import InvalidSpecError
from omnisched.packing import POLICIES
from omnisched.pipeline import MicroBatches, microbatches_from_batches
from omnisched.workload import Modality, WorkloadTrace

from oracles import (
    columns_reference,
    microbatches_from_batches_reference,
    pack_ffd_reference,
    pack_padded_reference,
    pack_stream_reference,
    packing_report_reference,
)
from records import records

REFERENCES = {
    "ffd": pack_ffd_reference,
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
    return WorkloadTrace(ids, [Modality.TEXT] * len(ids), lengths), capacity


@given(traces())
@example((WorkloadTrace((), (), ()), 8))
@example((WorkloadTrace(range(5), [Modality.TEXT] * 5, [8] * 5), 8))
@settings(max_examples=300, deadline=None)
def test_columns_match_object_references(case):
    trace, capacity = case
    for policy, reference in REFERENCES.items():
        columns, report = POLICIES[policy](trace, capacity)
        expected = reference(records(trace), capacity)
        padded = policy == "padded"
        assert (columns.capacity, columns.padded, len(columns)) == (capacity, padded, len(expected))
        assert {name: list(getattr(columns, name)) for name in ("sample_ids", "lengths", "starts", "used")} == (
            columns_reference(expected)
        )
        assert report.to_dict() == packing_report_reference(policy, expected, capacity)

        mbs = microbatches_from_batches(columns)
        reference_mbs = microbatches_from_batches_reference(expected, capacity, padded)
        assert len(mbs) == len(reference_mbs)
        assert list(zip(mbs.tokens, mbs.useful_tokens)) == reference_mbs


@pytest.mark.parametrize(
    "tokens, useful",
    [([0], [0]), ([4], [5]), ([4], [-1]), ([4, 4], [4]), ([math.inf], [1]), ([2**1100], [1])],
)
def test_microbatch_columns_reject_what_a_microbatch_rejects(tokens, useful):
    with pytest.raises(InvalidSpecError):
        MicroBatches(tokens, useful)
