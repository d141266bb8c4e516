"""Sequence packing: place variable-length samples into fixed-capacity batches.

Three policies:

* ``ffd``    - first-fit decreasing, the offline default.
* ``stream`` - next-fit in arrival order, an online baseline.
* ``padded`` - no packing: one sample per batch, padded to capacity.

A sample is never split across batches. Each policy returns a ``Packing`` of
columns: sample ids and lengths in placement order, CSR batch starts, and each
batch's ``used`` tokens. A sample's offset inside its batch, which attention
isolation needs downstream, is the prefix sum of the batch's lengths before it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from .errors import ConfigError, OversizeSampleError
from .workload import WorkloadTrace


@dataclass(frozen=True)
class Packing:
    """One policy's batches as columns. Batch ``j`` holds the samples at
    positions ``starts[j]:starts[j + 1]`` of ``sample_ids`` and ``lengths``,
    which are in placement order, and ``used[j]`` tokens. ``len()`` is the
    batch count."""

    capacity: int
    padded: bool
    sample_ids: Sequence[int]
    lengths: Sequence[int]
    starts: Sequence[int]
    used: Sequence[int]

    def __len__(self) -> int:
        return len(self.used)


@dataclass(frozen=True)
class PackingReport:
    policy: str
    batch_count: int
    total_tokens: int
    fill_fraction: float
    padding_tokens: int
    largest_batch_used: int

    def to_dict(self) -> dict:
        return asdict(self)


REPORT_CSV_FIELDS = [f.name for f in fields(PackingReport)]


def _columns(trace: WorkloadTrace, capacity: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The trace's id and length columns, once every sample fits ``capacity``."""
    if capacity < 1:
        raise OversizeSampleError(f"capacity must be >= 1, got {capacity}", capacity=capacity)
    lengths = trace.lengths
    if lengths and max(lengths) > capacity:
        k = next(k for k, n in enumerate(lengths) if n > capacity)
        raise OversizeSampleError(
            f"sample {trace.ids[k]} has length {lengths[k]} > capacity {capacity}",
            sample_id=trace.ids[k],
            length=lengths[k],
            capacity=capacity,
        )
    return trace.ids, lengths


def _report(policy: str, packing: Packing) -> PackingReport:
    used = packing.used
    total = sum(used)
    count = len(used)
    capacity = packing.capacity
    fill = total / (count * capacity) if count else 0.0
    return PackingReport(
        policy=policy,
        batch_count=count,
        total_tokens=total,
        fill_fraction=fill,
        padding_tokens=count * capacity - total,
        largest_batch_used=max(used, default=0),
    )


def pack_ffd(trace: WorkloadTrace, capacity: int) -> tuple[Packing, PackingReport]:
    """First-fit decreasing: sort by length descending (ties by ascending id),
    place each sample into the first batch with room, else open a new one.

    The first fit is found in O(log n) with a max-tree over the batches' free
    room (Johnson, "Fast algorithms for bin packing", JCSS 1974): leaf ``j``
    holds batch ``j``'s room, each inner node the max of its children, and
    unopened batches read ``capacity``. Descending to the leftmost leaf with
    room either finds an open batch or opens the next one. A stable sort by
    each sample's batch then groups the samples, in placement order.
    """
    ids, lengths = _columns(trace, capacity)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    order.sort(key=lengths.__getitem__, reverse=True)  # stable: equal lengths stay in id order
    leaves = 1
    while leaves < len(order):
        leaves *= 2
    room = [capacity] * (2 * leaves)
    bin_of = []
    for k in order:
        length = lengths[k]
        node = 1
        while node < leaves:
            node *= 2
            if room[node] < length:
                node += 1
        bin_of.append(node - leaves)
        room[node] -= length
        node //= 2
        while node:
            left, right = room[2 * node], room[2 * node + 1]
            top = left if left > right else right
            if room[node] == top:
                break
            room[node] = top
            node //= 2
    bins = np.asarray(bin_of, dtype=np.intp)
    placed = np.asarray(order, dtype=np.intp)[np.argsort(bins, kind="stable")].tolist()
    starts = [0, *np.cumsum(np.bincount(bins)).tolist()]
    used = [capacity - r for r in room[leaves:leaves + len(starts) - 1]]
    packing = Packing(capacity, False, [ids[k] for k in placed], [lengths[k] for k in placed], starts, used)
    return packing, _report("ffd", packing)


def pack_stream(trace: WorkloadTrace, capacity: int) -> tuple[Packing, PackingReport]:
    """Next-fit in arrival order: a sample that does not fit the open batch
    closes it and opens a new one."""
    ids, lengths = _columns(trace, capacity)
    starts, used = [0], []
    room = capacity
    for k, length in enumerate(lengths):
        if length > room:
            starts.append(k)
            used.append(capacity - room)
            room = capacity
        room -= length
    if lengths:
        starts.append(len(lengths))
        used.append(capacity - room)
    packing = Packing(capacity, False, ids, lengths, starts, used)
    return packing, _report("stream", packing)


def pack_padded(trace: WorkloadTrace, capacity: int) -> tuple[Packing, PackingReport]:
    """No packing: one sample per batch, padded up to capacity."""
    ids, lengths = _columns(trace, capacity)
    packing = Packing(capacity, True, ids, lengths, range(len(lengths) + 1), lengths)
    return packing, _report("padded", packing)


PackFn = Callable[[WorkloadTrace, int], tuple[Packing, PackingReport]]

POLICIES: dict[str, PackFn] = {
    "ffd": pack_ffd,
    "stream": pack_stream,
    "padded": pack_padded,
}


def pack(trace: WorkloadTrace, capacity: int, policy: str) -> tuple[Packing, PackingReport]:
    try:
        fn = POLICIES[policy]
    except KeyError:
        raise ConfigError(f"unknown packing policy {policy!r}", policy=policy) from None
    return fn(trace, capacity)
