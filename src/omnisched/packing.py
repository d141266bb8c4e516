"""Sequence packing: place variable-length samples into fixed-capacity batches.

Three policies:

* ``ffd``    - first-fit decreasing, the offline default.
* ``stream`` - next-fit in arrival order, an online baseline.
* ``padded`` - no packing: one sample per batch, padded to capacity.

A sample is never split across batches; entry offsets record where each
sample starts inside its batch so attention isolation can be reconstructed
downstream.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Callable

from .errors import ConfigError, InvalidSpecError, OversizeSampleError
from .workload import WorkloadTrace


@dataclass(frozen=True)
class PackEntry:
    sample_id: int
    offset: int
    length: int


@dataclass(frozen=True)
class PackedBatch:
    """Fixed-capacity container; ``padded`` marks one-sample padded batches
    whose physical footprint is the full capacity."""

    capacity: int
    entries: tuple[PackEntry, ...]
    padded: bool = False

    @property
    def used(self) -> int:
        return sum(e.length for e in self.entries)

    def validate(self) -> None:
        """Raise ``InvalidSpecError`` unless the entries are non-empty, contiguous
        from offset 0, and fit the capacity."""
        used = self.used
        if used > self.capacity:
            raise InvalidSpecError("batch overfull", used=used, capacity=self.capacity)
        offset = 0
        for e in self.entries:
            if e.offset != offset or e.length < 1:
                raise InvalidSpecError(
                    "entries must be non-empty and contiguous prefix sums",
                    sample_id=e.sample_id, offset=e.offset, length=e.length,
                )
            offset += e.length


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


def _check_sizes(trace: WorkloadTrace, capacity: int) -> None:
    if capacity < 1:
        raise OversizeSampleError(f"capacity must be >= 1, got {capacity}", capacity=capacity)
    for s in trace.samples:
        if s.length > capacity:
            raise OversizeSampleError(
                f"sample {s.id} has length {s.length} > capacity {capacity}",
                sample_id=s.id,
                length=s.length,
                capacity=capacity,
            )


def _build_batch(capacity: int, sample_pairs: list[tuple[int, int]], padded: bool = False) -> PackedBatch:
    entries = []
    offset = 0
    for sid, length in sample_pairs:
        entries.append(PackEntry(sample_id=sid, offset=offset, length=length))
        offset += length
    return PackedBatch(capacity=capacity, entries=tuple(entries), padded=padded)


def _report(policy: str, batches: list[PackedBatch], capacity: int) -> PackingReport:
    used = [b.used for b in batches]
    total = sum(used)
    count = len(batches)
    fill = total / (count * capacity) if count else 0.0
    return PackingReport(
        policy=policy,
        batch_count=count,
        total_tokens=total,
        fill_fraction=fill,
        padding_tokens=count * capacity - total,
        largest_batch_used=max(used, default=0),
    )


def pack_ffd(trace: WorkloadTrace, capacity: int) -> tuple[list[PackedBatch], PackingReport]:
    """First-fit decreasing: sort by length descending (ties by ascending id),
    place each sample into the first batch with room, else open a new one.

    The first fit is found in O(log n) with a max-tree over the batches' free
    room (Johnson, "Fast algorithms for bin packing", JCSS 1974): leaf ``j``
    holds batch ``j``'s room, each inner node the max of its children, and
    unopened batches read ``capacity``. Descending to the leftmost leaf with
    room either finds an open batch or opens the next one.
    """
    _check_sizes(trace, capacity)
    order = sorted(trace.samples, key=lambda s: (-s.length, s.id))
    leaves = 1
    while leaves < len(order):
        leaves *= 2
    room = [capacity] * (2 * leaves)
    bins: list[list[tuple[int, int]]] = []
    for s in order:
        length = s.length
        node = 1
        while node < leaves:
            node *= 2
            if room[node] < length:
                node += 1
        j = node - leaves
        if j == len(bins):
            bins.append([(s.id, length)])
        else:
            bins[j].append((s.id, length))
        room[node] -= length
        node //= 2
        while node:
            left, right = room[2 * node], room[2 * node + 1]
            top = left if left > right else right
            if room[node] == top:
                break
            room[node] = top
            node //= 2
    batches = [_build_batch(capacity, pairs) for pairs in bins]
    return batches, _report("ffd", batches, capacity)


def pack_stream(trace: WorkloadTrace, capacity: int) -> tuple[list[PackedBatch], PackingReport]:
    """Next-fit in arrival order: a sample that does not fit the open batch
    closes it and opens a new one."""
    _check_sizes(trace, capacity)
    batches: list[PackedBatch] = []
    open_pairs: list[tuple[int, int]] = []
    room = capacity
    for s in trace.samples:
        if s.length > room:
            batches.append(_build_batch(capacity, open_pairs))
            open_pairs = []
            room = capacity
        open_pairs.append((s.id, s.length))
        room -= s.length
    if open_pairs:
        batches.append(_build_batch(capacity, open_pairs))
    return batches, _report("stream", batches, capacity)


def pack_padded(trace: WorkloadTrace, capacity: int) -> tuple[list[PackedBatch], PackingReport]:
    """No packing: one sample per batch, padded up to capacity."""
    _check_sizes(trace, capacity)
    batches = [_build_batch(capacity, [(s.id, s.length)], padded=True) for s in trace.samples]
    return batches, _report("padded", batches, capacity)


PackFn = Callable[[WorkloadTrace, int], tuple[list[PackedBatch], PackingReport]]

POLICIES: dict[str, PackFn] = {
    "ffd": pack_ffd,
    "stream": pack_stream,
    "padded": pack_padded,
}


def pack(trace: WorkloadTrace, capacity: int, policy: str) -> tuple[list[PackedBatch], PackingReport]:
    try:
        fn = POLICIES[policy]
    except KeyError:
        raise ConfigError(f"unknown packing policy {policy!r}", policy=policy) from None
    return fn(trace, capacity)
