"""Allocator behavior under batch-shaped allocation streams.

Two policies bracket real caching allocators at this abstraction level:

* ``exact_reuse_cache`` keeps freed blocks in a size-keyed cache and reuses
  only exact size matches, so every new size grows the reserved pool even
  when live memory is flat. That growth is the fragmentation this module
  measures.
* ``no_cache`` returns blocks immediately; reserved always equals live, so
  it shows zero fragmentation by construction.

Fixed-capacity batch streams allocate one capacity-sized buffer per batch
(constant shape, the packed regime); per-sample streams allocate each
sample at its own size (the dynamic-shape regime packing replaces).

A stream is a list of positive ``int`` buffer sizes, in order. Each buffer
is freed before the next is allocated, so its sizes describe it completely.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Literal, Sequence

from .errors import AllocatorError
from .packing import Packing
from .workload import WorkloadTrace

AllocatorPolicy = Literal["exact_reuse_cache", "no_cache"]

ALLOCATOR_POLICIES = ("exact_reuse_cache", "no_cache")


@dataclass(frozen=True)
class FragReport:
    policy: str
    peak_reserved: int
    peak_live: int
    fragmentation_ratio: float
    reuse_hits: int
    new_blocks: int

    def to_dict(self) -> dict:
        return asdict(self)


MEMSIM_CSV_FIELDS = ["scenario"] + [f.name for f in fields(FragReport)]


def events_from_batches(packing: Packing, bytes_per_token: int) -> list[int]:
    """One capacity-sized buffer per batch.

    Fixed-capacity batches are physically capacity-shaped regardless of how
    full they are, which is exactly why packing to a fixed capacity gives
    the allocator a constant-size stream.
    """
    if bytes_per_token < 1:
        raise AllocatorError(f"bytes_per_token must be >= 1, got {bytes_per_token}")
    return [packing.capacity * bytes_per_token] * len(packing)


def events_from_samples(trace: WorkloadTrace, bytes_per_token: int, round_to: int = 1) -> list[int]:
    """The no-packing regime: one buffer per sample at its own (optionally
    bucket-rounded) size."""
    if bytes_per_token < 1:
        raise AllocatorError(f"bytes_per_token must be >= 1, got {bytes_per_token}")
    if round_to < 1:
        raise AllocatorError(f"round_to must be >= 1, got {round_to}")
    return [-(-length // round_to) * round_to * bytes_per_token for length in trace.lengths]


def simulate_allocator(sizes: Sequence[int], policy: AllocatorPolicy) -> FragReport:
    """Replay a stream of buffer sizes and report fragmentation statistics.
    Each buffer is taken from the cache or counted as a new block, then freed
    before the next; each size is checked as it enters the replay.

    ``fragmentation_ratio`` is the share of reserved memory not backing live
    allocations at the first instant reserved memory peaks.
    """
    if policy not in ALLOCATOR_POLICIES:
        raise AllocatorError(f"unknown allocator policy {policy!r}", policy=policy)
    caching = policy == "exact_reuse_cache"

    # the size-keyed cache holds at most one block of a size, as each buffer is
    # freed before the next: it is the set of its blocks' sizes
    cache: set[int] = set()
    cached_total = 0
    peak_reserved = 0
    live_at_peak = 0
    peak_live = 0
    reuse_hits = 0
    new_blocks = 0

    for i, size in enumerate(sizes):
        if type(size) is not int or size < 1:  # not a bool, a float or inf
            raise AllocatorError(f"buffer {i}: size must be a positive integer, got {size!r}", index=i)
        if size in cache:
            cache.remove(size)
            cached_total -= size
            reuse_hits += 1
        else:
            new_blocks += 1
        peak_live = max(peak_live, size)
        reserved = size + cached_total
        if reserved > peak_reserved:
            peak_reserved = reserved
            live_at_peak = size
        if caching:  # free into the cache; no_cache returns the block, so reserved tracks live
            cache.add(size)
            cached_total += size

    frag = 0.0 if peak_reserved == 0 else (peak_reserved - live_at_peak) / peak_reserved
    return FragReport(
        policy=policy,
        peak_reserved=peak_reserved,
        peak_live=peak_live,
        fragmentation_ratio=frag,
        reuse_hits=reuse_hits,
        new_blocks=new_blocks,
    )
