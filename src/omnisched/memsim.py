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

An event is a plain ``(kind, tag, size)`` tuple: ``("alloc", tag, size)``
with a positive integer ``size``, or ``("free", tag, 0)``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Literal, Sequence

from .errors import AllocatorError, DoubleFreeError, UnknownTagError
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
    final_live: int

    def to_dict(self) -> dict:
        """The reported statistics; ``final_live`` is a stream check, not one of them."""
        doc = asdict(self)
        del doc["final_live"]
        return doc


MEMSIM_CSV_FIELDS = ["scenario"] + [f.name for f in fields(FragReport) if f.name != "final_live"]


def events_from_batches(packing: Packing, bytes_per_token: int) -> list[tuple[str, str, int]]:
    """One capacity-sized buffer per batch, freed before the next batch.

    Fixed-capacity batches are physically capacity-shaped regardless of how
    full they are, which is exactly why packing to a fixed capacity gives
    the allocator a constant-size stream.
    """
    if bytes_per_token < 1:
        raise AllocatorError(f"bytes_per_token must be >= 1, got {bytes_per_token}")
    size = packing.capacity * bytes_per_token
    events = []
    for i in range(len(packing)):
        tag = f"batch{i}"
        events.append(("alloc", tag, size))
        events.append(("free", tag, 0))
    return events


def events_from_samples(
    trace: WorkloadTrace, bytes_per_token: int, round_to: int = 1
) -> list[tuple[str, str, int]]:
    """The no-packing regime: one buffer per sample at its own (optionally
    bucket-rounded) size, freed before the next sample."""
    if bytes_per_token < 1:
        raise AllocatorError(f"bytes_per_token must be >= 1, got {bytes_per_token}")
    if round_to < 1:
        raise AllocatorError(f"round_to must be >= 1, got {round_to}")
    events = []
    for sid, length in zip(trace.ids, trace.lengths):
        tag = f"sample{sid}"
        tokens = -(-length // round_to) * round_to
        events.append(("alloc", tag, tokens * bytes_per_token))
        events.append(("free", tag, 0))
    return events


def simulate_allocator(events: Sequence[tuple[str, str, int]], policy: AllocatorPolicy) -> FragReport:
    """Replay an event stream and report fragmentation statistics. Each
    event's kind and size are checked as it enters the replay.

    ``fragmentation_ratio`` is the share of reserved memory not backing live
    allocations at the first instant reserved memory peaks.
    """
    if policy not in ALLOCATOR_POLICIES:
        raise AllocatorError(f"unknown allocator policy {policy!r}", policy=policy)
    caching = policy == "exact_reuse_cache"

    live: dict[str, int] = {}
    ever_allocated: set[str] = set()
    cache: dict[int, int] = {}  # size -> count of cached blocks
    live_total = 0
    cached_total = 0
    peak_reserved = 0
    live_at_peak = 0
    peak_live = 0
    reuse_hits = 0
    new_blocks = 0

    for kind, tag, size in events:
        if kind == "alloc":
            if type(size) is not int or size < 1:  # not a bool, a float or inf
                raise AllocatorError(f"alloc {tag!r}: size must be a positive integer")
            if tag in live:
                raise AllocatorError(f"alloc tag {tag!r} is already live", tag=tag)
            if caching and cache.get(size, 0) > 0:
                cache[size] -= 1
                cached_total -= size
                reuse_hits += 1
            else:
                new_blocks += 1
            live[tag] = size
            ever_allocated.add(tag)
            live_total += size
            peak_live = max(peak_live, live_total)
            reserved = live_total + cached_total
            if reserved > peak_reserved:
                peak_reserved = reserved
                live_at_peak = live_total
        elif kind == "free":
            if tag not in live:
                if tag in ever_allocated:
                    raise DoubleFreeError(f"tag {tag!r} was already freed", tag=tag)
                raise UnknownTagError(f"free of unknown tag {tag!r}", tag=tag)
            size = live.pop(tag)
            live_total -= size
            if caching:
                cache[size] = cache.get(size, 0) + 1
                cached_total += size
            # no_cache returns the block immediately; reserved tracks live
        else:
            raise AllocatorError(f"event kind must be alloc or free, got {kind!r}")

    frag = 0.0 if peak_reserved == 0 else (peak_reserved - live_at_peak) / peak_reserved
    return FragReport(
        policy=policy,
        peak_reserved=peak_reserved,
        peak_live=peak_live,
        fragmentation_ratio=frag,
        reuse_hits=reuse_hits,
        new_blocks=new_blocks,
        final_live=live_total,
    )
