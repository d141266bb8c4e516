"""Independent brute-force oracles used to check the library's fast paths.

Each oracle recomputes an answer from first principles (exhaustive search,
explicit dependency graphs, or the plain code a fast path replaced) without
touching the implementation under test: nothing here imports ``omnisched``.
Packings are plain lists, one list of ``(sample_id, length)`` pairs per batch,
and reports are the dicts of their ``to_dict()``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np


def min_bins_exhaustive(lengths: Sequence[int], capacity: int) -> int:
    """Exact bin-packing optimum by branch and bound over placements."""
    items = sorted(lengths, reverse=True)
    n = len(items)
    if n == 0:
        return 0
    best = n

    def place(i: int, bins: list[int]) -> None:
        nonlocal best
        if len(bins) >= best:
            return
        if i == n:
            best = len(bins)
            return
        item = items[i]
        seen_room = set()
        for b in range(len(bins)):
            room = bins[b]
            if item <= room and room not in seen_room:
                seen_room.add(room)
                bins[b] -= item
                place(i + 1, bins)
                bins[b] += item
        bins.append(capacity - item)
        place(i + 1, bins)
        bins.pop()

    place(0, [])
    return best


def partition_optimum(costs: Sequence[float], pp: int) -> tuple[float, tuple[int, ...]]:
    """Minimal max contiguous-segment sum over all partitions into pp
    non-empty segments, plus the lexicographically smallest cut vector
    achieving it. Cuts are segment end indices (last one == len(costs))."""
    n = len(costs)
    assert n >= pp >= 1
    best_val = None
    best_cuts = None
    for inner in combinations(range(1, n), pp - 1):
        cuts = tuple(inner) + (n,)
        start = 0
        worst = 0.0
        for end in cuts:
            worst = max(worst, sum(costs[start:end]))
            start = end
        if best_val is None or worst < best_val or (worst == best_val and cuts < best_cuts):
            best_val = worst
            best_cuts = cuts
    return best_val, best_cuts


def plan_balanced_stages_reference(
    costs: Sequence[float], pp: int
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Minimum-bottleneck contiguous partition of per-unit ``costs`` into
    ``pp`` stages by the suffix DP written as plain loops, O(n^2 * pp).

    Returns the segment end indices (ties broken by the lexicographically
    smallest boundary vector) and each stage's cost summed in unit order.
    """
    n = len(costs)
    prefix = [0.0] * (n + 1)
    for i, c in enumerate(costs):
        prefix[i + 1] = prefix[i] + c

    def seg(i: int, j: int) -> float:
        return prefix[j] - prefix[i]

    # best[i][r]: minimal max stage cost partitioning costs[i:] into r segments
    INF = float("inf")
    best = [[INF] * (pp + 1) for _ in range(n + 1)]
    best[n][0] = 0.0
    for r in range(1, pp + 1):
        # at least r units must remain
        for i in range(n - r, -1, -1):
            if r == 1:
                best[i][1] = seg(i, n)
                continue
            acc = INF
            for j in range(i + 1, n - (r - 1) + 1):
                cand = max(seg(i, j), best[j][r - 1])
                if cand < acc:
                    acc = cand
            best[i][r] = acc

    opt = best[0][pp]
    cuts: list[int] = []
    i = 0
    for r in range(pp, 0, -1):
        if r == 1:
            cuts.append(n)
            break
        for j in range(i + 1, n - (r - 1) + 1):
            if seg(i, j) <= opt and best[j][r - 1] <= opt:
                cuts.append(j)
                i = j
                break
    starts = [0, *cuts[:-1]]
    return tuple(cuts), tuple(sum(costs[a:b]) for a, b in zip(starts, cuts))


def stage_sequence(pp: int, s: int, m: int) -> list[tuple[str, int]]:
    """Stage ``s``'s non-interleaved 1F1B op order as ``(kind, microbatch)``
    pairs: warmup forwards, then alternating backward/forward, then the
    backward drain."""
    warmup = min(m, pp - s)
    seq = [("F", i) for i in range(warmup)]
    nf, nb = warmup, 0
    while nb < m:
        seq.append(("B", nb))
        nb += 1
        if nf < m:
            seq.append(("F", nf))
            nf += 1
    return seq


def onef1b_longest_path(
    pp: int,
    fwd: Sequence[Sequence[float]],
    bwd: Sequence[Sequence[float]],
    comm_latency: float = 0.0,
) -> float:
    """Makespan as the longest path of the explicit 1F1B dependency DAG.

    Nodes are (kind, stage, microbatch); edges are the data dependencies
    plus each stage's fixed op order (warmup forwards, then alternating
    backward/forward, then the backward drain).
    """
    m = len(fwd[0])

    preds: dict[tuple[str, int, int], list[tuple[tuple[str, int, int], float]]] = {}
    for s in range(pp):
        seq = stage_sequence(pp, s, m)
        for idx, (kind, i) in enumerate(seq):
            node = (kind, s, i)
            edges = []
            if idx > 0:
                prev_kind, prev_i = seq[idx - 1]
                edges.append(((prev_kind, s, prev_i), 0.0))
            if kind == "F" and s > 0:
                edges.append((("F", s - 1, i), comm_latency))
            if kind == "B":
                edges.append((("F", s, i), 0.0))
                if s < pp - 1:
                    edges.append((("B", s + 1, i), comm_latency))
            preds[node] = edges

    @lru_cache(maxsize=None)
    def finish(node: tuple[str, int, int]) -> float:
        kind, s, i = node
        dur = fwd[s][i] if kind == "F" else bwd[s][i]
        start = 0.0
        for pred, weight in preds[node]:
            start = max(start, finish(pred) + weight)
        return start + dur

    return max(finish(node) for node in preds)


def pack_ffd_reference(samples: Sequence, capacity: int) -> list[list[tuple[int, int]]]:
    """First-fit decreasing by a linear scan of every open bin for each
    sample: O(n * bins). Returns each bin's ``(sample_id, length)`` pairs in
    placement order. ``samples`` need ``id`` and ``length`` attributes."""
    order = sorted(samples, key=lambda s: (-s.length, s.id))
    bins: list[list[tuple[int, int]]] = []
    remaining: list[int] = []
    for s in order:
        for i, room in enumerate(remaining):
            if s.length <= room:
                bins[i].append((s.id, s.length))
                remaining[i] -= s.length
                break
        else:
            bins.append([(s.id, s.length)])
            remaining.append(capacity - s.length)
    return bins


def columns_reference(batches: Sequence[Sequence[tuple[int, int]]]) -> dict[str, list[int]]:
    """A packing's ``sample_ids``, ``lengths``, ``starts`` and ``used``
    columns, from its batches of ``(sample_id, length)`` pairs."""
    starts = [0]
    for pairs in batches:
        starts.append(starts[-1] + len(pairs))
    return {
        "sample_ids": [sid for pairs in batches for sid, _ in pairs],
        "lengths": [length for pairs in batches for _, length in pairs],
        "starts": starts,
        "used": [sum(length for _, length in pairs) for pairs in batches],
    }


def check_packing_columns(packing, sample_ids: Sequence[int]) -> None:
    """Assert a packing's column invariants: ``starts`` rises strictly from 0
    to the sample count (every batch non-empty), each ``used[j]`` is the sum
    of batch ``j``'s lengths and fits the capacity, every length is >= 1, and
    each of ``sample_ids`` is placed exactly once."""
    starts = list(packing.starts)
    n = len(packing.sample_ids)
    assert len(packing.lengths) == n
    assert starts[0] == 0 and starts[-1] == n
    assert all(lo < hi for lo, hi in zip(starts, starts[1:])), "empty batch"
    assert len(packing.used) == len(starts) - 1
    for used, lo, hi in zip(packing.used, starts, starts[1:]):
        assert used == sum(packing.lengths[lo:hi]) <= packing.capacity
    assert all(length >= 1 for length in packing.lengths)
    assert sorted(packing.sample_ids) == sorted(sample_ids)


def packing_report_reference(policy: str, batches: Sequence[Sequence[tuple[int, int]]], capacity: int) -> dict:
    """A packing report's ``to_dict()``, from each batch's summed lengths."""
    used = [sum(length for _, length in pairs) for pairs in batches]
    total = sum(used)
    count = len(batches)
    return {
        "policy": policy,
        "batch_count": count,
        "total_tokens": total,
        "fill_fraction": total / (count * capacity) if count else 0.0,
        "padding_tokens": count * capacity - total,
        "largest_batch_used": max(used, default=0),
    }


def pack_stream_reference(samples: Sequence, capacity: int) -> list[list[tuple[int, int]]]:
    """Next-fit in arrival order: a sample that does not fit the open batch
    closes it and opens a new one. Returns each batch's ``(sample_id,
    length)`` pairs."""
    batches = []
    open_pairs: list[tuple[int, int]] = []
    room = capacity
    for s in samples:
        if s.length > room:
            batches.append(open_pairs)
            open_pairs = []
            room = capacity
        open_pairs.append((s.id, s.length))
        room -= s.length
    if open_pairs:
        batches.append(open_pairs)
    return batches


def pack_padded_reference(samples: Sequence, capacity: int) -> list[list[tuple[int, int]]]:
    """One batch per sample."""
    return [[(s.id, s.length)] for s in samples]


def microbatches_from_batches_reference(
    batches: Sequence[Sequence[tuple[int, int]]], capacity: int, padded: bool
) -> list[tuple[int, int]]:
    """Each batch's ``(tokens, useful_tokens)``: padded batches cost their
    full capacity, packed batches what they hold."""
    used = [sum(length for _, length in pairs) for pairs in batches]
    return [(capacity if padded else u, u) for u in used]


def simulate_allocator_reference(sizes: Sequence[int], policy: str) -> dict:
    """An allocator report's ``to_dict()``, by replaying ``sizes`` over a plain
    list of cached block sizes: each buffer takes a cached block of its size
    or a new block, and is freed before the next, into the list under
    ``exact_reuse_cache``. Reserved memory is summed anew at each buffer."""
    cached: list[int] = []
    reserved_live: list[tuple[int, int]] = []  # (reserved, live) as each buffer is taken
    hits = 0
    for size in sizes:
        if size in cached:
            cached.remove(size)
            hits += 1
        reserved_live.append((size + sum(cached), size))
        if policy == "exact_reuse_cache":
            cached.append(size)
    peak = max((reserved for reserved, _ in reserved_live), default=0)
    live_at_peak = next((live for reserved, live in reserved_live if reserved == peak), 0)
    return {
        "policy": policy,
        "peak_reserved": peak,
        "peak_live": max(sizes, default=0),
        "fragmentation_ratio": (peak - live_at_peak) / peak if peak else 0.0,
        "reuse_hits": hits,
        "new_blocks": len(sizes) - hits,
    }


def simulate_1f1b_reference(
    stage_cost: Sequence[float],
    tokens: Sequence[int],
    backward_ratio: float = 2.0,
    comm_latency: float = 0.0,
) -> tuple[list[list[tuple[str, int, float, float]]], tuple[float, ...], float]:
    """Non-interleaved 1F1B by repeated sweeps over the stages, with every
    finish time in a dict keyed by ``(kind, stage, microbatch)``.

    Returns each stage's ``(kind, microbatch, start, end)`` events in
    execution order, each stage's busy time (the in-order sum of
    ``end - start``) and the makespan.
    """
    pp = len(stage_cost)
    m = len(tokens)
    fwd = [[stage_cost[s] * t for t in tokens] for s in range(pp)]
    bwd = [[backward_ratio * c for c in row] for row in fwd]

    orders = [stage_sequence(pp, s, m) for s in range(pp)]
    pointer = [0] * pp
    stage_free = [0.0] * pp
    end_time: dict[tuple[str, int, int], float] = {}
    timelines: list[list[tuple[str, int, float, float]]] = [[] for _ in range(pp)]

    remaining = sum(len(o) for o in orders)
    while remaining:
        progressed = False
        for s in range(pp):
            while pointer[s] < len(orders[s]):
                kind, i = orders[s][pointer[s]]
                ready = stage_free[s]
                if kind == "F":
                    if s > 0:
                        dep = end_time.get(("F", s - 1, i))
                        if dep is None:
                            break
                        ready = max(ready, dep + comm_latency)
                    duration = fwd[s][i]
                else:
                    dep_f = end_time.get(("F", s, i))
                    if dep_f is None:
                        break
                    ready = max(ready, dep_f)
                    if s < pp - 1:
                        dep_b = end_time.get(("B", s + 1, i))
                        if dep_b is None:
                            break
                        ready = max(ready, dep_b + comm_latency)
                    duration = bwd[s][i]
                finish = ready + duration
                end_time[(kind, s, i)] = finish
                stage_free[s] = finish
                timelines[s].append((kind, i, ready, finish))
                pointer[s] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise RuntimeError("1F1B schedule deadlocked")

    busy = tuple(sum(end - start for _, _, start, end in tl) for tl in timelines)
    return timelines, busy, max(end_time.values())


def timeline_rows_reference(result) -> list[tuple]:
    """A schedule's timeline CSV rows as ``(stage, kind, start, end,
    microbatch)`` tuples, idle gaps included, from its ``op_starts``,
    ``op_ends`` and ``makespan``: an idle row fills each gap before an op and
    the gap from a stage's last op to the makespan."""
    pp = len(result.op_starts)
    m = len(result.op_starts[0]) // 2
    rows = []
    for s in range(pp):
        cursor = 0.0
        for (kind, i), start, end in zip(stage_sequence(pp, s, m), result.op_starts[s], result.op_ends[s]):
            if start > cursor:
                rows.append((s, "idle", cursor, start, ""))
            rows.append((s, kind, start, end, i))
            cursor = end
        if cursor < result.makespan:
            rows.append((s, "idle", cursor, result.makespan, ""))
    return rows


def csv_bytes_reference(fields: Sequence[str], rows: Sequence[tuple]) -> bytes:
    """The UTF-8 bytes ``csv.writer`` writes for a ``fields`` header and ``rows``."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(fields)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


def topk_mask_reference(adjusted: np.ndarray, k: int) -> np.ndarray:
    """Each row's k largest scores, ties to the lowest index: every score
    ``>=`` the row's k-th largest, with each row that marks more than k
    re-selected by a stable sort."""
    num_experts = adjusted.shape[1]
    kth = np.partition(adjusted, num_experts - k, axis=1)[:, num_experts - k, None]
    mask = adjusted >= kth
    over = np.flatnonzero(mask.sum(axis=1) > k)
    if over.size:
        top = np.argsort(-adjusted[over], axis=1, kind="stable")[:, :k]
        fixed = np.zeros((over.size, num_experts), dtype=bool)
        fixed[np.arange(over.size)[:, None], top] = True
        mask[over] = fixed
    return mask


def simulate_routing_reference(
    top_k: int,
    aux_coefficient: float,
    bias_step: float,
    mean_offsets: Sequence[float],
    seed: int,
    std: float,
    tokens: int,
    steps: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float, float]]:
    """The routing loop with a fresh array for every intermediate: per step,
    draw ``normal(0, std) + mean_offsets`` logits from PCG64(seed), select the
    top k of ``logits + bias``, and apply the sign rule to the bias.

    Returns each step's ``(f, pbar, bias routed with, cov, aux)``.
    """
    offsets = np.asarray(mean_offsets, dtype=float)
    num_experts = offsets.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    bias = np.zeros(num_experts)
    out = []
    for _ in range(steps):
        logits = rng.normal(0.0, std, size=(tokens, num_experts)) + offsets
        counts = topk_mask_reference(logits + bias, top_k).sum(axis=0, dtype=np.int64)
        f = counts / (top_k * tokens)
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        pbar = (e / e.sum(axis=1, keepdims=True)).mean(axis=0)
        cov = float(np.std(f) / np.mean(f))
        aux = float(aux_coefficient * num_experts * np.dot(f, pbar))
        out.append((f, pbar, bias, cov, aux))
        bias = bias + bias_step * np.sign(1.0 / num_experts - f)
    return out


class TraceErrorReference(Exception):
    """The error ``load_trace_reference`` raises: a kind slug, message and context."""

    def __init__(self, kind: str, message: str, **context):
        super().__init__(message)
        self.kind, self.message, self.context = kind, message, context


_TRACE_MODALITIES = ("text", "image", "audio", "video")
_TRACE_FIELDS = {"id", "modality", "length"}


def _unique_fields_reference(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"duplicate field {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _parse_record_reference(obj, lineno: int) -> tuple:
    def fail(message, **context):
        return TraceErrorReference("trace-parse", f"line {lineno}: {message}", line=lineno, **context)

    if not isinstance(obj, dict):
        raise fail("record must be an object")
    unknown = set(obj) - _TRACE_FIELDS
    if unknown:
        raise fail(f"unknown fields {sorted(unknown)}", fields=sorted(unknown))
    missing = _TRACE_FIELDS - set(obj)
    if missing:
        raise fail(f"missing fields {sorted(missing)}", fields=sorted(missing))
    if not isinstance(obj["id"], int) or isinstance(obj["id"], bool):
        raise fail("id must be an integer")
    if not isinstance(obj["modality"], str) or obj["modality"] not in _TRACE_MODALITIES:
        raise fail(f"unknown modality {obj['modality']!r}")
    if not isinstance(obj["length"], int) or isinstance(obj["length"], bool) or obj["length"] < 1:
        raise fail("length must be a positive integer")
    return obj["id"], obj["modality"], obj["length"]


def load_trace_reference(path) -> tuple[list, list, list]:
    """The per-line NDJSON trace reader: one decode per stripped line of the
    text-mode file, ``#`` and blank lines skipped. Returns the id, modality
    (its string) and length columns, or raises ``TraceErrorReference`` with
    the library's kind, message and context for the first bad line."""
    decode = json.JSONDecoder(object_pairs_hook=_unique_fields_reference).decode
    ids, modalities, lengths = [], [], []
    seen = {}
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                obj = decode(stripped)
            except (ValueError, RecursionError) as exc:
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                raise TraceErrorReference(
                    "trace-parse", f"line {lineno}: invalid record: {msg}", line=lineno
                ) from None
            sid, modality, length = _parse_record_reference(obj, lineno)
            if sid in seen:
                raise TraceErrorReference(
                    "duplicate-id", f"duplicate sample id {sid} on lines {seen[sid]} and {lineno}",
                    sample_id=sid, lines=[seen[sid], lineno],
                )
            seen[sid] = lineno
            ids.append(sid)
            modalities.append(modality)
            lengths.append(length)
    if not ids:
        raise TraceErrorReference("empty-file", f"trace file contains no records: {path}", path=str(path))
    return ids, modalities, lengths


def generate_trace_reference(
    mixture: Sequence[tuple[str, float, tuple]], sample_count: int, seed: int
) -> tuple[list[str], list[int]]:
    """The per-sample generator with one ``np.searchsorted`` call per sample.

    ``mixture`` is ``(modality, weight, length)`` in the library's modality
    order, ``length`` either ``("uniform", low, high)`` or ``("lognormal", mu,
    sigma, max_len)``. Each sample draws one uniform to pick a modality among
    the positive weights, then one length. Returns the modality and length
    columns."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ordered = [(name, length) for name, weight, length in mixture if weight > 0]
    weights = np.array([weight for _, weight, _ in mixture if weight > 0], dtype=float)
    cumulative = np.cumsum(weights / weights.sum())
    modalities, lengths = [], []
    for _ in range(sample_count):
        r = rng.random()
        name, length = ordered[int(np.searchsorted(cumulative, r, side="right").clip(0, len(ordered) - 1))]
        modalities.append(name)
        if length[0] == "uniform":
            lengths.append(int(rng.integers(length[1], length[2] + 1)))
        else:
            raw = int(round(math.exp(min(rng.normal(length[1], length[2]), 709.0))))
            lengths.append(min(max(raw, 1), length[3]))
    return modalities, lengths
