"""Multimodal workload model: trace columns, file ingestion, synthetic generation.

A trace is three equal-length columns of variable-length samples, in order:
ids, modalities (one of four) and lengths; no per-sample object is built.
Traces live in NDJSON files (one flat JSON object per line, ``#`` comments
ignored) and can be generated synthetically from a seeded spec with
per-modality mixture weights and length distributions.

The synthetic generator draws from numpy's PCG64 stream seeded with a single
64-bit integer; for each sample it draws the modality first, then the length,
so a trace is a pure function of its spec.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Union

import numpy as np

from .errors import (
    DuplicateIdError,
    EmptyTraceError,
    InvalidSpecError,
    TraceNotFoundError,
    TraceParseError,
)


class Modality(str, Enum):
    TEXT = "text"
    IMAGE = "image"
    AUDIO = "audio"
    VIDEO = "video"


# Fixed draw order for the synthetic generator's mixture lookup.
MODALITY_ORDER = (Modality.TEXT, Modality.IMAGE, Modality.AUDIO, Modality.VIDEO)


@dataclass(frozen=True)
class WorkloadTrace:
    """Sample ``k`` has id ``ids[k]``, modality ``modalities[k]`` and
    ``lengths[k]`` tokens. The columns are tuples, so consumers may share them."""

    ids: tuple[int, ...]
    modalities: tuple[Modality, ...]
    lengths: tuple[int, ...]

    def __post_init__(self):
        for name in ("ids", "modalities", "lengths"):
            object.__setattr__(self, name, tuple(getattr(self, name)))  # no copy of a tuple
        sizes = (len(self.ids), len(self.modalities), len(self.lengths))
        if len(set(sizes)) > 1:
            raise InvalidSpecError(f"trace columns (ids, modalities, lengths) differ in length: {sizes}")
        seen: dict[int, int] = {}
        for pos, (sid, n) in enumerate(zip(self.ids, self.lengths)):
            if n < 1:
                raise InvalidSpecError(f"sample {sid}: length must be >= 1, got {n}", sample_id=sid)
            if sid in seen:
                raise DuplicateIdError(
                    f"duplicate sample id {sid}", sample_id=sid, positions=[seen[sid], pos]
                )
            seen[sid] = pos

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def total_tokens(self) -> int:
        return sum(self.lengths)


@dataclass(frozen=True)
class UniformLength:
    """Integer lengths drawn uniformly from [low, high]."""

    low: int
    high: int

    def __post_init__(self):
        if not (1 <= self.low <= self.high < 2**63):  # numpy draws int64
            raise InvalidSpecError(
                f"uniform bounds must satisfy 1 <= low <= high < 2**63, got [{self.low}, {self.high}]"
            )

    def draw(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))


@dataclass(frozen=True)
class LogNormalLength:
    """exp(Normal(mu, sigma)) rounded to the nearest integer, clamped to [1, max_len]."""

    mu: float
    sigma: float
    max_len: int

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise InvalidSpecError(f"mu must be finite, got {self.mu}")
        if not 0 <= self.sigma < math.inf:
            raise InvalidSpecError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.max_len < 1:
            raise InvalidSpecError(f"max_len must be >= 1, got {self.max_len}")

    def draw(self, rng: np.random.Generator) -> int:
        # exp overflows a float past about 709.78; any draw there is clamped anyway
        raw = int(round(math.exp(min(rng.normal(self.mu, self.sigma), 709.0))))
        return min(max(raw, 1), self.max_len)


LengthDistribution = Union[UniformLength, LogNormalLength]


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Seeded recipe for a synthetic trace.

    ``weights`` are relative mixture weights per modality (non-negative, at
    least one positive); ``lengths`` maps each weighted modality to its
    length distribution.
    """

    weights: dict[Modality, float]
    lengths: dict[Modality, LengthDistribution]
    sample_count: int
    seed: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise InvalidSpecError(f"sample_count must be >= 1, got {self.sample_count}")
        if not self.weights:
            raise InvalidSpecError("mixture weights must not be empty")
        total = 0.0
        for m, w in self.weights.items():
            if not 0 <= w < math.inf:
                raise InvalidSpecError(f"mixture weight for {m.value} must be finite and >= 0: {w}")
            total += w
        if not 0 < total < math.inf:
            raise InvalidSpecError("mixture weights must sum to a positive finite value")
        for m, w in self.weights.items():
            if w > 0 and m not in self.lengths:
                raise InvalidSpecError(f"no length distribution for modality {m.value}")


def generate_trace(spec: SyntheticTraceSpec) -> WorkloadTrace:
    """Generate a trace deterministically from ``spec``.

    Per sample: one uniform draw picks the modality from the mixture, then one
    draw from that modality's length distribution picks the length.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    ordered = [m for m in MODALITY_ORDER if spec.weights.get(m, 0.0) > 0]
    weights = np.array([spec.weights[m] for m in ordered], dtype=float)
    cumulative = np.cumsum(weights / weights.sum())

    modalities, lengths = [], []
    for _ in range(spec.sample_count):
        r = rng.random()
        modality = ordered[int(np.searchsorted(cumulative, r, side="right").clip(0, len(ordered) - 1))]
        modalities.append(modality)
        lengths.append(spec.lengths[modality].draw(rng))
    return WorkloadTrace(range(spec.sample_count), modalities, lengths)


_REQUIRED_FIELDS = {"id", "modality", "length"}


def _unique_fields(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"duplicate field {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


# built once: json.loads with a hook would build a decoder per line
_decode = json.JSONDecoder(object_pairs_hook=_unique_fields).decode


def _parse_record(obj: dict, lineno: int) -> tuple[int, Modality, int]:
    if not isinstance(obj, dict):
        raise TraceParseError(f"line {lineno}: record must be an object", line=lineno)
    unknown = set(obj) - _REQUIRED_FIELDS
    if unknown:
        raise TraceParseError(
            f"line {lineno}: unknown fields {sorted(unknown)}", line=lineno, fields=sorted(unknown)
        )
    missing = _REQUIRED_FIELDS - set(obj)
    if missing:
        raise TraceParseError(
            f"line {lineno}: missing fields {sorted(missing)}", line=lineno, fields=sorted(missing)
        )
    if not isinstance(obj["id"], int) or isinstance(obj["id"], bool):
        raise TraceParseError(f"line {lineno}: id must be an integer", line=lineno)
    try:
        modality = Modality(obj["modality"])
    except ValueError:
        raise TraceParseError(
            f"line {lineno}: unknown modality {obj['modality']!r}", line=lineno
        ) from None
    if not isinstance(obj["length"], int) or isinstance(obj["length"], bool) or obj["length"] < 1:
        raise TraceParseError(f"line {lineno}: length must be a positive integer", line=lineno)
    return obj["id"], modality, obj["length"]


def load_trace(path: Union[str, Path]) -> WorkloadTrace:
    """Load a trace from an NDJSON file, preserving record order.

    Blank lines and ``#`` comment lines are skipped. Raises a parse error
    naming the offending line (a field given twice is one), a duplicate-id
    error, or an empty-file error when no records are present.
    """
    path = Path(path)
    if not path.is_file():
        raise TraceNotFoundError(f"trace file not found: {path}", path=str(path))

    records: list[tuple[int, Modality, int]] = []
    seen: dict[int, int] = {}
    # a byte that is not UTF-8 becomes U+FFFD, so its line fails as a record
    with path.open("r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                obj = _decode(stripped)
            except (ValueError, RecursionError) as exc:  # also: int past the digit limit, deep nesting
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                raise TraceParseError(f"line {lineno}: invalid record: {msg}", line=lineno) from None
            record = _parse_record(obj, lineno)
            sid = record[0]
            if sid in seen:
                raise DuplicateIdError(
                    f"duplicate sample id {sid} on lines {seen[sid]} and {lineno}",
                    sample_id=sid,
                    lines=[seen[sid], lineno],
                )
            seen[sid] = lineno
            records.append(record)
    if not records:
        raise EmptyTraceError(f"trace file contains no records: {path}", path=str(path))
    return WorkloadTrace(*zip(*records))


def dump_trace(trace: WorkloadTrace) -> str:
    """Canonical NDJSON serialization."""
    lines = []
    for sid, modality, length in zip(trace.ids, trace.modalities, trace.lengths):
        rec = {"id": sid, "modality": modality.value, "length": length}
        lines.append(json.dumps(rec, separators=(", ", ": ")))
    return "\n".join(lines) + "\n"


def save_trace(trace: WorkloadTrace, path: Union[str, Path]) -> None:
    Path(path).write_text(dump_trace(trace), encoding="utf-8")


def trace_stats(trace: WorkloadTrace) -> dict:
    """The trace summary written to ``summary.json``: ``total_samples``,
    ``total_tokens`` and ``per_modality``, which maps each modality with samples
    to its ``count``, ``min_length``, ``max_length``, ``mean_length`` and
    ``total_tokens``."""
    buckets: dict[str, list[int]] = {}
    for modality, length in zip(trace.modalities, trace.lengths):
        buckets.setdefault(modality.value, []).append(length)
    per = {
        m: {"count": len(ls), "min_length": min(ls), "max_length": max(ls),
            "mean_length": sum(ls) / len(ls), "total_tokens": sum(ls)}
        for m, ls in buckets.items()
    }
    return {"total_samples": len(trace), "total_tokens": trace.total_tokens, "per_modality": per}
