"""Multimodal workload model: trace columns, file ingestion, synthetic generation.

A trace is three equal-length columns of variable-length samples, in order:
ids, modalities (one of four) and lengths; no per-sample object is built.
Traces live in NDJSON files (one flat JSON object per line, ``#`` comments
ignored) and can be generated synthetically from a seeded spec with
per-modality mixture weights and length distributions. ``load_trace``
parses a file one block of lines per ``json`` call and checks the block's
columns; a file that fails any check is read again one line at a time,
and that reader's error names the first bad line.

The synthetic generator draws from numpy's PCG64 stream seeded with a single
64-bit integer; for each sample it draws the modality first, then the length,
so a trace is a pure function of its spec.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Optional, Union

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
        if not self.lengths or (min(self.lengths) >= 1 and len(set(self.ids)) == len(self.ids)):
            return
        seen: dict[int, int] = {}  # a bad column: walk it to name the first offender
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
        if not 1 <= self.low < 2**63:  # numpy draws int64
            raise InvalidSpecError(f"low must be in [1, 2**63), got {self.low}", field="low")
        if not self.low <= self.high < 2**63:
            raise InvalidSpecError(f"high must be in [low, 2**63), got [{self.low}, {self.high}]", field="high")

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
            raise InvalidSpecError(f"mu must be finite, got {self.mu}", field="mu")
        if not 0 <= self.sigma < math.inf:
            raise InvalidSpecError(f"sigma must be finite and >= 0, got {self.sigma}", field="sigma")
        if self.max_len < 1:
            raise InvalidSpecError(f"max_len must be >= 1, got {self.max_len}", field="max_len")

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
            raise InvalidSpecError(f"sample_count must be >= 1, got {self.sample_count}", field="sample_count")
        if not self.weights:
            raise InvalidSpecError("weights must not be empty", field="weights")
        total = 0.0
        for m, w in self.weights.items():
            if not 0 <= w < math.inf:
                raise InvalidSpecError(f"weight of {m.value} must be finite and >= 0, got {w}",
                                       field=f"weights.{m.value}")
            total += w
        if not 0 < total < math.inf:
            raise InvalidSpecError(f"weights must sum to a positive finite value, got {total}", field="weights")
        for m, w in self.weights.items():
            if w > 0 and m not in self.lengths:
                raise InvalidSpecError(f"no length distribution for modality {m.value}", field=f"lengths.{m.value}")


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


def _read_lines(path: Path) -> tuple[list, list, list]:
    """The columns of the trace at ``path``, one decode per line; raises the
    error naming the first bad line."""
    ids: list[int] = []
    modalities: list[Modality] = []
    lengths: list[int] = []
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
            sid, modality, length = _parse_record(obj, lineno)
            if sid in seen:
                raise DuplicateIdError(
                    f"duplicate sample id {sid} on lines {seen[sid]} and {lineno}",
                    sample_id=sid,
                    lines=[seen[sid], lineno],
                )
            seen[sid] = lineno
            ids.append(sid)
            modalities.append(modality)
            lengths.append(length)
    return ids, modalities, lengths


# Lines per block of _read_blocks: one parse call per block, while the joined
# text and its decoded records stay bounded as the file grows.
_BLOCK_LINES = 1024
_MODALITIES = {m.value: m for m in Modality}
_FIELDS = itemgetter("id", "modality", "length")
# a field given twice stays visible as one more pair
_decode_block = json.JSONDecoder(object_pairs_hook=tuple).decode


def _block_columns(lines: list[str]) -> Optional[tuple]:
    """The columns of ``lines``, stripped record lines, or None if any line is
    not exactly one valid record."""
    try:
        records = _decode_block("[" + ",".join(lines) + "]")
    except (ValueError, RecursionError):
        return None
    # One record per line. Two records on one line raise the count, a record
    # split over two lines lowers it; both at once keep it, but then a comma
    # this join put in separates two fields of a record, so the line before it
    # ends in a field value, and a valid value never ends in "}".
    if len(records) != len(lines) or not all(s[-1] == "}" for s in lines):
        return None
    if set(map(type, records)) != {tuple} or set(map(len, records)) != {3}:  # three pairs, no more
        return None
    try:
        ids, names, lengths = zip(*map(_FIELDS, map(dict, records)))
        modalities = list(map(_MODALITIES.__getitem__, names))
    except (KeyError, TypeError):  # a field missing (or given twice), an unknown modality
        return None
    if set(map(type, ids)) != {int} or set(map(type, lengths)) != {int} or min(lengths) < 1:
        return None  # bool, float and int are distinct types
    return ids, modalities, lengths


def _read_blocks(path: Path) -> Optional[tuple[tuple, tuple, tuple]]:
    """The columns of the trace at ``path``, one parse per block of lines, or
    None if any check but the ids' uniqueness (``WorkloadTrace``'s) fails."""
    ids: list[int] = []
    modalities: list[Modality] = []
    lengths: list[int] = []
    with path.open("r", encoding="utf-8", errors="replace") as fh:
        # iterating the file splits lines as _read_lines does (a lone "\r"
        # ends one, "\x0c" and "\u2028" do not), unlike str.splitlines
        for block in iter(lambda: list(islice(fh, _BLOCK_LINES)), []):
            lines = [s for s in map(str.strip, block) if s and s[0] != "#"]
            if not lines:
                continue
            columns = _block_columns(lines)
            if columns is None:
                return None
            ids += columns[0]
            modalities += columns[1]
            lengths += columns[2]
    # each list is freed as its tuple is made, and WorkloadTrace keeps the tuples
    ids = tuple(ids)
    modalities = tuple(modalities)
    return ids, modalities, tuple(lengths)


def load_trace(path: Union[str, Path]) -> WorkloadTrace:
    """Load a trace from an NDJSON file, preserving record order.

    Blank lines and ``#`` comment lines are skipped. The file is parsed one
    block of lines per ``json`` call, and each block is checked column by
    column. If any check fails anywhere, the file is read again one line at a
    time, and that reader raises the error: a parse error naming the first
    offending line (a field given twice is one) or a duplicate-id error
    naming both lines. A file with no records is an empty-file error; one
    that is missing, or that cannot be opened or read, a trace-not-found error.
    """
    path = Path(path)
    if not path.is_file():
        raise TraceNotFoundError(f"trace file not found: {path}", path=str(path))
    try:
        columns = _read_blocks(path) or _read_lines(path)
        try:
            trace = WorkloadTrace(*columns)  # which checks the ids, once
        except DuplicateIdError:  # in the blocks' columns: the line reader's error names the lines
            trace = WorkloadTrace(*_read_lines(path))
    except OSError as exc:  # no permission, a directory, an I/O error, ...
        raise TraceNotFoundError(
            f"cannot read trace file {path}: {exc.strerror or exc}", path=str(path)
        ) from None
    if not columns[0]:
        raise EmptyTraceError(f"trace file contains no records: {path}", path=str(path))
    return trace


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
