"""Output checks made from outside the program after every repetition.

``problems`` returns the broken output invariants of one run directory (an
empty list when all hold); ``digest`` hashes the whole run directory, so a
change that alters any result byte changes it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

from inputs import CAPACITY, Inputs


def digest(out_dir: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _large_trace(out: Path, facts: dict) -> list[str]:
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    found = []
    for policy, report in summary["packing"].items():
        if report["total_tokens"] != facts["total_tokens"]:
            found.append(f"{policy} packed {report['total_tokens']} of {facts['total_tokens']} tokens")
    for row in _rows(out / "packing.csv"):
        if int(row["total_tokens"]) != facts["total_tokens"]:
            found.append(f"packing.csv {row['policy']} packed {row['total_tokens']} tokens")
    if summary["trace"]["total_samples"] != facts["samples"]:
        found.append(f"summary counts {summary['trace']['total_samples']} samples")
    if not summary["throughput_ratio_min"] >= 1.0:
        found.append(f"throughput_ratio_min {summary['throughput_ratio_min']} < 1")
    return found


def _op_counts(timeline: Path) -> Counter:
    """(stage, kind) -> ops, read without a full CSV parse (the first two
    columns are integers and fixed words)."""
    counts: Counter = Counter()
    with timeline.open(encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            stage, kind, _ = line.split(",", 2)
            counts[(int(stage), kind)] += 1
    return counts


def _layout_sweep(out: Path, facts: dict) -> list[str]:
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    total = summary["trace"]["total_tokens"]
    found = []
    if summary["trace"]["total_samples"] != facts["samples"]:
        found.append(f"summary counts {summary['trace']['total_samples']} samples")
    cells = _rows(out / "comparison.csv")
    if len(cells) != facts["cells"]:
        found.append(f"{len(cells)} cells, expected {facts['cells']}")
    for cell in cells:
        name = f"{cell['layout']}_{cell['packing_policy']}_{cell['plan_policy']}"
        m = int(cell["batch_count"])
        packed = float(cell["fill_fraction"]) * m * CAPACITY
        if abs(packed - total) > 1e-6 * total:
            found.append(f"{name} packed {packed} of {total} tokens")
        pp = int(cell["layout"].split("x")[1])
        counts = _op_counts(out / f"timeline_{name}.csv")
        for stage in range(pp):
            if counts[(stage, "F")] != m or counts[(stage, "B")] != m:
                found.append(f"{name} stage {stage}: {counts[(stage, 'F')]} F, {counts[(stage, 'B')]} B, m={m}")
        if any(stage >= pp for stage, _ in counts):
            found.append(f"{name} has ops on stages beyond pp={pp}")
    return found


def _moe_routing(out: Path, facts: dict) -> list[str]:
    f_sum: dict[int, float] = {}
    experts = Counter()
    for row in _rows(out / "route.csv"):
        step = int(row["step"])
        f_sum[step] = f_sum.get(step, 0.0) + float(row["f"])
        experts[step] += 1
    found = []
    if sorted(f_sum) != list(range(facts["steps"])):
        found.append(f"route.csv has {len(f_sum)} steps, expected {facts['steps']}")
    for step, total in f_sum.items():
        if abs(total - 1.0) > 1e-9 or experts[step] != facts["experts"]:
            found.append(f"step {step}: f sums to {total} over {experts[step]} experts")
    return found


CHECKS = {"large-trace": _large_trace, "layout-sweep": _layout_sweep, "moe-routing": _moe_routing}


def problems(inputs: Inputs, out_dir: Path) -> list[str]:
    """Broken invariants of one run's outputs; unreadable outputs count as broken."""
    try:
        return CHECKS[inputs.workload](out_dir, inputs.facts)
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
