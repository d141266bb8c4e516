"""Smoke tests of the benchmark itself, at tiny input sizes.

Run with: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from inputs import WORKLOADS, Sizes, make_inputs  # noqa: E402
from tracer import PER_LAYER_UNITS, SELF_TIME_METRIC  # noqa: E402

REAL_WORKER = run._worker
TINY = Sizes(trace_samples=200, sweep_samples=40, sweep_layers=24,
             route_experts=8, route_top_k=2, route_tokens=64, route_steps=10)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_digest(workload, tmp_path):
    a = make_inputs(workload, 5, tmp_path / "a", TINY)
    b = make_inputs(workload, 5, tmp_path / "b", TINY)
    assert _files(a.directory) == _files(b.directory)
    rep_a, rep_b = run.repetition(a, traced=False), run.repetition(b, traced=True)
    assert rep_a.problems == [] and rep_b.problems == []
    assert rep_a.digest == rep_b.digest


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_other_inputs(workload, tmp_path):
    a = make_inputs(workload, 5, tmp_path / "a", TINY)
    b = make_inputs(workload, 6, tmp_path / "b", TINY)
    assert _files(a.directory) != _files(b.directory)


def _corrupting(edit):
    """A worker that lets omnisched run, then edits its route.csv."""
    def worker(spec):
        result = REAL_WORKER(spec)
        path = Path(spec["cwd"]) / "out" / "route.csv"
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        return result

    return worker


def test_corrupted_output_is_a_failed_operation(tmp_path, monkeypatch):
    inputs = make_inputs("moe-routing", 5, tmp_path / "in", TINY)
    clean = run.repetition(inputs, traced=False)
    assert clean.problems == []

    # A broken invariant: step 0's load fractions no longer sum to 1.
    monkeypatch.setattr(run, "_worker", _corrupting(
        lambda text: text.replace("\n0,0,", "\n0,0,1", 1)))
    broken = run.repetition(inputs, traced=False)
    assert any("step 0" in p for p in broken.problems)

    # A change no invariant sees (a trailing newline) still breaks the digest.
    monkeypatch.setattr(run, "_worker", _corrupting(lambda text: text + "\n"))
    subtle = run.repetition(inputs, traced=False)
    assert subtle.problems == []
    run.mark_digest_mismatches([subtle], clean.digest)
    assert subtle.problems and "digest" in subtle.problems[0]

    result = run.summarize([clean, broken, subtle], [0.1], trace=False)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 2, False)


def test_traced_self_times_add_up_to_run_s(tmp_path):
    # Seed 100 has no pinned digest, so the repetitions are compared with each other.
    result, reps = run.run("large-trace", 100, 0, trace=True, sizes=TINY, work=tmp_path)
    assert result["correct"] and [r.traced for r in reps] == [False, True, False]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    self_total = sum(metrics[name] for name in SELF_TIME_METRIC.values())
    run_s = metrics["trace.run_s"]
    assert self_total <= run_s
    assert run_s - self_total <= max(abs(metrics["trace.overhead_frac"]), 0.01) * run_s
    assert metrics["packing.ffd_calls"] == 3 and metrics["workload.samples"] == 200
    spans = json.loads((tmp_path / "large-trace-100" / "spans.json").read_text())
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    assert all(parent >= 0 for _, _, _, parent in spans[1:])


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "moe-routing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_pinned_digests_cover_every_workload():
    pins = json.loads(run.PINS.read_text())
    assert sorted(pins) == sorted(WORKLOADS)
    assert all(len(d) == 64 for seeds in pins.values() for d in seeds.values())
