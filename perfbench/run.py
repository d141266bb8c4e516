"""omnisched benchmark: times the CLI end to end on three seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload large-trace --seed 1 --seconds 40 --trace 0

The benchmark writes its inputs from ``--seed`` into ``.perfbench_work/``,
then runs ``omnisched.cli.main`` on them in fresh interpreters, one at a
time, until ``--seconds`` have passed; with ``--trace 0``, import-only
interpreters for ``setup_s`` are interleaved with them. Every repetition's
outputs are checked (see ``checks.py``) and hashed; a repetition fails on a
nonzero exit code, a broken invariant, or a digest that differs from the
pinned one for this seed (``digests.json``) or from the other repetitions.
With ``--trace 0`` the last stdout line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced repetitions (``tracer.py``),
interleaved with untraced ones to measure the tracing overhead. The line before it records the environment
and the unscaled wall-clock medians.

Times are scaled to a reference host speed: every interpreter also runs a
fixed calibration loop that uses no omnisched code (``worker.calibrate``),
and a time is reported as ``wall seconds * REFERENCE_CAL_S / calibration
seconds``. On a shared 2-vCPU VM, everything ran up to 1.8 times slower for
minutes at a time; the scaling cancels most of that, while a change to
omnisched moves the wall time and not the calibration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic

import numpy as np
import yaml

import checks
from inputs import WORKLOADS, Inputs, Sizes, make_inputs
from tracer import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "digests.json"

END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
MIN_REPS = 3
SETUP_PER_REP = 2  # import-only interpreters after each untraced repetition
# Seconds of worker.calibrate() on the 2-vCPU host of the README's baseline,
# in its faster phases: scaled times there read close to wall seconds.
REFERENCE_CAL_S = 0.15
WORKER_TIMEOUT_S = 150
# One process, one thread: the planner is single-threaded and the host is
# small. A fixed hash seed keeps set and dict layouts equal across runs.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class BenchmarkError(Exception):
    """The benchmark itself cannot run (not a failed operation)."""


@dataclass
class Rep:
    """One repetition: a fresh process running the workload once."""

    traced: bool
    import_s: float
    run_s: float
    peak_rss_mb: float
    cal_s: float
    layers: dict
    digest: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def scaled_run_s(self) -> float:
        return _scaled(self.run_s, self.cal_s)


def _scaled(seconds: float, cal_s: float) -> float:
    """``seconds`` at the reference host speed, given the calibration seconds
    measured in the same process."""
    return seconds * REFERENCE_CAL_S / cal_s


def _worker(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, env={**os.environ, **PINNED_ENV},
        timeout=WORKER_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_once() -> float:
    """Scaled seconds a fresh interpreter takes to import ``omnisched.cli``."""
    result = _worker({"src": str(SRC), "argv": None})
    return _scaled(result["import_s"], result["cal_s"])


def repetition(inputs: Inputs, traced: bool) -> Rep:
    """Run the workload once in a fresh process and check what it wrote."""
    out = inputs.directory / "out"
    shutil.rmtree(out, ignore_errors=True)
    spec = {"src": str(SRC), "cwd": str(inputs.directory), "argv": inputs.argv,
            "trace": traced, "spans": str(inputs.directory / "spans.json")}
    result = _worker(spec)
    rep = Rep(traced, result["import_s"], result["run_s"], result["peak_rss_mb"],
              result["cal_s"], result.get("layers", {}))
    if result["rc"] != 0:
        rep.problems.append(f"omnisched exited {result['rc']}")
    elif out.is_dir():
        rep.problems += checks.problems(inputs, out)
        rep.digest = checks.digest(out)
        rep.layers["cli.out_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    else:
        rep.problems.append("no output directory")
    shutil.rmtree(out, ignore_errors=True)
    return rep


def _pinned(workload: str, seed: int) -> str | None:
    return json.loads(PINS.read_text(encoding="utf-8"))[workload].get(str(seed))


def mark_digest_mismatches(reps: list[Rep], expected: str | None) -> None:
    """Flag repetitions whose digest differs from ``expected`` or, with no
    pin, from the first repetition's."""
    expected = expected or next((r.digest for r in reps if r.digest), None)
    for rep in reps:
        if rep.digest is not None and rep.digest != expected:
            rep.problems.append(f"digest {rep.digest[:16]} != expected {expected[:16]}")


def run_reps(inputs: Inputs, seconds: float, trace: bool) -> tuple[list[Rep], list[float]]:
    """Repeat the workload while another repetition is expected to end within
    ``seconds``, at least MIN_REPS times; with ``trace``, alternate untraced
    and traced repetitions, else follow each with SETUP_PER_REP import-only
    interpreters. Returns the repetitions and the scaled import times."""
    reps: list[Rep] = []
    setup: list[float] = []
    start = monotonic()
    while True:
        rep = repetition(inputs, traced=trace and len(reps) % 2 == 1)
        reps.append(rep)
        setup.append(_scaled(rep.import_s, rep.cal_s))
        setup += [import_once() for _ in range(0 if trace else SETUP_PER_REP)]
        elapsed = monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps, setup


def _median(values) -> float:
    return float(statistics.median(values))


def summarize(reps: list[Rep], setup: list[float], trace: bool) -> dict:
    """The result object: correctness counts plus end-to-end or per-layer metrics."""
    failed = sum(1 for r in reps if r.problems)
    plain = [r for r in reps if not r.traced]
    if not trace:
        values = {
            "run_s": _median(r.scaled_run_s for r in plain),
            "peak_rss_mb": _median(r.peak_rss_mb for r in plain),
            "setup_s": _median(setup),
        }
        units = END_TO_END_UNITS
    else:
        traced = [r for r in reps if r.traced]
        values = {name: _median(r.layers.get(name, 0.0) for r in traced) for name in PER_LAYER_UNITS}
        values["trace.run_s"] = _median(r.run_s for r in traced)
        values["trace.overhead_frac"] = (_median(r.scaled_run_s for r in traced)
                                         / _median(r.scaled_run_s for r in plain) - 1)
        units = PER_LAYER_UNITS
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def environment(reps: list[Rep]) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        **PINNED_ENV,
        "wall_run_s": _median(r.run_s for r in reps if not r.traced),
        "wall_import_s": _median(r.import_s for r in reps),
        "cal_s": _median(r.cal_s for r in reps),
        "reference_cal_s": REFERENCE_CAL_S,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes(), work: Path = WORK) -> tuple[dict, list[Rep]]:
    """Generate the inputs, measure, check; returns the result and the repetitions."""
    if not (SRC / "omnisched" / "cli.py").is_file():
        raise BenchmarkError(f"no omnisched source tree at {SRC}")
    directory = work / f"{workload}-{seed}"
    shutil.rmtree(directory, ignore_errors=True)
    inputs = make_inputs(workload, seed, directory, sizes)
    import_once()  # untimed: compiles bytecode, warms the page cache

    reps, setup = run_reps(inputs, seconds, trace)
    mark_digest_mismatches(reps, _pinned(workload, seed))
    return summarize(reps, setup, trace), reps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, reps = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    for i, rep in enumerate(reps):
        print(json.dumps({"rep": i, "traced": rep.traced, "run_s": rep.run_s, "cal_s": rep.cal_s,
                          "problems": rep.problems[:5]}), file=sys.stderr)
    print(json.dumps({"env": environment(reps)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
