"""Paired measurements of the generated 1F1B walk against its parent,
written as BENCH JSON.

Usage (from the root of a clean copy of the change, with the parent commit
checked out in PARENT, e.g. ``git archive <parent> | tar -x -C PARENT``):

    python3 tests/bench_generated_walk.py --parent PARENT --out BENCH_31_generated_walk.json

Both sides must hold no ``__pycache__`` under ``src/`` or ``perfbench/``:
under ``PYTHONDONTWRITEBYTECODE=1`` a side with stale bytecode skips
compiling its modules, and its ``setup_s`` reads about a third lower. The
script exits non-zero, naming the directory, if either side holds one.

Every pair runs both sides one after the other, alternating which goes
first. Sections:

* ``perfbench``: ``perfbench/run.py --workload W --seed 1 --seconds S
  --trace 0`` in each checkout, ``--pairs`` pairs for each of the three
  workloads (``bench_lazy_numpy.perfbench``);
* ``walk``: ``simulate_1f1b`` per cell at pp 4 and 8 and m 10,000 and
  100,000, on padded (every width 4096) and packed (drawn widths)
  microbatches, recorded and not: the least of 5 calls, in one interpreter
  per side and pair, and whether both sides' summaries are the same bits;
* ``compile``: the change's time to generate and compile one walk per
  ``(pp, record, uniform)``.

Not collected by pytest (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

from bench_lazy_numpy import CHANGE, paired, perfbench, refuse_stale_bytecode, run_side, summary

WALK = """
import json, random, sys, time
from omnisched.pipeline import MicroBatches, simulate_1f1b
from omnisched.sharding import ParallelLayout, StagePlan
out = {}
for pp in (4, 8):
    rng = random.Random(pp)
    plan = StagePlan(ParallelLayout(dp=1, pp=pp, tp=1), tuple(rng.uniform(0.5, 2.0) for _ in range(pp)),
                     tuple(range(1, pp + 1)))
    for m in (10_000, 100_000):
        for cell in ("padded", "packed"):
            widths = [4096] * m if cell == "padded" else [rng.randint(1024, 4096) for _ in range(m)]
            mbs = MicroBatches(widths, widths)
            for record in (False, True):
                times = []
                for _ in range(5):
                    start = time.perf_counter()
                    result = simulate_1f1b(plan, mbs, 2.0, 0.0, record)
                    times.append(time.perf_counter() - start)
                bits = [x.hex() for x in (result.makespan, *result.stage_busy)]
                out[f"pp={pp} m={m} {cell} record={record}"] = {"min_s": min(times), "bits": bits}
                del result
print(json.dumps(out))
"""

COMPILE = """
import json, time
from omnisched.pipeline import _walk
out = {}
for pp in (1, 2, 4, 8, 16, 32, 64):
    for record in (False, True):
        for uniform in (False, True):
            start = time.perf_counter()
            _walk.__wrapped__(pp, record, uniform)
            out[f"pp={pp} record={record} uniform={uniform}"] = time.perf_counter() - start
print(json.dumps(out))
"""


def walk(sides: dict, pairs: int, work: Path) -> dict:
    def measure(name, root):
        _, done = run_side(root, ["-c", WALK], work)
        return {"returncode": done.returncode, "cells": json.loads(done.stdout)}

    section = paired(sides, pairs, measure)
    runs = section["runs"]
    for cell in runs[0]["cells"]:
        times = {side: [r["cells"][cell]["min_s"] for r in runs if r["side"] == side] for side in sides}
        section[cell] = summary(times["parent"], times["change"])
    section["same_bits"] = all(r["cells"][c]["bits"] == runs[0]["cells"][c]["bits"] for r in runs for c in r["cells"])
    for r in runs:
        for cell in r["cells"].values():
            del cell["bits"]
    return section


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10, help="perfbench pairs per workload")
    parser.add_argument("--walk-pairs", type=int, default=3, help="pairs of the per-cell walk times")
    parser.add_argument("--seconds", type=float, default=10.0, help="perfbench --seconds")
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": CHANGE}
    refuse_stale_bytecode(sides)
    work = Path(tempfile.mkdtemp(prefix="bench-generated-walk-"))
    try:
        report = {"walk": walk(sides, args.walk_pairs, work)}
        _, done = run_side(CHANGE, ["-c", COMPILE], work)
        report["compile"] = {"s": json.loads(done.stdout)}
    finally:
        shutil.rmtree(work)
    report["perfbench"] = perfbench(sides, dict.fromkeys(("large-trace", "layout-sweep", "moe-routing"),
                                                         args.pairs), args.seconds)
    report["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                      "nproc": os.cpu_count(), "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, section in report["perfbench"].items():
        s = section["run_s"]
        print(f"{workload}: run_s {s['parent_median']:.4f} -> {s['change_median']:.4f} s, "
              f"lower in {s['change_lower_in']}/{s['pairs']}, parent IQR {s['parent_iqr']:.4f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
