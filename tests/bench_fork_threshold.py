"""Fresh-interpreter pairs of ``reproduce`` on the ``large-trace`` inputs, in
one process and on forked workers, written as BENCH JSON.

Usage (from the repository root):

    python3 tests/bench_fork_threshold.py --out fork.json

``BENCH_33_fork_threshold.json`` holds four such runs as its ``sets``.

Each pair runs ``cli.main(["reproduce", "--scenario", "scenario.yaml", ...])``
on perfbench's ``large-trace`` seed-1 inputs (10,000 samples, cell work
about 184,000, past ``cli._FORK_CELL_WORK``) twice, each in a fresh
interpreter, alternating which goes first: ``one`` with ``cli._usable_cpus``
patched to 1, so every call is made in the process, and ``default``, which
forks a worker per usable CPU. The time is that of ``cli.main`` alone, and
both sides' output files must hash the same.

A probe before and after the pairs times one busy loop alone and two at
once, each in its own process. Where two take about twice as long as one,
the host gives the job one CPU's worth of time whatever its CPU count, and
forking cannot pay.

Not collected by pytest (its name does not start with ``test_``).
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
import tempfile
from pathlib import Path

from bench_lazy_numpy import CHANGE, digest, run_side

REPRODUCE = """
import json, sys, time
from omnisched import cli
if sys.argv[1] == "one":
    cli._usable_cpus = lambda: 1
start = time.perf_counter()
rc = cli.main(["reproduce", "--scenario", "scenario.yaml", "--out", sys.argv[2]])
print(json.dumps({"s": time.perf_counter() - start, "rc": rc}))
"""

LOOP = "import time; t = time.perf_counter(); sum(i * i for i in range(3_000_000)); print(time.perf_counter() - t)"


def probe(rounds: int = 3) -> dict:
    """Seconds of one busy loop alone and, on average, of two at once: the
    medians of ``rounds`` rounds."""
    def loops(n):
        procs = [subprocess.Popen([sys.executable, "-c", LOOP], stdout=subprocess.PIPE, text=True) for _ in range(n)]
        return statistics.mean(float(p.communicate()[0]) for p in procs)

    one = statistics.median(loops(1) for _ in range(rounds))
    two = statistics.median(loops(2) for _ in range(rounds))
    return {"one_s": one, "two_s": two, "two_over_one": two / one}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    sys.path.insert(0, str(CHANGE / "perfbench"))
    from inputs import make_inputs

    work = Path(tempfile.mkdtemp(prefix="bench-fork-threshold-"))
    report = {"probe_before": probe()}
    runs, digests = [], set()
    try:
        inputs = make_inputs("large-trace", 1, work / "large-trace")
        for k in range(args.pairs):
            order = ["one", "default"] if k % 2 == 0 else ["default", "one"]
            for side in order:
                _, done = run_side(CHANGE, ["-c", REPRODUCE, side, "out"], inputs.directory)
                result = json.loads(done.stdout)
                digests.add(digest(inputs.directory / "out"))
                shutil.rmtree(inputs.directory / "out")
                runs.append({"pair": k, "side": side, "first": order[0], **result})
    finally:
        shutil.rmtree(work)
    report["probe_after"] = probe()
    times = {side: [r["s"] for r in runs if r["side"] == side] for side in ("one", "default")}
    for side, values in times.items():
        report[side] = {"mean_s": statistics.mean(values), "median_s": statistics.median(values)}
    report["default_faster_in"] = sum(d < o for o, d in zip(times["one"], times["default"]))
    report["pairs"] = args.pairs
    report["same_output"] = len(digests) == 1
    report["runs"] = runs
    report["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                      "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"one {report['one']['mean_s']:.4f} s, default {report['default']['mean_s']:.4f} s (means), "
          f"default faster in {report['default_faster_in']}/{args.pairs}; two loops / one: "
          f"{report['probe_before']['two_over_one']:.2f} before, {report['probe_after']['two_over_one']:.2f} after",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
