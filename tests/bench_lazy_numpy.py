"""Paired measurements of a change against its parent, written as BENCH JSON.

Usage (from the change's repository root, with the parent commit checked out
in PARENT, e.g. ``git archive <parent> | tar -x -C PARENT``):

    python3 tests/bench_lazy_numpy.py --parent PARENT --out BENCH_27_lazy_numpy.json

Every pair runs both sides one after the other, alternating which goes
first. Sections:

* ``perfbench``: ``perfbench/run.py --workload W --seed 1 --seconds S
  --trace 0`` in each checkout, for all three workloads;
* ``fresh_wall``: the wall time of a fresh ``python -m omnisched.cli``
  on the ``large-trace`` inputs (``reproduce --scenario scenario.yaml`` and
  ``plan --config scenario.yaml``), on ``layout-sweep``'s ``simulate`` and
  on ``moe-routing``'s ``route``, each run's output files hashed, and
  whether the run left numpy unimported;
* ``import_wall``: a fresh ``import omnisched.cli``;
* ``planner``: ``plan_balanced_stages`` over ``layout-sweep``'s 12 layouts
  in one interpreter per side, and its boundaries;
* ``load_trace``: tracemalloc's transient (peak minus retained) of
  ``load_trace`` and the times of ``load_trace`` and ``trace_stats`` at 10k
  and 100k samples.

Both sides must hold no ``__pycache__`` under ``src/`` or ``perfbench/``:
under ``PYTHONDONTWRITEBYTECODE=1`` a side with stale bytecode skips
compiling its modules, and its ``setup_s`` reads about a third lower. The
script exits non-zero, naming the directory, if either side holds one.

Not collected by pytest (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

PLANNER = """
import json, sys, time
from omnisched.config import build_config, load_config_file
from omnisched.sharding import plan_balanced_stages
cfg = build_config(load_config_file(sys.argv[1]))
plans = lambda: [plan_balanced_stages(cfg.encoders, cfg.llm_layer_costs, lay) for lay in cfg.layouts]
boundaries = [list(p.boundaries) for p in plans()]
times = []
for _ in range(int(sys.argv[2])):
    start = time.perf_counter()
    plans()
    times.append(time.perf_counter() - start)
print(json.dumps({"boundaries": boundaries, "sweep_s": times}))
"""

LOAD_TRACE = """
import gc, json, sys, time, tracemalloc
from omnisched.workload import load_trace, trace_stats
result = {}
for path in sys.argv[1:]:
    load_trace(path)
    gc.collect()
    tracemalloc.start()
    trace = load_trace(path)
    now, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    loads, stats = [], []
    for _ in range(5):
        start = time.perf_counter()
        trace = load_trace(path)
        loads.append(time.perf_counter() - start)
        start = time.perf_counter()
        summary = trace_stats(trace)
        stats.append(time.perf_counter() - start)
    result[len(trace)] = {"transient_mb": (peak - now) / 2**20, "load_trace_s": min(loads),
                          "trace_stats_s": min(stats), "summary": summary}
print(json.dumps(result))
"""


def run_side(root: Path, argv: list[str], cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **ENV)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, done


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def summary(parent: list[float], change: list[float]) -> dict:
    q = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else [parent[0]] * 3
    return {"parent_median": statistics.median(parent), "change_median": statistics.median(change),
            "parent_iqr": q[2] - q[0], "change_lower_in": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(parent)}


def paired(sides: dict, pairs: int, measure) -> dict:
    """``measure(name, root)`` for both sides, ``pairs`` times, alternating the first side."""
    runs = []
    for k in range(pairs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for name in order:
            runs.append({"pair": k, "side": name, "first": order[0], **measure(name, sides[name])})
    return {"runs": runs}


def perfbench(sides: dict, pairs: int, seconds: float) -> dict:
    out = {}
    for workload, n in pairs.items():
        def measure(name, root):
            _, done = run_side(root, ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds",
                                      str(seconds), "--trace", "0"], root)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            return {"returncode": done.returncode, "result": result}

        section = paired(sides, n, measure)
        for metric in ("run_s", "peak_rss_mb", "setup_s"):
            value = {side: [r["result"]["metrics"][metric]["value"] for r in section["runs"] if r["side"] == side]
                     for side in sides}
            section[metric] = summary(value["parent"], value["change"])
        section["all_correct"] = all(r["result"]["correct"] and not r["result"]["failed"] for r in section["runs"])
        out[workload] = section
    return out


def fresh(sides: dict, inputs: Path, argv: list[str], pairs: int) -> dict:
    def measure(name, root):
        out = Path(tempfile.mkdtemp(dir=inputs))
        code = ("import runpy, sys; sys.argv = ['omnisched'] + sys.argv[1:]\n"
                "try:\n    runpy.run_module('omnisched.cli', run_name='__main__')\n"
                "finally:\n    print('numpy' in sys.modules, file=sys.stderr)")
        wall, done = run_side(root, ["-c", code, *argv, "--out", str(out / "out")], inputs)
        record = {"wall_s": wall, "returncode": done.returncode, "numpy_loaded": done.stderr.split()[-1] == "True",
                  "digest": digest(out / "out")}
        shutil.rmtree(out)
        return record

    section = paired(sides, pairs, measure)
    walls = {side: [r["wall_s"] for r in section["runs"] if r["side"] == side] for side in sides}
    section["wall_s"] = summary(walls["parent"], walls["change"])
    section["same_bytes"] = len({r["digest"] for r in section["runs"]}) == 1
    return section


def refuse_stale_bytecode(sides: dict) -> None:
    """Exit non-zero, naming the directory, if a side holds a ``__pycache__``
    under ``src/`` or ``perfbench/``."""
    for root in sides.values():
        for top in ("src", "perfbench"):
            for cache in sorted((root / top).rglob("__pycache__")):
                sys.exit(f"{cache} holds bytecode: measure copies without __pycache__")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10, help="pairs of each large-trace measurement")
    parser.add_argument("--seconds", type=float, default=10.0, help="perfbench --seconds")
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": CHANGE}
    refuse_stale_bytecode(sides)
    sys.path.insert(0, str(CHANGE / "perfbench"))
    from inputs import make_inputs

    work = Path(tempfile.mkdtemp(prefix="bench-lazy-numpy-"))
    try:
        dirs = {w: work / w for w in ("large-trace", "layout-sweep", "moe-routing")}
        argvs = {}
        for w, d in dirs.items():
            argv = make_inputs(w, 1, d).argv
            k = argv.index("--out")
            argvs[w] = argv[:k] + argv[k + 2:]
        few = max(args.pairs // 2, 1)
        report = {
            "perfbench": perfbench(sides, {"large-trace": args.pairs, "layout-sweep": few,
                                           "moe-routing": few}, args.seconds),
            "fresh_wall": {
                "large-trace reproduce": fresh(sides, dirs["large-trace"], argvs["large-trace"], args.pairs),
                "large-trace plan": fresh(sides, dirs["large-trace"], ["plan", "--config", "scenario.yaml"],
                                          args.pairs),
                "layout-sweep simulate": fresh(sides, dirs["layout-sweep"], argvs["layout-sweep"], few),
                "moe-routing route": fresh(sides, dirs["moe-routing"], argvs["moe-routing"], few),
            },
        }

        def import_wall(name, root):
            wall, done = run_side(root, ["-c", "import omnisched.cli"], work)
            return {"wall_s": wall, "returncode": done.returncode}

        section = paired(sides, args.pairs, import_wall)
        walls = {side: [r["wall_s"] for r in section["runs"] if r["side"] == side] for side in sides}
        report["import_wall"] = {**section, "wall_s": summary(walls["parent"], walls["change"])}

        planner = {}
        for name, root in sides.items():
            _, done = run_side(root, ["-c", PLANNER, str(dirs["layout-sweep"] / "config.yaml"), "50"], work)
            result = json.loads(done.stdout)
            planner[name] = {"boundaries": result["boundaries"], "min_sweep_s": min(result["sweep_s"]),
                             "median_sweep_s": statistics.median(result["sweep_s"])}
        planner["same_boundaries"] = planner["parent"]["boundaries"] == planner["change"]["boundaries"]
        report["planner"] = planner

        traces = []
        for n in (10_000, 100_000):
            path = work / f"trace_{n}.ndjson"
            with path.open("w") as fh:
                fh.writelines(json.dumps({"id": i, "modality": ("text", "image", "audio", "video")[(i * 7) % 4],
                                          "length": (i * 7919) % 2000 + 1}) + "\n" for i in range(n))
            traces.append(str(path))
        loads = {}
        for name, root in sides.items():
            _, done = run_side(root, ["-c", LOAD_TRACE, *traces], work)
            loads[name] = json.loads(done.stdout)
        loads["same_summary"] = all(loads["parent"][n]["summary"] == loads["change"][n]["summary"]
                                    for n in loads["parent"])
        report["load_trace"] = loads
    finally:
        shutil.rmtree(work)

    report["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                      "nproc": os.cpu_count(), "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
