"""One benchmark repetition, run in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the source tree, the working directory, the ``omnisched``
argument list and whether to trace. The worker times ``import omnisched.cli``,
then the call into ``omnisched.cli.main`` (after import), and prints one JSON
line with both times, the exit code, the process's peak RSS, the seconds of
the calibration loop run in the same process and, when tracing, the per-layer
metrics. With no argument list it only imports and calibrates.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def calibrate() -> float:
    """Seconds this process takes for a fixed amount of work that uses no
    omnisched code: dict, list and sort work in Python (as in the packing and
    schedule loops) and small numpy array operations (as in routing). Its time
    tracks how fast the host runs right now; the collector is off so that
    what omnisched left on the heap does not change it."""
    import numpy as np

    gc_was_on = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(300_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i % 7
    for _ in range(4):  # small ints and a small list, to add little to the peak RSS
        xs = [(i * 7919) % 251 for i in range(50_000)]
        xs.sort()
    a = np.sin(np.arange(256 * 64, dtype=np.float64)).reshape(256, 64)
    for _ in range(250):  # elementwise work and sorts only: no BLAS buffers
        b = np.cumsum(a, axis=1)
        a = a + 0.001 * np.tanh(b) / (1 + np.abs(b).max())
        np.argsort(a, axis=1)
    seconds = time.perf_counter() - start
    if gc_was_on:
        gc.enable()
    return seconds


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import omnisched.cli as cli

    result = {"import_s": time.perf_counter() - start}
    if spec["argv"] is None:
        result["cal_s"] = calibrate()
    else:
        entry = cli.main
        tracer = None
        if spec["trace"]:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracer as tracing

            tracer = tracing.Tracer()
            entry = tracing.install(tracer)
        os.chdir(spec["cwd"])
        cal_before = calibrate()
        start = time.perf_counter()
        try:
            rc = entry(spec["argv"])
        except Exception:  # an uncaught error is a failed run, as for the real CLI
            traceback.print_exc()
            rc = 1
        result["run_s"] = time.perf_counter() - start
        result["rc"] = rc
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["cal_s"] = (cal_before + calibrate()) / 2
        if tracer is not None:
            result["layers"] = tracer.metrics()
            Path(spec["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
