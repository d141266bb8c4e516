"""Pin the output digests of the default seeds into digests.json.

Usage (from the repository root): python3 perfbench/pin_digests.py [first_seed] [last_seed]

Run it only on a commit whose results are known to be right: afterwards, a
change that alters any output byte of a pinned seed fails the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from inputs import WORKLOADS, make_inputs


def main(first: int = 0, last: int = 23) -> int:
    pins: dict[str, dict[str, str]] = {}
    for workload in sorted(WORKLOADS):
        pins[workload] = {}
        for seed in range(first, last + 1):
            inputs = make_inputs(workload, seed, run.WORK / f"pin-{workload}-{seed}")
            rep = run.repetition(inputs, traced=False)
            shutil.rmtree(inputs.directory)
            if rep.problems:
                print(f"{workload} seed {seed}: {rep.problems}", file=sys.stderr)
                return 1
            pins[workload][str(seed)] = rep.digest
            print(workload, seed, rep.digest, flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*(int(a) for a in sys.argv[1:])))
