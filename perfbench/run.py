"""Benchmark of ``lme``: one workload per call, in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a child process with
BLAS pinned to one thread, so its peak memory is its own.  With ``--trace 0``
the set-up is done three times, each in a fresh process, and the median is
reported as ``setup_s``; the last of those processes then runs the timed
loop.  With ``--trace 1`` one process reports the per-layer numbers.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, with the metric names and units taken from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
DEADLINE_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child(args, extra, deadline) -> dict:
    """Run worker.py once and return the JSON object it prints last."""
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lme" / "__init__.py").is_file():
        print(f"error: no lme sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        result = child(args, ["--trace"], deadline)
        wanted, values = spec["per_layer"], result["layers"]
    else:
        setups = [child(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        result = child(args, [], deadline)
        setups.append(result["setup_s"])
        wanted, values = spec["end_to_end"], dict(result, setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the worker reported no {', '.join(missing)}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
