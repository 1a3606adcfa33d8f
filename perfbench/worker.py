"""One workload in one process: set-up, the timed closed loop and the
checks.  Prints one JSON line.  Start it through run.py, which pins the BLAS
thread count before numpy loads.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_OPS = 100  # leaves at least 10 samples beyond the 90th percentile
MAX_PROBLEMS = 5
COUNTERS = ("cli.report_bytes",)  # counted by a workload's check, not by a span


class Loop:
    """Closed loop over whole rounds: one operation in flight, and the next
    round starts only while the time budget lasts."""

    def __init__(self, workload, order, check_rng):
        self.workload = workload
        self.order = order
        self.check_rng = check_rng
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.counters: dict[str, float] = {}

    def run(self, seconds, min_ops, tracer=None):
        """Returns the latencies of the operations that returned, and the
        busy time of each round (every operation, raising ones too)."""
        latencies, rounds = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(latencies) < min_ops:
            busy = 0.0
            for item in self.order:
                self.attempted += 1
                if tracer is not None:
                    tracer.op_id += 1
                t0 = time.perf_counter()
                try:
                    out = self.workload.run(item)
                except Exception:
                    busy += time.perf_counter() - t0
                    self.failed += 1
                    self.note(traceback.format_exc(limit=3))
                    continue
                dt = time.perf_counter() - t0
                busy += dt
                latencies.append(dt)
                problems, counters = self.workload.check(item, out, self.check_rng)
                del out  # free a dense basis before the next operation
                if problems:
                    self.failed += 1
                    self.wrong += 1
                    self.note("; ".join(problems))
                for key, value in counters.items():
                    self.counters[key] = self.counters.get(key, 0.0) + value
            rounds.append(busy)
            if not latencies:
                break
        return latencies, rounds

    def note(self, text):
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)


def ops_per_s(latencies, rounds) -> float:
    """Completed operations per busy second, as the median over rounds: the
    machine is shared, and its speed drifts for seconds at a time."""
    per_round = len(latencies) / len(rounds)
    return statistics.median(per_round / busy for busy in rounds)


def end_to_end(latencies, rounds) -> dict:
    return {
        "ops_per_s": ops_per_s(latencies, rounds),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t_setup = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import lme

    if not Path(lme.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported lme from {lme.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items = workload.prepare(workload.shapes, args.seed, str(workdir))
        order = list(items)
        random.Random(args.seed).shuffle(order)
        loop = Loop(workload, order, np.random.default_rng([args.seed, 0xC4EC]))
        try:
            problems, _ = workload.check(items[0], workload.run(items[0]), loop.check_rng)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        setup_s = time.perf_counter() - t_setup
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if problems:
            loop.wrong += 1
            loop.note("warm-up: " + "; ".join(problems))
        out = {"setup_s": setup_s}
        if args.trace:
            out.update(traced_run(loop, args))
        else:
            latencies, rounds = loop.run(args.seconds, MIN_OPS)
            if not latencies:
                print("error: every operation failed: " + " | ".join(loop.problems), file=sys.stderr)
                return 1
            out.update(end_to_end(latencies, rounds))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.update(attempted=loop.attempted, failed=loop.failed, wrong=loop.wrong,
                   problems=loop.problems)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(loop, args) -> dict:
    """Half the time untraced, then half traced on the same inputs; the
    per-layer numbers come from the traced half, per operation, and the
    overhead is the traced half's slowdown against the untraced one."""
    from tracing import Tracer

    plain, plain_rounds = loop.run(args.seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    first = loop.attempted
    counters_before = dict(loop.counters)
    try:
        traced, traced_rounds = loop.run(args.seconds / 2, 1, tracer)
    finally:
        tracer.uninstall()
    ops = loop.attempted - first
    layers = {}
    for name, totals in tracer.layer_totals().items():
        for key, value in totals.items():
            layers[f"{name}.{key}"] = value / ops
    for key in COUNTERS:
        layers[key] = (loop.counters.get(key, 0.0) - counters_before.get(key, 0.0)) / ops
    if plain and traced:
        layers["trace.overhead_pct"] = 100.0 * (
            ops_per_s(plain, plain_rounds) / ops_per_s(traced, traced_rounds) - 1.0
        )
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    return {"layers": layers}


if __name__ == "__main__":
    sys.exit(main())
