"""The four workloads: what one operation calls, on which inputs, and how
its output is checked.

A workload is a fixed round of shapes.  Every round holds a number of
operations that is 5 modulo 10, and runs are made of whole rounds, so the
median and the 90th percentile always fall in the middle of one shape's
block of samples, never on the edge between two size classes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import lme
import lme.cli

import checks
from gen import EqShape, PairShape, equation_instance, pair_instance


# EqShape fields: kind, n, k, zero_rows, inconsistent, unitary, pool, template.
# n 4-12, k 1-4, consistent and inconsistent, unitary and not.
VERIFY_SWEEP = [
    EqShape("general", 4, 1, 1, False, True, 3, 101),
    EqShape("general", 4, 2, 1, True, False, 3, 102),
    EqShape("general", 5, 3, 1, False, False, 3, 103),
    EqShape("general", 6, 2, 2, False, True, 3, 104),
    EqShape("general", 6, 4, 1, True, False, 4, 105),
    EqShape("general", 7, 1, 1, True, True, 3, 106),
    EqShape("general", 8, 2, 1, False, False, 3, 107),
    EqShape("general", 8, 3, 2, True, True, 4, 108),
    EqShape("general", 9, 2, 1, False, False, 4, 109),
    EqShape("general", 10, 1, 2, False, False, 3, 110),
    EqShape("general", 10, 3, 1, False, True, 4, 111),
    EqShape("general", 11, 2, 1, True, False, 3, 112),
    EqShape("general", 12, 2, 1, False, True, 4, 113),
    EqShape("general", 12, 4, 1, False, False, 4, 114),
    EqShape("general", 12, 3, 2, True, False, 4, 115),
]

# The ROADMAP ladder: 6 x n=16, 7 x n=64, 2 x n=128, so the median falls
# among the n=64 solves and the 90th percentile on an n=128 solve.  The
# templates were picked for dimensions (the trailing comments) that keep
# each size class apart: the dense basis grows with the dimension.
LADDER_SOLVE = [
    EqShape("general", 16, 2, 1, False, False, 4, 200),  # 13
    EqShape("general", 16, 3, 1, False, False, 4, 201),  # 7
    EqShape("general", 16, 2, 1, False, False, 4, 202),  # 26
    EqShape("general", 16, 3, 1, True, False, 4, 203),  # 6, inconsistent
    EqShape("general", 16, 2, 1, False, False, 4, 204),  # 17
    EqShape("general", 16, 3, 1, False, False, 4, 205),  # 7
    EqShape("general", 64, 2, 1, False, False, 4, 1300),  # 103
    EqShape("general", 64, 3, 1, False, False, 4, 1301),  # 209
    EqShape("general", 64, 2, 1, False, False, 4, 302),  # 194
    EqShape("general", 64, 3, 1, False, False, 4, 303),  # 172
    EqShape("general", 64, 2, 1, True, False, 4, 304),  # 181, inconsistent
    EqShape("general", 64, 3, 1, False, False, 4, 2305),  # 202
    EqShape("general", 64, 2, 1, False, False, 4, 306),  # 138
    EqShape("general", 128, 2, 1, False, False, 4, 1400),  # 808
    EqShape("general", 128, 3, 1, False, False, 5, 5401),  # 882
]

# Every command at every size, plus a second n=8 instance of each, so the
# median falls among the n=16 and the 90th percentile among the n=32 calls.
# The report holds one dense matrix per dimension, so the templates keep the
# dimension at 8-24 for n=16 and 12-28 for n=24 and n=32.
CLI_FILES = [
    EqShape("general", 8, 2, 1, False, False, 4, 508),  # 9
    EqShape("general", 8, 2, 1, False, False, 4, 1508),  # 8
    EqShape("general", 16, 2, 1, True, False, 4, 1516),  # 12, inconsistent
    EqShape("general", 24, 2, 1, False, False, 4, 10524),  # 22
    EqShape("general", 32, 2, 1, False, False, 4, 15532),  # 28
    EqShape("sylvester", 8, 2, 1, False, False, 4, 518),  # 4
    EqShape("sylvester", 8, 2, 1, False, False, 4, 1518),  # 4
    EqShape("sylvester", 16, 2, 1, False, False, 4, 526),  # 16
    EqShape("sylvester", 24, 2, 1, False, False, 4, 20534),  # 17
    EqShape("sylvester", 32, 2, 1, False, False, 4, 8542),  # 28
    EqShape("stein", 8, 2, 1, False, False, 4, 528),  # 1
    EqShape("stein", 8, 2, 1, False, False, 4, 1528),  # 5
    EqShape("stein", 16, 2, 1, True, False, 4, 1536),  # 13, inconsistent
    EqShape("stein", 24, 2, 1, False, False, 4, 11544),  # 16
    EqShape("stein", 32, 2, 1, False, False, 4, 122552),  # 19
    EqShape("clyap", 8, 2, 1, False, False, 4, 538),  # 10
    EqShape("clyap", 8, 2, 1, False, False, 4, 1538),  # 5
    EqShape("clyap", 16, 2, 1, False, False, 4, 546),  # 10
    EqShape("clyap", 24, 2, 1, False, False, 4, 1554),  # 17
    EqShape("clyap", 32, 2, 1, False, False, 4, 21562),  # 16
    EqShape("dlyap", 8, 2, 1, False, False, 4, 548),  # 2
    EqShape("dlyap", 8, 2, 1, False, False, 4, 2548),  # 1
    EqShape("dlyap", 16, 2, 1, False, False, 4, 3556),  # 10
    EqShape("dlyap", 24, 2, 1, False, False, 4, 12564),  # 17
    EqShape("dlyap", 32, 2, 1, False, False, 4, 6572),  # 25
]

# 7 pairs with distinct eigenvalues of A (n 4-7) and 8 with repeated ones.
PAIR_DIAG = [
    *(PairShape(n, True, 0, 600 + i) for i, n in enumerate((4, 4, 5, 5, 6, 6, 7))),
    *(PairShape(n, False, lv, 700 + i)
      for i, (n, lv) in enumerate(((6, 2), (6, 3), (7, 2), (7, 3), (8, 2), (8, 3), (8, 4), (8, 4)))),
]


@dataclass
class Workload:
    shapes: list
    prepare: Callable  # (shapes, seed, workdir) -> items, run at set-up
    run: Callable  # item -> output, the timed operation
    check: Callable  # (item, output, rng) -> (problems, counters)


def _prepare_equations(shapes, seed, workdir):
    return [equation_instance(shape, seed, slot) for slot, shape in enumerate(shapes)]


def _verify_run(inst):
    spec = lme.equation_spec(inst.a_list, inst.b_list, inst.rhs)
    result = lme.solve(spec)
    verdict, _evidence = lme.check_consistent(spec)
    report = lme.compare(result, lme.vectorize(spec))
    return result, verdict, report


def _verify_check(inst, output, rng):
    result, verdict, report = output
    return (
        checks.check_solution_set(inst, result, rng)
        + checks.check_verdict(inst, verdict, None, "check_consistent")
        + checks.check_verdict(inst, report.consistent, report.dimension, "compare")
    ), {}


def _ladder_run(inst):
    return lme.solve(lme.equation_spec(inst.a_list, inst.b_list, inst.rhs))


def _ladder_check(inst, result, rng):
    return checks.check_solution_set(inst, result, rng), {}


@dataclass
class CliCall:
    inst: object
    argv: list
    out: str


def _write(path, m):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checks.matrix_payload(m), fh)
    return path


def _prepare_cli(shapes, seed, workdir):
    calls = []
    for slot, inst in enumerate(_prepare_equations(shapes, seed, workdir)):
        base = os.path.join(workdir, f"i{slot}")
        kind = inst.shape.kind
        if kind == "general":
            argv = ["solve"]
            for j, (a, b) in enumerate(zip(inst.a_list, inst.b_list)):
                argv += ["--a", _write(f"{base}_a{j}.json", a), "--b", _write(f"{base}_b{j}.json", b)]
        else:
            argv = [kind, "--a", _write(f"{base}_a.json", inst.a_mat)]
            if inst.b_mat is not None:
                argv += ["--b", _write(f"{base}_b.json", inst.b_mat)]
        out = f"{base}_report.json"
        argv += ["--c", _write(f"{base}_c.json", inst.rhs), "--out", out]
        calls.append(CliCall(inst, argv, out))
    return calls


def _cli_run(call):
    return lme.cli.main(call.argv)


def _cli_check(call, code, rng):
    inst = call.inst
    want = 0 if inst.consistent else 3
    problems = [] if code == want else [f"cli: exit code {code}, expected {want}"]
    with open(call.out, "r", encoding="utf-8") as fh:
        text = fh.read()
    report = json.loads(text)
    problems += checks.check_verdict(inst, report["consistent"], report["dimension"], "cli")
    problems += checks.check_x_hat(inst, checks.payload_matrix(report["x_hat"]), "cli")
    return problems, {"cli.report_bytes": len(text.encode("utf-8"))}


def _prepare_pairs(shapes, seed, workdir):
    return [pair_instance(shape, seed, slot) for slot, shape in enumerate(shapes)]


def _pair_run(inst):
    return lme.induced_pair_without_diagonalizer(inst.a, inst.b)


def _pair_check(inst, output, rng):
    avec, bvec, _collisions, _beta = output
    return checks.check_pairs(inst.pairs, avec, bvec), {}


WORKLOADS = {
    "verify-sweep": Workload(VERIFY_SWEEP, _prepare_equations, _verify_run, _verify_check),
    "ladder-solve": Workload(LADDER_SOLVE, _prepare_equations, _ladder_run, _ladder_check),
    "cli-files": Workload(CLI_FILES, _prepare_cli, _cli_run, _cli_check),
    "pair-diag": Workload(PAIR_DIAG, _prepare_pairs, _pair_run, _pair_check),
}
