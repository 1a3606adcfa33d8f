"""Tests of the benchmark itself: planted truth, checks, negative controls
and tracing.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as in a benchmark run

import numpy as np  # noqa: E402
import pytest  # noqa: E402

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import lme  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Loop  # noqa: E402


def _eq_truth_by_oracle(inst):
    """Consistency and dimension from a plain Kronecker SVD, for small n."""
    n = inst.shape.n
    op = sum(np.kron(b.T, a) for a, b in zip(inst.a_list, inst.b_list))
    u, s, vh = np.linalg.svd(op)
    rank = int(np.count_nonzero(s > 1e-9 * s[0]))
    rhs = inst.rhs.flatten(order="F")
    x = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ rhs) / s[:rank])
    consistent = np.linalg.norm(op @ x - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))
    return bool(consistent), n * n - rank


@pytest.mark.parametrize("shape", workloads.VERIFY_SWEEP + [
    s for s in workloads.CLI_FILES if s.n <= 16
])
def test_planted_truth_matches_brute_force(shape):
    inst = gen.equation_instance(shape, seed=7, slot=0)
    assert _eq_truth_by_oracle(inst) == (inst.consistent, inst.dimension)


def test_seed_changes_inputs_not_truth():
    shape = workloads.LADDER_SOLVE[0]
    a, b = gen.equation_instance(shape, 1, 0), gen.equation_instance(shape, 2, 0)
    again = gen.equation_instance(shape, 1, 0)
    assert np.array_equal(a.rhs, again.rhs)
    assert not np.allclose(a.a_list[0], b.a_list[0])
    assert (a.consistent, a.dimension) == (b.consistent, b.dimension)


def test_named_forms_take_normal_a_and_hermitian_c():
    for shape in workloads.CLI_FILES:
        if shape.kind in ("clyap", "dlyap"):
            inst = gen.equation_instance(shape, 3, 0)
            assert lme.is_normal(inst.a_mat)
            assert np.allclose(inst.rhs, inst.rhs.conj().T)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_passes_every_check(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    items = wl.prepare(wl.shapes, 0, str(tmp_path))
    loop = Loop(wl, items, np.random.default_rng(0))
    latencies, _rounds = loop.run(0.0, 1)
    assert len(wl.shapes) % 10 == 5
    assert (loop.attempted, loop.failed, loop.wrong) == (len(items), 0, 0), loop.problems
    assert len(latencies) == len(items)


# --- negative controls: each corruption must count as a failed operation


def _loop_with(name, corrupt, tmp_path, pick=lambda item: True):
    wl = workloads.WORKLOADS[name]
    items = [i for i in wl.prepare(wl.shapes, 0, str(tmp_path)) if pick(i)][:1]
    bad = dataclasses.replace(wl, run=lambda item: corrupt(wl.run(item)))
    loop = Loop(bad, items, np.random.default_rng(0))
    loop.run(0.0, 1)
    return loop


def _consistent_with_basis(inst):
    return inst.consistent and inst.dimension > 0


def test_corrupted_x_hat_fails(tmp_path):
    def corrupt(result):
        return dataclasses.replace(result, x_hat=result.x_hat + 1e-3)

    loop = _loop_with("ladder-solve", corrupt, tmp_path, _consistent_with_basis)
    assert (loop.attempted, loop.failed, loop.wrong) == (1, 1, 1)
    assert "X_hat residual" in loop.problems[0]


def test_wrong_dimension_fails(tmp_path):
    def corrupt(result):
        return dataclasses.replace(result, dimension=result.dimension + 1)

    loop = _loop_with("ladder-solve", corrupt, tmp_path, _consistent_with_basis)
    assert (loop.failed, loop.wrong) == (1, 1)
    assert "dimension" in loop.problems[0]


def test_basis_outside_the_solution_space_fails(tmp_path):
    def corrupt(result):
        return dataclasses.replace(result, basis=tuple(b + 1e-3 for b in result.basis))

    loop = _loop_with("ladder-solve", corrupt, tmp_path, _consistent_with_basis)
    assert (loop.failed, loop.wrong) == (1, 1)
    assert "homogeneous residual" in loop.problems[0]


def test_swapped_pair_fails(tmp_path):
    def corrupt(output):
        avec, bvec, collisions, beta = output
        bvec = bvec.copy()
        i, j = next((i, j) for i in range(len(bvec)) for j in range(i)
                    if abs(bvec[i] - bvec[j]) > 0.5 and abs(avec[i] - avec[j]) > 0.5)
        bvec[[i, j]] = bvec[[j, i]]
        return avec, bvec, collisions, beta

    loop = _loop_with("pair-diag", corrupt, tmp_path)
    assert (loop.failed, loop.wrong) == (1, 1)
    assert "not a planted pair" in loop.problems[0]


def test_cli_report_with_wrong_dimension_fails(tmp_path):
    def corrupt(code):
        report = json.loads(Path(call.out).read_text())
        report["dimension"] += 1
        Path(call.out).write_text(json.dumps(report))
        return code

    wl = workloads.WORKLOADS["cli-files"]
    call = wl.prepare(wl.shapes[:1], 0, str(tmp_path))[0]
    loop = Loop(dataclasses.replace(wl, run=lambda c: corrupt(wl.run(c))), [call],
                np.random.default_rng(0))
    loop.run(0.0, 1)
    assert (loop.failed, loop.wrong) == (1, 1)


def test_raising_operation_counts_as_failed_not_wrong(tmp_path):
    def corrupt(_output):
        raise lme.RefinementFailureError("injected")

    loop = _loop_with("verify-sweep", corrupt, tmp_path)
    assert (loop.attempted, loop.failed, loop.wrong) == (1, 1, 0)


# --- tracing


def test_tracer_rebinds_callers_and_restores():
    original = lme.equations.solve
    inst = gen.equation_instance(workloads.VERIFY_SWEEP[6], 0, 0)
    spec = lme.equation_spec(inst.a_list, inst.b_list, inst.rhs)
    tracer = Tracer()
    tracer.install()
    try:
        assert lme.solve is lme.equations.solve is not original
        tracer.op_id = 0
        lme.check_consistent(spec)
    finally:
        tracer.uninstall()
    assert lme.solve is lme.equations.solve is original
    totals = tracer.layer_totals()
    assert totals["equations.check_consistent"]["calls"] == 1
    assert totals["equations.solve"]["calls"] == 1
    assert totals["geninv.drazin"]["calls"] == 1
    by_name = {span[0]: span for span in tracer.spans}
    parent = tracer.spans[by_name["equations.solve"][3]]
    assert parent[0] == "equations.check_consistent"
    cc = totals["equations.check_consistent"]
    assert 0 < cc["self_s"] < cc["s"]
    assert all(span[4] == 0 for span in tracer.spans)
