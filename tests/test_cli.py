import argparse
import json
import os

import numpy as np
import pytest

import lme.cli
import lme.equations
import lme.simdiag
from lme.cli import (
    EXIT_ERROR,
    EXIT_HYPOTHESIS,
    EXIT_INCONSISTENT,
    EXIT_MISMATCH,
    EXIT_OK,
    dump_matrix,
    load_matrix,
    main,
    write_matrix,
)
from lme.instances import random_diagonalizer, random_equation_instance
from lme.tolerances import TOL_CLUSTER, TOL_RANK, TOL_RES, TOL_ZERO

HOMOG_A = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
HOMOG_B = np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 2]], dtype=complex)
JORDAN = np.array([[1, 1], [0, 1]], dtype=complex)
STEIN2_A = np.array([[1, 1], [1, -1]], dtype=complex)
STEIN2_C = np.array([[0, 1], [-1, 0]], dtype=complex)


@pytest.fixture
def files(tmp_path):
    def _write(name, matrix):
        path = tmp_path / name
        write_matrix(str(path), np.asarray(matrix, dtype=complex))
        return str(path)

    return _write, tmp_path


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def payload_to_matrix(payload):
    return np.array(
        [[complex(re, im) for re, im in row] for row in payload["data"]], dtype=complex
    )


def report_basis(report):
    """The members S E_rs S^{-1} a structured report stands for."""
    s, s_inv = payload_to_matrix(report["S"]), payload_to_matrix(report["S_inv"])
    return [np.outer(s[:, r], s_inv[c, :]) for r, c in report["zero_cells"]]


class TestMatrixFiles:
    def test_json_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(80)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = tmp_path / "m.json"
        write_matrix(str(path), m)
        first = path.read_bytes()
        parsed = load_matrix(str(path))
        np.testing.assert_array_equal(parsed, m)
        write_matrix(str(path), parsed)
        assert path.read_bytes() == first

    def test_text_format(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# comment\n1+2j -1\n0 3.5\n")
        m = load_matrix(str(path))
        np.testing.assert_array_equal(m, np.array([[1 + 2j, -1], [0, 3.5]]))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2, "data": [[[1, 0]]]}')
        with pytest.raises(ValueError):
            load_matrix(str(path))

    def test_dump_is_one_compact_line(self, tmp_path):
        m = np.random.default_rng(81).standard_normal((4, 4)) * (1 - 2j)
        path = tmp_path / "m.json"
        write_matrix(str(path), m)
        text = path.read_text()
        assert text == dump_matrix(m) and text.count("\n") == 1 and text.endswith("}\n")
        np.testing.assert_array_equal(load_matrix(str(path)), m)

    def test_dump_shape(self):
        text = dump_matrix(np.eye(2))
        payload = json.loads(text)
        assert payload["rows"] == 2 and payload["cols"] == 2
        assert payload["data"][0][0] == [1.0, 0.0]


class TestSolveCommand:
    def test_homogeneous_example(self, files):
        write, tmp = files
        out = tmp / "report.json"
        code = main([
            "solve",
            "--a", write("a1.json", HOMOG_A),
            "--a", write("a2.json", 2 * np.eye(3)),
            "--b", write("b1.json", HOMOG_B),
            "--b", write("b2.json", np.eye(3)),
            "--c", write("c.json", np.zeros((3, 3))),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        report = read_report(out)
        assert report["consistent"] is True
        assert report["dimension"] == 2
        assert len(report["zero_cells"]) == 2
        assert "basis" not in report
        assert payload_to_matrix(report["S"]).shape == (3, 3)
        assert payload_to_matrix(report["S_inv"]).shape == (3, 3)
        assert all(v is True for v in report["equivalence_checks"].values())
        assert all(np.isfinite(v) for v in report["residuals"].values())

    def test_residuals_are_those_of_the_reported_matrices(self, files):
        write, tmp = files
        spec, _ = random_equation_instance(np.random.default_rng(61), 6, 2, zero_diag_rows=2)
        out = tmp / "report.json"
        args = ["solve", "--c", write("c.json", spec.rhs), "--out", str(out)]
        for j, (a, b) in enumerate(zip(spec.a_list, spec.b_list)):
            args += ["--a", write(f"a{j}.json", a), "--b", write(f"b{j}.json", b)]
        assert main(args) == EXIT_OK
        report = read_report(out)
        x = payload_to_matrix(report["x_hat"])
        basis = report_basis(report)
        residuals = report["residuals"]
        assert residuals["x_hat_equation"] == lme.equations.equation_residual(spec, x)
        assert residuals["x_hat_standard"] == lme.equations.standard_residual(spec, x)
        dense = lme.equations.basis_residual_max(spec, basis)
        assert residuals["basis_homogeneous_max"] == pytest.approx(dense, rel=1e-6, abs=1e-13)

    def test_malformed_file_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for payload in (
            "not json at all {{{",
            '{"rows": 1, "cols": 1, "data": 5}',
            '{"rows": 1, "cols": 1, "data": [[["a", "b"]]]}',
            '{"rows": 1, "cols": 1, "data": [[[1, null]]]}',
            '{"rows": null, "cols": 1, "data": [[[1, 0]]]}',
            '{"rows": 1, "cols": 1, "data": [[{"re": 1}]]}',
            '{"rows": 2, "cols": 1, "data": [[[1, 0]], [[1, 0], [2, 0]]]}',
            '{"rows": 1, "cols": 1}',
        ):
            bad.write_text(payload)
            code = main([
                "solve", "--a", str(bad), "--b", str(bad), "--c", str(bad),
            ])
            assert code == EXIT_ERROR, payload
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: "), payload
        assert err == f"error: {bad}: missing key 'data'\n"
        missing = tmp_path / "absent.json"
        assert main(["diagonalize", str(missing)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    def test_reads_each_file_once_and_solves_once(self, files, monkeypatch):
        write, tmp = files
        paths = [
            "--a", write("a1.json", HOMOG_A),
            "--a", write("a2.json", 2 * np.eye(3)),
            "--b", write("b1.json", HOMOG_B),
            "--b", write("b2.json", np.eye(3)),
            "--c", write("c.json", np.zeros((3, 3))),
        ]
        calls = {"load_matrix": 0, "solve": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(lme.cli, "load_matrix")
        counted(lme.equations, "solve")
        assert main(["solve", *paths, "--out", str(tmp / "r.json")]) == EXIT_OK
        assert calls == {"load_matrix": 5, "solve": 1}

    def test_inconsistent_exit(self, files):
        write, tmp = files
        # gamma[1, 1] = 0 but the matching right-hand side eigenvalue is not
        a = np.diag([1.0, 0.0])
        c = np.diag([1.0, 1.0])
        out = tmp / "r.json"
        code = main([
            "solve",
            "--a", write("a.json", a),
            "--b", write("b.json", np.eye(2)),
            "--c", write("c.json", c),
            "--out", str(out),
        ])
        assert code == EXIT_INCONSISTENT
        report = read_report(out)
        assert report["consistent"] is False
        # rows refer to the solver's canonical eigenvalue order (0 sorts first)
        assert report["witness_row"] == 0
        assert [0, 0] in report["zero_cells"]


class TestNamedCommands:
    def test_stein_jordan_refused(self, files, capsys):
        write, _ = files
        code = main([
            "stein",
            "--a", write("a.json", JORDAN),
            "--b", write("b.json", JORDAN),
            "--c", write("c.json", np.eye(2)),
        ])
        assert code == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert "NotDiagonalizable" in err

    def test_stein_noncommuting_names_the_members_by_role(self, files, capsys):
        # inside solve the Stein family is (A, -I, B, I, C)
        write, _ = files
        d = write("d.json", np.diag([1.0, 2.0]))
        code = main(["stein", "--a", d, "--b", d, "--c", write("c.json", STEIN2_C)])
        assert code == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert err.startswith("hypothesis violated: NotCommutingError: A[0] and C do not commute (")

    def test_stein_noncommuting_refused_then_oracle(self, files):
        write, tmp = files
        # A X A - 2X = C rescaled into Stein form: (A/2) X A - X = C/2
        args = [
            "stein",
            "--a", write("a.json", STEIN2_A / 2),
            "--b", write("b.json", STEIN2_A),
            "--c", write("c.json", STEIN2_C / 2),
        ]
        assert main(args) == EXIT_HYPOTHESIS
        out = tmp / "oracle.json"
        code = main(args + ["--force-oracle", "--out", str(out)])
        assert code == EXIT_OK
        report = read_report(out)
        assert report["mode"] == "oracle"
        assert report["consistent"] is True
        assert report["dimension"] == 2

    def test_clyap_counterexample_report(self, files, capsys):
        write, tmp = files
        args = [
            "clyap",
            "--a", write("a.json", np.array([[0, 1], [0, 0]])),
            "--c", write("c.json", np.zeros((2, 2))),
        ]
        assert main(args) == EXIT_HYPOTHESIS
        assert "NotNormal" in capsys.readouterr().err
        out = tmp / "r.json"
        code = main(args + ["--force-oracle", "--out", str(out)])
        assert code == EXIT_OK
        report = read_report(out)
        # the report must show the true dimension and the eigenvalue-pair
        # count side by side
        assert report["dimension"] == 2
        assert report["formula_count"] == 4
        assert any("WARNING" in d for d in report["diagnostics"])

    def test_dlyap_counterexample_report(self, files):
        write, tmp = files
        out = tmp / "r.json"
        args = [
            "dlyap",
            "--a", write("a.json", JORDAN),
            "--c", write("c.json", np.zeros((2, 2))),
        ]
        assert main(args) == EXIT_HYPOTHESIS
        code = main(args + ["--force-oracle", "--out", str(out)])
        assert code == EXIT_OK
        report = read_report(out)
        assert report["dimension"] == 2
        assert report["formula_count"] == 4

    def test_dlyap_zero_coefficient(self, files):
        write, tmp = files
        out = tmp / "r.json"
        code = main([
            "dlyap",
            "--a", write("a.json", np.zeros((2, 2))),
            "--c", write("c.json", -np.eye(2)),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        report = read_report(out)
        assert report["dimension"] == 0
        np.testing.assert_allclose(payload_to_matrix(report["x_hat"]), np.eye(2), atol=1e-10)

    def test_sylvester_unique(self, files):
        write, tmp = files
        out = tmp / "r.json"
        code = main([
            "sylvester",
            "--a", write("a.json", np.diag([1.0, 2.0])),
            "--b", write("b.json", np.diag([3.0, 4.0])),
            "--c", write("c.json", np.eye(2)),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        report = read_report(out)
        assert report["formula_count"] == 0
        np.testing.assert_allclose(
            payload_to_matrix(report["x_hat"]), np.diag([0.25, 1 / 6]), atol=1e-9
        )


def _similar(s, vec):
    return s @ np.diag(np.asarray(vec, dtype=complex)) @ np.linalg.inv(s)


# form -> (A, B or None, C), each a consistent instance
_S = np.array([[2, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1], [0, 0, 1, 2]], dtype=complex)
_U = np.linalg.qr(np.arange(16).reshape(4, 4) + np.eye(4) * 1j + 1)[0]
NAMED_CASES = {
    # a_0 + b_0 = 0 and a_1 + b_2 = 0, with c_0 = 0
    "sylvester": (_similar(_S, [1, 2, 3, 4]), _similar(_S, [-1, 5, -2, 1]), _similar(_S, [0, 1, 2, 1])),
    # a_0 b_0 = 1 and a_2 b_2 = 1, with c_0 = c_2 = 0
    "stein": (_similar(_S, [1, 2, 0.5, 3]), _similar(_S, [1, 3, 2, 4]), _similar(_S, [0, 1, 0, 1])),
    # normal A with conj(a_r) + a_r = 0 for r = 0, 1; Hermitian C with c_0 = c_1 = 0
    "clyap": (_similar(_U, [1j, -1j, 2, 1 + 1j]), None, _similar(_U, [0, 0, 1, -2])),
    # normal A with conj(a_r) a_s = 1 on the diagonal for r = 0, 1 and off it
    # for (2, 3), (3, 2); Hermitian C with c_0 = c_1 = 0
    "dlyap": (_similar(_U, [1, 1j, 2, 0.5]), None, _similar(_U, [0, 0, 1, 3])),
}
LIBRARY_SOLVERS = {
    "sylvester": lambda a, b, c: lme.solve_sylvester(a, b, c),
    "stein": lambda a, b, c: lme.solve_stein(a, b, c),
    "clyap": lambda a, b, c: lme.solve_continuous_lyapunov(a, c),
    "dlyap": lambda a, b, c: lme.solve_discrete_lyapunov(a, c),
}


@pytest.mark.parametrize("form", sorted(NAMED_CASES))
def test_named_form_matches_library(files, form):
    write, tmp = files
    a, b, c = NAMED_CASES[form]
    argv = [form, "--a", write("a.json", a)]
    if b is not None:
        argv += ["--b", write("b.json", b)]
    out = tmp / "r.json"
    assert main(argv + ["--c", write("c.json", c), "--out", str(out)]) == EXIT_OK
    report = read_report(out)
    result = LIBRARY_SOLVERS[form](a, b, c)
    assert result.consistent and result.dimension > 0
    assert report["mode"] == "structured"
    assert report["consistent"] is result.consistent
    assert report["dimension"] == result.dimension
    np.testing.assert_allclose(payload_to_matrix(report["x_hat"]), result.x_hat, atol=1e-9)
    assert report["formula_count"] == lme.named_form_pair_count(form, a, b)
    assert report["formula_count"] == report["dimension"]


# (command, case) -> (A, B, C); for solve, A and B are lists.  Each case's
# verdict is checked against the library before the report is compared.
REPORT_CASES = {
    ("solve", "consistent"): ([HOMOG_A, 2 * np.eye(3)], [HOMOG_B, np.eye(3)], np.zeros((3, 3))),
    ("solve", "inconsistent"): ([np.diag([1.0, 0.0])], [np.eye(2)], np.eye(2)),
    ("solve", "dimension 0"): (
        [_similar(_S, [1, 2, 3, 4])], [_similar(_S, [1, 1, 2, 2])], _similar(_S, [1, 0, 2, 1])
    ),
    **{(form, "consistent"): case for form, case in NAMED_CASES.items()},
    ("sylvester", "inconsistent"): (*NAMED_CASES["sylvester"][:2], _similar(_S, [1, 1, 2, 1])),
    ("sylvester", "dimension 0"): (
        _similar(_S, [1, 2, 3, 4]), _similar(_S, [5, 6, 7, 8]), _similar(_S, [0, 1, 2, 1])
    ),
    ("stein", "inconsistent"): (*NAMED_CASES["stein"][:2], _similar(_S, [1, 1, 0, 1])),
    ("stein", "dimension 0"): (
        _similar(_S, [1, 2, 0.5, 3]), _similar(_S, [5, 6, 7, 8]), _similar(_S, [0, 1, 0, 1])
    ),
    ("clyap", "inconsistent"): (NAMED_CASES["clyap"][0], None, _similar(_U, [1, 0, 1, -2])),
    ("clyap", "dimension 0"): (_similar(_U, [1, 2, 3, 1 + 1j]), None, _similar(_U, [0, 0, 1, -2])),
    ("dlyap", "inconsistent"): (NAMED_CASES["dlyap"][0], None, _similar(_U, [1, 0, 1, 3])),
    ("dlyap", "dimension 0"): (_similar(_U, [2, 3, 4, 5]), None, _similar(_U, [0, 0, 1, 3])),
}


def equation_argv(files, command, a, b, c):
    """Write the matrices to files; return the argv that runs ``command``
    on them and the spec the library builds from the same matrices."""
    write, tmp = files
    if command == "solve":
        spec = lme.equations.equation_spec(a, b, c)
        argv = ["solve"]
        for j, (aj, bj) in enumerate(zip(a, b)):
            argv += ["--a", write(f"a{j}.json", aj), "--b", write(f"b{j}.json", bj)]
    else:
        spec = lme.equations.named_form_spec(command, a, c, b)
        argv = [command, "--a", write("a.json", a)]
        if b is not None:
            argv += ["--b", write("b.json", b)]
    return argv + ["--c", write("c.json", c), "--out", str(tmp / "r.json")], spec


@pytest.mark.parametrize("command, case", sorted(REPORT_CASES))
def test_report_rebuilds_the_library_solution_set(files, command, case):
    argv, spec = equation_argv(files, command, *REPORT_CASES[command, case])
    code = main(argv)
    report = read_report(argv[-1])
    result = lme.solve(spec)
    assert {
        "consistent": result.consistent and result.dimension > 0,
        "inconsistent": not result.consistent,
        "dimension 0": result.consistent and result.dimension == 0,
    }[case]
    assert code == (EXIT_OK if result.consistent else EXIT_INCONSISTENT)
    assert report["mode"] == "structured"
    assert report["consistent"] is result.consistent
    assert report["dimension"] == result.dimension
    np.testing.assert_array_equal(payload_to_matrix(report["x_hat"]), result.x_hat)
    rebuilt = report_basis(report)
    library = tuple(result.basis)
    assert len(rebuilt) == len(library) == result.dimension
    for mine, theirs in zip(rebuilt, library):
        np.testing.assert_array_equal(mine, theirs)


def sylvester_dimension_n(n):
    """A X + X (-A) = 0 with distinct eigenvalues: the dimension is n."""
    rng = np.random.default_rng(n)
    s = lme.instances.random_diagonalizer(rng, n)
    a = _similar(s, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return a, -a, np.zeros((n, n))


PAYLOAD_CASES = {
    "dimension 0": ("solve", *REPORT_CASES["solve", "dimension 0"]),
    "dimension 2": ("solve", *REPORT_CASES["solve", "consistent"]),
    "dimension 8": ("sylvester", *sylvester_dimension_n(8)),
}


@pytest.mark.parametrize("case", sorted(PAYLOAD_CASES))
def test_report_encodes_three_matrices_whatever_the_dimension(files, monkeypatch, case):
    argv, spec = equation_argv(files, *PAYLOAD_CASES[case])
    calls = []
    original = lme.cli.matrix_payload

    def counted(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(lme.cli, "matrix_payload", counted)
    assert main(argv) == EXIT_OK
    assert read_report(argv[-1])["dimension"] == int(case.split()[-1])
    # x_hat, S and S_inv
    assert calls == [(spec.n, spec.n)] * 3


def test_report_size_is_quadratic_in_n(files):
    per_entry = {}
    for n in (8, 16, 32):
        argv, _ = equation_argv(files, "sylvester", *sylvester_dimension_n(n))
        assert main(argv) == EXIT_OK
        assert read_report(argv[-1])["dimension"] == n
        per_entry[n] = os.path.getsize(argv[-1]) / n**2
    # x_hat, S and S_inv take about 100 bytes per entry together; a dense
    # basis of n members would make the bytes per entry grow like n
    assert max(per_entry.values()) <= 1.25 * per_entry[8], per_entry


class TestForceOracleOnSolve:
    def test_noncommuting_general_equation(self, files):
        write, tmp = files
        out = tmp / "r.json"
        args = [
            "solve",
            "--a", write("a1.json", STEIN2_A),
            "--a", write("a2.json", -2 * np.eye(2)),
            "--b", write("b1.json", STEIN2_A),
            "--b", write("b2.json", np.eye(2)),
            "--c", write("c.json", STEIN2_C),
        ]
        assert main(args) == EXIT_HYPOTHESIS
        code = main(args + ["--force-oracle", "--out", str(out)])
        assert code == EXIT_OK
        report = read_report(out)
        assert report["mode"] == "oracle"
        assert report["dimension"] == 2
        assert len(report["basis"]) == 2


class TestVerifyCommand:
    def test_files_agree(self, files):
        write, tmp = files
        out = tmp / "v.json"
        code = main([
            "verify",
            "--a", write("a1.json", HOMOG_A),
            "--a", write("a2.json", 2 * np.eye(3)),
            "--b", write("b1.json", HOMOG_B),
            "--b", write("b2.json", np.eye(3)),
            "--c", write("c.json", np.zeros((3, 3))),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert read_report(out)["agreement"] is True

    def test_random_sweep(self, files):
        _, tmp = files
        out = tmp / "v.json"
        code = main(["verify", "--trials", "25", "--n", "4", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        report = read_report(out)
        assert report["agreement"] is True
        assert report["checked"] == 25

    def test_inject_fault(self, files):
        _, tmp = files
        out = tmp / "v.json"
        code = main([
            "verify", "--trials", "5", "--n", "3", "--seed", "2",
            "--inject-fault", "--out", str(out),
        ])
        assert code == EXIT_MISMATCH
        assert read_report(out)["agreement"] is False

    def test_inject_fault_on_a_dimension_zero_instance(self, files):
        # A X B = C with A = S diag(1, 2, 3) S^T, B = I: every cell a_r b_s
        # is nonzero, so the basis is empty and only the verdicts can be
        # corrupted; the negative control must fail here too
        write, tmp = files
        s = np.linalg.qr(np.random.default_rng(9).standard_normal((3, 3)))[0]
        argv = [
            "verify",
            "--a", write("a.json", s @ np.diag([1.0, 2.0, 3.0]) @ s.T),
            "--b", write("b.json", np.eye(3)),
            "--c", write("c.json", s @ np.diag([1.0, 1.0, 2.0]) @ s.T),
            "--out", str(tmp / "v.json"),
        ]
        assert main(argv) == EXIT_OK
        assert main(argv + ["--inject-fault"]) == EXIT_MISMATCH
        report = read_report(tmp / "v.json")
        assert report["agreement"] is False
        assert report["failures"] == ["dimension differs: structured=1, oracle=0"]

    def test_only_read_tolerances(self, files, capsys):
        _, tmp = files
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--trials", "1", "--tol-rank", "0.9"])
        assert excinfo.value.code == EXIT_ERROR
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--help"])
        assert excinfo.value.code == 0
        capsys.readouterr()
        out = tmp / "v.json"
        assert main(["verify", "--trials", "1", "--out", str(out)]) == EXIT_OK
        assert list(read_report(out)["tolerances"]) == ["tol_zero", "tol_cluster"]

    def test_missing_inputs(self):
        assert main(["verify"]) == EXIT_ERROR

    @pytest.mark.parametrize("flag, value", [("trials", "0"), ("n", "0"), ("n", "-1"), ("k", "0")])
    def test_nonpositive_sizes_rejected(self, capsys, flag, value):
        argv = ["verify", "--trials", "1", "--n", "3", "--k", "2", f"--{flag}", value]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: --{flag} must be positive\n"

    def test_negative_seed_rejected(self, capsys):
        assert main(["verify", "--trials", "1", "--seed", "-1"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: --seed must be non-negative\n"


class TestDiagonalizeCommand:
    def test_single_diagonal(self, files):
        write, tmp = files
        out = tmp / "d.json"
        code = main(["diagonalize", write("m.json", np.diag([2.0, 1.0, 2.0])), "--out", str(out)])
        assert code == EXIT_OK
        report = read_report(out)
        vec = [complex(re, im) for re, im in report["induced_vectors"][0]]
        np.testing.assert_allclose(vec, [1, 2, 2], atol=1e-10)
        assert report["block_levels"][0] == [[0, 1], [1, 3]]

    def test_pair_mode(self, files):
        write, tmp = files
        out = tmp / "d.json"
        code = main([
            "diagonalize",
            write("a.json", HOMOG_A),
            write("b.json", HOMOG_B),
            "--pair",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        pair = read_report(out)["pair"]
        np.testing.assert_allclose([re for re, _ in pair["a"]], [1, 1, -1], atol=1e-9)
        np.testing.assert_allclose([re for re, _ in pair["b"]], [0, 2, 2], atol=1e-9)
        coll = sorted(re for re, _ in pair["collision_set"])
        np.testing.assert_allclose(coll, [-2, -1], atol=1e-9)

    def test_pair_reuses_the_joint_eigensolve(self, files, monkeypatch):
        # --pair reads the pair off the family and star sequence the command
        # has built: one validate_family, one eig
        write, tmp = files
        rng = np.random.default_rng(44)
        s = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        a = s @ np.diag([1.0, 1.0, 2.0, 0.0, 3.0]) @ s.T
        b = s @ np.diag([4.0, 5.0, 4.0, 6.0, 6.0]) @ s.T
        argv = ["diagonalize", write("a.json", a), write("b.json", b), "--pair",
                "--out", str(tmp / "d.json")]
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
        validate = counted("validate_family", lme.simdiag.validate_family)
        monkeypatch.setattr(lme.cli, "validate_family", validate)
        monkeypatch.setattr(lme.simdiag, "validate_family", validate)
        assert main(argv) == EXIT_OK
        assert sorted(calls) == ["eig", "validate_family"]
        pair = read_report(tmp / "d.json")["pair"]
        np.testing.assert_allclose([re for re, _ in pair["a"]], [0, 1, 1, 2, 3], atol=1e-9)
        np.testing.assert_allclose([re for re, _ in pair["b"]], [6, 4, 5, 4, 6], atol=1e-9)

    def test_noncommuting_pair(self, files):
        write, _ = files
        code = main([
            "diagonalize",
            write("a.json", STEIN2_A),
            write("c.json", STEIN2_C),
        ])
        assert code == EXIT_HYPOTHESIS

    def test_pair_needs_two(self, files):
        write, _ = files
        assert main(["diagonalize", write("m.json", np.eye(2)), "--pair"]) == EXIT_ERROR


@pytest.mark.filterwarnings("error:overflow encountered")
class TestOverflowingInputs:
    """A norm or commutator that overflows is an input error (exit 1), not a
    violated hypothesis (exit 2)."""

    def test_solve_with_overflowing_norms(self, files, capsys):
        write, _ = files
        code = main([
            "solve",
            "--a", write("a.json", np.diag([1, 2, 3]) * 1e200),
            "--b", write("b.json", np.diag([1, 1, 2]) * 1e200),
            "--c", write("c.json", np.eye(3)),
        ])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: A[0] has a Frobenius norm that overflows\n"

    def test_solve_with_an_overflowing_commutator(self, files, capsys):
        write, _ = files
        s = random_diagonalizer(np.random.default_rng(0), 4)
        s_inv = np.linalg.inv(s)
        code = main([
            "solve",
            "--a", write("a.json", s @ np.diag([1, 2, 3, 4]) @ s_inv * 1e100),
            "--b", write("b.json", s @ np.diag([2, 1, 1, 3]) @ s_inv * 1e100),
            "--c", write("c.json", np.eye(4)),
        ])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: the commutator of A[0] and B[0] overflows\n"

    def test_solve_with_an_overflowing_candidate(self, files, capsys):
        # every gate passes, but c_r / gamma[r, r] is about 1e310
        write, _ = files
        code = main([
            "solve",
            "--a", write("a.json", np.diag([1, 2, 3]) * 1e-160),
            "--b", write("b.json", np.eye(3)),
            "--c", write("c.json", np.diag([1, 2, 3]) * 1e150),
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: the candidate X̂ = S diag(c_r / gamma[r, r]) S^{-1} overflows\n"

    @pytest.mark.parametrize("command", ["clyap", "dlyap"])
    def test_lyapunov_with_an_overflowing_norm(self, files, capsys, command):
        # A is normal; at 1e160 A A* overflows and the normality test read nan
        write, _ = files
        code = main([
            command,
            "--a", write("a.json", np.diag([1, 2, 3]) * 1e160),
            "--c", write("c.json", np.eye(3)),
        ])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: A has a Frobenius norm that overflows\n"

    def test_diagonalize_with_an_overflowing_norm(self, files, capsys):
        write, _ = files
        assert main(["diagonalize", write("m.json", np.diag([1, 2, 3]) * 1e160)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: member 0 has a Frobenius norm that overflows\n"


class TestReportEncoding:
    @pytest.fixture
    def emitted(self, monkeypatch):
        """Every report dict ``_emit`` is given, as it was given."""
        reports = []
        original = lme.cli._emit

        def capture(report, out_path):
            reports.append(report)
            original(report, out_path)

        monkeypatch.setattr(lme.cli, "_emit", capture)
        return reports

    def argv(self, files, kind):
        write, tmp = files
        out = ["--out", str(tmp / "r.json")]
        if kind == "solve":
            return equation_argv(files, "solve", *REPORT_CASES["solve", "consistent"])[0]
        if kind == "oracle":
            return [
                "stein", "--a", write("a.json", STEIN2_A / 2), "--b", write("b.json", STEIN2_A),
                "--c", write("c.json", STEIN2_C / 2), "--force-oracle", *out,
            ]
        if kind == "verify":
            return ["verify", "--trials", "3", "--n", "3", "--seed", "4", *out]
        return ["diagonalize", write("a.json", HOMOG_A), write("b.json", HOMOG_B), "--pair", *out]

    @pytest.mark.parametrize("kind", ["solve", "oracle", "verify", "diagonalize"])
    def test_one_key_per_line_same_content(self, files, emitted, kind):
        argv = self.argv(files, kind)
        assert main(argv) == EXIT_OK
        (report,) = emitted
        with open(argv[-1], "r", encoding="utf-8") as fh:
            text = fh.read()
        parsed = json.loads(text)
        assert parsed == json.loads(json.dumps(report, indent=2))
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}"
        assert [json.loads("{" + line.rstrip(",") + "}") for line in lines[1:-1]] == [
            {key: value} for key, value in parsed.items()
        ]
        assert ("basis" in parsed) is (kind == "oracle")


class TestDeterminismAndEnv:
    def test_reports_deterministic(self, files):
        write, tmp = files
        args = [
            "solve",
            "--a", write("a1.json", HOMOG_A),
            "--a", write("a2.json", 2 * np.eye(3)),
            "--b", write("b1.json", HOMOG_B),
            "--b", write("b2.json", np.eye(3)),
            "--c", write("c.json", np.zeros((3, 3))),
        ]
        out1, out2 = tmp / "r1.json", tmp / "r2.json"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_default_and_flag_priority(self, files, monkeypatch):
        write, tmp = files
        out = tmp / "r.json"
        args = [
            "solve",
            "--a", write("a.json", np.diag([1.0, 0.0])),
            "--b", write("b.json", np.eye(2)),
            "--c", write("c.json", np.zeros((2, 2))),
        ]
        # the environment no longer sets tolerances: the defaults are echoed
        monkeypatch.setenv("LME_DEFAULT_TOL", "1e-4")
        assert main(args + ["--out", str(out)]) == EXIT_OK
        assert read_report(out)["tolerances"] == {
            "tol_zero": TOL_ZERO, "tol_cluster": TOL_CLUSTER, "tol_res": TOL_RES, "tol_rank": TOL_RANK,
        }
        assert main(args + ["--tol-zero", "1e-12", "--out", str(out)]) == EXIT_OK
        report = read_report(out)
        assert report["tolerances"]["tol_zero"] == 1e-12
        assert report["tolerances"]["tol_cluster"] == TOL_CLUSTER


# each command's argv over (A, B, C) files; diagonalize takes A and B
SHAPE_ARGV = {
    "solve": lambda a, b, c: ["solve", "--a", a, "--b", b, "--c", c],
    "verify": lambda a, b, c: ["verify", "--a", a, "--b", b, "--c", c],
    "diagonalize": lambda a, b, c: ["diagonalize", a, b],
}


SHAPE_MESSAGES = {
    "non-square": "must be square, got shape (2, 3)",
    "mismatched sizes": "has size 3, expected 2",
}


@pytest.mark.parametrize("command", sorted(SHAPE_ARGV))
@pytest.mark.parametrize("case", sorted(SHAPE_MESSAGES))
def test_shape_errors_exit_1_on_every_command(files, capsys, command, case):
    write, _ = files
    i2 = write("i2.json", np.eye(2))
    if case == "non-square":
        ns = write("ns.json", np.ones((2, 3)))
        argv = SHAPE_ARGV[command](ns, ns, ns)
    else:
        argv = SHAPE_ARGV[command](i2, write("i3.json", np.eye(3)), i2)
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"{SHAPE_MESSAGES[case]}\n")


@pytest.mark.parametrize("command", ["sylvester", "verify"])
def test_unwritable_out_is_an_error_line(files, capsys, command):
    write, tmp = files
    out = tmp / "absent" / "r.json"
    if command == "verify":
        argv = ["verify", "--trials", "1", "--n", "3"]
    else:
        argv = ["sylvester", "--a", write("a.json", np.diag([1.0, 2.0])),
                "--b", write("b.json", np.diag([3.0, 4.0])), "--c", write("c.json", np.eye(2))]
    assert main(argv + ["--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"


@pytest.mark.parametrize("command, flag", [("solve", "zero"), ("solve", "rank"), ("verify", "cluster")])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_out_of_range_tolerance_flag(files, capsys, command, flag, value):
    write, _ = files
    if command == "verify":
        argv = ["verify", "--trials", "1"]
    else:
        # diag(1, 0) X = 0 is consistent, of dimension 2
        argv = ["solve", "--a", write("a.json", np.diag([1.0, 0.0])), "--b", write("b.json", np.eye(2)),
                "--c", write("c.json", np.zeros((2, 2)))]
    assert main(argv + [f"--tol-{flag}", value]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: --tol-{flag} must be a finite float >= 0, got {float(value)!r}\n"
    )


def test_parser_is_built_once(files, monkeypatch):
    write, tmp = files
    argv = ["diagonalize", write("m.json", np.eye(2)), "--out", str(tmp / "d.json")]
    assert main(argv) == EXIT_OK
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == EXIT_OK
    assert main(["verify", "--trials", "1", "--out", str(tmp / "v.json")]) == EXIT_OK
    assert built == []


def test_one_hypothesis_message_on_every_command(files, capsys):
    write, _ = files
    j, i2 = write("j.json", JORDAN), write("i2.json", np.eye(2))
    runs = {
        "solve": ["solve", "--a", j, "--b", i2, "--c", i2],
        "stein": ["stein", "--a", j, "--b", i2, "--c", i2],
        "verify": ["verify", "--a", j, "--b", i2, "--c", i2],
        "diagonalize": ["diagonalize", j],
    }
    err = {}
    for command, argv in runs.items():
        assert main(argv) == EXIT_HYPOTHESIS
        err[command] = capsys.readouterr().err
    line = err["solve"]
    assert line.startswith("hypothesis violated: NotDiagonalizableError: A[0] is not diagonalizable: ")
    assert line.count("\n") == 1
    assert err["stein"] == line
    assert err["verify"] == line[:-1] + " (input files)\n"
    # diagonalize has no equation: its members are its files, in order
    assert err["diagonalize"] == line.replace("A[0]", "member 0")


@pytest.mark.parametrize(
    "text, message",
    [("# only a comment\n\n# and another\n", "no matrix rows found"), ("1 2\n3\n", "rows have differing lengths")],
    ids=["comments-only", "ragged-rows"],
)
def test_malformed_text_file_exit(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["solve", "--a", str(bad), "--b", str(bad), "--c", str(bad)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_report_on_stdout_is_the_out_file(files, capsys):
    argv = equation_argv(files, "solve", *REPORT_CASES["solve", "consistent"])[0]
    assert argv[-2] == "--out"
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert main(argv[:-2]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    with open(argv[-1], "rb") as fh:
        assert captured.out.encode("utf-8") == fh.read()
