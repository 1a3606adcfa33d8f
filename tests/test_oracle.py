import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from lme.equations import equation_spec, named_form_spec, solve, solve_sylvester, standard_spec
from lme.errors import NonFiniteError, OracleMismatchError
from lme.instances import random_diagonalizer, random_equation_instance
from lme.oracle import _least_squares, compare, oracle_solve, vectorize
from lme.tolerances import DEFAULT, Tolerances

HOMOG_A = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
HOMOG_B = np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 2]], dtype=complex)
JORDAN = np.array([[1, 1], [0, 1]], dtype=complex)
I2 = np.eye(2)
I3 = np.eye(3)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestVectorize:
    def test_identity_pair(self):
        spec = equation_spec([np.eye(3)], [np.eye(3)], np.zeros((3, 3)))
        np.testing.assert_allclose(vectorize(spec).operator, np.eye(9), atol=1e-14)

    def test_flattening_identity(self):
        rng = np.random.default_rng(70)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        spec = equation_spec([a], [b], np.zeros((3, 3)))
        lhs = vectorize(spec).operator @ x.flatten(order="F")
        rhs = (a @ x @ b).flatten(order="F")
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_right_identity_term(self):
        rng = np.random.default_rng(71)
        a = rng.standard_normal((3, 3))
        spec = equation_spec([a], [np.eye(3)], np.zeros((3, 3)))
        np.testing.assert_allclose(vectorize(spec).operator, np.kron(np.eye(3), a), atol=1e-13)

    def test_bytes_equal_the_kron_formula(self):
        rng = np.random.default_rng(75)

        def draw(n):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return m * 10.0 ** rng.integers(-8, 9)

        signed_zeros = np.array([[-0.0, 1.0], [0.0, -0.0]])
        specs = [equation_spec([signed_zeros, -signed_zeros], [signed_zeros.T, I2], I2)]
        for _ in range(40):
            n, k = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            specs.append(
                equation_spec([draw(n) for _ in range(k)], [draw(n) for _ in range(k)], draw(n))
            )
        for spec in specs:
            assert vectorize(spec).operator.tobytes() == kron_operator(spec).tobytes()


# 2 A X B = I with the entries 1e154 of A and B: L's corner 2e308 overflows
OVERFLOW_A = np.diag([1e154, 1.0])
OVERFLOW_B = np.diag([1e154, 2.0])

# a hand-built system with an infinite entry, on which gelsd and the SVD of
# LAPACK never return; run in a child process so that a hang fails the test
NON_FINITE_SYSTEM = """
import sys
import numpy as np
import lme
from lme.errors import NonFiniteError
from lme.oracle import VectorizedSystem, compare, oracle_solve

spec = lme.equation_spec([np.eye(2)], [np.eye(2)], np.eye(2))
op = np.diag([np.inf, 2e154, 2e154, 4]).astype(complex)
system = VectorizedSystem(op, spec.rhs.flatten(order="F"), 2, np.inf)
try:
    if sys.argv[1] == "compare":
        compare(lme.solve(spec), system)
    else:
        oracle_solve(system)
except NonFiniteError as exc:
    print(exc)
"""


class TestNonFiniteOperator:
    def test_vectorize_names_an_overflowing_operator(self):
        # warnings are errors here: numpy's "overflow encountered in add" fails the test
        spec = equation_spec([OVERFLOW_A, OVERFLOW_A], [OVERFLOW_B, OVERFLOW_B], I2)
        with pytest.raises(NonFiniteError, match=r"^the Kronecker operator L = sum_j B_j\^T kron A_j contains non-finite entries$"):
            vectorize(spec)

    def test_vectorize_names_an_overflowing_scale(self):
        # every entry of L is 1, but ||A||_F overflows
        spec = equation_spec([np.full((2, 2), 1e160)], [np.full((2, 2), 1e-160)], I2)
        with pytest.raises(NonFiniteError, match=r"has a scale sum_j \|\|A_j\|\|_F \|\|B_j\|\|_F that is not finite$"):
            vectorize(spec)

    @pytest.mark.parametrize("entry", ["compare", "oracle_solve"])
    def test_non_finite_system_raises_before_lapack(self, entry):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", NON_FINITE_SYSTEM, entry],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "the Kronecker operator L = sum_j B_j^T kron A_j contains non-finite entries\n"


def kron_operator(spec):
    """The operator sum_j B_j^T kron A_j as np.kron forms it, accumulated
    from zeros."""
    n = spec.n
    op = np.zeros((n * n, n * n), dtype=complex)
    for a, b in zip(spec.a_list, spec.b_list):
        op += np.kron(b.T, a)
    return op


class TestOracleSolve:
    def test_homogeneous_example(self):
        spec = equation_spec([HOMOG_A, 2 * I3], [HOMOG_B, I3], np.zeros((3, 3)))
        sol = oracle_solve(vectorize(spec))
        assert sol.consistent
        assert sol.dimension == 2

    def test_stein_jordan_truth(self):
        # brute-force ground truth for A X A - X = I2 with the Jordan block:
        # consistent, two-dimensional solution set {[[a, b], [1, -1-a]]},
        # minimum-norm member [[-1/2, 0], [1, -1/2]]
        spec = equation_spec([JORDAN, -I2], [JORDAN, I2], I2)
        sol = oracle_solve(vectorize(spec))
        assert sol.consistent
        assert sol.dimension == 2
        np.testing.assert_allclose(
            sol.min_norm_solution, [[-0.5, 0.0], [1.0, -0.5]], atol=1e-8
        )
        assert sol.residual < 1e-10
        # every solution has entry (2,1) equal to 1 and trace -1
        for x in [sol.min_norm_solution] + [
            sol.min_norm_solution + 0.7 * nb for nb in sol.nullspace
        ]:
            assert abs(x[1, 0] - 1.0) < 1e-8
            assert abs(np.trace(x) + 1.0) < 1e-8
        std = oracle_solve(vectorize(standard_spec(spec)))
        assert not std.consistent

    def test_stein_noncommuting_family(self):
        a = np.array([[1, 1], [1, -1]], dtype=complex)
        c = np.array([[0, 1], [-1, 0]], dtype=complex)
        spec = equation_spec([a, -2 * I2], [a, I2], c)
        sol = oracle_solve(vectorize(spec))
        assert sol.consistent
        assert sol.dimension == 2
        rng = np.random.default_rng(72)
        for _ in range(5):
            coeffs = rng.standard_normal(2)
            x = sol.min_norm_solution + sum(cf * nb for cf, nb in zip(coeffs, sol.nullspace))
            assert abs(x[0, 0] - 2 * x[1, 0] - x[1, 1] + 0.5) < 1e-8
            assert abs(x[0, 1] - x[1, 0] + 0.5) < 1e-8

    def test_self_consistency(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            spec, _ = random_equation_instance(rng, 4, 2, zero_diag_rows=1)
            system = vectorize(spec)
            sol = oracle_solve(system)
            if sol.consistent:
                rhs_norm = np.linalg.norm(system.rhs_vec)
                assert sol.residual <= 1e-10 * max(rhs_norm, 1e-30)


class TestCompare:
    def test_homogeneous_agreement(self):
        spec = equation_spec([HOMOG_A, 2 * I3], [HOMOG_B, I3], np.zeros((3, 3)))
        rep = compare(solve(spec), vectorize(spec))
        assert rep.dimension == 2

    def test_random_agreement(self):
        rng = np.random.default_rng(74)
        for t in range(20):
            n = int(rng.integers(2, 6))
            zero_rows = t % 3
            spec, _ = random_equation_instance(
                rng, n, int(rng.integers(1, 4)),
                zero_diag_rows=zero_rows,
                inconsistent=zero_rows > 0 and t % 4 == 0,
            )
            compare(solve(spec), vectorize(spec))

    def test_corrupted_basis_detected(self):
        spec = equation_spec([HOMOG_A, 2 * I3], [HOMOG_B, I3], np.zeros((3, 3)))
        res = solve(spec)
        bad = list(res.basis)
        bad[0] = bad[0] + 0.01
        corrupted = replace(res, basis=tuple(bad))
        with pytest.raises(OracleMismatchError) as exc:
            compare(corrupted, vectorize(spec))
        assert any("nullspace" in f for f in exc.value.failures)

    @pytest.mark.parametrize("field, change, failure", [
        ("consistent", lambda v: not v, "consistency differs: structured=False, oracle=True"),
        ("dimension", lambda v: v + 1, "dimension differs: structured=3, oracle=2"),
    ])
    def test_verdict_mismatch_detected(self, field, change, failure):
        # a wrong verdict with an untouched basis and x_hat is caught by the
        # verdict checks alone
        spec = equation_spec([HOMOG_A, 2 * I3], [HOMOG_B, I3], np.zeros((3, 3)))
        res = solve(spec)
        with pytest.raises(OracleMismatchError) as exc:
            compare(replace(res, **{field: change(getattr(res, field))}), vectorize(spec))
        assert exc.value.failures == [failure]

    def test_referees_at_the_result_tolerances(self):
        # eigenvalue pairs 1e-10 apart, kept apart by tolerances below that
        # split: solve and the oracle's rank test both see dimension 2, where
        # a rank test at the default 1e-10 sees 4
        s = random_diagonalizer(np.random.default_rng(3), 4, 10.0)
        s_inv = np.linalg.inv(s)
        a = s @ np.diag([1, 1 + 1e-10, 2, 3]) @ s_inv
        b = s @ np.diag([-1, -1 - 1e-10, 5, 7]) @ s_inv
        c = s @ np.diag([0, 0, 1, 1]) @ s_inv
        tol = Tolerances(cluster=1e-13, zero=1e-13, rank=1e-13)
        result = solve_sylvester(a, b, c, tol)
        system = vectorize(named_form_spec("sylvester", a, c, b))
        assert result.dimension == 2
        assert oracle_solve(system, 1e-13).dimension == 2
        assert compare(result, system).dimension == 2

    def test_default_acceptance_is_the_result_res(self):
        spec, _ = random_equation_instance(np.random.default_rng(8), 4, 2, zero_diag_rows=1)
        compare(solve(spec), vectorize(spec))
        with pytest.raises(OracleMismatchError):
            compare(solve(spec, Tolerances(res=1e-30)), vectorize(spec))
        compare(solve(spec, Tolerances(res=1e-30)), vectorize(spec), tol=1e-7)

    def test_nan_residuals_are_mismatches(self):
        # nan > tol is False: both residual checks must fail a NaN
        spec, _ = random_equation_instance(np.random.default_rng(8), 4, 2, zero_diag_rows=1)
        result = solve(spec)
        assert result.consistent and result.dimension > 0
        nan = np.full_like(result.x_hat, np.nan)
        with pytest.raises(OracleMismatchError) as exc:
            compare(replace(result, x_hat=nan), vectorize(spec))
        assert exc.value.failures == ["candidate solution violates the system (residual nan)"]
        with pytest.raises(OracleMismatchError) as exc:
            compare(replace(result, basis=(nan, *result.basis[1:])), vectorize(spec))
        assert exc.value.failures == ["basis matrix 0 leaves the nullspace (residual nan)"]


def count_calls(monkeypatch, *names):
    """Count the calls to each named ``np.linalg`` function."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return counts


def oracle_verdict(system, tol_rank=DEFAULT.rank):
    """compare's (consistent, dimension), read against a stand-in result
    that claims oracle_solve's verdict and carries no basis and no witness:
    compare raises exactly when its own verdict differs, and decides it by
    gelsd unless C = 0 or the rank is 0."""
    sol = oracle_solve(system, tol_rank)
    probe = SimpleNamespace(
        consistent=sol.consistent, dimension=sol.dimension, basis=(),
        x_hat=np.zeros((system.n, system.n), dtype=complex),
        witness_r=None, star=None, tolerances=Tolerances(rank=tol_rank),
    )
    report = compare(probe, system, tol=np.inf)
    return (report.consistent, report.dimension), (sol.consistent, sol.dimension)


def near_the_threshold(system, tol_rank=DEFAULT.rank):
    """Whether a singular value of the operator lies within 1e-6 (relative)
    of the rank threshold, where the two SVDs may count it differently.  A
    zero operator (threshold 0) has rank 0 by either count."""
    s = np.linalg.svd(system.operator, compute_uv=False)
    threshold = tol_rank * max(s[0], system.scale)
    return bool(np.any(np.abs(s - threshold) < 1e-6 * threshold))


class TestLeastSquaresVerdict:
    def test_one_values_only_svd_and_no_least_squares(self, monkeypatch):
        spec, _ = random_equation_instance(np.random.default_rng(9), 5, 2, zero_diag_rows=1)
        result, system = solve(spec), vectorize(spec)
        counts = count_calls(monkeypatch, "lstsq", "svd")
        report = compare(result, system)
        assert counts == {"lstsq": 0, "svd": 1}
        assert (report.consistent, report.dimension) == (result.consistent, result.dimension)

    def test_cancelling_terms_take_a_second_solve(self, monkeypatch):
        # the terms cancel to 1e-6 of their size, so the operator's singular
        # values from A's 1e-5 (about 1e-11) lie above gelsd's first cut,
        # tol_rank * sigma_max ~ 3e-16, and below the rule's threshold,
        # tol_rank * scale ~ 8e-10
        s = random_diagonalizer(np.random.default_rng(5), 3)
        s_inv = np.linalg.inv(s)
        a = s @ np.diag([1.0, 0.5, 1e-5]) @ s_inv
        b = s @ np.diag([1.0, 2.0, 3.0]) @ s_inv
        spec = equation_spec([a, -a], [b, (1 + 1e-6) * b], np.zeros((3, 3)))
        result, system = solve(spec), vectorize(spec)
        counts = count_calls(monkeypatch, "lstsq")
        _least_squares(system, DEFAULT.rank)
        assert counts == {"lstsq": 2}
        # with C = 0, X̂ = 0 certifies consistency and compare needs no gelsd
        report = compare(result, system)
        sol = oracle_solve(system)
        assert (report.consistent, report.dimension) == (sol.consistent, sol.dimension) == (True, 3)

    def test_rank_zero_gives_the_zero_solution(self):
        # the terms cancel to rounding: every singular value is below the
        # rule's threshold, so the nonzero right-hand side is inconsistent
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        spec = equation_spec([a, -a], [I2, I2 + 1e-13], I2)
        system = vectorize(spec)
        assert oracle_verdict(system) == ((False, 4), (False, 4))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        k=st.integers(1, 4),
        zero_rows=st.integers(0, 3),
        inconsistent=st.booleans(),
        unitary=st.booleans(),
        e=st.integers(-40, 40),
    )
    def test_verdict_is_oracle_solves(self, seed, n, k, zero_rows, inconsistent, unitary, e):
        zero_rows = max(zero_rows, int(inconsistent))
        spec, _ = random_equation_instance(
            np.random.default_rng(seed), n, k, zero_rows, inconsistent, unitary
        )
        f = 2.0**e
        spec = equation_spec([f * a for a in spec.a_list], spec.b_list, f * spec.rhs)
        system = vectorize(spec)
        near = near_the_threshold(system)
        if near:
            event("a singular value within 1e-6 of the threshold")
        assume(not near)
        got, want = oracle_verdict(system)
        assert got == want

    @pytest.mark.parametrize("delta", [1e-7, 1e-8, 1e-9])
    def test_verdict_is_oracle_solves_near_a_cancelled_cell(self, delta):
        # entry 0 of A[0]'s planted vector moved by delta lifts the gamma
        # cells that cancelled through it to about delta; no draw here has a
        # singular value near the threshold, so none is excluded
        rng = np.random.default_rng(0)
        for _ in range(40):
            _, info = random_equation_instance(rng, 6, 2, zero_diag_rows=1)
            s, avecs = info["S"], [v.copy() for v in info["a_vectors"]]
            avecs[0][0] += delta
            s_inv = np.linalg.inv(s)
            vectors = (*avecs, *info["b_vectors"], info["c_vector"])
            mats = [s @ (v[:, None] * s_inv) for v in vectors]
            system = vectorize(equation_spec(mats[:2], mats[2:4], mats[4]))
            assert not near_the_threshold(system)
            got, want = oracle_verdict(system)
            assert got == want


def tampered(kind):
    """(tampered result, its system, the untampered result): X̂ moved by
    noise of 1e-3 ||X̂|| on a consistent spec, or, on an inconsistent one,
    the witness moved to a row whose gamma cell is not zero, or the star
    sequence of another spec of the same size."""
    spec, _ = random_equation_instance(np.random.default_rng(3), 5, 2, zero_diag_rows=1)
    other, _ = random_equation_instance(np.random.default_rng(103), 5, 2, 2, inconsistent=True)
    consistent, inconsistent = solve(spec), solve(other)
    if kind == "x_hat":
        noise = np.random.default_rng(0).standard_normal((5, 5))
        noise *= 1e-3 * np.linalg.norm(consistent.x_hat) / np.linalg.norm(noise)
        return replace(consistent, x_hat=consistent.x_hat + noise), vectorize(spec), consistent
    if kind == "witness":
        row = int(np.flatnonzero(~np.diag(inconsistent.relevant.zero_mask))[0])
        return replace(inconsistent, witness_r=row), vectorize(other), inconsistent
    return replace(inconsistent, star=consistent.star), vectorize(other), inconsistent


class TestCertificates:
    @pytest.mark.parametrize("kind", ["x_hat", "witness", "star"])
    def test_a_tampered_certificate_takes_one_least_squares_solve(self, monkeypatch, kind):
        result, system, honest = tampered(kind)
        counts = count_calls(monkeypatch, "lstsq")
        assert compare(honest, system).consistent is honest.consistent
        assert counts == {"lstsq": 0}
        # tol=inf: the tampered X̂ fails no residual check, only the verdict is read
        report = compare(result, system, tol=np.inf)
        assert counts == {"lstsq": 1}
        sol = oracle_solve(system)
        assert (report.consistent, report.dimension) == (honest.consistent, honest.dimension)
        assert (report.consistent, report.dimension) == (sol.consistent, sol.dimension)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        k=st.integers(1, 4),
        zero_rows=st.integers(0, 3),
        inconsistent=st.booleans(),
        unitary=st.booleans(),
        e=st.integers(-40, 40),
    )
    def test_verdict_on_solves_certificates_is_oracle_solves(
        self, seed, n, k, zero_rows, inconsistent, unitary, e
    ):
        zero_rows = max(zero_rows, int(inconsistent))
        spec, _ = random_equation_instance(
            np.random.default_rng(seed), n, k, zero_rows, inconsistent, unitary
        )
        f = 2.0**e
        spec = equation_spec([f * a for a in spec.a_list], spec.b_list, f * spec.rhs)
        system = vectorize(spec)
        near = near_the_threshold(system)
        if near:
            event("a singular value within 1e-6 of the threshold")
        assume(not near)
        sol = oracle_solve(system)
        # solve's certificates under oracle_solve's verdict: compare raises
        # exactly when its own verdict differs (solve's may, at small scale)
        claim = replace(solve(spec), consistent=sol.consistent, dimension=sol.dimension)
        report = compare(claim, system, tol=np.inf)
        assert (report.consistent, report.dimension) == (sol.consistent, sol.dimension)
