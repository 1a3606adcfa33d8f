from dataclasses import replace

import numpy as np
import pytest

from lme.equations import equation_spec, named_form_spec, solve, solve_sylvester, standard_spec
from lme.errors import OracleMismatchError
from lme.instances import random_diagonalizer, random_equation_instance
from lme.oracle import compare, oracle_solve, vectorize
from lme.tolerances import Tolerances

HOMOG_A = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
HOMOG_B = np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 2]], dtype=complex)
JORDAN = np.array([[1, 1], [0, 1]], dtype=complex)
I2 = np.eye(2)
I3 = np.eye(3)


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
