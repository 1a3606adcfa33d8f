import pickle
import re
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import lme
from lme.equations import (
    FactoredBasis,
    basis_residual_max,
    check_consistent,
    consistency_evidence,
    equation_residual,
    equation_spec,
    lyapunov_gate,
    named_form_pair_count,
    named_form_spec,
    relevant_matrix,
    solve,
    solve_continuous_lyapunov,
    solve_discrete_lyapunov,
    solve_standard,
    solve_stein,
    solve_sylvester,
    standard_spec,
    uniqueness_report,
    x_hat,
)
from lme.errors import (
    DimensionMismatchError,
    HypothesisViolatedError,
    InconsistentInputError,
    NonFiniteError,
    NonSquareError,
    NotCommutingError,
    NotDiagonalizableError,
    NotHermitianRhsError,
    NotNormalError,
    RefinementFailureError,
)
from lme.instances import (
    haar_unitary,
    random_commuting_triple,
    random_diagonalizer,
    random_equation_instance,
    random_family,
)
from lme.matcore import commutes, fro, is_normal
from lme.oracle import compare, oracle_solve, vectorize
from lme.tolerances import DEFAULT, TOL_COMMUTE, TOL_RES, Tolerances

HOMOG_A = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
HOMOG_B = np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 2]], dtype=complex)
JORDAN = np.array([[1, 1], [0, 1]], dtype=complex)
STEIN2_A = np.array([[1, 1], [1, -1]], dtype=complex)
STEIN2_C = np.array([[0, 1], [-1, 0]], dtype=complex)
I2 = np.eye(2)
I3 = np.eye(3)


def homogeneous_spec():
    return equation_spec([HOMOG_A, 2 * I3], [HOMOG_B, I3], np.zeros((3, 3)))


def stein_jordan_spec():
    return equation_spec([JORDAN, -I2], [JORDAN, I2], I2)


def stein_noncommuting_spec():
    return equation_spec([STEIN2_A, -2 * I2], [STEIN2_A, I2], STEIN2_C)


def conditioned_instance(rng, n, k, spread, zero_rows, inconsistent):
    """A planted instance conjugated by a diagonalizer of condition number up
    to ``spread``, so that its joint eigenbasis is that badly conditioned."""
    spec, _ = random_equation_instance(rng, n, k, zero_diag_rows=zero_rows, inconsistent=inconsistent)
    w = random_diagonalizer(rng, n, spread)
    w_inv = np.linalg.inv(w)
    return equation_spec(
        [w_inv @ a @ w for a in spec.a_list],
        [w_inv @ b @ w for b in spec.b_list],
        w_inv @ spec.rhs @ w,
    )


instance_params = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 10),
    k=st.integers(1, 4),
    spread=st.floats(1.0, 1e4),
    zero_rows=st.integers(0, 2),
)


class TestRelevantMatrix:
    def test_homogeneous_example(self):
        rel = relevant_matrix(
            [np.array([1, 1, -1]), np.array([2, 2, 2])],
            [np.array([0, 2, 2]), np.array([1, 1, 1])],
            np.zeros(3),
        )
        np.testing.assert_allclose(rel.gamma.real, [[2, 4, 4], [2, 4, 4], [2, 0, 0]], atol=1e-12)
        assert rel.zero_count == 2
        assert rel.cells == ((2, 1), (2, 2))

    def test_all_ones(self):
        rel = relevant_matrix([np.ones(4)], [np.ones(4)], np.ones(4))
        assert rel.zero_count == 0

    def test_against_naive_double_loop(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            n, k = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            avecs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)]
            bvecs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)]
            rel = relevant_matrix(avecs, bvecs, np.zeros(n))
            naive = np.zeros((n, n), dtype=complex)
            for r in range(n):
                for s in range(n):
                    naive[r, s] = sum(avecs[j][r] * bvecs[j][s] for j in range(k))
            np.testing.assert_allclose(rel.gamma, naive, atol=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            relevant_matrix([np.ones(2)], [np.ones(3)], np.ones(2))


class TestXHat:
    def test_stein_jordan_vanishes(self):
        assert np.abs(x_hat(stein_jordan_spec())).max() < 1e-12

    def test_singular_sum_takes_two_svds(self, monkeypatch):
        # the sum W, then the r×r G F of its rank-r factors: no W @ W is ranked
        spec, _ = random_equation_instance(np.random.default_rng(61), 8, 2, zero_diag_rows=2)
        r = lme.geninv.matrix_rank(lme.coefficient_sum(spec))
        assert r < 8
        shapes = []
        original = np.linalg.svd

        def factored(x, *args, **kwargs):
            shapes.append(x.shape)
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", factored)
        x_hat(spec)
        assert shapes == [(8, 8), (r, r)]

    def test_stein_noncommuting_vanishes(self):
        assert np.abs(x_hat(stein_noncommuting_spec())).max() < 1e-12

    def test_invertible_sum(self):
        rng = np.random.default_rng(51)
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        c = rng.standard_normal((3, 3))
        spec = equation_spec([a], [np.eye(3)], c)
        np.testing.assert_allclose(x_hat(spec), np.linalg.solve(a, c), atol=1e-9)

    def test_normal_family_matches_pseudoinverse(self):
        rng = np.random.default_rng(52)
        spec, _ = random_equation_instance(rng, 4, 2, zero_diag_rows=1, unitary=True)
        w = lme.coefficient_sum(spec)
        np.testing.assert_allclose(x_hat(spec), lme.moore_penrose(w) @ spec.rhs, atol=1e-8)

    def test_never_reaches_the_schur_split(self, monkeypatch):
        """Under the hypothesis the coefficient sum has index at most one, so
        the SVD branch of ``drazin`` decides and scipy stays off the solve path."""
        split_calls = []
        original = lme.geninv._split

        def spy(*args, **kwargs):
            split_calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lme.geninv, "_split", spy)
        rng = np.random.default_rng(60)
        specs = []
        for n in (4, 8, 16, 32):
            for k in (1, 2, 3):
                specs.append(random_equation_instance(rng, n, k, zero_diag_rows=1)[0])
                specs.append(random_equation_instance(rng, n, k, zero_diag_rows=2, inconsistent=True)[0])
                specs.append(random_equation_instance(rng, n, k, zero_diag_rows=1, unitary=True)[0])
            for kind in ("sylvester", "stein", "clyap", "dlyap"):
                a, b, c = random_commuting_triple(rng, n, unitary=kind in ("clyap", "dlyap"))
                specs.append(named_form_spec(kind, a, c, None if kind in ("clyap", "dlyap") else b))
        singular = 0
        for spec in specs:
            x_hat(spec)
            singular += lme.geninv.matrix_rank(lme.coefficient_sum(spec)) < spec.n
        assert split_calls == []
        assert singular >= len(specs) // 2  # the branch's rank-deficient path is exercised


class TestSolve:
    def test_homogeneous_example(self):
        res = solve(homogeneous_spec())
        assert res.consistent
        assert res.dimension == 2
        assert res.relevant.zero_count == 2
        for basis in res.basis:
            assert equation_residual(homogeneous_spec(), basis) < 1e-8

    def test_zero_rhs_always_consistent(self):
        rng = np.random.default_rng(53)
        _, _, members = random_family(rng, 4, 2)
        spec = equation_spec(members[:1], members[1:2], np.zeros((4, 4)))
        res = solve(spec)
        assert res.consistent
        assert np.abs(res.x_hat).max() < 1e-10

    def test_random_consistent_instance(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            spec, _ = random_equation_instance(rng, 4, 2, zero_diag_rows=1)
            res = solve(spec)
            assert res.consistent
            scale = max(1.0, np.linalg.norm(spec.rhs))
            assert equation_residual(spec, res.x_hat) <= 1e-8 * scale
            coeffs = rng.standard_normal(len(res.basis))
            full = res.x_hat + sum(c * b for c, b in zip(coeffs, res.basis))
            assert equation_residual(spec, full) <= 1e-7 * scale

    def test_random_inconsistent_instance(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            spec, info = random_equation_instance(rng, 4, 2, zero_diag_rows=2, inconsistent=True)
            res = solve(spec)
            assert not res.consistent
            assert res.witness_r is not None
            r = res.witness_r
            assert res.relevant.zero_mask[r, r]

    def test_witness_is_the_lowest_proving_row(self):
        # gamma[r, r] = 0 on rows 0-2 (the zero eigenvalue sorts first); c is
        # 0 on row 0 and nonzero on rows 1 and 2, which both prove the
        # equation inconsistent
        res = solve(equation_spec([np.diag([0.0, 0, 0, 1])], [np.eye(4)], np.diag([0.0, 1, 2, 3])))
        assert not res.consistent and res.witness_r == 1
        assert np.diag(res.relevant.zero_mask).tolist() == [True, True, True, False]

    def test_hypothesis_gate(self):
        with pytest.raises(HypothesisViolatedError):
            solve(stein_jordan_spec())
        with pytest.raises(HypothesisViolatedError):
            solve(stein_noncommuting_spec())

    @pytest.mark.parametrize("spec, error, indices, message", [
        # stein A X B - X = C is the family (A, -I, B, I, C)
        (lambda: equation_spec([np.diag([1.0, 2.0]), -I2], [np.diag([1.0, 2.0]), I2], STEIN2_C),
         NotCommutingError, (0, 4), "A[0] and C do not commute"),
        (lambda: equation_spec([I2, I2], [np.diag([1.0, 2.0]), STEIN2_C], I2),
         NotCommutingError, (2, 3), "B[0] and B[1] do not commute"),
        (lambda: stein_jordan_spec(), NotDiagonalizableError, (0,), "A[0] is not diagonalizable"),
        (lambda: equation_spec([I2], [I2], JORDAN), NotDiagonalizableError, (2,), "C is not diagonalizable"),
    ])
    def test_hypothesis_failure_names_members_by_role(self, spec, error, indices, message):
        with pytest.raises(HypothesisViolatedError) as info:
            solve(spec())
        cause = info.value.cause
        assert isinstance(cause, error)
        # the integer indices into spec.members() stay as they were
        assert (cause.i, getattr(cause, "j", None))[:len(indices)] == indices
        assert str(cause).startswith(message)

    def test_no_joint_eigenbasis_names_the_member(self):
        # diagonalizable members that a loose commutation gate lets through
        # but that share no eigenbasis: the cause names the member left with
        # off-diagonal mass, by its role, and how much
        b = np.array([[1, 1e-3], [0, 2]], dtype=complex)
        spec = equation_spec([np.diag([1.0, 2.0])], [b], np.zeros((2, 2)))
        with pytest.raises(HypothesisViolatedError) as info:
            solve(spec, Tolerances(commute=1e-2))
        cause = info.value.cause
        assert isinstance(cause, RefinementFailureError)
        named = r"\((A\[\d\]|B\[\d\]|C) keeps off-diagonal mass \d\.\d{3}e-\d\d in the eigenbasis\)$"
        assert re.search(named, str(cause))

    def test_basis_linearly_independent(self):
        res = solve(homogeneous_spec())
        stacked = np.stack([b.flatten() for b in res.basis])
        assert np.linalg.matrix_rank(stacked) == len(res.basis)

    def test_x_hat_commutes_with_family(self):
        rng = np.random.default_rng(56)
        spec, _ = random_equation_instance(rng, 4, 2, zero_diag_rows=1)
        res = solve(spec)
        for m in spec.members():
            assert commutes(res.x_hat, m, 1e-8)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(57)
        spec, _ = random_equation_instance(rng, 4, 2, zero_diag_rows=1)
        w = random_diagonalizer(rng, 4)
        w_inv = np.linalg.inv(w)
        tspec = equation_spec(
            [w_inv @ a @ w for a in spec.a_list],
            [w_inv @ b @ w for b in spec.b_list],
            w_inv @ spec.rhs @ w,
        )
        res = solve(spec)
        tres = solve(tspec)
        assert res.dimension == tres.dimension
        assert res.consistent == tres.consistent
        diag_zeros = sorted(np.diag(res.relevant.zero_mask).tolist())
        tdiag_zeros = sorted(np.diag(tres.relevant.zero_mask).tolist())
        assert diag_zeros == tdiag_zeros


    def test_one_eigensolve_per_solve(self, monkeypatch):
        calls = {"eig": 0, "svd": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        rng = np.random.default_rng(58)
        spec, _ = random_equation_instance(rng, 6, 2, zero_diag_rows=1)
        monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
        solve(spec)
        assert calls["eig"] == 1
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        lme.simultaneous_diagonalizer(lme.validate_family(spec.members()))
        assert calls["svd"] == 0


class TestDegenerateAndOverflowingEquations:
    def test_size_zero_rejected(self):
        z = np.zeros((0, 0))
        with pytest.raises(DimensionMismatchError, match="^C has size 0, expected at least 1$"):
            equation_spec([z], [z], z)

    @pytest.mark.filterwarnings("error:overflow encountered")
    def test_overflowing_norm_is_not_a_broken_hypothesis(self):
        # diag(1, 2, 3) and diag(1, 1, 2) commute exactly; at 1e200 their
        # norms overflow, which read as "do not commute (relative residual nan)"
        spec = equation_spec([np.diag([1, 2, 3]) * 1e200], [np.diag([1, 1, 2]) * 1e200], I3)
        with pytest.raises(NonFiniteError, match="^A\\[0\\] has a Frobenius norm that overflows$"):
            solve(spec)

    @pytest.mark.filterwarnings("error:overflow encountered")
    def test_overflowing_commutator_is_not_a_broken_hypothesis(self):
        s = random_diagonalizer(np.random.default_rng(0), 4)
        s_inv = np.linalg.inv(s)
        a = s @ np.diag([1, 2, 3, 4]) @ s_inv * 1e100
        b = s @ np.diag([2, 1, 1, 3]) @ s_inv * 1e100
        with pytest.raises(NonFiniteError, match="^the commutator of A\\[0\\] and B\\[0\\] overflows$"):
            solve(equation_spec([a], [b], np.eye(4)))

    def test_overflowing_candidate_is_an_input_error(self):
        # every gate passes, but d_r = c_r / gamma[r, r] is about 1e310; under
        # pytest a numpy RuntimeWarning is an error, so this also pins that
        # the overflow is not reported by numpy
        spec = equation_spec([1e-160 * np.diag([1.0, 2.0, 3.0])], [I3], 1e150 * np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(NonFiniteError, match="^the candidate X̂ = .* overflows$"):
            solve(spec)
        # errors are not memoized: the next call raises again
        assert not spec._solved
        with pytest.raises(NonFiniteError, match="X̂"):
            solve(spec)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coefficient_sum_is_named(self):
        # W = (1e200 I)(1e200 I) overflows: the error names W, and numpy
        # reports no overflow of its own, neither in the products nor in
        # the scale sum_j ||A_j||_F ||B_j||_F
        spec = equation_spec([1e200 * I2], [1e200 * I2], I2)
        with pytest.raises(NonFiniteError, match="^the coefficient sum W = sum_j A_j B_j contains non-finite entries$"):
            x_hat(spec)

    @pytest.mark.filterwarnings("error:overflow encountered")
    @pytest.mark.parametrize("solver", [solve_continuous_lyapunov, solve_discrete_lyapunov])
    def test_overflowing_lyapunov_gate_is_not_a_broken_hypothesis(self, solver):
        # A is normal, but A A* overflows and its normality residual read nan
        with pytest.raises(NonFiniteError, match="^A has a Frobenius norm that overflows$"):
            solver(np.diag([1, 2, 3]) * 1e160, I3)
        # a finite norm: the scaled residual decides, and a Jordan block is not normal
        with pytest.raises(NotNormalError, match="^A must be a normal matrix$"):
            solver(JORDAN * 1e100, I2)
        # a normal A at that scale passes the gate
        assert solver(np.diag([1, 2]) * 1e100, I2).consistent

    @pytest.mark.filterwarnings("error:overflow encountered")
    def test_normal_non_diagonal_a_at_large_scale_passes_the_gate(self):
        # A A* - A* A has rounding entries of about 1e184, whose unscaled norm
        # overflows; the power-of-two-scaled test reads A as normal.  The
        # family's exact commutation test of A* with A overflows next, and
        # reports it as the input error it reports for any such pair
        u = haar_unitary(np.random.default_rng(0), 3)
        a = 1e100 * (u * np.array([1.0, 2.0, 3.0])) @ u.conj().T
        assert is_normal(a)
        gated, _ = lyapunov_gate(a, I3)
        assert np.array_equal(gated, a)
        with pytest.raises(NonFiniteError, match="^the commutator of A\\[0\\] and B\\[1\\] overflows$"):
            solve_continuous_lyapunov(a, I3)

    def test_large_finite_norms_still_solve(self):
        # at 1e150 the squared Frobenius norm, about 1.4e301, stays finite
        spec = equation_spec([np.diag([1, 2, 3]) * 1e150], [np.diag([1, 1, 2]) * 1e-150], I3)
        res = solve(spec)
        assert res.consistent and res.dimension == 0
        np.testing.assert_allclose(res.x_hat, np.diag([1, 0.5, 1 / 6]), rtol=1e-12)


class TestFactoredSolutionSet:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), **instance_params)
    def test_basis_equals_dense_outer_products(self, data, seed, n, k, spread, zero_rows):
        res = solve(conditioned_instance(np.random.default_rng(seed), n, k, spread, zero_rows, False))
        s, s_inv = res.star.diagonalizer, res.star.inverse
        dense = tuple(np.outer(s[:, r], s_inv[c, :]) for r, c in res.relevant.cells)
        assert isinstance(res.basis, FactoredBasis)
        assert len(res.basis) == len(dense) == res.dimension
        assert all(np.array_equal(got, want) for got, want in zip(res.basis, dense))
        for i in range(-len(dense), len(dense)):
            assert np.array_equal(res.basis[i], dense[i])
        for i in (len(dense), -len(dense) - 1):
            with pytest.raises(IndexError):
                res.basis[i]
        part = data.draw(st.slices(len(dense)))
        assert len(res.basis[part]) == len(dense[part])
        assert all(np.array_equal(got, want) for got, want in zip(res.basis[part], dense[part]))

    @settings(max_examples=100, deadline=None)
    @given(inconsistent=st.booleans(), **instance_params)
    def test_eigenbasis_x_hat_matches_drazin(self, inconsistent, seed, n, k, spread, zero_rows):
        zero_rows = max(zero_rows, int(inconsistent))
        spec = conditioned_instance(np.random.default_rng(seed), n, k, spread, zero_rows, inconsistent)
        res = solve(spec)
        assert res.consistent != inconsistent
        drazin = x_hat(spec)
        cond = np.linalg.cond(res.diagonalizer)
        assert fro(res.x_hat - drazin) <= 1e-13 * cond**2 * max(1.0, fro(drazin))

    def test_x_hat_solves_c_whose_eigenvalues_cluster(self):
        # C's eigenvalues 1 and 1 + 5e-9 fall in one cluster, so the star
        # vector of C holds their mean; X-hat must divide the diagonals of
        # S^{-1} C S themselves to solve the equation on C
        s = np.array([[1.0, 1.0], [0.0, 0.02]])  # condition number about 100
        s_inv = np.linalg.inv(s)
        a = s @ np.diag([1.0, 2.0]) @ s_inv
        c = s @ np.diag([1.0, 1.0 + 5e-9]) @ s_inv
        spec = equation_spec([a], [np.eye(2)], c)
        res = solve(spec)
        assert res.consistent and res.dimension == 0
        assert equation_residual(spec, res.x_hat) <= TOL_RES * max(1.0, fro(c))
        compare(res, vectorize(spec))

    def test_basis_residual_rank_one_form(self):
        # on a perturbed equation every member leaves a residual well above
        # round-off, so the rank-one form must match the dense one closely
        rng = np.random.default_rng(61)
        spec, _ = random_equation_instance(rng, 6, 2, zero_diag_rows=2)
        res = solve(spec)
        assert res.dimension > 0
        moved = equation_spec(
            [a + 1e-3 * rng.standard_normal(a.shape) for a in spec.a_list],
            spec.b_list,
            np.zeros_like(spec.rhs),
        )
        dense = basis_residual_max(moved, tuple(res.basis))
        assert dense == max(equation_residual(moved, b) for b in res.basis) > 1e-6
        assert basis_residual_max(moved, res.basis) == pytest.approx(dense, rel=1e-12)
        assert basis_residual_max(moved, res.basis[:0]) == 0.0

    def test_drazin_only_in_the_evidence(self, monkeypatch):
        calls = []
        original = lme.geninv.drazin

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lme.geninv, "drazin", counting)
        spec, _ = random_equation_instance(np.random.default_rng(59), 6, 2, zero_diag_rows=1)
        solve(spec)
        assert len(calls) == 0
        check_consistent(spec)
        assert len(calls) == 1

    def test_peak_allocation_independent_of_dimension(self):
        n = 64
        spec, _ = random_equation_instance(np.random.default_rng(0), n, 2, zero_diag_rows=1)
        solve(spec)  # warm up numpy's lazy state outside the trace
        tracemalloc.start()
        try:
            res = solve(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.dimension >= 100
        assert peak <= 32 * n * n * np.dtype(complex).itemsize

    def test_evidence_flags_a_wrong_eigenbasis_candidate(self):
        spec = homogeneous_spec()
        res = solve(spec)
        _, clean = check_consistent(spec)
        assert clean.diagnostics == ()
        bad = lme.equations.consistency_evidence(spec, replace(res, x_hat=res.x_hat + 1e-6))
        assert any("Drazin candidate" in d for d in bad.diagnostics)

    def test_evidence_flags_a_nan_candidate(self):
        # nan > bound is False: a NaN gap must still add the diagnostic
        spec = homogeneous_spec()
        res = solve(spec)
        nan = lme.equations.consistency_evidence(spec, replace(res, x_hat=np.full_like(res.x_hat, np.nan)))
        assert any("differs from the Drazin candidate by nan" in d for d in nan.diagnostics)


def perturbed_instances(delta, count=40):
    """``random_equation_instance(default_rng(0), 6, 2, zero_diag_rows=1)``,
    ``count`` times, with entry 0 of A[0]'s planted vector moved by
    ``delta``; each spec comes with its exact dimension, the number of
    planted gamma cells that are exactly zero."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        _, info = random_equation_instance(rng, 6, 2, zero_diag_rows=1)
        s = info["S"]
        s_inv = np.linalg.inv(s)
        avecs = [v.copy() for v in info["a_vectors"]]
        avecs[0][0] += delta
        bvecs = info["b_vectors"]
        gamma = sum(np.outer(a, b) for a, b in zip(avecs, bvecs))
        mats = [s @ (v[:, None] * s_inv) for v in (*avecs, *bvecs, info["c_vector"])]
        yield equation_spec(mats[:2], mats[2:4], mats[4]), int(np.count_nonzero(gamma == 0))


class TestZeroMaskUnion:
    # A cluster that merges m - 1 copies of v with v + delta has mean
    # v + delta/m, so a mask over the means alone lifted cells that cancel
    # exactly off the threshold: the dimension was wrong on 12/40 instances
    # at delta = 3e-8 and on 21/40 at 1e-8.

    @pytest.mark.parametrize("delta", [3e-8, 1e-8])
    def test_dimension_is_the_planted_one(self, delta):
        wrong = [i for i, (spec, dim) in enumerate(perturbed_instances(delta)) if solve(spec).dimension != dim]
        assert wrong == []

    def test_no_nan_where_the_raw_gamma_cell_is_zero(self):
        # instance 12 at delta = 3e-9: the mask over the means kept a cell
        # nonzero whose raw gamma_rr, the divisor of x_hat, is exactly 0
        spec, dim = list(perturbed_instances(3e-9, 13))[12]
        res = solve(spec)
        assert np.all(np.isfinite(res.x_hat))
        assert res.dimension == dim
        assert res.relevant.zero_count == res.dimension

    def test_gamma_stays_the_mean_based_one(self):
        spec, _ = list(perturbed_instances(3e-9, 13))[12]
        res = solve(spec)
        star, k = res.star, spec.k
        means = relevant_matrix(star.vectors[:k], star.vectors[k:2 * k], star.vectors[2 * k])
        assert np.array_equal(res.relevant.gamma, means.gamma)
        assert res.relevant.zero_count > means.zero_count


class TestCheckConsistent:
    def test_tol_recon_reaches_validate_family(self, monkeypatch):
        seen = []
        original = lme.equations.validate_family

        def recording(members, tol, names=None):
            seen.append(tol.recon)
            return original(members, tol, names)

        monkeypatch.setattr(lme.equations, "validate_family", recording)
        check_consistent(homogeneous_spec(), Tolerances(recon=3e-7))
        assert seen == [3e-7]

    def test_homogeneous_example_all_agree(self):
        ok, ev = check_consistent(homogeneous_spec())
        assert ok
        assert ev.agree
        assert all(ev.flags().values())

    def test_hypothesis_violated(self):
        with pytest.raises(HypothesisViolatedError):
            check_consistent(stein_jordan_spec())

    def test_inconsistent_all_agree(self):
        rng = np.random.default_rng(58)
        for _ in range(5):
            spec, _ = random_equation_instance(rng, 4, 2, zero_diag_rows=1, inconsistent=True)
            ok, ev = check_consistent(spec)
            assert not ok
            assert ev.agree
            assert not any(
                (ev.diagonal_rule, ev.x_hat_solves_equation, ev.standard_consistent, ev.x_hat_solves_standard)
            )


def column_space_consistent(w, c, tol_rank=DEFAULT.rank):
    """The range test the evidence ran before it shared one SVD of W, kept
    as a reference: C is in range(W) when rank(W) = rank([W C]), both counted
    against tol_rank sigma_max([W C])."""
    s_aug = np.linalg.svd(np.hstack([w, c]), compute_uv=False)
    if s_aug[0] == 0.0:
        return True
    threshold = tol_rank * s_aug[0]
    s_w = np.linalg.svd(w, compute_uv=False)
    return np.count_nonzero(s_w > threshold) == np.count_nonzero(s_aug > threshold)


def between_the_rules(spec, tol_rank=DEFAULT.rank):
    """Whether the evidence's range test and the reference may differ on
    ``spec`` by their thresholds alone: a singular value of W between
    tol_rank sigma_max([W C]) and tol_rank sum_j ||A_j||_F ||B_j||_F, or a
    part of C outside the first rank(W) left singular vectors of W within a
    factor 10 of its threshold tol_rank ||C||_F."""
    w, c = lme.coefficient_sum(spec), spec.rhs
    u, s, _ = np.linalg.svd(w)
    scale = sum(fro(a) * fro(b) for a, b in zip(spec.a_list, spec.b_list))
    lo, hi = sorted((tol_rank * np.linalg.norm(np.hstack([w, c]), 2), tol_rank * scale))
    part = fro(u[:, np.count_nonzero(s > tol_rank * scale):].conj().T @ c)
    threshold = tol_rank * fro(c)
    return bool(np.any((s > lo) & (s <= hi))) or threshold / 10 < part < 10 * threshold


class TestOneSvdOfW:
    """The Drazin candidate, rank(W) and the range test of the evidence read
    one SVD of W = sum_j A_j B_j."""

    @pytest.mark.parametrize("e", range(16))
    def test_small_coefficient_scale(self, e):
        # rank(W) counted against sigma_max([W C]) ~ 3 read W = 1e-10 diag(1,
        # 2, 3) as rank 0; against sum_j ||A_j|| ||B_j|| it is rank 3.  Below
        # 1e-10 the Drazin candidate is 0 under the zero threshold's floor
        # max(1, scale), and both residual views fail
        s = 10.0**-e
        spec = equation_spec([s * np.diag([1.0, 2.0, 3.0])], [I3], np.diag([1.0, 2.0, 3.0]))
        _, ev = check_consistent(spec)
        assert ev.standard_consistent
        if s >= 1e-10:
            assert ev.diagnostics == ()

    @pytest.mark.parametrize("zero_rows, expected", [(0, [(8, 8)]), (2, [(8, 8), (6, 6)])])
    def test_one_svd_of_w_and_one_of_its_step(self, monkeypatch, zero_rows, expected):
        # the n×n W, and when it is singular the r×r G F of the staircase;
        # no SVD of W alone for the rank nor of the n×2n [W C]
        spec, _ = random_equation_instance(np.random.default_rng(60), 8, 2, zero_diag_rows=zero_rows)
        result = solve(spec)
        assert lme.geninv.matrix_rank(lme.coefficient_sum(spec)) == expected[-1][0]
        shapes = []
        original = np.linalg.svd

        def spy(x, *args, **kwargs):
            shapes.append(x.shape)
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        ev = consistency_evidence(spec, result)
        assert shapes == expected
        assert ev.agree and ev.diagnostics == ()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        k=st.integers(1, 4),
        zero_rows=st.integers(0, 3),
        inconsistent=st.booleans(),
        unitary=st.booleans(),
        e=st.integers(-30, 30),
    )
    def test_range_test_agrees_with_the_reference(self, seed, n, k, zero_rows, inconsistent, unitary, e):
        zero_rows = max(zero_rows, int(inconsistent))
        spec, _ = random_equation_instance(
            np.random.default_rng(seed), n, k, zero_rows, inconsistent, unitary
        )
        f = 2.0**e
        spec = equation_spec([f * a for a in spec.a_list], spec.b_list, f * spec.rhs)
        near = between_the_rules(spec)
        if near:
            event("a singular value or the out-of-range part near a threshold")
        assume(not near)
        ev = consistency_evidence(spec, solve(spec))
        assert ev.standard_consistent == column_space_consistent(lme.coefficient_sum(spec), spec.rhs)

    @pytest.mark.parametrize("delta, excluded", [(1e-7, 0), (1e-8, 0), (1e-9, 6)])
    def test_range_test_agrees_near_a_cancelled_cell(self, delta, excluded):
        # every draw left out already fires both diagnostics, by either rule
        left_out = 0
        for spec, _ in perturbed_instances(delta):
            ev = consistency_evidence(spec, solve(spec))
            if between_the_rules(spec):
                left_out += 1
                assert len(ev.diagnostics) == 2
                continue
            assert ev.standard_consistent == column_space_consistent(lme.coefficient_sum(spec), spec.rhs)
        assert left_out == excluded


def reachable_arrays(obj):
    """Every array reachable from a solve result through dataclass fields,
    tuples and the slots of a ``FactoredBasis``."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from reachable_arrays(item)
    elif isinstance(obj, FactoredBasis):
        for name in FactoredBasis.__slots__:
            yield from reachable_arrays(getattr(obj, name))
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from reachable_arrays(getattr(obj, f.name))


class TestMemo:
    """A spec cannot change, so ``solve`` is memoized on it per Tolerances."""

    def test_writes_into_the_inputs_do_not_reach_the_spec(self):
        spec0, _ = random_equation_instance(np.random.default_rng(80), 5, 2, zero_diag_rows=1)
        # complex arrays, which as_matrix alone would hand back as they are,
        # and a view into a larger array
        a_list = [np.array(a) for a in spec0.a_list]
        b_list = [np.array(b) for b in spec0.b_list]
        padded = np.zeros((6, 6), dtype=complex)
        padded[:5, :5] = spec0.rhs
        spec = equation_spec(a_list, b_list, padded[:5, :5])
        for m in (*a_list, *b_list, padded):
            m[...] = 7.0
        got, want = solve(spec), solve(equation_spec(spec0.a_list, spec0.b_list, spec0.rhs))
        assert np.array_equal(got.x_hat, want.x_hat)
        assert (got.consistent, got.dimension) == (want.consistent, want.dimension)
        for kept, original in zip(spec.members(), spec0.members()):
            assert np.array_equal(kept, original)

    def test_spec_and_result_arrays_are_read_only(self):
        spec, _ = random_equation_instance(np.random.default_rng(81), 5, 2, zero_diag_rows=1)
        res = solve(spec)
        arrays = list(reachable_arrays(res))
        assert len(arrays) > 10
        for m in (*spec.members(), *arrays):
            assert not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            res.x_hat[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            spec.rhs[0, 0] = 1.0
        with pytest.raises(AttributeError, match="^cannot assign to FactoredBasis.rows$"):
            res.basis.rows = res.basis.rows[:1]
        # the basis members are formed on demand, as the caller's own arrays
        assert res.basis[0].flags.writeable
        ok, evidence = check_consistent(spec)
        assert ok and not evidence.diagnostics

    def test_construction_and_replace_copy_every_array(self):
        spec = homogeneous_spec()
        rhs = np.ones((3, 3), dtype=complex)
        for other in (replace(spec, rhs=rhs), lme.EquationSpec(spec.a_list, spec.b_list, rhs)):
            for kept, given in zip(other.members(), [*spec.a_list, *spec.b_list, rhs]):
                assert not np.shares_memory(kept, given) and not kept.flags.writeable
        view = lme.EquationSpec(spec.a_list, spec.b_list, spec.rhs.T)
        assert view.rhs.base is None and view.rhs.flags.f_contiguous

    def test_construction_and_replace_check_the_shapes(self):
        spec = homogeneous_spec()
        a, b = spec.a_list[0], spec.b_list[0]
        with pytest.raises(DimensionMismatchError, match="^2 left factors but 1 right factors$"):
            lme.EquationSpec((a, a), (b,), spec.rhs)
        with pytest.raises(DimensionMismatchError, match="^term matrix 0 has size 3, expected 2$"):
            replace(spec, rhs=np.eye(2))
        with pytest.raises(NonSquareError, match="^C must be square"):
            replace(spec, rhs=np.ones((3, 2)))

    def test_construction_accepts_a_list_rhs(self):
        spec = homogeneous_spec()
        other = lme.EquationSpec(spec.a_list, spec.b_list, spec.rhs.tolist())
        assert other.rhs.dtype == complex and not other.rhs.flags.writeable
        assert np.array_equal(solve(other).x_hat, solve(spec).x_hat)

    def test_a_read_only_input_made_writeable_again_does_not_reach_the_spec(self):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        a.flags.writeable = False
        spec = equation_spec([a], [I3], I3)
        res = solve(spec)
        a.flags.writeable = True
        a[0, 0] = 0.0  # singular now: a fresh spec of it is inconsistent
        assert spec.a_list[0][0, 0] == 1.0
        assert solve(spec) is res and res.consistent
        assert not solve(equation_spec([a], [I3], I3)).consistent

    def test_spec_and_result_survive_pickling(self):
        spec = homogeneous_spec()
        res = solve(spec)
        spec2, res2 = pickle.loads(pickle.dumps((spec, res)))
        assert not spec2._solved and not spec2.rhs.flags.writeable
        assert all(np.array_equal(x, y) for x, y in zip(spec2.members(), spec.members()))
        assert res2.dimension == 2 and all(np.array_equal(x, y) for x, y in zip(res2.basis, res.basis))
        assert np.array_equal(solve(spec2).x_hat, res.x_hat)

    def test_second_solve_returns_the_same_object(self):
        spec = homogeneous_spec()
        res = solve(spec)
        assert solve(spec) is res
        assert solve(spec, Tolerances()) is res  # an equal value is the same key
        assert check_consistent(spec)[0] is res.consistent

    def test_other_tolerances_or_spec_compute_afresh(self):
        spec = homogeneous_spec()
        res = solve(spec)
        loose = solve(spec, Tolerances(zero=1e-6))
        assert loose is not res and loose.tolerances == Tolerances(zero=1e-6)
        assert solve(spec, Tolerances(zero=1e-6)) is loose
        # a nonzero C on a zero diagonal cell makes the equation inconsistent
        other = replace(spec, rhs=np.eye(3))
        changed = solve(other)
        assert changed is not res and not changed.consistent
        assert solve(spec) is res and res.consistent

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        k=st.integers(1, 3),
        spread=st.floats(1.0, 1e3),
        zero_rows=st.integers(0, 2),
    )
    def test_memoized_result_equals_a_fresh_one(self, seed, n, k, spread, zero_rows):
        spec = conditioned_instance(np.random.default_rng(seed), n, k, spread, zero_rows, False)
        first = solve(spec)
        check_consistent(spec)
        memo = solve(spec)
        fresh = solve(equation_spec(spec.a_list, spec.b_list, spec.rhs))
        assert memo is first and fresh is not memo
        assert np.array_equal(memo.x_hat, fresh.x_hat)
        assert memo.dimension == fresh.dimension
        assert memo.relevant.cells == fresh.relevant.cells
        assert np.array_equal(memo.diagonalizer, fresh.diagonalizer)

    def test_check_consistent_after_solve_does_not_solve_again(self, monkeypatch):
        calls = {"validate_family": 0, "eig": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        spec, _ = random_equation_instance(np.random.default_rng(82), 6, 2, zero_diag_rows=1)
        monkeypatch.setattr(
            lme.equations, "validate_family", counting("validate_family", lme.equations.validate_family)
        )
        monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
        solve(spec)
        check_consistent(spec)
        assert calls == {"validate_family": 1, "eig": 1}


class TestSolveStandard:
    def test_invertible_unique(self):
        rng = np.random.default_rng(59)
        _, _, members = random_family(rng, 3, 2)
        a, c = members
        a = a + 5 * np.eye(3)
        spec = equation_spec([a], [np.eye(3)], c)
        res = solve_standard(spec)
        assert res.consistent and res.dimension == 0
        np.testing.assert_allclose(res.x_hat, np.linalg.solve(a, c), atol=1e-8)

    def test_jordan_standard_rejected(self):
        # the coefficient sum is nilpotent nonzero, hence not diagonalizable
        with pytest.raises(HypothesisViolatedError):
            solve_standard(stein_jordan_spec())

    def test_zero_map_full_dimension(self):
        spec = equation_spec([np.zeros((3, 3))], [np.eye(3)], np.zeros((3, 3)))
        res = solve_standard(spec)
        assert res.consistent
        assert res.dimension == 9


class TestSylvester:
    def test_diagonal_unique(self):
        res = solve_sylvester(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.eye(2))
        assert res.consistent and res.dimension == 0
        np.testing.assert_allclose(res.x_hat, np.diag([0.25, 1 / 6]), atol=1e-10)

    def test_opposite_identities_full_space(self):
        res = solve_sylvester(np.eye(3), -np.eye(3), np.zeros((3, 3)))
        assert res.consistent
        assert res.dimension == 9

    def test_random_against_oracle(self):
        rng = np.random.default_rng(60)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            a, b, c = random_commuting_triple(rng, n)
            res = solve_sylvester(a, b, c)
            spec = equation_spec([a, np.eye(n)], [np.eye(n), b], c)
            compare(res, vectorize(spec))

    def test_dimension_formula(self):
        rng = np.random.default_rng(61)
        a, b, c = random_commuting_triple(rng, 4)
        res = solve_sylvester(a, b, c)
        count = named_form_pair_count("sylvester", a, b)
        assert res.dimension == count


class TestStein:
    def test_zero_coefficients_unique(self):
        res = solve_stein(np.zeros((2, 2)), np.zeros((2, 2)), -np.eye(2))
        assert res.consistent and res.dimension == 0
        np.testing.assert_allclose(res.x_hat, np.eye(2), atol=1e-10)

    def test_jordan_rejected(self):
        with pytest.raises(HypothesisViolatedError):
            solve_stein(JORDAN, JORDAN, I2)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(62)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            a, b, c = random_commuting_triple(rng, n)
            res = solve_stein(a, b, c)
            spec = equation_spec([a, -np.eye(n)], [b, np.eye(n)], c)
            compare(res, vectorize(spec))

    def test_dimension_formula(self):
        rng = np.random.default_rng(63)
        a, b, c = random_commuting_triple(rng, 4)
        res = solve_stein(a, b, c)
        assert res.dimension == named_form_pair_count("stein", a, b)


class TestContinuousLyapunov:
    def test_identity(self):
        res = solve_continuous_lyapunov(np.eye(2), 2 * np.eye(2))
        assert res.consistent and res.dimension == 0
        np.testing.assert_allclose(res.x_hat, np.eye(2), atol=1e-10)

    def test_non_normal_rejected(self):
        with pytest.raises(NotNormalError):
            solve_continuous_lyapunov(np.array([[0, 1], [0, 0]]), np.zeros((2, 2)))

    def test_non_hermitian_rhs_rejected(self):
        with pytest.raises(NotHermitianRhsError):
            solve_continuous_lyapunov(np.eye(2), np.array([[0, 1], [0, 0]]))

    def test_gate_errors_are_hypothesis_violations(self):
        # string causes: the messages stay as they are and .cause is None
        for call, error, message in (
            (lambda: solve_continuous_lyapunov(JORDAN, np.zeros((2, 2))), NotNormalError,
             "A must be a normal matrix"),
            (lambda: solve_continuous_lyapunov(np.eye(2), JORDAN), NotHermitianRhsError,
             "C must be Hermitian"),
        ):
            with pytest.raises(HypothesisViolatedError) as info:
                call()
            assert isinstance(info.value, error)
            assert info.value.cause is None and str(info.value) == message

    def test_skew_spectrum_dimension(self):
        # conj(a_r) + a_s vanishes only for the pairs (1,1) and (2,2) here:
        # the cross terms give -2i and 2i, so the dimension is 2 (checked
        # against the vectorized oracle)
        a = np.diag([1j, -1j])
        res = solve_continuous_lyapunov(a, np.zeros((2, 2)))
        assert res.consistent
        assert res.dimension == 2
        spec = equation_spec([a.conj().T, np.eye(2)], [np.eye(2), a], np.zeros((2, 2)))
        assert oracle_solve(vectorize(spec)).dimension == 2

    def test_equal_imaginary_pair_full_dimension(self):
        a = np.diag([1j, 1j])
        res = solve_continuous_lyapunov(a, np.zeros((2, 2)))
        assert res.dimension == 4

    def test_x_hat_hermitian(self):
        rng = np.random.default_rng(64)
        _, _, (m1, m2, _) = random_family(rng, 3, 3, unitary=True)
        a = m1
        c = m2 + m2.conj().T
        if not commutes(a, c):
            pytest.skip("random draw failed to commute")
        res = solve_continuous_lyapunov(a, c)
        assert np.linalg.norm(res.x_hat - res.x_hat.conj().T) < 1e-9


class TestDiscreteLyapunov:
    def test_zero_coefficient(self):
        res = solve_discrete_lyapunov(np.zeros((2, 2)), -np.eye(2))
        assert res.consistent and res.dimension == 0
        np.testing.assert_allclose(res.x_hat, np.eye(2), atol=1e-10)

    def test_non_normal_rejected(self):
        with pytest.raises(NotNormalError):
            solve_discrete_lyapunov(JORDAN, np.zeros((2, 2)))

    def test_unit_phase_full_dimension(self):
        theta = 0.7
        a = np.diag([np.exp(1j * theta), np.exp(1j * theta)])
        res = solve_discrete_lyapunov(a, np.zeros((2, 2)))
        assert res.dimension == 4


class TestUniqueness:
    def test_homogeneous_example_infinite(self):
        spec = homogeneous_spec()
        rep = uniqueness_report(solve(spec), spec)
        assert rep.infinite and not rep.unique
        assert rep.dimension == 2

    def test_invertible_unique(self):
        rng = np.random.default_rng(65)
        _, _, members = random_family(rng, 3, 2)
        a, c = members
        a = a + 5 * np.eye(3)
        spec = equation_spec([a], [np.eye(3)], c)
        rep = uniqueness_report(solve(spec), spec)
        assert rep.unique and rep.coefficient_sum_invertible

    def test_inconsistent_input_rejected(self):
        rng = np.random.default_rng(66)
        spec, _ = random_equation_instance(rng, 4, 2, zero_diag_rows=1, inconsistent=True)
        with pytest.raises(InconsistentInputError):
            uniqueness_report(solve(spec), spec)

    def test_candidate_commutation_flags(self):
        rng = np.random.default_rng(67)
        _, _, members = random_family(rng, 3, 2)
        a, c = members
        a = a + 5 * np.eye(3)
        spec = equation_spec([a], [np.eye(3)], c)
        res = solve(spec)
        rep = uniqueness_report(res, spec, candidate=res.x_hat)
        assert rep.candidate_is_solution and rep.candidate_equals_x_hat
        assert all(rep.candidate_commutation)

    def test_candidate_of_wrong_size(self):
        spec = homogeneous_spec()
        with pytest.raises(DimensionMismatchError, match="^candidate has size 4, expected 3$"):
            uniqueness_report(solve(spec), spec, candidate=np.eye(4))

    def test_a_cancelled_sum_is_not_invertible(self):
        # W = A B - (1 + 1e-12) A B has singular values about 1e-12 of the
        # uncancelled scale, which the rank rule of the evidence reads as 0;
        # counted against sigma_max(W) itself they read as full rank
        s = random_diagonalizer(np.random.default_rng(5), 4)
        s_inv = np.linalg.inv(s)
        a = s @ np.diag([1.0, 2.0, 3.0, 4.0]) @ s_inv
        b = s @ np.diag([1.0, -1.0, 2.0, 0.5]) @ s_inv
        spec = equation_spec([a, -a], [b, (1 + 1e-12) * b], np.zeros((4, 4)))
        rep = uniqueness_report(solve(spec), spec)
        assert (rep.dimension, rep.unique, rep.coefficient_sum_invertible) == (16, False, False)

    def test_displayed_noncommuting_family_member(self):
        # a member of the two-parameter solution family of the non-commuting
        # Stein case does not commute with its coefficient matrix
        x = np.array([[-0.5, -0.5], [0.0, 0.0]], dtype=complex)  # a = b = 0
        spec = stein_noncommuting_spec()
        assert equation_residual(spec, x) < 1e-12
        assert not commutes(x, STEIN2_A)


class TestNormalCertificate:
    def test_unique_normal_solution(self):
        rng = np.random.default_rng(68)
        spec, _ = random_equation_instance(rng, 4, 1, unitary=True)
        res = solve(spec)
        if res.normal_certificate:
            assert is_normal(res.x_hat, 1e-8)

    def test_offdiagonal_zero_gives_nonnormal_solution(self):
        # normal inputs with an off-diagonal relevant-matrix zero admit a
        # non-normal homogeneous solution
        a = np.diag([1.0, -1.0])
        spec = equation_spec([a], [np.eye(2)], np.zeros((2, 2)))
        # gamma[r, s] = a_r, no zero... use sylvester-type pattern instead
        spec = equation_spec([a, np.eye(2)], [np.eye(2), a], np.zeros((2, 2)))
        res = solve(spec)
        assert res.normal_certificate is False
        off_cells = [b for (r, c), b in zip(res.relevant.cells, res.basis) if r != c]
        assert off_cells
        assert any(not is_normal(b, 1e-8) for b in off_cells)

    @pytest.mark.parametrize("seed, n, k, zero_rows", [(0, 4, 1, 0), (1, 6, 2, 1), (2, 8, 3, 2)])
    def test_certificate_reuses_the_family(self, monkeypatch, seed, n, k, zero_rows):
        # the certificate decides on the validated members and the norms the
        # family keeps, so is_normal, which validates and norms again, never runs
        spec, _ = random_equation_instance(np.random.default_rng(seed), n, k, zero_rows, unitary=True)

        def refuse(*args, **kwargs):
            raise AssertionError("is_normal called")

        monkeypatch.setattr(lme.equations, "is_normal", refuse)
        res = solve(spec)
        normal = all(
            fro(m @ m.conj().T - m.conj().T @ m) <= TOL_COMMUTE * max(1.0, fro(m) ** 2) for m in spec.members()
        )
        off_zero = res.relevant.zero_mask & ~np.eye(n, dtype=bool)
        assert normal
        assert res.normal_certificate is (not off_zero.any())

    def test_normal_family_at_entry_scale_1e100(self):
        # the rounding residual of A A* - A* A is about 1e184, whose squared
        # norm overflowed: the certificate read None, with numpy warnings
        u = haar_unitary(np.random.default_rng(0), 3)
        a = 1e100 * (u * np.array([1.0, 2.0, 3.0])) @ u.conj().T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(equation_spec([a], [I3], I3))
        assert res.normal_certificate is True

    def test_all_offdiagonal_nonzero_solutions_normal(self):
        rng = np.random.default_rng(69)
        spec, _ = random_equation_instance(rng, 3, 1, zero_diag_rows=1, unitary=True)
        res = solve(spec)
        if res.normal_certificate:
            for b in res.basis:
                assert is_normal(res.x_hat + b, 1e-8)


def test_standard_spec_shape():
    spec = homogeneous_spec()
    std = standard_spec(spec)
    assert std.k == 1
    np.testing.assert_allclose(std.a_list[0], HOMOG_A @ HOMOG_B + 2 * I3, atol=1e-12)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: lme.EquationSpec([], [], I2), DimensionMismatchError, "^the equation needs at least one term$"),
        (lambda: relevant_matrix([np.ones(2)], [], np.ones(2)), DimensionMismatchError, "^need matching, non-empty"),
        (lambda: relevant_matrix([], [], np.ones(2)), DimensionMismatchError, "^need matching, non-empty"),
        (lambda: named_form_spec("foo", I2, I2), ValueError, "^unknown named form 'foo'$"),
        (lambda: lyapunov_gate(I2, I3), DimensionMismatchError, r"^shapes differ: \(2, 2\) vs \(3, 3\)$"),
        (lambda: lme.solve_sylvester(I2, None, I2), DimensionMismatchError, "^sylvester needs B$"),
        (lambda: lme.solve_stein(I2, None, I2), DimensionMismatchError, "^stein needs B$"),
        (lambda: lme.named_form_pair_count("sylvester", I2), DimensionMismatchError, "^sylvester needs B$"),
    ],
    ids=[
        "no-terms",
        "unmatched-vectors",
        "no-vectors",
        "unknown-form",
        "lyapunov-sizes",
        "sylvester-without-b",
        "stein-without-b",
        "pair-count-without-b",
    ],
)
def test_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
