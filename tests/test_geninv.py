import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import lme.geninv
from lme.equations import coefficient_sum
from lme.errors import IndexTooLargeError, NonFiniteError, NonSquareError
from lme.geninv import (
    CoreNilpotentDecomposition,
    _staircase,
    _inverse_of_split,
    _require_finite,
    _split,
    _zero_threshold,
    core_nilpotent,
    drazin,
    group_inverse,
    index,
    matrix_rank,
    moore_penrose,
    scalar_dagger,
)
from lme.instances import (
    haar_unitary,
    random_diagonalizer,
    random_equation_instance,
    random_index2,
    random_normal,
)
from lme.matcore import as_matrix, fro
from lme.tolerances import TOL_RANK, TOL_ZERO

NILP = np.array([[0, 1], [0, 0]], dtype=complex)
JORDAN = np.array([[1, 1], [0, 1]], dtype=complex)
# invertible, with inverse [[6.7e-309, -1], [0, 1]]; sigma_max and ||A||_F overflow
OVERFLOWING = np.array([[1.5e308, 1.5e308], [0.0, 1.0]])


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rank_deficient(rng, n, r):
    return rand_complex(rng, (n, r)) @ rand_complex(rng, (r, n))


def spy(monkeypatch, *targets):
    """Counts of calls, by name, to each (module, name) in ``targets``."""
    calls = dict.fromkeys((name for _, name in targets), 0)
    for module, name in targets:
        original = getattr(module, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


class TestScalarDagger:
    def test_zero(self):
        assert scalar_dagger(0) == 0

    def test_two(self):
        assert scalar_dagger(2) == 0.5

    def test_below_threshold(self):
        assert scalar_dagger(1e-14, tol_zero=1e-10) == 0


class TestMoorePenrose:
    def test_zero_rectangular(self):
        out = moore_penrose(np.zeros((2, 3)))
        assert out.shape == (3, 2)
        assert np.all(out == 0)

    def test_diagonal_rule(self):
        np.testing.assert_allclose(moore_penrose(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_noncommuting_stein_value(self):
        # pinv(A^2 - 2I) C vanishes because A^2 = 2I
        a = np.array([[1, 1], [1, -1]], dtype=complex)
        c = np.array([[0, 1], [-1, 0]], dtype=complex)
        out = moore_penrose(a @ a - 2 * np.eye(2)) @ c
        assert np.abs(out).max() < 1e-12

    def test_penrose_axioms(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            if trial % 3 == 0:
                a = rank_deficient(rng, max(n, 2), max(min(n, m) - 1, 1))
            else:
                a = rand_complex(rng, (n, m))
            p = moore_penrose(a)
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(a @ p @ a - a) <= 1e-8 * scale
            assert np.linalg.norm(p @ a @ p - p) <= 1e-8 * scale
            assert np.linalg.norm((a @ p).conj().T - a @ p) <= 1e-8 * scale
            assert np.linalg.norm((p @ a).conj().T - p @ a) <= 1e-8 * scale


class TestIndex:
    def test_invertible(self):
        rng = np.random.default_rng(12)
        assert index(rand_complex(rng, (4, 4))) == 0

    def test_diagonalizable_singular(self):
        assert index(np.diag([1.0, 0.0])) == 1

    def test_nilpotent_two_by_two(self):
        # ranks of powers: 2, 1, 0, 0 so the index is 2
        assert index(NILP) == 2

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            index(np.ones((2, 3)))


class TestCoreNilpotent:
    def test_invertible_core_whole(self):
        rng = np.random.default_rng(13)
        a = rand_complex(rng, (4, 4)) + 4 * np.eye(4)
        dec = core_nilpotent(a)
        assert dec.core_size == 4
        assert dec.nilpotent.shape == (0, 0)

    def test_nilpotent_core_empty(self):
        dec = core_nilpotent(NILP)
        assert dec.core_size == 0
        assert dec.core.shape == (0, 0)

    def test_diag_three_zero(self):
        dec = core_nilpotent(np.diag([3.0, 0.0]))
        assert dec.core_size == 1
        np.testing.assert_allclose(dec.core, [[3.0]], atol=1e-12)
        np.testing.assert_allclose(dec.nilpotent, [[0.0]], atol=1e-12)

    def test_reconstruction_and_nilpotency(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            a = random_index2(rng, n) if n >= 3 else rank_deficient(rng, n, 1)
            dec = core_nilpotent(a)
            k = dec.core_size
            full = np.zeros((n, n), dtype=complex)
            full[:k, :k] = dec.core
            full[k:, k:] = dec.nilpotent
            recon = dec.similarity @ full @ np.linalg.inv(dec.similarity)
            assert np.linalg.norm(recon - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
            if n - k:
                power = np.linalg.matrix_power(dec.nilpotent, n - k)
                assert np.abs(power).max() < 1e-9 * max(1.0, np.linalg.norm(a)) ** (n - k)
            if k:
                assert np.linalg.cond(dec.core) < 1e12

    def test_core_size_is_the_rank_of_the_power_at_the_index(self):
        rng = np.random.default_rng(22)
        mats = [
            NILP,
            JORDAN,
            JORDAN @ JORDAN - np.eye(2),
            np.diag([3.0, 0.0]),
            np.diag([2.0, 0.0, -0.5]),
            rand_complex(rng, (4, 4)) + 4 * np.eye(4),
            rank_deficient(rng, 5, 3),
            *(random_index2(rng, int(rng.integers(3, 8))) for _ in range(20)),
        ]
        for m in mats:
            assert core_nilpotent(m).core_size == matrix_rank(np.linalg.matrix_power(m, index(m)))


class TestDrazin:
    def test_invertible_is_inverse(self):
        rng = np.random.default_rng(15)
        a = rand_complex(rng, (4, 4)) + 4 * np.eye(4)
        np.testing.assert_allclose(drazin(a), np.linalg.inv(a), atol=1e-9)

    def test_nilpotent_jordan_value(self):
        # A^2 - I is nilpotent for the Jordan block, so its Drazin inverse vanishes
        out = drazin(JORDAN @ JORDAN - np.eye(2))
        assert np.abs(out).max() < 1e-12

    def test_diagonal_rule(self):
        d = drazin(np.diag([2.0, 0.0, -0.5]))
        np.testing.assert_allclose(d, np.diag([0.5, 0.0, -2.0]), atol=1e-12)

    def test_drazin_axioms(self):
        rng = np.random.default_rng(16)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            if trial % 3 == 0 and n >= 3:
                a = random_index2(rng, n)
            elif trial % 3 == 1:
                a = rank_deficient(rng, n, max(n - 1, 1))
            else:
                a = rand_complex(rng, (n, n))
            a = a / max(1.0, np.linalg.norm(a))
            d = drazin(a)
            q = index(a)
            aq = np.linalg.matrix_power(a, q)
            assert np.linalg.norm(np.linalg.matrix_power(a, q + 1) @ d - aq) <= 1e-8 * max(1.0, np.linalg.norm(aq))
            assert np.linalg.norm(d @ a @ d - d) <= 1e-8 * max(1.0, np.linalg.norm(d))
            assert np.linalg.norm(d @ a - a @ d) <= 1e-8 * max(1.0, np.linalg.norm(d) * np.linalg.norm(a))

    def test_similarity_covariance(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            a = random_index2(rng, n)
            w = random_diagonalizer(rng, n)
            lhs = drazin(w @ a @ np.linalg.inv(w))
            rhs = w @ drazin(a) @ np.linalg.inv(w)
            assert np.linalg.norm(lhs - rhs) <= 1e-7 * max(1.0, np.linalg.norm(rhs))

    def test_commuting_pair(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            n = 5
            s = random_diagonalizer(rng, n)
            s_inv = np.linalg.inv(s)
            a = s @ np.diag(rng.choice([0.0, 1.0, 2.0], size=n)) @ s_inv
            b = s @ np.diag(rng.choice([1.0, -1.0, 3.0], size=n)) @ s_inv
            d = drazin(a)
            assert np.linalg.norm(d @ b - b @ d) <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_normal_matches_moore_penrose(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = random_normal(rng, n)
            assert np.linalg.norm(drazin(m) - moore_penrose(m)) <= 1e-8 * max(1.0, np.linalg.norm(moore_penrose(m)))


class TestGroupInverse:
    def test_invertible(self):
        rng = np.random.default_rng(20)
        a = rand_complex(rng, (3, 3)) + 3 * np.eye(3)
        np.testing.assert_allclose(group_inverse(a), np.linalg.inv(a), atol=1e-9)

    def test_projector_like(self):
        np.testing.assert_allclose(group_inverse(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-12)

    def test_index_two_rejected(self):
        with pytest.raises(IndexTooLargeError):
            group_inverse(NILP)

    def test_rank_tolerance_reaches_the_drazin_inverse(self):
        # 1e-11 is a nonzero singular value at tol_rank=1e-12, so A is invertible
        a = np.diag([1.0, 1e-11])
        np.testing.assert_allclose(group_inverse(a, tol_rank=1e-12), np.diag([1.0, 1e11]), rtol=1e-12)

    def test_one_index_loop_and_no_schur_form(self, monkeypatch):
        calls = spy(monkeypatch, (np.linalg, "svd"), (scipy.linalg, "schur"))
        group_inverse(np.diag([1.0, 2.0, 0.0]))
        # the staircase factors A, which Cline's formula reuses, and then its
        # G F; a second staircase, or a second factorization of A, would add SVDs
        assert calls == {"svd": 2, "schur": 0}

    def test_bitwise_the_drazin_inverse_at_index_at_most_one(self):
        rng = np.random.default_rng(27)
        mats = [
            np.diag([1.0, 2.0, 0.0]),
            np.diag([1.0, 0.0]),
            np.zeros((3, 3)),
            1e-12 * np.eye(3),  # the all-nilpotent shortcut decides, not the loop's rank 3
            rand_complex(rng, (4, 4)) + 4 * np.eye(4),
            *(random_normal(rng, n) for n in range(2, 8)),
            *(rank_deficient(rng, n, n - 1) for n in range(2, 8)),
        ]
        for n in range(2, 10):
            s = random_diagonalizer(rng, n)
            mats.append(s @ np.diag(rng.choice([0.0, 1.0, -2.0, 3j], size=n)) @ np.linalg.inv(s))
        for m in mats:
            assert index(m) <= 1
            assert np.array_equal(group_inverse(m), drazin(m))
        assert not group_inverse(1e-12 * np.eye(3)).any()

    def test_index_two_inputs_rejected(self):
        rng = np.random.default_rng(28)
        for n in range(2, 12):
            with pytest.raises(IndexTooLargeError):
                group_inverse(random_index2(rng, n))


def test_unitary_conjugation_keeps_normal_drazin():
    rng = np.random.default_rng(21)
    u = haar_unitary(rng, 4)
    w = np.array([2.0, 0.0, 1j, -1.0])
    m = u @ np.diag(w) @ u.conj().T
    expected = u @ np.diag([scalar_dagger(z) for z in w]) @ u.conj().T
    np.testing.assert_allclose(drazin(m), expected, atol=1e-9)


@pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
def test_size_zero_inputs(shape):
    assert moore_penrose(np.zeros(shape)).shape == shape[::-1]
    assert matrix_rank(np.zeros(shape)) == 0


class TestOverflowingInputs:
    """An overflowed sigma_max or norm would make every threshold inf and
    every matrix read as zero; each function raises instead, without a numpy
    warning."""

    def test_moore_penrose(self):
        with pytest.raises(NonFiniteError, match="^the largest singular value is not finite$"):
            moore_penrose(OVERFLOWING)

    def test_matrix_rank(self):
        with pytest.raises(NonFiniteError, match="^the largest singular value is not finite$"):
            matrix_rank(OVERFLOWING)

    def test_drazin(self):
        with pytest.raises(NonFiniteError, match="^the zero-threshold reference is not finite$"):
            drazin(OVERFLOWING)

    def test_core_nilpotent_scale(self):
        with pytest.raises(NonFiniteError, match="^the zero-threshold reference is not finite$"):
            core_nilpotent(np.eye(2), scale=np.inf)

    def test_index_power(self):
        # A^2 would overflow; the staircase's G F is the 1×1 matrix [1e200]
        assert index(np.array([[1e200, 1e200], [0.0, 0.0]])) == 1


def reference_core_nilpotent(a, tol_zero=TOL_ZERO, tol_rank=TOL_RANK, scale=None):
    """The split as computed before one Schur form fed it: ``eigvals`` for
    the cutoff, a plain or a sorted Schur form, then ``solve_sylvester``,
    with the core size of the staircase."""
    m = np.asarray(a, dtype=complex)
    n = m.shape[0]
    base = max(1.0, fro(m)) if scale is None else max(1.0, scale)
    thresh = tol_zero * base
    eigs = np.linalg.eigvals(m)
    if n and np.max(np.abs(eigs)) <= thresh:
        core_size = 0
    else:
        core_size = len(_staircase(m, 0, tol_rank)[0])
    if core_size in (0, n):
        t, z = scipy.linalg.schur(m, output="complex")
        k = core_size
    else:
        moduli = np.sort(np.abs(eigs))[::-1]
        hi, lo = moduli[core_size - 1], moduli[core_size]
        if hi > 2.0 * lo:
            cutoff = np.sqrt(hi * max(lo, 1e-300 * hi)) if lo > 0 else hi / 2.0
        else:
            cutoff = thresh
        t, z, sdim = scipy.linalg.schur(m, output="complex", sort=lambda lam: abs(lam) > cutoff)
        k = int(sdim)
    core = t[:k, :k].copy()
    nil = t[k:, k:].copy()
    small = np.flatnonzero(np.abs(np.diag(nil)) <= thresh)
    nil[small, small] = 0.0
    similarity = z
    if 0 < k < n:
        coupling = t[:k, k:]
        if fro(coupling) > 0:
            r = scipy.linalg.solve_sylvester(core, -nil, -coupling)
            upper = np.eye(n, dtype=complex)
            upper[:k, k:] = r
            similarity = z @ upper
    return CoreNilpotentDecomposition(similarity, core, nil, k)


def assert_same_split(m, **kwargs):
    got = core_nilpotent(m, **kwargs)
    want = reference_core_nilpotent(m, **kwargs)
    assert got.core_size == want.core_size
    for name in ("similarity", "core", "nilpotent"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def no_gap_input():
    """S diag(1, 0.6, 0) S^-1 at tol_rank 0.7: the rank of A^index is 1, but
    the moduli 1 and 0.6 leave no gap, so the plain threshold sorts two
    eigenvalues into the core."""
    rng = np.random.default_rng(0)
    s = random_diagonalizer(rng, 3)
    return s @ np.diag([1.0, 0.6, 0.0]) @ np.linalg.inv(s)


class TestOneSchurFormAgainstReference:
    """One Schur form reordered by ``trsen`` and a ``trsyl`` solve give the
    bytes of the eigvals / sorted-Schur / ``solve_sylvester`` algorithm."""

    def test_fixed_inputs(self):
        for m in (NILP, JORDAN, np.diag([1.0, 2.0, 0.0]), np.zeros((3, 3)), np.eye(3)):
            assert_same_split(m)

    def test_index_two(self):
        rng = np.random.default_rng(23)
        for n in range(2, 20):
            assert_same_split(random_index2(rng, n))

    def test_rank_deficient_products(self):
        rng = np.random.default_rng(24)
        for n in range(2, 13):
            for r in range(1, n):
                assert_same_split(rank_deficient(rng, n, r))

    def test_coefficient_sums(self):
        rng = np.random.default_rng(25)
        for trial in range(30):
            n, k = int(rng.integers(2, 13)), int(rng.integers(1, 4))
            spec, _ = random_equation_instance(rng, n, k, zero_diag_rows=1 + trial % 2)
            scale = float(sum(fro(a) * fro(b) for a, b in zip(spec.a_list, spec.b_list)))
            assert_same_split(coefficient_sum(spec))
            assert_same_split(coefficient_sum(spec), scale=scale)

    def test_no_gap_branch(self):
        m = no_gap_input().astype(complex)
        k = len(_staircase(m, 0, 0.7)[0])
        moduli = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
        assert k == 1 and moduli[0] <= 2.0 * moduli[1]  # the branch is reached
        assert core_nilpotent(m, tol_rank=0.7).core_size == 2
        assert_same_split(m, tol_rank=0.7)

    def test_one_schur_form_per_split(self, monkeypatch):
        calls = {"schur": 0, "eigvals": 0, "solve_sylvester": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(scipy.linalg, "schur")
        counted(np.linalg, "eigvals")
        counted(scipy.linalg, "solve_sylvester")
        dec = core_nilpotent(random_index2(np.random.default_rng(26), 5))
        assert dec.core_size == 3  # reordered and decoupled
        assert calls == {"schur": 1, "eigvals": 0, "solve_sylvester": 0}


def reference_drazin(m, **kwargs):
    """S (B^{-1} ⊕ 0) S^{-1}, assembled from the reference split with an n×n
    inverse of its similarity."""
    dec = reference_core_nilpotent(m, **kwargs)
    n, k = dec.similarity.shape[0], dec.core_size
    block = np.zeros((n, n), dtype=complex)
    block[:k, :k] = np.linalg.inv(dec.core)
    return dec.similarity @ block @ np.linalg.inv(dec.similarity)


def reference_cases():
    """Every input of TestOneSchurFormAgainstReference, with its keywords."""
    cases = [(m, {}) for m in (NILP, JORDAN, np.diag([1.0, 2.0, 0.0]), np.zeros((3, 3)), np.eye(3))]
    rng = np.random.default_rng(23)
    cases += [(random_index2(rng, n), {}) for n in range(2, 20)]
    rng = np.random.default_rng(24)
    cases += [(rank_deficient(rng, n, r), {}) for n in range(2, 13) for r in range(1, n)]
    rng = np.random.default_rng(25)
    for trial in range(30):
        n, k = int(rng.integers(2, 13)), int(rng.integers(1, 4))
        spec, _ = random_equation_instance(rng, n, k, zero_diag_rows=1 + trial % 2)
        scale = float(sum(fro(a) * fro(b) for a, b in zip(spec.a_list, spec.b_list)))
        cases += [(coefficient_sum(spec), {}), (coefficient_sum(spec), {"scale": scale})]
    return cases + [(no_gap_input().astype(complex), {"tol_rank": 0.7})]


def test_drazin_matches_the_similarity_assembly(monkeypatch):
    """The closed-form inverse of Z [[I, R], [0, I]] gives the Drazin inverse
    of the n×n assembly to 1e-12, relative, without an n×n inverse."""
    cases = reference_cases()
    assert len(cases) == 5 + 18 + 66 + 60 + 1
    wants = [reference_drazin(m, **kwargs) for m, kwargs in cases]
    inverted = []
    original = np.linalg.inv

    def counted(x):
        inverted.append(x.shape)
        return original(x)

    monkeypatch.setattr(np.linalg, "inv", counted)
    for (m, kwargs), want in zip(cases, wants):
        assert fro(drazin(m, **kwargs) - want) <= 1e-12 * fro(want)
    assert inverted == []


# Residual bounds by index q.  A defective zero cluster of size q scatters to
# about eps^(1/q), so the Drazin axioms hold to that order; each bound is at
# least 50 times the largest residual seen at cond(S) <= 1e4.
AXIOM_BOUND = {0: 1e-10, 1: 1e-10, 2: 1e-6, 3: 1e-4}


def planted_index(seed, q, core_size, log_cond, log_scale):
    """10**log_scale * S (diag(lam) + J_q) S^-1: core eigenvalues of modulus
    1/2 to 2, one nilpotent Jordan block of size q, cond(S) = 10**log_cond."""
    rng = np.random.default_rng(seed)
    n = core_size + q
    lam = rng.uniform(0.5, 2.0, core_size) * np.exp(2j * np.pi * rng.uniform(size=core_size))
    block = np.zeros((n, n), dtype=complex)
    block[:core_size, :core_size] = np.diag(lam)
    block[np.arange(core_size, n - 1), np.arange(core_size + 1, n)] = 1.0
    s = conditioned_similarity(rng, n, log_cond)
    return 10.0**log_scale * (s @ block @ np.linalg.inv(s))


def conditioned_similarity(rng, n, log_cond):
    """U diag(logspace(0, log_cond, n)) V^H with Haar U and V: cond = 10**log_cond."""
    u, v = haar_unitary(rng, n), haar_unitary(rng, n)
    return u @ np.diag(np.logspace(0, log_cond, n)) @ v.conj().T


@st.composite
def indexed_matrices(draw, indices=st.integers(0, 3)):
    """Index 0-3, cores of size 0-4 (at index 0, size 0 is the empty
    matrix), cond(S) up to 1e4, scale 1e-6 to 1e6."""
    q = draw(indices)
    core_size = draw(st.integers(0, 4))
    log_cond = draw(st.floats(0.0, 4.0))
    log_scale = draw(st.floats(-6.0, 6.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return q, core_size, planted_index(seed, q, core_size, log_cond, log_scale)


class TestDrazinUnderConditioning:
    @settings(max_examples=150, deadline=None)
    @given(indexed_matrices())
    def test_split_and_axioms(self, drawn):
        q, core_size, a = drawn
        n = a.shape[0]
        dec = core_nilpotent(a)
        assert dec.core_size == core_size
        na = fro(a)
        full = np.zeros((n, n), dtype=complex)
        full[:core_size, :core_size] = dec.core
        full[core_size:, core_size:] = dec.nilpotent
        s = dec.similarity
        # nilpotent diagonals below the zero threshold are zeroed: allow 100 thresholds
        recon = fro(s @ full @ np.linalg.inv(s) - a)
        assert recon <= 100 * TOL_ZERO * max(1.0, na) * (np.linalg.cond(s) if n else 1.0)
        if q:
            assert fro(np.linalg.matrix_power(dec.nilpotent, q)) <= 1e-10 * na**q
        d = drazin(a)
        nd = fro(d)
        bound = AXIOM_BOUND[q]
        aq = np.linalg.matrix_power(a, q)
        assert fro(np.linalg.matrix_power(a, q + 1) @ d - aq) <= bound * (na ** (q + 1) * nd + na**q)
        assert fro(d @ a @ d - d) <= bound * (nd * nd * na + nd)
        assert fro(d @ a - a @ d) <= bound * nd * na


def schur_drazin(m, tol_rank=TOL_RANK):
    """The Drazin inverse from the core-nilpotent split alone."""
    thresh = _zero_threshold(m, TOL_ZERO, None)
    return _inverse_of_split(*_split(m, thresh, lambda: len(_staircase(m, 0, tol_rank)[0])))


def planted_group(seed, n, core_size, log_cond, log_scale):
    """10**log_scale * S diag(lam, 0) S^-1, index at most one: core_size
    eigenvalues of modulus 1/2 to 2, the rest zero, cond(S) = 10**log_cond."""
    rng = np.random.default_rng(seed)
    lam = np.zeros(n, dtype=complex)
    lam[:core_size] = rng.uniform(0.5, 2.0, core_size) * np.exp(2j * np.pi * rng.uniform(size=core_size))
    s = conditioned_similarity(rng, n, log_cond)
    return 10.0**log_scale * (s @ np.diag(lam) @ np.linalg.inv(s)), np.linalg.cond(s)


# Relative gap between Cline's formula and the split, per cond(S)^2: both
# err by about eps * cond(S)^2, and the largest ratio seen in 4000 draws
# was 4.6e-15, 20 times below this bound.
BRANCH_GAP = 1e-13


def split_calls(mp):
    """A list that records each call of ``_split`` while ``mp`` is active:
    ``drazin`` returns Cline's formula, or zero, exactly when it stays empty."""
    calls = []
    original = lme.geninv._split

    def spied(*args):
        calls.append(args)
        return original(*args)

    mp.setattr(lme.geninv, "_split", spied)
    return calls


class TestGroupInverseBySvd:
    """Cline's formula in ``drazin`` either gives way or agrees with the split."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.floats(0.0, 4.0),
        st.floats(-6.0, 6.0),
        st.sampled_from([TOL_RANK, 0.5]),
        st.integers(0, 2**32 - 1),
    )
    def test_gives_way_or_agrees_with_the_split(self, sizes, log_cond, log_scale, tol_rank, seed):
        n, core_size = sizes
        a, cond = planted_group(seed, n, core_size, log_cond, log_scale)
        with pytest.MonkeyPatch.context() as mp:
            calls = split_calls(mp)
            got = drazin(a, tol_rank=tol_rank)
        if calls:
            return  # Cline gave way
        want = schur_drazin(a, tol_rank)
        assert fro(got - want) <= BRANCH_GAP * cond**2 * fro(want)

    @settings(max_examples=100, deadline=None)
    @given(indexed_matrices(st.integers(2, 3)))
    def test_index_two_and_three_take_the_split(self, drawn):
        _, _, a = drawn
        with pytest.MonkeyPatch.context() as mp:
            calls = split_calls(mp)
            got = drazin(a)
        assert len(calls) == 1
        assert np.array_equal(got, schur_drazin(a))

    def test_all_nilpotent_below_the_zero_threshold(self, monkeypatch):
        def no_staircase(*args, **kwargs):
            raise AssertionError("the staircase ran")

        monkeypatch.setattr(lme.geninv, "_staircase", no_staircase)
        for m in (np.zeros((3, 3), dtype=complex), 1e-12 * NILP, np.zeros((0, 0), dtype=complex)):
            got = drazin(m)
            assert got.shape == m.shape and got.dtype == complex and not got.any()


def shift(n):
    """The n×n nilpotent shift matrix, ones on the superdiagonal."""
    return np.eye(n, k=1, dtype=complex)


class TestOrderOfDecisions:
    """The zero shortcut of ``drazin`` comes before the staircase's step 1,
    the index check of ``group_inverse`` before the zero shortcut, Cline's
    dropped singular value test before step 1, the split's Schur diagonal
    before step 2, and one staircase serves Cline's formula and the split."""

    def test_drazin_zero_shortcut_precedes_any_power(self, monkeypatch):
        # A is below the zero threshold of its scale
        calls = spy(monkeypatch, (lme.geninv, "_staircase"))
        got = drazin(1e160 * np.diag([1.0, 0.0]), scale=1e175)
        assert got.shape == (2, 2) and not got.any()
        assert calls == {"_staircase": 0}

    def test_group_inverse_index_check_precedes_the_zero_shortcut(self):
        with pytest.raises(IndexTooLargeError, match="^matrix has index 2, group inverse needs index <= 1$"):
            group_inverse(1e-12 * NILP)

    def test_index_two_takes_three_svds_and_one_schur_form(self, monkeypatch):
        a = random_index2(np.random.default_rng(0), 64)
        calls = spy(monkeypatch, (np.linalg, "svd"), (scipy.linalg, "schur"))
        drazin(a)
        # the staircase factors A, its 63×63 G F and that one's 62×62
        # compression; the split reuses its core size
        assert calls == {"svd": 3, "schur": 1}

    def test_nilpotent_shift_takes_two_svds_and_one_schur_form(self, monkeypatch):
        calls = spy(monkeypatch, (np.linalg, "svd"), (scipy.linalg, "schur"))
        got = drazin(shift(64))
        # A and its G F are factored; the Schur diagonal then reads A as
        # nilpotent, so the staircase stops at step 1, not 63 steps later
        assert calls == {"svd": 2, "schur": 1}
        assert got.shape == (64, 64) and not got.any()

    def test_schur_diagonal_precedes_an_overflowing_cube(self):
        # index 4, where A^3 would overflow.  The Schur diagonal reads A as
        # nilpotent in drazin as in core_nilpotent; index reads the staircase,
        # whose blocks stay at the scale of A
        a = 1e150 * np.triu(np.ones((4, 4)), 1)
        got = drazin(a)
        assert got.shape == (4, 4) and not got.any()
        assert core_nilpotent(a).core_size == 0
        assert index(a) == 4

    def test_dropped_singular_value_precedes_an_overflowing_square(self, monkeypatch):
        # nilpotent, singular values 1e160, 1e160, 1e159, 0, 0, and A^2 would
        # overflow: at tol_rank 0.5 rank(A) is 2 and 1e159 is a dropped value
        # above the threshold, so Cline gives way before step 1; at the
        # default rank(A) is 3, no value is dropped, and step 1 reads index 2
        a = 1e160 * scipy.linalg.block_diag(shift(3), 0.1 * shift(2))
        for tol_rank, steps in ((0.5, 0), (TOL_RANK, 1)):
            calls = spy(monkeypatch, (lme.geninv, "_staircase"))
            got = drazin(a, tol_rank=tol_rank, scale=1e160)
            assert got.shape == (5, 5) and not got.any()
            assert calls == {"_staircase": steps}


def branch_first_index_and_rank(m, tol_rank):
    """The index loop ranking eye @ A, A^2, ... by ``matrix_rank``, with the
    rank of A^index."""
    n = m.shape[0]
    prev = n
    power = np.eye(n, dtype=complex)
    for q in range(n + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ m
        r = matrix_rank(as_matrix(power, f"A^{q + 1}"), tol_rank)
        if r == prev:
            return q, prev
        prev = r
    return n, prev


def power_rank_of_square(m, tol_rank):
    with np.errstate(over="ignore", invalid="ignore"):  # as_matrix reports an overflow
        return matrix_rank(as_matrix(m @ m, "A^2"), tol_rank)


def staircase_index_and_rank(m, tol_rank):
    """(index, core size) read off the staircase."""
    block, q = _staircase(m, 0, tol_rank)
    return q, len(block)


# How the reference decides: the index and the rank of A^index, and a rank
# that equals rank(A) exactly at index <= 1 (rank(A^2), or the core size)
POWERS = (branch_first_index_and_rank, power_rank_of_square)
STAIRCASE = (staircase_index_and_rank, lambda m, tol_rank: staircase_index_and_rank(m, tol_rank)[1])


def branch_first_cline(m, tol_zero, tol_rank, scale, core_size, decide=POWERS):
    """Cline's formula tried from its own SVD, with its own rank(A^2) test
    unless the caller ran the index loop and passes ``core_size``."""
    n = m.shape[0]
    thresh = _zero_threshold(m, tol_zero, scale)
    u, s, vh = np.linalg.svd(m)
    if not n or _require_finite(s[0], "the largest singular value") <= thresh:
        return np.zeros((n, n), dtype=complex)
    r = int(np.count_nonzero(s > tol_rank * s[0]))
    if r < n and s[r] > thresh:
        return None
    if r < n and core_size is None:
        core_size = decide[1](m, tol_rank)
    if r < n and core_size != r:
        return None
    f = u[:, :r] * s[:r]
    g = vh[:r]
    gf = g @ f
    if math.exp(np.linalg.slogdet(gf)[1] / r) <= thresh:
        return None
    return f @ np.linalg.solve(gf, np.linalg.solve(gf, g))


def branch_first_drazin(m, tol_zero=TOL_ZERO, tol_rank=TOL_RANK, scale=None, decide=POWERS):
    """Cline's formula first, then the split, which runs its own index loop
    unless its Schur diagonal reads A as nilpotent."""
    m = np.asarray(m, dtype=complex)
    x = branch_first_cline(m, tol_zero, tol_rank, scale, None, decide)
    if x is None:
        thresh = _zero_threshold(m, tol_zero, scale)
        x = _inverse_of_split(*_split(m, thresh, lambda: decide[0](m, tol_rank)[1]))
    return x


def branch_first_group_inverse(m, tol_rank=TOL_RANK, tol_zero=TOL_ZERO, decide=POWERS):
    """The index loop, its check, then Cline's formula and the split with the loop's rank."""
    m = np.asarray(m, dtype=complex)
    q, rank = decide[0](m, tol_rank)
    if q > 1:
        raise IndexTooLargeError(f"matrix has index {q}, group inverse needs index <= 1")
    x = branch_first_cline(m, tol_zero, tol_rank, None, rank, decide)
    if x is None:
        x = _inverse_of_split(*_split(m, _zero_threshold(m, tol_zero, None), lambda: rank))
    return x


def outcome(f, *args, **kwargs):
    """The bytes, dtype and shape of f's result, or the type and message of what it raised."""
    try:
        x = f(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, whatever it is
        return type(exc), str(exc)
    return x.dtype, x.shape, x.tobytes()


# (index, core size) of each fixed input of ``reference_inputs``
FIXED_INPUTS = [
    (0, 0, np.zeros((0, 0))),
    (1, 0, np.zeros((3, 3))),
    (2, 0, NILP),
    (2, 0, 1e-12 * NILP),
    (2, 0, JORDAN - np.eye(2)),
]


@st.composite
def reference_inputs(draw, log_scales=st.floats(-6.0, 6.0)):
    """(index, core size, A): planted index 0-3 with n <= 12, cond(S) <= 1e4
    and scale 1e-6 to 1e6, cores of any size down to none (all nilpotent),
    or one of the fixed size-0 and all-nilpotent matrices."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(FIXED_INPUTS))
    q = draw(st.integers(0, 3))
    core_size = draw(st.integers(1 if q == 0 else 0, 12 - q))
    log_cond, log_scale = draw(st.floats(0.0, 4.0)), draw(log_scales)
    return q, core_size, planted_index(draw(st.integers(0, 2**32 - 1)), q, core_size, log_cond, log_scale)


@st.composite
def overflowing_inputs(draw):
    """Planted inputs, or strictly upper triangular (all nilpotent, index n)
    ones with n <= 8, at scale 1e60 to 1e160, where some power of A, or
    ||A||_F, overflows."""
    log_scale = st.floats(60.0, 160.0)
    if draw(st.booleans()):
        return draw(reference_inputs(log_scale))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    return n, 0, 10.0 ** draw(log_scale) * np.triu(rng.standard_normal((n, n)), 1)


def assert_same_outcomes(drawn, tol_rank, scale):
    """Bitwise the reference's outcomes where its powers decide as the
    staircase does; elsewhere, the reference's with the staircase's decisions.
    At the default tolerance every such difference is the powers' misreading
    of the planted index and core size, or a raise on an overflowing power."""
    q, core_size, a = drawn
    decided = staircase_index_and_rank(a, tol_rank)
    try:
        by_powers = branch_first_index_and_rank(a, tol_rank)
    except NonFiniteError:
        by_powers = None
    if tol_rank == TOL_RANK and by_powers != decided:
        assert by_powers != (q, core_size)
    decide = POWERS if by_powers == decided else STAIRCASE
    want = outcome(branch_first_drazin, a, tol_rank=tol_rank, scale=scale, decide=decide)
    assert outcome(drazin, a, tol_rank=tol_rank, scale=scale) == want
    want = outcome(branch_first_group_inverse, a, tol_rank=tol_rank, decide=decide)
    assert outcome(group_inverse, a, tol_rank=tol_rank) == want


class TestAgainstTheBranchFirstOrder:
    """The staircase first gives the bytes, or the exception, of Cline's
    formula tried first with its own rank tests and the split's own loop."""

    @settings(max_examples=300, deadline=None)
    @given(
        reference_inputs(),
        st.sampled_from([TOL_RANK, 0.5, 0.7]),
        st.one_of(st.none(), st.floats(-6.0, 6.0).map(lambda e: 10.0**e)),
    )
    def test_bitwise_the_same(self, drawn, tol_rank, scale):
        assert_same_outcomes(drawn, tol_rank, scale)

    @settings(max_examples=150, deadline=None)
    @given(
        overflowing_inputs(),
        st.sampled_from([TOL_RANK, 0.5, 0.7]),
        st.one_of(st.none(), st.floats(60.0, 170.0).map(lambda e: 10.0**e)),
    )
    def test_bitwise_the_same_where_powers_overflow(self, drawn, tol_rank, scale):
        assert_same_outcomes(drawn, tol_rank, scale)


class TestStaircase:
    """The index and the core size read off the staircase: no power of A is
    ranked against its own sigma_max, where rounding noise reads as rank."""

    def test_haar_rotated_nilpotent(self):
        j = np.zeros((4, 4), dtype=complex)
        j[0, 1] = 1.0  # J_2 ⊕ 0 ⊕ 0
        for seed in range(100):
            u = haar_unitary(np.random.default_rng(seed), 4)
            a = u @ j @ u.conj().T
            assert index(a) == 2
            assert core_nilpotent(a).core_size == 0
            assert not drazin(a).any()

    @settings(max_examples=300, deadline=None)
    @given(reference_inputs())
    def test_reads_the_planted_index_and_core_size(self, drawn):
        q, core_size, a = drawn
        assert index(a) == q
        assert core_nilpotent(a).core_size == core_size

    def test_one_reference_for_every_step(self):
        # eigenvalues 1e-9 and 0, sigma_max(A) about 1: step 1's block is
        # [1e-9], which counts as zero against tol_rank * sigma_max(A) at
        # tol_rank 1e-8 but not at 1e-10.  Against its own sigma_max it, like
        # A^2 = 1e-9 A, would count as rank one at either tolerance
        a = np.array([[1e-9, 1.0], [0.0, 0.0]])
        assert index(a, tol_rank=1e-8) == 2
        assert index(a, tol_rank=1e-10) == 1
