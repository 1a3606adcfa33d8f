import numpy as np
import pytest

from lme.errors import IndexTooLargeError, NonSquareError
from lme.geninv import (
    core_nilpotent,
    drazin,
    group_inverse,
    index,
    matrix_rank,
    moore_penrose,
    scalar_dagger,
)
from lme.instances import haar_unitary, random_diagonalizer, random_index2, random_normal

NILP = np.array([[0, 1], [0, 0]], dtype=complex)
JORDAN = np.array([[1, 1], [0, 1]], dtype=complex)


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rank_deficient(rng, n, r):
    return rand_complex(rng, (n, r)) @ rand_complex(rng, (r, n))


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


def test_unitary_conjugation_keeps_normal_drazin():
    rng = np.random.default_rng(21)
    u = haar_unitary(rng, 4)
    w = np.array([2.0, 0.0, 1j, -1.0])
    m = u @ np.diag(w) @ u.conj().T
    expected = u @ np.diag([scalar_dagger(z) for z in w]) @ u.conj().T
    np.testing.assert_allclose(drazin(m), expected, atol=1e-9)
