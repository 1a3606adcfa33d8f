import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lme.errors import DimensionMismatchError, EmptyListError, NonFiniteError, NonSquareError
from lme.matcore import (
    _FALLBACK_SEED,
    _MIX_SEED,
    Permutation,
    _mix_weights,
    _normal_within,
    as_matrix,
    canonical_sort_indices,
    cluster_means,
    cluster_values,
    commutes,
    direct_sum,
    direct_sum_permutation,
    eig_decompose,
    fro,
    is_normal,
    permutation_matrix,
    permute_vector,
)
from lme.instances import haar_unitary

SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
JORDAN = np.array([[1, 1], [0, 1]], dtype=complex)
HOMOG_A = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
HOMOG_B = np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 2]], dtype=complex)


def random_permutation(rng, n):
    image = np.arange(1, n + 1)
    rng.shuffle(image)
    return Permutation(tuple(int(i) for i in image))


class TestEigDecompose:
    def test_identity(self):
        dec = eig_decompose(np.eye(3))
        assert dec.diagonalizable
        np.testing.assert_allclose(np.sort(dec.eigenvalues.real), [1, 1, 1], atol=1e-12)

    def test_symmetric_involution(self):
        dec = eig_decompose(SWAP)
        assert dec.diagonalizable
        np.testing.assert_allclose(sorted(dec.eigenvalues.real), [-1, 1], atol=1e-12)

    def test_jordan_block_not_diagonalizable(self):
        dec = eig_decompose(JORDAN)
        assert not dec.diagonalizable

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            # plant repeated eigenvalues
            vals = rng.choice([1.0, 2.0, -1.0, 1j], size=n)
            m = s @ np.diag(vals) @ np.linalg.inv(s)
            dec = eig_decompose(m)
            assert dec.diagonalizable
            recon = dec.diagonalizer @ np.diag(dec.eigenvalues) @ np.linalg.inv(dec.diagonalizer)
            err = np.linalg.norm(recon - m)
            assert err <= 1e-8 * max(1.0, np.linalg.norm(m))

    def test_near_defective_with_distinct_eigenvalues(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-5]], dtype=complex)
        dec = eig_decompose(m)
        assert dec.diagonalizable

    def test_errors(self):
        with pytest.raises(NonSquareError):
            eig_decompose(np.ones((2, 3)))
        with pytest.raises(NonFiniteError):
            eig_decompose(np.array([[np.nan, 0], [0, 1]]))


class TestPredicates:
    def test_identity_commutes(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4))
        assert commutes(np.eye(4), m)

    def test_noncommuting_pair(self):
        a = np.array([[1, 1], [1, -1]], dtype=complex)
        c = np.array([[0, 1], [-1, 0]], dtype=complex)
        assert not commutes(a, c)

    def test_homogeneous_pair_commutes(self):
        assert commutes(HOMOG_A, HOMOG_B)

    def test_commutes_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert commutes(a, b) == commutes(b, a)

    def test_commutes_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutes(np.eye(2), np.eye(3))

    def test_commutes_names_the_member_of_the_wrong_size(self):
        with pytest.raises(DimensionMismatchError, match="^B has size 3, expected 2$"):
            commutes(np.eye(2), np.eye(3))

    def test_commutes_rejects_an_overflowing_norm_product(self):
        # ||A||_F overflows, so bound(tol, ||A||_F ||B||_F) is infinite and
        # would pass ||AB - BA||_F = 1e160; no numpy warning escapes
        a, b = np.diag([1e160, 0.0]), np.array([[0, 1.0], [0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^the Frobenius norm product of A and B overflows$"):
                commutes(a, b)

    def test_hermitian_is_normal(self):
        assert is_normal(np.array([[1, -1], [-1, 1]], dtype=complex))

    def test_nilpotent_not_normal(self):
        assert not is_normal(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_permutation_matrix_is_normal(self):
        sigma = Permutation((3, 1, 2))
        assert is_normal(permutation_matrix(sigma))

    def test_normal_iff_adjoint_normal(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert is_normal(m) == is_normal(m.conj().T)


def reference_is_normal(m, tol):
    """The normality test as a formula of its own: the residual against
    tol * max(1, ||M||_F ** 2)."""
    h = m.conj().T
    return fro(m @ h - h @ m) <= tol * max(1.0, fro(m) ** 2)


class TestNormalityIsCommutationWithTheAdjoint:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), exponent=st.floats(-150, 150),
           kind=st.sampled_from(["normal", "near-normal", "non-normal"]),
           nudge=st.sampled_from([1e-13, 1e-11, 1e-10, 1e-9, 1e-7]),
           tol=st.sampled_from([1e-14, 1e-10, 1e-6]))
    @example(seed=0, n=3, exponent=0.0, kind="near-normal", nudge=1e-10, tol=1e-10)
    def test_same_verdict_as_the_formula(self, seed, n, exponent, kind, nudge, tol):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** exponent
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "non-normal":
            m = scale * g
        else:
            u = haar_unitary(rng, n)
            lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            m = scale * ((u * lam) @ u.conj().T + (nudge * g if kind == "near-normal" else 0))
        # above entries of about 1e77 the residual's norm overflows to inf
        # (or reads nan); is_normal scales by a power of two first, so the
        # verdicts are compared where the unscaled residual is finite
        with np.errstate(over="ignore", invalid="ignore"):
            h = m.conj().T
            resid = fro(m @ h - h @ m)
            threshold = tol * max(1.0, fro(m) ** 2)
            verdicts = is_normal(m, tol), reference_is_normal(m, tol)
        if not np.isfinite(resid):
            return
        # is_normal takes the squared norm as ||M||_F * ||M||_F, the reference
        # as ||M||_F ** 2.  Python's ** is libm pow, which differs from the
        # product by one ulp on about 2,600 of 3,000,000 log-uniform floats in
        # 1e-150..1e150 (glibc 2.36, x86-64), so a residual within one ulp of
        # the threshold may be decided either way.
        if abs(resid - threshold) <= np.spacing(threshold):
            return
        assert verdicts[0] == verdicts[1]

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), exponent=st.floats(-150, 75),
           kind=st.sampled_from(["normal", "near-normal", "non-normal"]),
           nudge=st.sampled_from([1e-13, 1e-11, 1e-10, 1e-9, 1e-7]),
           tol=st.sampled_from([1e-14, 1e-10, 1e-6]))
    def test_scaled_test_decides_as_is_normal(self, seed, n, exponent, kind, nudge, tol):
        # below entries of about 1e77 is_normal's residual stays finite, and
        # scaling by a power of two moves every figure of the test exactly
        rng = np.random.default_rng(seed)
        scale = 10.0 ** exponent
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "non-normal":
            m = scale * g
        else:
            u = haar_unitary(rng, n)
            lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            m = scale * ((u * lam) @ u.conj().T + (nudge * g if kind == "near-normal" else 0))
        h = m.conj().T
        assert np.isfinite(fro(m @ h - h @ m))
        assert _normal_within(m, tol, fro(m)) == is_normal(m, tol)

    def test_scaled_test_passes_a_normal_matrix_past_the_overflow(self):
        u = haar_unitary(np.random.default_rng(0), 3)
        m = 1e100 * (u * np.array([1.0, 2.0, 3.0])) @ u.conj().T
        assert _normal_within(m, 1e-10, fro(m))
        assert not _normal_within(1e100 * JORDAN, 1e-10, fro(1e100 * JORDAN))

    def test_normal_iff_commutes_with_adjoint(self):
        rng = np.random.default_rng(4)
        u = haar_unitary(rng, 4)
        normal = (u * (rng.standard_normal(4) + 1j * rng.standard_normal(4))) @ u.conj().T
        skewed = normal + np.triu(np.ones((4, 4)), 1)
        for m in (normal, skewed, JORDAN, SWAP):
            assert is_normal(m) == commutes(m, m.conj().T)
        assert is_normal(normal) and not is_normal(skewed)


class TestPermutation:
    def test_identity_matrix(self):
        np.testing.assert_array_equal(permutation_matrix(Permutation.identity(3)).real, np.eye(3))

    def test_swap(self):
        np.testing.assert_array_equal(permutation_matrix(Permutation((2, 1))).real, SWAP.real)

    def test_invalid_image(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_entry_formula(self):
        sigma = Permutation((3, 1, 2))
        p = permutation_matrix(sigma)
        for i in range(1, 4):
            for j in range(1, 4):
                assert p[i - 1, j - 1] == (1.0 if i == sigma(j) else 0.0)

    def test_composition_homomorphism(self):
        rng = np.random.default_rng(4)
        for n in (2, 5, 8):
            for _ in range(10):
                sigma = random_permutation(rng, n)
                tau = random_permutation(rng, n)
                lhs = permutation_matrix(sigma.compose(tau))
                rhs = permutation_matrix(sigma) @ permutation_matrix(tau)
                np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_inverse_is_transpose(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sigma = random_permutation(rng, 6)
            p = permutation_matrix(sigma)
            np.testing.assert_allclose(permutation_matrix(sigma.inverse()), p.T, atol=1e-14)

    def test_permute_vector_identity(self):
        m = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(permute_vector(m, Permutation.identity(3)), m)

    def test_permute_vector_definition(self):
        m = np.array([1, 1, -1], dtype=complex)
        out = permute_vector(m, Permutation((3, 1, 2)))
        np.testing.assert_array_equal(out, np.array([-1, 1, 1], dtype=complex))

    def test_permute_vector_diag_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            sigma = random_permutation(rng, n)
            m = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            p = permutation_matrix(sigma)
            lhs = np.diag(permute_vector(m, sigma))
            rhs = np.linalg.inv(p) @ np.diag(m) @ p
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_permute_vector_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            permute_vector(np.ones(3), Permutation((2, 1)))


class TestDirectSum:
    def test_single_block(self):
        m = np.arange(4).reshape(2, 2)
        np.testing.assert_array_equal(direct_sum([m]).real, m)

    def test_two_scalars(self):
        np.testing.assert_array_equal(direct_sum([[[1]], [[2]]]).real, np.diag([1.0, 2.0]))

    def test_blockwise_multiplication(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            y1, z1 = rng.standard_normal((2, 2, 2))
            y2, z2 = rng.standard_normal((2, 3, 3))
            lhs = direct_sum([y1, y2]) @ direct_sum([z1, z2])
            rhs = direct_sum([y1 @ z1, y2 @ z2])
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_blockwise_inversion(self):
        rng = np.random.default_rng(10)
        y1 = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        y2 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        lhs = np.linalg.inv(direct_sum([y1, y2]))
        rhs = direct_sum([np.linalg.inv(y1), np.linalg.inv(y2)])
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_empty(self):
        with pytest.raises(EmptyListError):
            direct_sum([])


class TestDirectSumPermutation:
    def test_single_part(self):
        sigma = Permutation((2, 1, 3))
        assert direct_sum_permutation([sigma]).image == sigma.image

    def test_offset_formula(self):
        out = direct_sum_permutation([Permutation((2, 1)), Permutation((1,))])
        assert out.image == (2, 1, 3)

    def test_matrix_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            parts = [random_permutation(rng, int(rng.integers(1, 4))) for _ in range(3)]
            lhs = permutation_matrix(direct_sum_permutation(parts))
            rhs = direct_sum([permutation_matrix(p) for p in parts])
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_empty(self):
        with pytest.raises(EmptyListError):
            direct_sum_permutation([])


def reference_clusters(values, gap):
    """The all-pairs union-find that cluster_values replaced, kept as the
    reference its sweep must reproduce exactly."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= gap:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = list(groups.values())
    reps = np.array([values[c].mean() for c in clusters])
    return [clusters[i] for i in canonical_sort_indices(reps, gap)]


SWEEP = np.exp(1j)  # the direction cluster_values sweeps along
GAPS = st.sampled_from([0.0, 1e-8, 0.25, 1.0])
COORD = st.floats(-10, 10, allow_nan=False)


@st.composite
def lattice_points(draw):
    """gap * (p + qi) on a small grid: exact duplicates, and neighbours
    exactly gap apart along both axes."""
    gap = draw(GAPS)
    pts = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=40))
    return np.array([complex(p, q) for p, q in pts]) * (gap or 1.0), gap


@st.composite
def chains(draw):
    """Steps of about gap laid along, across or at an angle to the sweep
    direction, visited in a shuffled order."""
    gap = draw(GAPS)
    direction = draw(st.sampled_from([SWEEP, 1j * SWEEP, 1.0, 1j, np.exp(0.3j)]))
    steps = draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5]), max_size=40
    ))
    origin = complex(draw(COORD), draw(COORD))
    values = origin + direction * (gap or 1.0) * np.cumsum(steps)
    order = draw(st.permutations(range(len(values))))
    return values[list(order)], gap


@st.composite
def scattered(draw):
    """Arbitrary points, some of them repeated."""
    gap = draw(GAPS)
    pts = draw(st.lists(st.tuples(COORD, COORD), max_size=30))
    values = [complex(x, y) for x, y in pts]
    if values:
        values += draw(st.lists(st.sampled_from(values), max_size=10))
    return np.array(values, dtype=complex), gap


class TestClusterValues:
    def test_empty_and_single(self):
        assert cluster_values(np.array([], dtype=complex), 1e-8) == []
        assert cluster_values(np.array([2 + 1j]), 1e-8) == [[0]]

    def test_distance_of_exactly_gap_links(self):
        values = np.array([3.5, 0.0, 2.5, 1.0])
        assert cluster_values(values, 1.0) == [[1, 3], [0, 2]]

    def test_bridge_across_sweep_direction(self):
        # the first two share a key and lie 1.5 apart; the third lies within
        # 1 of both and joins all three
        values = np.array([0, 1.5j * SWEEP, (0.75j + 0.01) * SWEEP])
        assert cluster_values(values, 1.0) == [[0, 1, 2]]

    def test_step_of_gap_along_sweep_direction(self):
        # the keys carry round-off, so a window of exactly gap misses some
        # of these pairs
        rng = np.random.default_rng(5)
        for gap in (1e-8, 0.25):
            for origin in rng.uniform(-10, 10, (100, 2)) @ np.array([1, 1j]):
                values = np.array([origin, origin + SWEEP * gap])
                assert cluster_values(values, gap) == reference_clusters(values, gap)

    @given(st.one_of(lattice_points(), chains(), scattered()))
    @settings(max_examples=300, deadline=None)
    def test_matches_all_pairs_reference(self, case):
        values, gap = case
        assert cluster_values(values, gap) == reference_clusters(values, gap)


def bits(z):
    """The bytes of a complex array: equal bits, signed zeros included."""
    return np.asarray(z, dtype=complex).tobytes()


class TestClusterMeans:
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_one_mean_per_cluster(self, seed):
        # sizes 1-40, each twice, and sizes past numpy's pairwise-sum block
        # of 128; the values mix magnitudes so that the summation order
        # shows in the last bits
        rng = np.random.default_rng(seed)
        sizes = [*range(1, 41), *range(1, 41), 129, 300]
        n = sum(sizes)
        values = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.integers(-8, 9, n)
        perm = rng.permutation(n)
        clusters = np.split(perm, np.cumsum(sizes)[:-1])
        clusters = [sorted(c.tolist()) for c in clusters]
        order = rng.permutation(len(clusters))
        clusters = [clusters[i] for i in order]
        want = [values[c].mean() for c in clusters]
        assert bits(cluster_means(values, clusters)) == bits(want)

    def test_signed_zeros(self):
        values = np.array([complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                           complex(-0.0, -0.0), complex(-0.0, -0.0), 1e-300 + 0j])
        clusters = [[0], [1], [2], [0, 3], [0, 3, 4], [1, 2], [2, 5]]
        want = [values[c].mean() for c in clusters]
        assert bits(cluster_means(values, clusters)) == bits(want)

    def test_empty_and_real(self):
        assert cluster_means(np.array([], dtype=complex), []).shape == (0,)
        np.testing.assert_array_equal(cluster_means(np.array([1.0, 2.0, 4.0]), [[2], [0, 1]]), [4.0, 1.5])
        # integers are summed as floats, as by mean: an int64 sum would wrap
        big = np.full(3, 2**62)
        assert cluster_means(big, [[0, 1, 2], [0], [1]]).tolist() == [big[[0, 1, 2]].mean(), 2.0**62, 2.0**62]

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        repeats=st.integers(0, 6),
        zeros=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_property(self, seed, sizes, repeats, zeros):
        # index lists of sizes 1-40, several of one size among them (the
        # stacked path), across numpy's 8-wide pairwise-summation blocks,
        # over parts that span 24 orders of magnitude or are signed zeros
        rng = np.random.default_rng(seed)
        n = 60
        parts = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-12, 13, (2, n))
        parts[rng.random((2, n)) < zeros] = 0.0
        parts = np.copysign(parts, rng.choice([-1.0, 1.0], (2, n)))
        values = parts[0].astype(complex)
        values.imag = parts[1]  # a sum with 1j * parts[1] would lose some signed zeros
        sizes = sizes + rng.choice(sizes, repeats).tolist()
        clusters = [rng.integers(0, n, k).tolist() for k in sizes]
        want = [values[c].mean() for c in clusters]
        assert bits(cluster_means(values, clusters)) == bits(want)


class TestMixWeights:
    @pytest.mark.parametrize("seed", [_MIX_SEED, _FALLBACK_SEED])
    @pytest.mark.parametrize("count", range(1, 10))
    def test_bytes_of_one_generator_per_call(self, seed, count):
        want = np.random.default_rng(seed).standard_normal((count, 2)) @ (1, 1j)
        got = _mix_weights(seed, count)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert _mix_weights(seed, count) is got

    def test_read_only(self):
        mu = _mix_weights(_MIX_SEED, 3)
        assert not mu.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mu[0] = 0


def reference_sort_indices(values, gap):
    """The comparator canonical_sort_indices had before it read plain
    floats: the same tests on numpy scalars."""
    from functools import cmp_to_key

    def cmp(i, j):
        u, v = values[i], values[j]
        d = abs(u) - abs(v)
        if abs(d) > gap:
            return -1 if d < 0 else 1
        d = u.real - v.real
        if abs(d) > gap:
            return 1 if d < 0 else -1
        d = u.imag - v.imag
        if abs(d) > gap:
            return 1 if d < 0 else -1
        return 0

    return sorted(range(len(values)), key=cmp_to_key(cmp))


# Gaussian integers with exact modulus ties (1, i, -1, -i share modulus 1;
# 1+i, 1-i, -1+i share sqrt 2), and perturbations of a few units of
# round-off, all far below the gap.
TIED = [1, 1j, -1, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j, 0, 2, 2j, -2]
NUDGE = st.sampled_from([0.0, 1e-16, -1e-16, 2.2e-16, -4.4e-16, 1e-12])


class TestCanonicalSortIndices:
    @given(st.lists(st.tuples(st.sampled_from(TIED), NUDGE, NUDGE), max_size=30),
           st.sampled_from([0.0, 1e-8]))
    # the vectorized np.abs rounds the second modulus down one bit, the
    # scalar abs does not, so a comparator on np.abs flips this pair
    @example([(1 + 1j, 0.0, -4.4e-16), (1 + 1j, 2.2e-16, -4.4e-16)], 0.0)
    @settings(max_examples=300, deadline=None)
    def test_same_order_as_numpy_scalar_comparator(self, points, gap):
        values = np.array([complex(z) + complex(dx, dy) for z, dx, dy in points], dtype=complex)
        assert canonical_sort_indices(values, gap) == reference_sort_indices(values, gap)

    def test_ties_within_the_gap_keep_input_order(self):
        # modulus 1 throughout; 1 and 1 + 1e-12j tie on every key
        values = np.array([1j, 1, -1j, -1, 1 + 1e-12j])
        assert canonical_sort_indices(values, 1e-8) == [1, 4, 0, 2, 3]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: as_matrix(np.ones(3)), r"^matrix must be 2-D, got shape \(3,\)$"),
        (lambda: as_matrix(np.ones((2, 2, 2))), r"^matrix must be 2-D, got shape \(2, 2, 2\)$"),
        (lambda: Permutation((2, 1)).compose(Permutation((1, 2, 3))), "^permutation sizes differ$"),
    ],
    ids=["as-matrix-1d", "as-matrix-3d", "compose-sizes"],
)
def test_shape_rejections(call, message):
    with pytest.raises(DimensionMismatchError, match=message):
        call()
