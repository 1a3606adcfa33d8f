from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lme.errors import (
    DimensionMismatchError,
    EmptyListError,
    IntersectionAmbiguousError,
    NoMatchingPermutationError,
    NonFiniteError,
    NotADiagonalizerError,
    NotCommutingError,
    NotDiagonalizableError,
    RefinementFailureError,
)
from lme.equations import equation_spec, solve
from lme.instances import ALPHABET, random_diagonalizer, random_family
from lme.matcore import (
    _FALLBACK_SEED,
    _MIX_SEED,
    _RCOND_FLOOR,
    JointEigenbasis,
    Permutation,
    _eigenbasis_of_mix,
    cluster_means,
    cluster_values,
    direct_sum,
    fro,
    permutation_matrix,
    permute_vector,
)
import lme.simdiag
from lme.simdiag import (
    _greedy_match,
    _induced_pair,
    commutant,
    induced_pair_without_diagonalizer,
    induced_vectors,
    match_induced_sequences,
    simultaneous_diagonalizer,
    star_vector_of,
    validate_family,
)
from lme.tolerances import TOL_CLUSTER, TOL_RECON, Tolerances

HOMOG_A = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
HOMOG_B = np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 2]], dtype=complex)
HOMOG_S = np.array([[1, 0, -1], [1, 0, 1], [0, 1, 0]], dtype=complex)
JORDAN = np.array([[1, 1], [0, 1]], dtype=complex)


def random_permutation(rng, n):
    image = np.arange(1, n + 1)
    rng.shuffle(image)
    return Permutation(tuple(int(i) for i in image))


def sorted_by_blocks(vec, blocks):
    return [
        np.array(sorted(vec[lo:hi].tolist(), key=lambda z: (z.real, z.imag)))
        for lo, hi in blocks
    ]


class TestValidateFamily:
    def test_identity_pair(self):
        fam = validate_family([np.eye(2), np.eye(2)])
        assert len(fam) == 2

    def test_noncommuting(self):
        a = np.array([[1, 1], [1, -1]], dtype=complex)
        c = np.array([[0, 1], [-1, 0]], dtype=complex)
        with pytest.raises(NotCommutingError) as exc:
            validate_family([a, c])
        assert (exc.value.i, exc.value.j) == (0, 1)

    def test_not_diagonalizable(self):
        with pytest.raises(NotDiagonalizableError) as exc:
            validate_family([JORDAN, np.eye(2)])
        assert exc.value.i == 0
        with pytest.raises(NotDiagonalizableError) as exc:
            validate_family([np.eye(2), JORDAN])
        assert exc.value.i == 1

    def test_not_diagonalizable_keeps_the_member_reason(self):
        for call, member in ((lambda: star_vector_of(JORDAN), 0),
                             (lambda: validate_family([np.eye(2), JORDAN]), 1)):
            with pytest.raises(NotDiagonalizableError) as exc:
                call()
            assert str(exc.value).startswith(f"member {member} is not diagonalizable: ")
            assert "off-diagonal mass" in str(exc.value)

    def test_no_joint_eigenbasis(self):
        # two diagonalizable members that a loose gate lets through as
        # commuting, but that share no eigenbasis
        b = np.array([[1, 1e-3], [0, 2]], dtype=complex)
        with pytest.raises(RefinementFailureError):
            validate_family([np.diag([1.0, 2.0]), b], tol=Tolerances(commute=1e-2))

    def test_ill_conditioned_eigenvector_matrix_meets_the_rcond_floor(self):
        # eigenvalues 1e-15 apart, held apart by a zero cluster gap: the two
        # eigenvectors are nearly parallel, and S fails the rcond floor
        # before any off-diagonal mass is measured
        m = np.array([[1, 1], [0, 1 + 1e-15]])
        with pytest.raises(NotDiagonalizableError) as exc:
            validate_family([m], Tolerances(cluster=0.0))
        assert str(exc.value) == (
            "member 0 is not diagonalizable: its eigenvector matrix has condition 1.821e+15"
        )
        # grouped at the default gap, the pair shares one orthonormal basis,
        # which the recon gate rejects instead
        with pytest.raises(NotDiagonalizableError, match="off-diagonal mass"):
            validate_family([m])

    def test_singular_joint_eigenvector_matrix_names_no_member(self, monkeypatch):
        # an eigenvector-matrix failure carries index 0 by convention; the
        # message gives its reason and no member
        original = lme.simdiag._joint_eigenbasis

        def singular_for_families(mats, *args):
            if len(mats) > 1:
                raise NotDiagonalizableError(0, "its eigenvector matrix is singular")
            return original(mats, *args)

        monkeypatch.setattr(lme.simdiag, "_joint_eigenbasis", singular_for_families)
        with pytest.raises(RefinementFailureError) as exc:
            validate_family([np.eye(2), np.eye(2)], names=("A", "B"))
        assert str(exc.value).endswith(
            "share no eigenbasis within tolerance (its eigenvector matrix is singular)"
        )

    def test_fallback_weights_when_eigenspaces_collide(self):
        # B is built against the first weights: mu_0 A + mu_1 B has the
        # eigenvalue 0 on two joint eigenspaces, so only the fallback
        # combination separates them
        s = random_diagonalizer(np.random.default_rng(5), 3)
        s_inv = np.linalg.inv(s)
        mu = np.random.default_rng(_MIX_SEED).standard_normal((2, 2)) @ (1, 1j)
        a = s @ np.diag([0, 0.1, 0.2]) @ s_inv
        b = s @ np.diag([0, -0.1 * mu[0] / mu[1], 0.05]) @ s_inv
        with pytest.raises(NotDiagonalizableError):
            _eigenbasis_of_mix([a, b], _MIX_SEED, TOL_RECON, TOL_CLUSTER, [fro(a), fro(b)])
        validate_family([a, b])
        assert solve(equation_spec([a], [b], np.zeros((3, 3)))).dimension == 5

    def test_loose_cluster_merges_near_equal_eigenvalues(self):
        # a cluster gap above recon still groups the joint eigensolve at
        # recon, so 1 and 1 + 1e-6 are merged afterwards instead of leaving
        # off-diagonal mass that rejects A as not diagonalizable
        s = random_diagonalizer(np.random.default_rng(0), 3, 10.0)
        a = s @ np.diag([1, 1 + 1e-6, 2]) @ np.linalg.inv(s)
        spec = equation_spec([a, np.eye(3)], [np.eye(3), -a], np.zeros((3, 3)))
        loose = Tolerances(cluster=1e-5)
        assert solve(spec).dimension == 3
        assert solve(spec, loose).dimension == 5
        v = star_vector_of(a, loose)
        assert v[0] == v[1] and abs(v[0] - 1) < 1e-6


class TestStarVector:
    def test_identity(self):
        np.testing.assert_allclose(star_vector_of(np.eye(3)), np.ones(3), atol=1e-12)

    def test_homogeneous_example(self):
        np.testing.assert_allclose(star_vector_of(HOMOG_A), [1, 1, -1], atol=1e-10)

    def test_multiset_reordering(self):
        np.testing.assert_allclose(star_vector_of(np.diag([2.0, 1.0, 2.0])), [1, 2, 2], atol=1e-12)

    def test_rejects_jordan(self):
        with pytest.raises(NotDiagonalizableError):
            star_vector_of(JORDAN)


class TestSimultaneousDiagonalizer:
    def test_single_diagonal(self):
        fam = validate_family([np.diag([1.0, 1.0, 2.0])])
        star = simultaneous_diagonalizer(fam)
        np.testing.assert_allclose(star.vectors[0], [1, 1, 2], atol=1e-12)
        assert star.leaf_blocks == ((0, 2), (2, 3))

    def test_homogeneous_pair(self):
        fam = validate_family([HOMOG_A, HOMOG_B])
        star = simultaneous_diagonalizer(fam)
        np.testing.assert_allclose(star.vectors[0], [1, 1, -1], atol=1e-10)
        np.testing.assert_allclose(star.vectors[1], [0, 2, 2], atol=1e-10)

    def test_construction_by_design(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            q = int(rng.integers(1, 4))
            _, _, members = random_family(rng, n, q)
            fam = validate_family(members)
            star = simultaneous_diagonalizer(fam)
            s = star.diagonalizer
            s_inv = np.linalg.inv(s)
            for m, vec in zip(members, star.vectors):
                recon = s @ np.diag(vec) @ s_inv
                assert np.linalg.norm(recon - m) <= 1e-8 * max(1.0, np.linalg.norm(m))

    def test_star_sequence_structure(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            _, _, members = random_family(rng, n, 3)
            star = simultaneous_diagonalizer(validate_family(members))
            # first vector is a star vector: equal entries contiguous
            first = star.vectors[0]
            seen = []
            for lo, hi in star.levels[0]:
                block = first[lo:hi]
                assert np.all(np.abs(block - block[0]) < 1e-10)
                for v in seen:
                    assert abs(v - block[0]) > 1e-10
                seen.append(block[0])
            # later vectors constant on their level blocks, distinct across
            # siblings inside one parent block
            for j in range(1, len(star.vectors)):
                vec = star.vectors[j]
                for lo, hi in star.levels[j]:
                    assert np.all(np.abs(vec[lo:hi] - vec[lo]) < 1e-10)
                for plo, phi in star.levels[j - 1]:
                    children = [(lo, hi) for lo, hi in star.levels[j] if lo >= plo and hi <= phi]
                    values = [vec[lo] for lo, _ in children]
                    for x in range(len(values)):
                        for y in range(x + 1, len(values)):
                            assert abs(values[x] - values[y]) > 1e-10
            assert sum(hi - lo for lo, hi in star.leaf_blocks) == n


class TestInducedVectors:
    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(33)
        _, vectors, members = random_family(rng, 4, 1)
        fam = validate_family(members)
        star = simultaneous_diagonalizer(fam)
        vecs = induced_vectors(fam, star.diagonalizer)
        np.testing.assert_allclose(np.sort_complex(vecs[0]), np.sort_complex(vectors[0]), atol=1e-9)

    def test_published_diagonalizer(self):
        fam = validate_family([HOMOG_A, HOMOG_B])
        vecs = induced_vectors(fam, HOMOG_S)
        np.testing.assert_allclose(vecs[0], [1, 1, -1], atol=1e-12)
        np.testing.assert_allclose(vecs[1], [0, 2, 2], atol=1e-12)

    def test_rejects_non_diagonalizer(self):
        fam = validate_family([HOMOG_A])
        with pytest.raises(NotADiagonalizerError):
            induced_vectors(fam, np.eye(3))

    def test_singular_diagonalizer_is_typed(self):
        # np.linalg.solve cannot factor a singular S; it diagonalizes no member
        fam = validate_family([HOMOG_A, HOMOG_B])
        with pytest.raises(NotADiagonalizerError, match="member 0"):
            induced_vectors(fam, np.zeros((3, 3)))


class TestMatchInducedSequences:
    def test_identity(self):
        seq = [np.array([1, 2, 3], dtype=complex)]
        sigma = match_induced_sequences(seq, seq)
        np.testing.assert_array_equal(permute_vector(seq[0], sigma), seq[0])

    def test_apply_then_recover(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            q = int(rng.integers(1, 4))
            seq1 = [rng.choice([0, 1.0, 2.0, 1j], size=n) for _ in range(q)]
            sigma = random_permutation(rng, n)
            seq2 = [permute_vector(v, sigma) for v in seq1]
            found = match_induced_sequences(seq1, seq2)
            for v1, v2 in zip(seq1, seq2):
                np.testing.assert_allclose(permute_vector(v1, found), v2, atol=1e-12)

    def test_two_independent_diagonalizers(self):
        rng = np.random.default_rng(35)
        _, _, members = random_family(rng, 5, 2)
        fam = validate_family(members)
        star = simultaneous_diagonalizer(fam)
        # an independently built diagonalizer: block scaling times a permutation
        blocks = [random_diagonalizer(rng, hi - lo) for lo, hi in star.leaf_blocks]
        sigma = random_permutation(rng, 5)
        v = star.diagonalizer @ direct_sum(blocks) @ permutation_matrix(sigma)
        vecs = induced_vectors(fam, v)
        found = match_induced_sequences(list(star.vectors), vecs)
        for v1, v2 in zip(star.vectors, vecs):
            np.testing.assert_allclose(permute_vector(v1, found), v2, atol=1e-8)

    def test_no_match(self):
        with pytest.raises(NoMatchingPermutationError):
            match_induced_sequences([np.array([1.0, 2.0])], [np.array([1.0, 5.0])])

    def test_length_zero_vectors(self):
        with pytest.raises(DimensionMismatchError, match="length 0"):
            match_induced_sequences([np.array([])], [np.array([])])


class TestCommutant:
    def test_identity(self):
        desc = commutant(np.eye(4))
        assert desc.block_sizes == (4,)
        assert desc.dimension == 16

    def test_distinct_eigenvalues(self):
        assert commutant(np.diag([1.0, 2.0, 3.0])).dimension == 3

    def test_against_vectorized_nullspace(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            s = random_diagonalizer(rng, n)
            vals = rng.choice([1.0, 2.0, -1.0], size=n)
            m = s @ np.diag(vals) @ np.linalg.inv(s)
            # nullspace dimension of M X - X M = 0 via Kronecker flattening
            op = np.kron(np.eye(n), m) - np.kron(m.T, np.eye(n))
            sv = np.linalg.svd(op, compute_uv=False)
            null_dim = int(np.count_nonzero(sv <= 1e-10 * max(sv[0], 1.0)))
            assert commutant(m).dimension == null_dim

    def test_homogeneous_example_dimension(self):
        assert commutant(HOMOG_A).dimension == 5


class TestInducedPair:
    def test_homogeneous_example(self):
        avec, bvec, coll, beta = induced_pair_without_diagonalizer(HOMOG_A, HOMOG_B)
        np.testing.assert_allclose(avec, [1, 1, -1], atol=1e-10)
        np.testing.assert_allclose(bvec, [0, 2, 2], atol=1e-10)
        np.testing.assert_allclose(sorted(z.real for z in coll), [-2, -1], atol=1e-10)
        assert all(abs(beta - z) > 1e-6 for z in coll)

    def test_identity_second_member(self):
        rng = np.random.default_rng(37)
        s = random_diagonalizer(rng, 4)
        a = s @ np.diag([1.0, 1.0, 2.0, 0.0]) @ np.linalg.inv(s)
        _, bvec, _, _ = induced_pair_without_diagonalizer(a, np.eye(4))
        np.testing.assert_allclose(bvec, np.ones(4), atol=1e-9)

    def test_construction_by_design(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            _, vectors, members = random_family(rng, n, 2)
            a, b = members
            avec, bvec, _, _ = induced_pair_without_diagonalizer(a, b)
            star = simultaneous_diagonalizer(validate_family([a, b]))
            sigma = match_induced_sequences(list(star.vectors), [avec, bvec])
            for v1, v2 in zip(star.vectors, [avec, bvec]):
                np.testing.assert_allclose(permute_vector(v1, sigma), v2, atol=1e-8)

    def test_distinct_a_at_n10_recovers_planted_pairs(self):
        # 90 x 90 = 8100 collision values to cluster
        rng = np.random.default_rng(41)
        a_vals = np.array([1, -1, 2, -2, 1j, -1j, 2j, 1 + 1j, 1 - 1j, -1 + 1j])
        b_vals = np.array([1, -1, 1j, 2])[np.arange(10) % 4]
        perm = rng.permutation(10)
        a_vals, b_vals = a_vals[perm], b_vals[perm]
        s = random_diagonalizer(rng, 10)
        s_inv = np.linalg.inv(s)
        a = s @ np.diag(a_vals) @ s_inv
        b = s @ np.diag(b_vals) @ s_inv
        avec, bvec, _, _ = induced_pair_without_diagonalizer(a, b)

        def pair_multiset(xs, ys):
            return sorted(
                (round(x.real, 6), round(x.imag, 6), round(y.real, 6), round(y.imag, 6))
                for x, y in zip(xs, ys)
            )

        assert pair_multiset(avec, bvec) == pair_multiset(a_vals, b_vals)

    def test_distinct_a_at_n32_recovers_planted_pairs(self):
        # 32 distinct Gaussian integers; the index-pair collision set had
        # 992 x 992 values to cluster, the block-pair one has 496 x 12 + 4
        rng = np.random.default_rng(42)
        lattice = np.add.outer(np.arange(-3, 4), 1j * np.arange(-3, 4)).ravel()
        a_vals = rng.choice(lattice, size=32, replace=False)
        b_vals = np.array([1, -1, 1j, 2])[np.arange(32) % 4]
        s = random_diagonalizer(rng, 32)
        s_inv = np.linalg.inv(s)
        avec, bvec, _, _ = induced_pair_without_diagonalizer(
            s @ np.diag(a_vals) @ s_inv, s @ np.diag(b_vals) @ s_inv
        )

        def pair_multiset(xs, ys):
            return sorted(
                (round(x.real, 6), round(x.imag, 6), round(y.real, 6), round(y.imag, 6))
                for x, y in zip(xs, ys)
            )

        assert pair_multiset(avec, bvec) == pair_multiset(a_vals, b_vals)

    @pytest.mark.parametrize("a_vals, b_vals, repeated", [
        ([1, 2, 3, 1, 2, 3, 1, 2], [5, 5, 6, 7, 7, 7, 8, 8j], 2),
        ([1, 2, 3, 4], [1, 1, 1, 1], 1),
        ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 0),
        ([2, 2, 2], [1, 1, 3], 0),
    ])
    def test_one_collision_per_block_pair_and_cluster_pair(self, monkeypatch, a_vals, b_vals, repeated):
        # d(d-1)/2 block pairs times q(q-1) ordered pairs of B's clusters,
        # plus -b for each repeated cluster of B when A has two blocks or more
        n = len(a_vals)
        s = random_diagonalizer(np.random.default_rng(43), n)
        s_inv = np.linalg.inv(s)
        a = s @ np.diag(np.array(a_vals, dtype=complex)) @ s_inv
        b = s @ np.diag(np.array(b_vals, dtype=complex)) @ s_inv
        sizes = []
        original = lme.simdiag._clusters

        def recording(values, gap):
            sizes.append(len(values))
            return original(values, gap)

        monkeypatch.setattr(lme.simdiag, "_clusters", recording)
        induced_pair_without_diagonalizer(a, b)
        d, q = len(set(a_vals)), len(set(b_vals))
        assert sizes[-1] == d * (d - 1) // 2 * q * (q - 1) + (repeated if d > 1 else 0)

    def test_noncommuting_rejected(self):
        a = np.array([[1, 1], [1, -1]], dtype=complex)
        c = np.array([[0, 1], [-1, 0]], dtype=complex)
        with pytest.raises(NotCommutingError):
            induced_pair_without_diagonalizer(a, c)

    def test_validation_names_a_and_b(self):
        with pytest.raises(NotCommutingError) as exc:
            induced_pair_without_diagonalizer([[1, 1], [1, -1]], [[0, 1], [-1, 0]])
        assert str(exc.value).startswith("A and B do not commute")
        with pytest.raises(DimensionMismatchError) as exc:
            induced_pair_without_diagonalizer(np.eye(2), np.eye(3))
        assert str(exc.value) == "B has size 3, expected 2"

    @pytest.mark.parametrize("a_vals, b_vals", [
        ([1, 1, 2, 0, 3], [4, 5, 4, 6, 6]),  # a zero block
        ([1, 2, 1j, 2, -1], [3, 3, 1, 1, 2]),  # none
        ([0, 0, 0, 0, 0], [1, 2, 3, 1, 2]),  # nothing but the zero block
    ])
    def test_core_matches_the_public_function(self, a_vals, b_vals):
        s = random_diagonalizer(np.random.default_rng(45), len(a_vals))
        s_inv = np.linalg.inv(s)
        a = s @ np.diag(np.array(a_vals, dtype=complex)) @ s_inv
        b = s @ np.diag(np.array(b_vals, dtype=complex)) @ s_inv
        family = validate_family([a, b])
        avec, bvec, coll, beta = _induced_pair(family, simultaneous_diagonalizer(family))
        want = induced_pair_without_diagonalizer(a, b)
        assert np.array_equal(avec, want[0]) and np.array_equal(bvec, want[1])
        assert (coll, beta) == want[2:]

    @pytest.mark.parametrize("a_vals", [
        [2, 2, 2, 2, 2, 2],  # one block
        [1, 1, 2j, 0, -1, -1],  # three nonzero blocks and the zero block
        [1, 2, 3, 1j, -1, -2j],  # six blocks
    ])
    def test_two_eigensolves_whatever_the_block_count(self, monkeypatch, a_vals):
        # eig(B), then eig(AB + beta*A) once: each block rescales the second
        # by its own lambda instead of solving (AB + beta*A)/lambda - beta*I
        s = random_diagonalizer(np.random.default_rng(47), 6)
        s_inv = np.linalg.inv(s)
        a = s @ np.diag(np.array(a_vals, dtype=complex)) @ s_inv
        b = s @ np.diag([1, 2, 2, 3, 1j, 3]) @ s_inv
        seen = []
        original = np.linalg.eigvals

        def recording(m):
            seen.append(m)
            return original(m)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        family = validate_family([a, b])
        _, _, _, beta = _induced_pair(family, simultaneous_diagonalizer(family))
        amat, bmat = family.members
        assert len(seen) == 2
        assert raw_bytes(seen[0]) == raw_bytes(bmat)
        assert raw_bytes(seen[1]) == raw_bytes(amat @ bmat + beta * amat)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 8),
        distinct=st.booleans(),
        log_cond=st.floats(0.0, 2.0),
        log_scale=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_recovers_the_planted_pairs(self, seed, n, distinct, log_cond, log_scale):
        # A with distinct values or with repeated ones (a zero block among
        # them), B with repeated ones, over S of condition at most 1e2, all
        # at entry scale 1e-3 to 1e3; the recovered pairs are the planted
        # ones, as a multiset
        rng = np.random.default_rng(seed)
        lattice = np.add.outer(np.arange(-2, 3), 1j * np.arange(-2, 3)).ravel()
        if distinct:
            a_idx = rng.choice(len(lattice), size=n, replace=False)
        else:
            a_idx = rng.choice(len(lattice), size=3, replace=False)[rng.integers(0, 3, n)]
        b_idx = rng.choice(len(lattice), size=3, replace=False)[rng.integers(0, 3, n)]
        scale = 10.0 ** log_scale
        s = random_diagonalizer(rng, n, 10.0 ** log_cond)
        s_inv = np.linalg.inv(s)
        a = s @ np.diag(scale * lattice[a_idx]) @ s_inv
        b = s @ np.diag(scale * lattice[b_idx]) @ s_inv
        avec, bvec, _, _ = induced_pair_without_diagonalizer(a, b)

        def nearest(values):
            dist = np.abs(values[:, None] / scale - lattice)
            assert dist.min(axis=1).max() < 1e-6
            return dist.argmin(axis=1).tolist()

        got = sorted(zip(nearest(avec), nearest(bvec)))
        assert got == sorted(zip(a_idx.tolist(), b_idx.tolist()))

    def test_multiple_zero_blocks_rejected(self):
        # at a zero threshold of 1 both blocks 0 and 0.5 count as zero
        s = random_diagonalizer(np.random.default_rng(46), 3)
        s_inv = np.linalg.inv(s)
        a = s @ np.diag([0, 0.5, 2]) @ s_inv
        b = s @ np.diag([1, 2, 3]) @ s_inv
        assert abs(induced_pair_without_diagonalizer(a, b)[0][0]) < 1e-12
        with pytest.raises(IntersectionAmbiguousError, match="multiple zero eigenvalue blocks"):
            induced_pair_without_diagonalizer(a, b, Tolerances(zero=1 / fro(a)))

    def test_one_eigensolve_per_pair(self, monkeypatch):
        _, _, (a, b) = random_family(np.random.default_rng(40), 8, 2)
        calls = []
        original = np.linalg.eig

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", counting)
        induced_pair_without_diagonalizer(a, b)
        assert len(calls) == 1


class TestDegenerateAndOverflowingFamilies:
    @pytest.mark.parametrize("call", [
        lambda z: validate_family([z]),
        star_vector_of,
        commutant,
        lambda z: induced_pair_without_diagonalizer(z, z),
    ])
    def test_size_zero_rejected(self, call):
        with pytest.raises(DimensionMismatchError, match="has size 0, expected at least 1"):
            call(np.zeros((0, 0)))

    @pytest.mark.filterwarnings("error:overflow encountered")
    def test_overflowing_norm_named(self):
        # the norm of diag(1, 2, 3) * 1e160 is inf, which made every cluster
        # gap inf and merged the three values into one mean, 2e160
        with pytest.raises(NonFiniteError, match="^member 0 has a Frobenius norm that overflows$"):
            star_vector_of(np.diag([1, 2, 3]) * 1e160)
        with pytest.raises(NonFiniteError, match="^B has a Frobenius norm that overflows$"):
            induced_pair_without_diagonalizer(np.eye(3), np.diag([1, 2, 3]) * 1e160)

    def test_large_finite_norm_still_diagonalizes(self):
        vec = star_vector_of(np.diag([3, 1, 2]) * 1e150)
        assert np.array_equal(vec, np.array([1, 2, 3]) * 1e150)

    @pytest.mark.filterwarnings("error:overflow encountered")
    def test_overflowing_commutator_names_the_pair(self):
        # exactly commuting, but the rounding error of AB - BA at entry scale
        # 1e100 squares past the largest double in the Frobenius norm
        s = random_diagonalizer(np.random.default_rng(0), 4)
        s_inv = np.linalg.inv(s)
        a = s @ np.diag([1, 2, 3, 4]) @ s_inv * 1e100
        b = s @ np.diag([2, 1, 1, 3]) @ s_inv * 1e100
        assert np.isfinite(fro(a)) and np.isfinite(fro(b))
        with pytest.raises(NonFiniteError, match="^the commutator of A and B overflows$"):
            validate_family([a, b], names=("A", "B"))


class TestDiagonalizerClosure:
    def test_block_scaling_and_permutation(self):
        # V = S (Y_1 ⊕ ... ⊕ Y_d) P_sigma diagonalizes the family and permutes
        # the induced vectors by sigma
        rng = np.random.default_rng(39)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            _, _, members = random_family(rng, n, 2)
            fam = validate_family(members)
            star = simultaneous_diagonalizer(fam)
            blocks = [random_diagonalizer(rng, hi - lo) for lo, hi in star.leaf_blocks]
            sigma = random_permutation(rng, n)
            v = star.diagonalizer @ direct_sum(blocks) @ permutation_matrix(sigma)
            vecs = induced_vectors(fam, v)
            for orig, new in zip(star.vectors, vecs):
                np.testing.assert_allclose(new, permute_vector(orig, sigma), atol=1e-7)

    def test_leaf_block_permutation_stability(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            _, _, members = random_family(rng, n, 2)
            fam = validate_family(members)
            star = simultaneous_diagonalizer(fam)
            parts = []
            for lo, hi in star.leaf_blocks:
                parts.append(random_permutation(rng, hi - lo))
            from lme.matcore import direct_sum_permutation

            sigma = direct_sum_permutation(parts)
            vecs = induced_vectors(fam, star.diagonalizer @ permutation_matrix(sigma))
            for orig, new in zip(star.vectors, vecs):
                np.testing.assert_allclose(new, orig, atol=1e-10)

    def test_extra_member_block_multisets(self):
        # appending one more commuting member: across diagonalizers that share
        # the star sequence of the first members, its induced vector restricted
        # to each of their leaf blocks is a multiset invariant
        from lme.matcore import direct_sum_permutation

        rng = np.random.default_rng(41)
        for _ in range(10):
            n = 5
            _, _, members = random_family(rng, n, 3)
            fam_full = validate_family(members)
            star = simultaneous_diagonalizer(fam_full)
            base_blocks = star.levels[1]
            fine_blocks = [random_diagonalizer(rng, hi - lo) for lo, hi in star.leaf_blocks]
            parts = [random_permutation(rng, hi - lo) for lo, hi in base_blocks]
            sigma = direct_sum_permutation(parts)
            v2 = star.diagonalizer @ direct_sum(fine_blocks) @ permutation_matrix(sigma)
            vecs2 = induced_vectors(fam_full, v2)
            for j in (0, 1):
                np.testing.assert_allclose(vecs2[j], star.vectors[j], atol=1e-8)
            for got, want in zip(
                sorted_by_blocks(vecs2[2], base_blocks),
                sorted_by_blocks(star.vectors[2], base_blocks),
            ):
                np.testing.assert_allclose(got, want, atol=1e-7)


# The recursive eigenspace refinement that simultaneous_diagonalizer used
# before the joint eigenbasis: the first member's eigenspaces fix a block
# partition, each later member is restricted to the blocks and diagonalized
# there with one SVD of (A - lambda I) per eigenvalue cluster.


def _reference_reconstruction_ok(a, vecs, vals, tol):
    sing = np.linalg.svd(vecs, compute_uv=False)
    if sing[0] == 0 or sing[-1] <= 1e-13 * sing[0]:
        return False
    inv = np.linalg.inv(vecs)
    return fro(vecs @ (vals[:, None] * inv) - a) <= tol * max(1.0, fro(a))


def _reference_star_eigensystem(a, tol_cluster, tol):
    n = a.shape[0]
    scale = max(1.0, fro(a))
    w = np.linalg.eigvals(a)
    cols, vals, sizes = [], [], []
    for idx in cluster_values(w, tol_cluster * scale):
        rep = w[idx].mean()
        k = len(idx)
        spread = float(np.max(np.abs(w[idx] - rep))) if k > 1 else 0.0
        _, sing_vals, vh = np.linalg.svd(a - rep * np.eye(n))
        if sing_vals[n - k] > max(4.0 * spread, tol * scale):
            return None
        cols.append(vh[n - k:].conj().T)
        vals.extend([rep] * k)
        sizes.append(k)
    basis, values = np.hstack(cols), np.array(vals)
    if not _reference_reconstruction_ok(a, basis, values, tol):
        return None
    return values, basis, sizes


def reference_star_sequence(members, tol_cluster=1e-8, tol_recon=1e-8):
    """(S, vectors, levels) by recursive refinement; None on failure."""
    n = members[0].shape[0]
    s = np.eye(n, dtype=complex)
    blocks = [(0, n)]
    vectors, levels = [], []
    for m in members:
        d = np.linalg.solve(s, m @ s)
        vec = np.empty(n, dtype=complex)
        refined = []
        for lo, hi in blocks:
            sub = _reference_star_eigensystem(d[lo:hi, lo:hi], tol_cluster, tol_recon)
            if sub is None:
                return None
            values, basis, sizes = sub
            s[:, lo:hi] = s[:, lo:hi] @ basis
            vec[lo:hi] = values
            for k in sizes:
                refined.append((lo, lo + k))
                lo += k
        blocks = refined
        levels.append(tuple(blocks))
        vectors.append(vec)
    return s, vectors, tuple(levels)


class TestAgainstRecursiveRefinement:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10),
        q=st.integers(1, 5),
        pool=st.integers(1, len(ALPHABET)),
        spread=st.floats(1.0, 1e3),
    )
    def test_exact_alphabet_families(self, seed, n, q, pool, spread):
        rng = np.random.default_rng(seed)
        s = random_diagonalizer(rng, n, spread)
        s_inv = np.linalg.inv(s)
        values = [ALPHABET[rng.choice(len(ALPHABET), size=pool, replace=False)] for _ in range(q)]
        members = [s @ (v[rng.integers(0, pool, size=n)][:, None] * s_inv) for v in values]
        reference = reference_star_sequence(members)
        assert reference is not None
        _, ref_vectors, ref_levels = reference
        star = simultaneous_diagonalizer(validate_family(members))
        assert star.levels == ref_levels
        for got, want in zip(star.vectors, ref_vectors):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        for m, vec in zip(members, star.vectors):
            recon = star.diagonalizer @ (vec[:, None] * star.inverse)
            assert fro(recon - m) <= 1e-8 * max(1.0, fro(m))


# The two greedy nearest-match loops that _greedy_match replaced: the
# intersection step of induced_pair_without_diagonalizer and the position
# matching of match_induced_sequences.


def reference_multiset_pick(candidates, pool, pool_used, gap):
    matched = []
    for c in candidates:
        best = -1
        best_dist = np.inf
        for p, value in enumerate(pool):
            if pool_used[p]:
                continue
            dist = abs(value - c)
            if dist < best_dist:
                best, best_dist = p, dist
        if best >= 0 and best_dist <= gap:
            pool_used[best] = True
            matched.append(best)
    return matched


def reference_match_induced_sequences(seq1, seq2, tol):
    a = [np.asarray(v, dtype=complex) for v in seq1]
    b = [np.asarray(v, dtype=complex) for v in seq2]
    n = a[0].shape[0]
    gap = tol * max(1.0, max(float(np.max(np.abs(v))) for v in a + b))
    used = [False] * n
    image = [0] * n
    for i in range(n):
        best = -1
        best_dist = np.inf
        for p in range(n):
            if used[p]:
                continue
            dist = max(abs(a[j][p] - b[j][i]) for j in range(len(a)))
            if dist < best_dist:
                best, best_dist = p, dist
        if best < 0 or best_dist > gap:
            raise NoMatchingPermutationError(
                f"no source position matches target {i} (best distance {best_dist:.3e})"
            )
        used[best] = True
        image[i] = best + 1
    return Permutation(tuple(image))


# Values on a lattice of step 1/4 inside the unit disc: exact ties,
# duplicates and distances of exactly one step (the gap below) are common,
# and every match_induced_sequences scale is 1.
quarter = st.integers(-2, 2).map(lambda k: k / 4)
lattice_value = st.builds(complex, quarter, quarter)
LATTICE_GAP = 0.25


class TestGreedyMatchAgainstLoops:
    @settings(max_examples=300, deadline=None)
    @given(
        pool=st.lists(lattice_value, min_size=1, max_size=8),
        blocks=st.lists(st.lists(lattice_value, max_size=8), min_size=1, max_size=3),
        gap=st.sampled_from([0.0, LATTICE_GAP, 0.3]),
    )
    def test_same_picks_as_multiset_loop(self, pool, blocks, gap):
        pool_arr = np.array(pool, dtype=complex)
        pool_used = [False] * len(pool)
        free = np.ones(len(pool), dtype=bool)
        for candidates in blocks:
            cand = np.array(candidates, dtype=complex)
            want = reference_multiset_pick(cand, pool_arr, pool_used, gap)
            cols, _ = _greedy_match(np.abs(cand[:, None] - pool_arr), gap, free)
            assert [p for p in cols if p >= 0] == want
            assert (~free).tolist() == pool_used

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7), k=st.integers(1, 3))
    def test_same_permutation_as_nested_loop(self, data, n, k):
        seq1 = [np.array(data.draw(st.lists(lattice_value, min_size=n, max_size=n))) for _ in range(k)]
        perm = data.draw(st.permutations(range(n)))
        seq2 = [v[list(perm)] for v in seq1]
        cells = st.tuples(st.integers(0, k - 1), st.integers(0, n - 1))
        for j, i in data.draw(st.lists(cells, max_size=3)):
            seq2[j][i] = data.draw(lattice_value)
        tol = data.draw(st.sampled_from([LATTICE_GAP, 0.3]))
        try:
            want = reference_match_induced_sequences(seq1, seq2, tol)
        except NoMatchingPermutationError as exc:
            with pytest.raises(NoMatchingPermutationError) as got:
                match_induced_sequences(seq1, seq2, tol)
            assert str(got.value) == str(exc)
        else:
            assert match_induced_sequences(seq1, seq2, tol) == want


# The collision set that induced_pair_without_diagonalizer formed before it
# worked on B's clusters: every ordered block pair r != s of A and every
# index pair i != j of eig(B), clustered at the gap.


def reference_collision_set(a, b, tol=Tolerances()):
    """(collision_set, beta) from all index pairs."""
    star = simultaneous_diagonalizer(validate_family([a, b], tol))
    blocks = star.levels[0]
    b_eigs = np.linalg.eigvals(b)
    lam = star.vectors[0][[lo for lo, _ in blocks]]
    r_idx, s_idx = np.nonzero(~np.eye(len(blocks), dtype=bool))
    i_idx, j_idx = np.nonzero(~np.eye(len(b_eigs), dtype=bool))
    lam_r, lam_s = lam[r_idx][:, None], lam[s_idx][:, None]
    collisions = ((lam_s * b_eigs[i_idx] - lam_r * b_eigs[j_idx]) / (lam_r - lam_s)).ravel()
    gap = tol.cluster * max(1.0, fro(b))
    collision_set = [complex(collisions[g].mean()) for g in cluster_values(collisions, gap)]
    beta = 1.0 + max((abs(z) for z in collision_set), default=0.0)
    return collision_set, beta


GAUSSIAN = np.add.outer(np.arange(-2, 3), 1j * np.arange(-2, 3)).ravel()


def planted_pair(seed, n, a_levels, b_count):
    """A with n distinct Gaussian integers (a_levels 0) or a_levels values
    repeated; B with b_count values of random multiplicity."""
    rng = np.random.default_rng(seed)
    if a_levels == 0:
        a_vals = rng.choice(GAUSSIAN, size=n, replace=False)
    else:
        a_vals = rng.choice(GAUSSIAN, size=a_levels, replace=False)[rng.integers(0, a_levels, size=n)]
    b_vals = rng.choice(GAUSSIAN, size=b_count, replace=False)[rng.integers(0, b_count, size=n)]
    s = random_diagonalizer(rng, n)
    s_inv = np.linalg.inv(s)
    return s @ np.diag(a_vals) @ s_inv, s @ np.diag(b_vals) @ s_inv


def assert_same_set(got, want, gap):
    assert len(got) == len(want)
    if got:
        dist = np.abs(np.array(got)[:, None] - np.array(want)[None, :])
        assert dist.min(axis=1).max() <= gap
        assert dist.min(axis=0).max() <= gap


class TestCollisionSetAgainstIndexPairs:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10),
        a_levels=st.sampled_from([0, 2, 3, 4]),
        b_count=st.integers(1, 4),
    )
    def test_same_set_and_shift(self, seed, n, a_levels, b_count):
        a, b = planted_pair(seed, n, a_levels, b_count)
        want_set, want_beta = reference_collision_set(a, b)
        avec, _, got_set, got_beta = induced_pair_without_diagonalizer(a, b)
        gap = TOL_CLUSTER * max(1.0, fro(b))
        assert_same_set(got_set, want_set, gap)
        assert abs(got_beta - want_beta) <= gap
        star = simultaneous_diagonalizer(validate_family([a, b]))
        assert np.array_equal(avec, star.vectors[0])

    def test_scalar_a_has_no_collisions(self):
        _, b = planted_pair(44, 6, 0, 3)
        _, _, coll, beta = induced_pair_without_diagonalizer(2 * np.eye(6), b)
        assert coll == [] and reference_collision_set(2 * np.eye(6), b)[0] == []
        assert beta == 1.0

    def test_scalar_b_gives_only_minus_b(self):
        a, _ = planted_pair(45, 6, 0, 1)
        _, _, coll, beta = induced_pair_without_diagonalizer(a, (2 - 1j) * np.eye(6))
        assert coll == [-(2 - 1j)]
        assert beta == 1.0 + abs(2 - 1j)
        assert_same_set(coll, reference_collision_set(a, (2 - 1j) * np.eye(6))[0], 1e-8)


# The per-member passes that validate_family, the joint eigensolve and
# simultaneous_diagonalizer made before each member's norm was taken once:
# a full commutes test per pair (three norms each), one QR per eigenvalue
# group joined by hstack, and each member's cluster means taken twice (once
# inside cluster_values to order the clusters, once more for the vectors).


def reference_eigenbasis_of_mix(mats, seed, tol_recon, tol_cluster):
    mu = np.random.default_rng(seed).standard_normal((len(mats), 2)) @ (1, 1j)
    mix = sum(w / max(1.0, fro(m)) * m for w, m in zip(mu, mats))
    w, v = np.linalg.eig(mix)
    groups = cluster_values(w, tol_cluster * max(1.0, fro(mix)))
    s = np.hstack([np.linalg.qr(v[:, g])[0] for g in groups])
    try:
        s_inv = np.linalg.inv(s)
    except np.linalg.LinAlgError:
        raise NotDiagonalizableError(0, "its eigenvector matrix is singular") from None
    cond = float(np.linalg.norm(s, 1) * np.linalg.norm(s_inv, 1))
    if not cond * _RCOND_FLOOR < 1.0:
        raise NotDiagonalizableError(0, f"its eigenvector matrix has condition {cond:.3e}")
    diagonals = []
    for i, m in enumerate(mats):
        d = s_inv @ m @ s
        diagonals.append(np.diag(d).copy())
        np.fill_diagonal(d, 0)
        off_mass = fro(d)
        if off_mass > tol_recon * max(1.0, fro(m)):
            raise NotDiagonalizableError(i, f"off-diagonal mass {off_mass:.3e} in the eigenbasis")
    return s, s_inv, tuple(diagonals), cond


def reference_validate_family(members, tol=Tolerances(), names=None):
    """(S, S^-1, diagonals, cond) of the joint eigenbasis, or the error."""
    mats = [np.asarray(m, dtype=complex) for m in members]
    label = list(names) if names else [f"member {i}" for i in range(len(mats))]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            a, b = mats[i], mats[j]
            if not fro(a @ b - b @ a) <= tol.commute * max(1.0, fro(a) * fro(b)):
                resid = fro(a @ b - b @ a) / max(1.0, fro(a) * fro(b))
                raise NotCommutingError(i, j, resid, names and (label[i], label[j]))
    gap = min(tol.cluster, tol.recon)
    try:
        return reference_eigenbasis_of_mix(mats, _MIX_SEED, tol.recon, gap)
    except NotDiagonalizableError:
        return reference_eigenbasis_of_mix(mats, _FALLBACK_SEED, tol.recon, gap)


def reference_simultaneous_diagonalizer(members, basis, tol=Tolerances()):
    """(S, vectors, levels, S^-1, diagonals) of the star sequence."""
    s, s_inv, diagonals, _ = basis
    n = s.shape[0]
    ranks = np.empty((len(members), n), dtype=int)
    vectors = np.empty((len(members), n), dtype=complex)
    for j, (m, d) in enumerate(zip(members, diagonals)):
        groups = cluster_values(d, tol.cluster * max(1.0, fro(m)))
        for rank, (group, mean) in enumerate(zip(groups, cluster_means(d, groups))):
            ranks[j, group] = rank
            vectors[j, group] = mean
    order = np.lexsort(ranks[::-1])
    split = np.zeros(n - 1, dtype=bool)
    levels = []
    for row in ranks[:, order]:
        split |= row[1:] != row[:-1]
        bounds = [0, *(np.flatnonzero(split) + 1).tolist(), n]
        levels.append(tuple(zip(bounds[:-1], bounds[1:])))
    return (s[:, order], tuple(vectors[:, order]), tuple(levels), s_inv[order],
            tuple(d[order] for d in diagonals))


def raw_bytes(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def grouped_family(seed, sizes, members, spread, scale=1.0, jitter=0.0):
    """``members`` matrices over one diagonalizer of condition at most
    ``spread``, each constant on the index groups of the given sizes, with
    values from the exact alphabet moved by up to ``jitter`` and then
    multiplied by ``scale``."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    s = random_diagonalizer(rng, n, spread)
    s_inv = np.linalg.inv(s)
    owner = np.repeat(np.arange(len(sizes)), sizes)[rng.permutation(n)]
    family = []
    for _ in range(members):
        values = ALPHABET[rng.integers(0, len(ALPHABET), len(sizes))] + jitter * rng.uniform(-1, 1, len(sizes))
        family.append(s @ ((scale * values)[owner][:, None] * s_inv))
    return family


@st.composite
def group_sizes(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(4, n - sum(sizes)))))
    return sizes


class TestLeanPassAgainstReference:
    def assert_same_as_reference(self, members):
        try:
            want = reference_validate_family(members)
        except NotDiagonalizableError:
            # both sides then raise from validate_family; its per-member
            # diagnosis is not part of this pass
            with pytest.raises((NotDiagonalizableError, RefinementFailureError)):
                validate_family(members)
            return
        family = validate_family(members)
        basis = family.eigenbasis
        got = (basis.diagonalizer, basis.inverse, basis.diagonals, basis.condition_estimate)
        assert raw_bytes(got[0]) == raw_bytes(want[0])
        assert raw_bytes(got[1]) == raw_bytes(want[1])
        assert [raw_bytes(d) for d in got[2]] == [raw_bytes(d) for d in want[2]]
        assert raw_bytes(got[3]) == raw_bytes(want[3])
        star = simultaneous_diagonalizer(family)
        ref = reference_simultaneous_diagonalizer(members, want)
        assert raw_bytes(star.diagonalizer) == raw_bytes(ref[0])
        assert [raw_bytes(v) for v in star.vectors] == [raw_bytes(v) for v in ref[1]]
        assert star.levels == ref[2]
        assert raw_bytes(star.inverse) == raw_bytes(ref[3])
        assert [raw_bytes(d) for d in star.diagonals] == [raw_bytes(d) for d in ref[4]]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=group_sizes(), k=st.integers(1, 4),
           spread=st.floats(1.0, 1e3), scale=st.sampled_from([1e-4, 1e-2, 1.0, 1e2]),
           jitter=st.sampled_from([0.0, 1e-9, 1e-6, 1e-4]))
    def test_byte_equal_on_grouped_families(self, seed, sizes, k, spread, scale, jitter):
        # the scales and jitters put eigenvalue gaps on both sides of the
        # cluster gap tol.cluster * max(1, ||M||_F)
        self.assert_same_as_reference(grouped_family(seed, sizes, 2 * k + 1, spread, scale, jitter))

    @pytest.mark.parametrize("seed, k, spread", [(0, 1, 2.0), (1, 2, 10.0), (2, 3, 1e3)])
    def test_byte_equal_at_n64(self, seed, k, spread):
        rng = np.random.default_rng([64, seed])
        sizes = []
        while sum(sizes) < 64:
            sizes.append(min(int(rng.integers(1, 5)), 64 - sum(sizes)))
        self.assert_same_as_reference(grouped_family(seed, sizes, 2 * k + 1, spread))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("names", [None, ("A[0]", "A[1]", "B[0]")])
    @pytest.mark.parametrize("order, first", [((0, 1, 2), (0, 2)), ((2, 0, 1), (0, 1))])
    def test_first_failing_pair_and_text(self, scale, names, order, first):
        # two pairs fail to commute: the diagonal members commute with each
        # other and not with the permutation
        members = [scale * np.diag([1.0, 2.0, 3.0]), scale * np.diag([4.0, 4.0, 5.0]),
                   scale * np.roll(np.eye(3), 1, axis=0)]
        members = [members[i] for i in order]
        with pytest.raises(NotCommutingError) as want:
            reference_validate_family(members, names=names)
        with pytest.raises(NotCommutingError) as got:
            validate_family(members, names=names)
        assert (got.value.i, got.value.j) == (want.value.i, want.value.j) == first
        assert str(got.value) == str(want.value)

    def test_one_qr_per_group_size(self, monkeypatch):
        # joint eigenspaces of sizes 1, 1, 2, 2 and 3: three distinct sizes
        sizes = [1, 2, 1, 3, 2]
        rng = np.random.default_rng(9)
        s = random_diagonalizer(rng, sum(sizes))
        s_inv = np.linalg.inv(s)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        a = s @ (np.array([1, 2, 3, 4, 5], dtype=complex)[owner][:, None] * s_inv)
        b = s @ (np.array([0, 1, 1j, -1, 2], dtype=complex)[owner][:, None] * s_inv)
        c = s @ (np.array([1, 0, 2, 1, 0], dtype=complex)[owner][:, None] * s_inv)
        spec = equation_spec([a], [b], c)
        shapes = []
        original = np.linalg.qr

        def counting(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        solve(spec)
        assert sorted(shape[-1] for shape in shapes) == [1, 2, 3]
        assert sorted(shape[0] for shape in shapes) == [1, 2, 2]


def family_outcome(validate, members):
    """What a validation of ``members`` decides: accepted, the first pair
    that fails to commute with the error's text, or no joint eigenbasis
    (``validate_family`` goes on to diagnose that case, the reference does
    not)."""
    try:
        validate(members)
    except NotCommutingError as exc:
        return "not commuting", exc.i, exc.j, str(exc)
    except (NotDiagonalizableError, RefinementFailureError):
        return "no joint eigenbasis"
    return "accepted"


def commutator_pairs(monkeypatch, members):
    """Spy on the exact commutator test: the (i, j) of each pair it runs on,
    by the identity of the members' arrays."""
    seen = []
    original = lme.simdiag._commutes_within

    def spy(a, b, *args):
        seen.append((next(k for k, m in enumerate(members) if m is a),
                     next(k for k, m in enumerate(members) if m is b)))
        return original(a, b, *args)

    monkeypatch.setattr(lme.simdiag, "_commutes_within", spy)
    return seen


class TestCommutationFromTheEigenbasis:
    """validate_family bounds each pair's commutator from the joint
    eigenbasis and runs the exact test only on pairs the bound leaves
    undecided, with the verdicts and errors of the exact test on every pair."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=group_sizes(max_n=24), count=st.integers(2, 9),
           log_spread=st.floats(0.0, 4.0), log_scale=st.floats(-6.0, 6.0),
           log_nudge=st.floats(-14.0, -6.0), data=st.data())
    def test_same_verdicts_as_the_reference_near_the_threshold(
            self, seed, sizes, count, log_spread, log_scale, log_nudge, data):
        # one member moved by 1e-14 to 1e-6 of its norm: the commutators of
        # its pairs fall on both sides of tol.commute = 1e-10, and its joint
        # eigenbasis on both sides of recon
        members = grouped_family(seed, sizes, count, 10.0 ** log_spread, 10.0 ** log_scale)
        which = data.draw(st.integers(0, count - 1))
        rng = np.random.default_rng([seed, 1])
        n = sum(sizes)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        members[which] = members[which] + 10.0 ** log_nudge * fro(members[which]) / fro(g) * g
        want = family_outcome(reference_validate_family, members)
        assert family_outcome(validate_family, members) == want
        if want == "accepted":
            s, s_inv, diagonals, _ = reference_validate_family(members)
            basis = validate_family(members).eigenbasis
            assert raw_bytes(basis.diagonalizer) == raw_bytes(s)
            assert raw_bytes(basis.inverse) == raw_bytes(s_inv)
            assert [raw_bytes(d) for d in basis.diagonals] == [raw_bytes(d) for d in diagonals]

    def test_no_commutator_on_a_well_conditioned_family(self, monkeypatch):
        rng = np.random.default_rng([64, 7])
        sizes = []
        while sum(sizes) < 64:
            sizes.append(min(int(rng.integers(1, 5)), 64 - sum(sizes)))
        members = grouped_family(7, sizes, 7, 2.0)
        seen = commutator_pairs(monkeypatch, members)
        family = validate_family(members)
        assert seen == []
        assert family.eigenbasis.condition_bound is not None

    def test_only_uncertified_pairs_take_the_exact_test(self, monkeypatch):
        # members 0, 1 and 4 take one value on indices 0 and 1; members 2 and
        # 3 two.  The coupling 1e-9 between them in member 2 passes recon but
        # not commute against member 3, and leaves off-diagonal mass on
        # members 2 and 3 alone, so only their pairs take the exact test
        rng = np.random.default_rng(3)
        s = random_diagonalizer(rng, 6)
        s_inv = np.linalg.inv(s)
        diagonals = [[1, 1, 2, 3, 4, 5], [2, 2, 0, 1, 1, 3], [1, 2, 0, 0, 3, 1],
                     [4, -1, 2, 2, 0, 1], [0, 0, 1, 2, 1, 2]]
        cores = [np.diag(np.array(d, dtype=complex)) for d in diagonals]
        cores[2][0, 1] = 1e-9
        members = [s @ core @ s_inv for core in cores]
        with pytest.raises(NotCommutingError) as want:
            reference_validate_family(members)
        seen = commutator_pairs(monkeypatch, members)
        with pytest.raises(NotCommutingError) as got:
            validate_family(members)
        assert seen == [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert (got.value.i, got.value.j) == (want.value.i, want.value.j) == (2, 3)
        assert str(got.value) == str(want.value)

    def test_the_basis_keeps_the_figures_of_the_check(self):
        members = grouped_family(5, [2, 1, 3, 1, 1], 3, 100.0)
        basis = validate_family(members).eigenbasis
        s, s_inv = basis.diagonalizer, basis.inverse
        for m, d, mass in zip(members, basis.diagonals, basis.off_diagonal_masses):
            p = s_inv @ m @ s
            assert raw_bytes(np.diag(p)) == raw_bytes(d)
            np.fill_diagonal(p, 0)
            assert mass == fro(p)
        assert basis.condition_bound >= np.linalg.cond(s, 2)
        assert basis.condition_estimate == np.linalg.norm(s, 1) * np.linalg.norm(s_inv, 1)
        # with one pair or none the exact test is as cheap as the bound
        assert validate_family(members[:2]).eigenbasis.condition_bound is None
        assert validate_family(members[:1]).eigenbasis.condition_bound is None


class TestFamilyNorms:
    """The family owns its member norms; the joint eigenbasis keeps none."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=group_sizes(), k=st.integers(1, 4),
           scale=st.sampled_from([1e-60, 1e-4, 1.0, 1e4, 1e60]))
    def test_norms_are_the_member_norms(self, seed, sizes, k, scale):
        members = grouped_family(seed, sizes, k, 10.0, scale)
        family = validate_family(members)
        assert [x.hex() for x in family.norms] == [fro(m).hex() for m in members]

    def test_norms_stay_out_of_repr_and_equality(self):
        family = validate_family([HOMOG_A, HOMOG_B])
        assert "norms" not in repr(family)
        assert "norms" in {f.name for f in fields(family) if not f.compare}

    def test_joint_eigenbasis_keeps_no_caller_data(self):
        assert [f.name for f in fields(JointEigenbasis)] == [
            "diagonalizer", "inverse", "diagonals", "condition_estimate",
            "off_diagonal_masses", "condition_bound",
        ]
        assert not hasattr(validate_family([HOMOG_A]).eigenbasis, "_norms")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: validate_family([]), EmptyListError, "^family must contain at least one matrix$"),
        (
            lambda: induced_vectors(validate_family([HOMOG_A]), np.eye(2)),
            DimensionMismatchError,
            "^S has size 2, expected 3$",
        ),
        (
            lambda: match_induced_sequences([[1, 2]], [[1, 2], [2, 1]]),
            DimensionMismatchError,
            "^sequences have different lengths$",
        ),
        (lambda: match_induced_sequences([], []), EmptyListError, "^sequences must be non-empty$"),
        (
            lambda: match_induced_sequences([[1, 2]], [[1, 2, 3]]),
            DimensionMismatchError,
            "^all vectors must share one length$",
        ),
    ],
    ids=["empty-family", "diagonalizer-size", "sequence-counts", "no-sequences", "vector-lengths"],
)
def test_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
