"""Dense complex-matrix kernel: eigendecomposition, permutation matrices,
direct sums, and the commuting/normality predicates the solvers rely on.

Matrices are plain ``numpy.ndarray`` objects with complex dtype; every
function validates its inputs and returns fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cmp_to_key

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyListError,
    NonFiniteError,
    NonSquareError,
    NotDiagonalizableError,
)
from .tolerances import TOL_CLUSTER, TOL_COMMUTE, TOL_RECON, bound

__all__ = [
    "Permutation",
    "EigenDecomposition",
    "JointEigenbasis",
    "as_matrix",
    "require_square",
    "fro",
    "eig_decompose",
    "commutes",
    "is_normal",
    "permutation_matrix",
    "permute_vector",
    "direct_sum",
    "direct_sum_permutation",
    "canonical_sort_indices",
    "cluster_values",
    "cluster_means",
]

# Reciprocal-condition floor below which an eigenvector matrix is treated as
# singular regardless of the off-diagonal mass it leaves.
_RCOND_FLOOR = 1e-13

# cluster_values sweeps along the direction e^{i} (angle 1 rad): the key of z
# is Re(z e^{-i}).  The angle is generic on purpose: values on a lattice, such
# as sums and products of Gaussian integers, share real or imaginary parts
# exactly, and a sweep along either axis would hold whole columns of them in
# one window.
_SWEEP_ROTATION = complex(np.exp(-1j))
# Widening of the sweep window, relative to gap + max|value|: it covers the
# round-off in the projected keys and in abs(u - v), so that no pair that
# passes the exact test falls outside the window.
_SWEEP_SLACK = 16 * np.finfo(float).eps

# Seed of the fixed weights mu_j of the combination sum_j mu_j M_j that
# _joint_eigenbasis diagonalizes: member j gets the j-th complex Gaussian
# draw.  (The seed is the arXiv number of He & Kressner's randomized joint
# diagonalization.)
_MIX_SEED = 221207248
# Seed of the one fallback combination, tried only when the first leaves a
# member undiagonalized: a family whose joint eigenspaces collide under the
# first weights almost surely keeps them apart under independent ones.
_FALLBACK_SEED = 20240521


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    a = np.asarray(value, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return a


def require_square(value, name: str = "matrix", n: int | None = None) -> np.ndarray:
    """``as_matrix(value, name)``, checked to be square and, when ``n`` is
    given, of size n.  This is the one check of a square input in ``lme``,
    and its two messages are the one wording of a shape error:
    NonSquareError("<name> must be square, got shape (p, q)") and
    DimensionMismatchError("<name> has size m, expected n")."""
    a = as_matrix(value, name)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {a.shape}")
    if n is not None and a.shape[0] != n:
        raise DimensionMismatchError(f"{name} has size {a.shape[0]}, expected {n}")
    return a


def fro(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} stored as the one-based image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"image {self.image} is not a bijection of 1..{n}")

    @property
    def size(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self ∘ other, i.e. i -> self(other(i))."""
        if other.size != self.size:
            raise DimensionMismatchError("permutation sizes differ")
        return Permutation(tuple(self.image[k - 1] for k in other.image))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, k in enumerate(self.image, start=1):
            inv[k - 1] = i
        return Permutation(tuple(inv))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenbasis of a square matrix together with quality diagnostics.

    When ``diagonalizable`` is true the columns of ``diagonalizer`` carry the
    eigenvectors and ``eigenvalues`` the matching eigenvalues, so that
    S diag(m) S^{-1} reconstructs the input within the requested tolerance.
    """

    diagonalizer: np.ndarray
    eigenvalues: np.ndarray
    condition_estimate: float
    diagonalizable: bool


@dataclass(frozen=True)
class JointEigenbasis:
    """A matrix S that diagonalizes every member of a family, with S^{-1}
    and the diagonals of S^{-1} M_j S, one per member.  Columns of S that
    share an eigenvalue of the family's generic combination are orthonormal.

    ``condition_estimate`` is the 1-norm condition number
    ||S||_1 ||S^{-1}||_1, the figure the rcond floor is tested on.
    ``off_diagonal_masses`` are the Frobenius norms of the off-diagonal
    parts of S^{-1} M_j S, the figures the ``recon`` gate compared, one per
    member.  ``condition_bound`` is the upper bound on the 2-norm condition
    number kappa_2(S) from ``_condition_bound``, when a caller took one to
    bound commutators (``validate_family`` does for three members or more),
    else None.  It keeps nothing of its caller's: the member norms it was
    scaled by stay with the caller (``CommutingFamily.norms``)."""

    diagonalizer: np.ndarray
    inverse: np.ndarray
    diagonals: tuple[np.ndarray, ...]
    condition_estimate: float
    off_diagonal_masses: tuple[float, ...]
    condition_bound: float | None = None


def canonical_sort_indices(values: np.ndarray, gap: float) -> list[int]:
    """Deterministic ordering of complex values: ascending modulus, then
    descending real part, then descending imaginary part; differences below
    ``gap`` count as ties so that round-off cannot flip the order."""
    values = np.asarray(values)
    # plain floats, read once: the comparator runs O(n log n) times, and
    # float arithmetic on them is that of the numpy scalars, bit for bit.
    # The moduli come from Python's abs, which is the scalar's hypot; the
    # vectorized np.abs differs from it in the last bit on about a third
    # of complex inputs.
    mods = [abs(z) for z in values.tolist()]
    re = values.real.tolist()
    im = values.imag.tolist()

    def cmp(i: int, j: int) -> int:
        d = mods[i] - mods[j]
        if abs(d) > gap:
            return -1 if d < 0 else 1
        d = re[i] - re[j]
        if abs(d) > gap:
            return 1 if d < 0 else -1
        d = im[i] - im[j]
        if abs(d) > gap:
            return 1 if d < 0 else -1
        return 0

    return sorted(range(len(values)), key=cmp_to_key(cmp))


def cluster_values(values: np.ndarray, gap: float) -> list[list[int]]:
    """Group values whose pairwise distance is at most ``gap`` (transitive
    closure), returning index clusters in canonical representative order.

    Each cluster lists its indices in ascending order.  Clusters are first
    ordered by their lowest index and then sorted stably by
    ``canonical_sort_indices`` of their means.

    Two values within ``gap`` of each other are also within ``gap`` along
    any unit direction, because a projection is 1-Lipschitz.  So the values
    are sorted by their projection onto one fixed direction, and each is
    compared only with its successors whose projection lies at most ``gap``
    (widened by a few units of round-off) further on.  No linked pair is
    missed, and the link test itself is the exact ``abs(u - v) <= gap``.
    """
    return _clusters(values, gap)[0]


def _clusters(values: np.ndarray, gap: float) -> tuple[list[list[int]], np.ndarray]:
    """``cluster_values`` together with the mean of each cluster, in the
    same order: the means the canonical order is taken from, so a caller
    that needs them does not take them a second time."""
    n = len(values)
    # union-find over positions in sweep order; by_key maps them to indices
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_key = range(n)
    if n > 1:
        keys = (values * _SWEEP_ROTATION).real
        by_key = keys.argsort(kind="stable")
        keys = keys[by_key]
        reach = gap + _SWEEP_SLACK * (gap + abs(values).max())
        ends = keys.searchsorted(keys + reach, side="right").tolist()
        zs = values[by_key].tolist()
        for a in range(n):
            za = zs[a]
            ra = find(a)
            for b in range(a + 1, ends[a]):
                # b hanging directly under ra is in a's cluster already
                if parent[b] != ra and abs(za - zs[b]) <= gap:
                    rb = find(b)
                    if rb != ra:
                        parent[rb] = ra
                    parent[b] = ra  # so that later scans skip b at once
        by_key = by_key.tolist()
    root = [0] * n
    for p, i in enumerate(by_key):
        root[i] = find(p)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(root[i], []).append(i)
    clusters = list(groups.values())
    means = cluster_means(values, clusters)
    order = canonical_sort_indices(means, gap)
    return [clusters[i] for i in order], means[order]


def cluster_means(values: np.ndarray, clusters) -> np.ndarray:
    """The mean of ``values[c]`` for each index list ``c`` of ``clusters``,
    in order.

    Clusters of one size are stacked as the rows of one array, and each
    row is summed pairwise by ``np.add.reduce`` like the 1-D
    ``values[c].mean()``, in the result's type, and divided by its count, as
    ``mean`` does without its Python wrapper: every mean is that one bit for
    bit (integers are summed as floats, as by ``mean``), signed zeros
    included (``np.add.reduceat`` sums differently and is not).  The
    clustering hands the means on with the clusters it ordered by them.
    """
    means = np.empty(len(clusters), dtype=np.result_type(values.dtype, float))
    by_size: dict[int, list[int]] = {}
    for k, c in enumerate(clusters):
        by_size.setdefault(len(c), []).append(k)
    for ks in by_size.values():
        if len(ks) == 1:  # one cluster of its size: no stacking to gain
            rows = values[clusters[ks[0]]]
        else:
            rows = values[np.array([clusters[k] for k in ks])]
        means[ks] = np.add.reduce(rows, axis=-1, dtype=means.dtype) / rows.shape[-1]
    return means


def _joint_eigenbasis(mats, tol_recon: float, tol_cluster: float, norms) -> JointEigenbasis:
    """One eigenbasis for a family of square matrices of one size, from one
    ``eig``.

    The generic combination sum_j mu_j M_j / bound(1, ||M_j||_F), with the fixed
    weights of ``_MIX_SEED``, has the joint eigenspaces of commuting
    diagonalizable members as its eigenspaces.  Its eigenvectors are grouped
    by its eigenvalue clusters at the ``tol_cluster`` gap, and each group is
    orthonormalized by QR: one ``qr`` call per distinct group size, over the
    groups of that size stacked, which runs LAPACK on each group as its own
    call would.  When that basis fails, the weights of ``_FALLBACK_SEED`` get
    one more ``eig``; if it fails too, this raises NotDiagonalizableError(i)
    for the first member i that S^{-1} M_i S leaves with off-diagonal mass
    above bound(tol_recon, ||M_i||_F), or
    NotDiagonalizableError(0) when S is singular below the rcond floor.

    ``norms`` are the members' Frobenius norms, taken once by the caller;
    the weights and the ``tol_recon`` thresholds reuse them.  S^{-1} M_j S
    stays one product per member: stacked into one batched matmul it was
    slower at n=64.
    """
    try:
        return _eigenbasis_of_mix(mats, _MIX_SEED, tol_recon, tol_cluster, norms)
    except NotDiagonalizableError:
        return _eigenbasis_of_mix(mats, _FALLBACK_SEED, tol_recon, tol_cluster, norms)


@cache
def _mix_weights(seed: int, count: int) -> np.ndarray:
    """The first ``count`` complex Gaussian draws of ``default_rng(seed)``, read-only, drawn once."""
    mu = np.random.default_rng(seed).standard_normal((count, 2)) @ (1, 1j)
    mu.flags.writeable = False
    return mu


def _eigenbasis_of_mix(mats, seed: int, tol_recon: float, tol_cluster: float, norms) -> JointEigenbasis:
    """``_joint_eigenbasis`` with the weights of one seed, from ``_mix_weights``."""
    mu = _mix_weights(seed, len(mats))
    mix = sum(w / bound(1.0, norm) * m for w, norm, m in zip(mu, norms, mats))
    w, v = np.linalg.eig(mix)
    groups = cluster_values(w, bound(tol_cluster, fro(mix)))
    # the groups side by side, as an hstack of their factors would place them
    s = np.empty(v.shape, dtype=v.dtype)
    starts = np.cumsum([0, *map(len, groups)])
    for size in {len(g) for g in groups}:
        same = [i for i, g in enumerate(groups) if len(g) == size]
        q = np.linalg.qr(v[:, [groups[i] for i in same]].transpose(1, 0, 2))[0]
        s[:, starts[same, None] + np.arange(size)] = q.transpose(1, 0, 2)
    try:
        s_inv = np.linalg.inv(s)
    except np.linalg.LinAlgError:
        raise NotDiagonalizableError(0, "its eigenvector matrix is singular") from None
    cond = float(np.linalg.norm(s, 1) * np.linalg.norm(s_inv, 1))
    if not cond * _RCOND_FLOOR < 1.0:
        raise NotDiagonalizableError(0, f"its eigenvector matrix has condition {cond:.3e}")
    diagonals, masses = [], []
    for i, (m, norm) in enumerate(zip(mats, norms)):
        d = s_inv @ m @ s
        diagonals.append(np.diag(d).copy())
        np.fill_diagonal(d, 0)
        off_mass = fro(d)
        if off_mass > bound(tol_recon, norm):
            raise NotDiagonalizableError(i, f"off-diagonal mass {off_mass:.3e} in the eigenbasis")
        masses.append(off_mass)
    return JointEigenbasis(s, s_inv, tuple(diagonals), cond, tuple(masses))


def _condition_bound(s: np.ndarray, s_inv: np.ndarray) -> float:
    """An upper bound on kappa_2(S) = ||S||_2 ||S^{-1}||_2 from two
    products: ||S||_2^2 is the largest eigenvalue of the Gram matrix S* S,
    which Gershgorin bounds by its largest absolute row sum, and likewise
    ||S^{-1}||_2^2 by that of S^{-1} S^{-*}.  Near-orthonormal columns give
    a bound near the true kappa_2, where the 1-norm condition number grows
    with the size."""
    gram = s.conj().T @ s
    gram_inv = s_inv @ s_inv.conj().T
    return math.sqrt(np.linalg.norm(gram, np.inf) * np.linalg.norm(gram_inv, np.inf))


def eig_decompose(m, tol: float = TOL_RECON, tol_cluster: float = TOL_CLUSTER) -> EigenDecomposition:
    """Eigendecomposition with an explicit diagonalizability verdict.

    The eigenbasis is the one-member case of the joint eigenbasis: LAPACK's
    eigenvectors, orthonormalized by QR within each eigenvalue cluster at the
    ``tol_cluster`` gap.  The input counts as diagonalizable when S^{-1} M S
    has off-diagonal mass at most ``tol`` (relative); the eigenvalues are
    then the diagonal of S^{-1} M S.  Otherwise LAPACK's raw eigenvectors and
    eigenvalues are returned for inspection.
    """
    a = require_square(m)
    try:
        basis = _joint_eigenbasis([a], tol, tol_cluster, [fro(a)])
    except NotDiagonalizableError:
        w, v = np.linalg.eig(a)
        return EigenDecomposition(v, w, float(np.linalg.cond(v, 1)), False)
    return EigenDecomposition(basis.diagonalizer, basis.diagonals[0], basis.condition_estimate, True)


def commutes(a, b, tol: float = TOL_COMMUTE) -> bool:
    """True iff ||AB - BA||_F <= bound(tol, ||A||_F ||B||_F): tol times the
    norm product floored at 1, by ``tolerances.bound``.  When that
    threshold overflows, no residual can fail it, so this raises
    NonFiniteError naming A and B instead."""
    a = require_square(a, "A")
    b = require_square(b, "B", a.shape[0])
    with np.errstate(over="ignore"):
        norm_a, norm_b = fro(a), fro(b)
    if math.isinf(bound(tol, norm_a * norm_b)):
        raise NonFiniteError("the Frobenius norm product of A and B overflows")
    return _commutes_within(a, b, tol, norm_a, norm_b)


def _commutes_within(a: np.ndarray, b: np.ndarray, tol: float, norm_a: float, norm_b: float) -> bool:
    """``commutes`` on validated square matrices of one shape, with their
    Frobenius norms given."""
    return fro(a @ b - b @ a) <= bound(tol, norm_a * norm_b)


def is_normal(m, tol: float = TOL_COMMUTE) -> bool:
    """True iff M commutes with M* within ``tol``: the test of ``commutes``,
    ||M M* - M* M||_F <= bound(tol, ||M||_F ||M*||_F), where
    ||M*||_F = ||M||_F, taken as ``_normal_within`` takes it."""
    a = require_square(m)
    return _normal_within(a, tol, fro(a))


def _normal_within(m: np.ndarray, tol: float, norm: float) -> bool:
    """``is_normal``'s test on a validated square matrix of Frobenius norm
    ``norm``, taken on M 2^-e, e = floor(log2 ||M||_F), when ||M||_F > 1.
    Scaling by a power of two is exact, and so is every figure of the test
    after it, scaled by 2^-2e, so the verdict is the unscaled formula's
    wherever that one's residual does not overflow; beyond, a normal M still
    passes, where the unscaled residual would read infinite."""
    if norm > 1.0:
        e = math.frexp(norm)[1] - 1
        m = m * math.ldexp(1.0, -e)
        norm = math.ldexp(norm, -e)
    return _commutes_within(m, m.conj().T, tol, norm, norm)


def permutation_matrix(sigma: Permutation) -> np.ndarray:
    """The matrix P with P[i, j] = 1 iff i = sigma(j) (one-based)."""
    n = sigma.size
    p = np.zeros((n, n), dtype=complex)
    for j, k in enumerate(sigma.image):
        p[k - 1, j] = 1.0
    return p


def permute_vector(m, sigma: Permutation) -> np.ndarray:
    """Component permutation: result[i] = m[sigma(i+1) - 1]."""
    vec = np.asarray(m, dtype=complex)
    if vec.ndim != 1 or vec.shape[0] != sigma.size:
        raise DimensionMismatchError(
            f"vector of length {vec.shape} does not match permutation of size {sigma.size}"
        )
    idx = np.array(sigma.image) - 1
    return vec[idx]


def direct_sum(blocks) -> np.ndarray:
    """Block-diagonal assembly of square blocks."""
    blocks = [require_square(b, f"block {i}") for i, b in enumerate(blocks)]
    if not blocks:
        raise EmptyListError("direct_sum needs at least one block")
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    off = 0
    for b in blocks:
        k = b.shape[0]
        out[off:off + k, off:off + k] = b
        off += k
    return out


def direct_sum_permutation(parts) -> Permutation:
    """Concatenate permutations with offsets so that the permutation matrix
    of the result is the direct sum of the part matrices."""
    parts = list(parts)
    if not parts:
        raise EmptyListError("direct_sum_permutation needs at least one part")
    image: list[int] = []
    off = 0
    for p in parts:
        image.extend(k + off for k in p.image)
        off += p.size
    return Permutation(tuple(image))
