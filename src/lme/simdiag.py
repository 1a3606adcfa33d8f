"""Simultaneous diagonalization of commuting diagonalizable families.

A family is diagonalized by one eigendecomposition: the eigenvectors of a
generic linear combination sum_j mu_j M_j span the joint eigenspaces, the
leaf blocks of the diagonalizer S (Y_1 ⊕ ... ⊕ Y_d) P.  ``validate_family``
computes that joint eigenbasis once and checks that it diagonalizes every
member.  It reads pairwise commutation off the same basis: a pair whose
commutator the basis bounds well below the ``commute`` tolerance forms no
commutator, and only the pairs the bound leaves undecided take the exact
product test.  The induced eigenvalue vectors are the diagonals of
S^{-1} M_j S; sorting the columns lexicographically by each member's
canonical eigenvalue rank makes them a star sequence: the first is a star
vector and each later one is constant on the blocks of the refined
partition, with distinct values across sibling blocks.

The module also recovers, without computing any diagonalizer, a compatible
ordering of the eigenvalues of two commuting matrices, by intersecting
eigenvalue multisets of one shifted product, rescaled per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .errors import (
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
from .matcore import (
    JointEigenbasis,
    Permutation,
    _clusters,
    _commutes_within,
    _condition_bound,
    _joint_eigenbasis,
    as_matrix,
    canonical_sort_indices,
    fro,
    require_square,
)
from .tolerances import DEFAULT, TOL_CLUSTER, Tolerances, bound

# Machine epsilon, twice the unit roundoff: the unit of the rounding slack
# in the commutator bound.
_EPS = float(np.finfo(float).eps)
# A pair is accepted without its commutator only when the bound, rounding
# slack included, is this many times below the exact test's threshold.
_CERTIFY_MARGIN = 16.0
# Above this product of two member norms the exact test's ||AB - BA||_F can
# overflow even for a commuting pair: such a pair always takes the exact
# test, and its NonFiniteError.
_BOUND_NORM_LIMIT = 1e150

__all__ = [
    "CommutingFamily",
    "StarSequence",
    "CommutantDescription",
    "validate_family",
    "star_vector_of",
    "simultaneous_diagonalizer",
    "induced_vectors",
    "match_induced_sequences",
    "commutant",
    "induced_pair_without_diagonalizer",
]


@dataclass(frozen=True)
class CommutingFamily:
    """An ordered, validated family of pairwise-commuting diagonalizable
    matrices of a common size, with the tolerances it was validated at, the
    joint eigenbasis that ``validate_family`` found for it and the members'
    Frobenius norms, in member order, that it took on the way."""

    members: tuple[np.ndarray, ...]
    tol: Tolerances
    eigenbasis: JointEigenbasis = field(repr=False, compare=False)
    norms: tuple[float, ...] = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.members[0].shape[0]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class StarSequence:
    """A joint diagonalizer together with its induced eigenvalue vectors and
    the nested block partition they generate.

    ``levels[j]`` lists the half-open index ranges of the partition after
    member j has been processed; ``levels[-1]`` holds the leaf blocks.
    ``inverse`` is the inverse of the diagonalizer, computed with it.
    ``vectors`` replace each cluster of eigenvalues by its mean;
    ``diagonals`` are the diagonals of S^{-1} M_j S themselves, in the same
    order.
    """

    diagonalizer: np.ndarray
    vectors: tuple[np.ndarray, ...]
    levels: tuple[tuple[tuple[int, int], ...], ...]
    inverse: np.ndarray = field(repr=False, compare=False)
    diagonals: tuple[np.ndarray, ...] = field(repr=False, compare=False)

    @property
    def leaf_blocks(self) -> tuple[tuple[int, int], ...]:
        return self.levels[-1]


@dataclass(frozen=True)
class CommutantDescription:
    """Shape of the space of matrices commuting with a diagonalizable matrix:
    S (Y_1 ⊕ ... ⊕ Y_d) S^{-1} over square blocks matching the eigenvalue
    multiplicities, of total dimension sum(k_i^2)."""

    diagonalizer: np.ndarray
    block_sizes: tuple[int, ...]
    dimension: int


def validate_family(members, tol: Tolerances = DEFAULT, names=None) -> CommutingFamily:
    """Check that the members commute pairwise and share one eigenbasis,
    which is kept on the result together with ``tol``.  When there is none,
    the first member that is not diagonalizable on its own is named, with
    the reason its own eigenbasis failed, else the member the joint one left
    off-diagonal mass on, and how much.  Error messages call member i
    ``names[i]`` when ``names`` is given, else "member i".  Members of size
    0 raise DimensionMismatchError.  A member whose Frobenius norm overflows,
    or a pair whose commutator residual does, raises NonFiniteError naming
    it, before any gate decides on an infinite or NaN figure.

    Each member's Frobenius norm is taken once, here, and kept on the
    result as ``norms``.  The commutator tests, the weights of the joint
    eigensolve and its ``recon`` thresholds use them here; the cluster gaps
    of ``simultaneous_diagonalizer``, the off-diagonal test of
    ``induced_vectors`` and ``solve``'s normal certificate read them later.

    The joint eigenbasis is computed first, and commutation is read off it:
    a pair whose commutator it bounds well below ``tol.commute`` (see
    ``_uncertified_pairs``) is accepted without forming the commutator, and
    every other pair takes the exact test, ||AB - BA||_F against
    ``bound(tol.commute, ||A||_F ||B||_F)``, in pair order.  So the
    verdict, the first failing pair and the error are those of the exact
    test on every pair.  When the joint eigensolve fails, every pair takes
    the exact test before the failure is diagnosed."""
    members = list(members)
    label = list(names) if names else [f"member {i}" for i in range(len(members))]
    mats = [require_square(as_matrix(m, label[i]), label[i]) for i, m in enumerate(members)]
    if not mats:
        raise EmptyListError("family must contain at least one matrix")
    n = mats[0].shape[0]
    if n == 0:
        raise DimensionMismatchError(f"{label[0]} has size 0, expected at least 1")
    for i, m in enumerate(mats):
        if m.shape[0] != n:
            raise DimensionMismatchError(f"{label[i]} has size {m.shape[0]}, expected {n}")
    # an overflow here is reported by the NonFiniteError below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [fro(m) for m in mats]
    for i, norm in enumerate(norms):
        if not math.isfinite(norm):
            raise NonFiniteError(f"{label[i]} has a Frobenius norm that overflows")
    pairs = list(combinations(range(len(mats)), 2))
    # Group the combination's eigenvalues no wider than recon accepts: QR over
    # two values delta apart leaves off-diagonal mass ~ delta cot(theta).
    # simultaneous_diagonalizer merges near-equal values at tol.cluster.
    group_gap = min(tol.cluster, tol.recon)
    try:
        basis = _joint_eigenbasis(mats, tol.recon, group_gap, norms)
    except NotDiagonalizableError as exc:
        _check_pairs(mats, norms, pairs, tol.commute, label, names)
        for i, m in enumerate(mats):
            try:
                _joint_eigenbasis([m], tol.recon, group_gap, norms[i:i + 1])
            except NotDiagonalizableError as own:
                raise NotDiagonalizableError(i, own.detail, names and label[i]) from None
        # a singular or ill-conditioned eigenvector matrix names no member
        culprit = f"{label[exc.i]} keeps " if exc.detail.startswith("off-diagonal") else ""
        raise RefinementFailureError(
            "the members are diagonalizable one by one but share no eigenbasis "
            f"within tolerance ({culprit}{exc.detail})"
        ) from exc
    # the bound costs two products for the family, one exact test two per
    # pair: with one pair there is nothing to gain
    if len(pairs) > 1:
        basis = replace(basis, condition_bound=_condition_bound(basis.diagonalizer, basis.inverse))
        pairs = _uncertified_pairs(basis, norms, tol.commute)
    _check_pairs(mats, norms, pairs, tol.commute, label, names)
    return CommutingFamily(tuple(mats), tol, basis, tuple(norms))


def _check_pairs(mats, norms, pairs, tol_commute: float, label, names) -> None:
    """The exact commutation test on each of ``pairs`` in turn: raise
    NonFiniteError when the first failing pair's residual overflows, else
    NotCommutingError for it."""
    if not pairs:
        return
    # an overflow here is reported by the NonFiniteError below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j in pairs:
            if not _commutes_within(mats[i], mats[j], tol_commute, norms[i], norms[j]):
                resid = fro(mats[i] @ mats[j] - mats[j] @ mats[i])
                if not math.isfinite(resid):
                    raise NonFiniteError(f"the commutator of {label[i]} and {label[j]} overflows")
                raise NotCommutingError(i, j, resid / bound(1.0, norms[i] * norms[j]), names and (label[i], label[j]))


def _uncertified_pairs(basis: JointEigenbasis, norms, tol_commute: float) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j in order, whose commutator the joint
    eigenbasis does not bound below the exact test's threshold.

    Split P_j = S^{-1} M_j S into its diagonal D_j and off-diagonal part F_j.
    Diagonal matrices commute, so S^{-1} [M_i, M_j] S = [D_i, F_j] +
    [F_i, D_j] + [F_i, F_j] and, in the style of Bauer and Fike,
    ||[M_i, M_j]||_F <= kappa_2(S) 2 (rho_i f_j + rho_j f_i + f_i f_j),
    with rho_j = max |diag D_j|, f_j = ||F_j||_F and kappa_2(S) the basis's
    ``condition_bound``.  For the rounding in the computed P_j (two
    products and S^{-1}), rho_j and f_j are widened by
    4 sqrt(n) eps kappa^2 ||M_j||_F, a few times its typical size; for the
    rounding in the exact test's own residual, at most about
    n eps ||M_i||_F ||M_j||_F, (n + 2) eps ||M_i||_F ||M_j||_F is added.
    A pair is certified when this bound is ``_CERTIFY_MARGIN`` times below
    bound(tol, ||M_i||_F ||M_j||_F), and never when ||M_i||_F ||M_j||_F
    exceeds ``_BOUND_NORM_LIMIT``."""
    n = basis.diagonalizer.shape[0]
    kappa = basis.condition_bound
    slack = [4.0 * math.sqrt(n) * _EPS * kappa * kappa * norm for norm in norms]
    offs = [f + e for f, e in zip(basis.off_diagonal_masses, slack)]
    radii = [float(np.abs(d).max()) + e for d, e in zip(basis.diagonals, slack)]
    pairs = []
    for i, j in combinations(range(len(norms)), 2):
        scale = norms[i] * norms[j]
        upper = 2.0 * kappa * (radii[i] * offs[j] + radii[j] * offs[i] + offs[i] * offs[j])
        upper += (n + 2) * _EPS * scale
        if not (scale <= _BOUND_NORM_LIMIT and _CERTIFY_MARGIN * upper <= bound(tol_commute, scale)):
            pairs.append((i, j))
    return pairs


def simultaneous_diagonalizer(family: CommutingFamily) -> StarSequence:
    """Joint diagonalizer whose induced vectors form a star sequence.

    No eigensolve runs here: the diagonal of S^{-1} M_j S in the family's
    joint eigenbasis is clustered at the gap of the family's
    ``tol.cluster`` and replaced by the cluster means.  Columns are sorted
    lexicographically by the canonical cluster ranks, member 0 first;
    ``levels[j]`` are the runs of equal ranks of members 0..j.

    The gaps reuse the member norms that ``validate_family`` kept on the
    family.  Each member's means come with its clusters, taken once, and
    its ranks and vectors are set by one index operation each.
    """
    basis = family.eigenbasis
    n = family.size
    ranks = np.empty((len(family), n), dtype=int)
    vectors = np.empty((len(family), n), dtype=complex)
    for j, (norm, d) in enumerate(zip(family.norms, basis.diagonals)):
        groups, means = _clusters(d, bound(family.tol.cluster, norm))
        rank = [0] * n
        for r, group in enumerate(groups):
            for i in group:
                rank[i] = r
        ranks[j] = rank
        vectors[j] = means[rank]
    order = np.lexsort(ranks[::-1])
    split = np.zeros(n - 1, dtype=bool)
    levels = []
    for row in ranks[:, order]:
        split |= row[1:] != row[:-1]
        bounds = [0, *(np.flatnonzero(split) + 1).tolist(), n]
        levels.append(tuple(zip(bounds[:-1], bounds[1:])))
    return StarSequence(
        basis.diagonalizer[:, order],
        tuple(vectors[:, order]),
        tuple(levels),
        basis.inverse[order],
        tuple(d[order] for d in basis.diagonals),
    )


def star_vector_of(m, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Eigenvalues of a diagonalizable matrix arranged as a star vector:
    equal values contiguous, blocks in canonical order."""
    return simultaneous_diagonalizer(validate_family([m], tol)).vectors[0]


def induced_vectors(family: CommutingFamily, s) -> list[np.ndarray]:
    """Diagonals of S^{-1} M S for each member, after checking that S really
    diagonalizes every member at the family's commutation tolerance, relative
    to the member norms the family keeps."""
    smat = require_square(as_matrix(s, "S"), "S")
    if smat.shape[0] != family.size:
        raise DimensionMismatchError("diagonalizer size does not match family")
    out = []
    for i, (m, norm) in enumerate(zip(family.members, family.norms)):
        try:
            d = np.linalg.solve(smat, m @ smat)
        except np.linalg.LinAlgError:  # a singular S diagonalizes no member
            raise NotADiagonalizerError(i, math.inf) from None
        off_mass = fro(d - np.diag(np.diag(d)))
        if off_mass > bound(family.tol.commute, norm):
            raise NotADiagonalizerError(i, off_mass)
        out.append(np.diag(d).copy())
    return out


def match_induced_sequences(seq1, seq2, tol: float = TOL_CLUSTER) -> Permutation:
    """Find a permutation carrying the first induced sequence onto the second,
    i.e. seq2[j][i] = seq1[j][sigma(i+1)-1] for all j simultaneously.

    Positions are matched as multisets of eigenvalue tuples under the given
    tolerance, at the largest distance over the sequences, by the greedy
    matcher that pair recovery also uses; greedy nearest assignment suffices
    because genuine induced sequences only ever contain tuples that are
    either equal or well apart.
    """
    a = [np.asarray(v, dtype=complex) for v in seq1]
    b = [np.asarray(v, dtype=complex) for v in seq2]
    if len(a) != len(b):
        raise DimensionMismatchError("sequences have different lengths")
    if not a:
        raise EmptyListError("sequences must be non-empty")
    n = a[0].shape[0]
    for v in a + b:
        if v.shape != (n,):
            raise DimensionMismatchError("all vectors must share one length")
    if n == 0:
        raise DimensionMismatchError("vectors have length 0, expected at least 1")
    gap = bound(tol, max(float(np.max(np.abs(v))) for v in a + b))
    dist = np.abs(np.array(b)[:, :, None] - np.array(a)[:, None, :]).max(axis=0)
    cols, best = _greedy_match(dist, gap, np.ones(n, dtype=bool))
    if -1 in cols:
        i = cols.index(-1)
        raise NoMatchingPermutationError(
            f"no source position matches target {i} (best distance {best[i]:.3e})"
        )
    return Permutation(tuple(p + 1 for p in cols))


def commutant(m, tol: Tolerances = DEFAULT) -> CommutantDescription:
    """Block description and dimension of the space of matrices commuting
    with a diagonalizable matrix."""
    star = simultaneous_diagonalizer(validate_family([m], tol))
    sizes = tuple(hi - lo for lo, hi in star.leaf_blocks)
    return CommutantDescription(star.diagonalizer, sizes, sum(k * k for k in sizes))


def _greedy_match(dist: np.ndarray, gap: float, free: np.ndarray):
    """Match the rows of a distance matrix in order: each row takes the
    lowest-index ``free`` column at its smallest distance, provided that
    distance is within ``gap``, and clears it from ``free``.  Returns the
    column of each row (-1 where none was taken) and the smallest distance
    each row saw, as lists."""
    # plain floats: the matrices are small, and a Python loop over them is
    # cheaper than one numpy call per row
    rows = np.where(free, dist, np.inf).tolist()
    cols, best = [], []
    for i, row in enumerate(rows):
        d = min(row)
        p = row.index(d) if d <= gap else -1
        if p >= 0:
            free[p] = False
            for later in rows[i + 1:]:
                later[p] = np.inf
        cols.append(p)
        best.append(d)
    return cols, best


def induced_pair_without_diagonalizer(a, b, tol: Tolerances = DEFAULT):
    """Compatible eigenvalue ordering for two commuting diagonalizable
    matrices, computed from eigenvalues alone.

    The family [A, B] is validated once (errors name A and B).  The first
    vector is the star vector of ``a``, and its eigenvalue blocks are the
    first level of the star sequence, both read off the family's joint
    eigenbasis.  For each nonzero block, the matching block of
    ``b``-eigenvalues is recovered as the multiset intersection of eig(B)
    with eig((AB + beta*A)/lambda - beta*I) = eig(AB + beta*A)/lambda - beta
    (spectral mapping) for a shift ``beta`` chosen outside the set of
    collision values: the shifted product AB + beta*A is solved once for
    every block.  What no nonzero block took fills the zero eigenvalue
    block.  The intersection uses the greedy matcher of
    ``match_induced_sequences``.  Returns ``(avec, bvec, collision_set,
    beta)``, cross-checked against the joint diagonalizer's induced pair.

    A collision value is a shift at which a pair of another block lands on
    an eigenvalue of B.  eig(B) is clustered once at the gap
    ``bound(tol.cluster, ||B||_F)``, with b_p the mean of cluster p, and
    the values are (lam_s b_p - lam_r b_q) / (lam_r - lam_s) over the block
    values lam_r, lam_s of A with r < s and the clusters p != q; swapping
    (r, p) with (s, q) gives the same float.  Two eigenvalues in one
    cluster collide at -b_p for every block pair, so each repeated cluster
    adds -b_p once when A has two blocks or more.  ``collision_set`` is
    the means of the collision values' clusters at the same gap, and
    beta = 1 + max |z| over it (1.0 when it is empty).
    """
    family = validate_family([a, b], tol, ("A", "B"))
    return _induced_pair(family, simultaneous_diagonalizer(family))


def _induced_pair(family: CommutingFamily, star: StarSequence):
    """``induced_pair_without_diagonalizer`` on the validated family [A, B]
    and its star sequence."""
    amat, bmat = family.members
    tol = family.tol
    n = family.size
    avec = star.vectors[0]
    blocks = star.levels[0]
    norm_a, norm_b = family.norms
    gap = bound(tol.cluster, norm_b)
    b_eigs = np.linalg.eigvals(bmat)
    b_groups, b_reps = _clusters(b_eigs, gap)

    # the collision values of the docstring, in (r, s, p, q) order, then
    # the -b_p of the repeated clusters
    lam = avec[[lo for lo, _ in blocks]]
    r_idx, s_idx = np.triu_indices(len(blocks), 1)
    p_idx, q_idx = np.nonzero(~np.eye(len(b_reps), dtype=bool))
    lam_r, lam_s = lam[r_idx][:, None], lam[s_idx][:, None]
    collisions = ((lam_s * b_reps[p_idx] - lam_r * b_reps[q_idx]) / (lam_r - lam_s)).ravel()
    if len(blocks) > 1:
        repeated = np.array([len(g) > 1 for g in b_groups])
        collisions = np.concatenate([collisions, -b_reps[repeated]])
    collision_set = _clusters(collisions, gap)[1].tolist()
    beta = 1.0 + max((abs(z) for z in collision_set), default=0.0)

    # the scalar abs, as in canonical_sort_indices: np.abs can differ in the last bit
    zero_tol = bound(tol.zero, norm_a)
    zero = [abs(v) <= zero_tol for v in lam]
    if sum(zero) > 1:
        raise IntersectionAmbiguousError("multiple zero eigenvalue blocks")
    free = np.ones(n, dtype=bool)
    bvec = np.empty(n, dtype=complex)
    # eig((AB + beta*A)/lam - beta*I) is eig(AB + beta*A)/lam - beta
    mu = np.linalg.eigvals(amat @ bmat + beta * amat)
    for q, (lo, hi) in enumerate(blocks):
        if zero[q]:
            continue
        cols, _ = _greedy_match(np.abs((mu / lam[q] - beta)[:, None] - b_eigs), gap, free)
        matched = b_eigs[[p for p in cols if p >= 0]]
        if matched.size != hi - lo:
            raise IntersectionAmbiguousError(
                f"block {q} matched {matched.size} eigenvalues, expected {hi - lo}"
            )
        bvec[lo:hi] = matched[canonical_sort_indices(matched, gap)]
    # the leftovers fill the zero block, or the empty slice when A has none;
    # every other block took exactly its size, so they always fit
    lo, hi = blocks[zero.index(True)] if any(zero) else (n, n)
    remaining = b_eigs[free]
    bvec[lo:hi] = remaining[canonical_sort_indices(remaining, gap)]

    try:
        match_induced_sequences([star.vectors[0], star.vectors[1]], [avec, bvec], tol.cluster)
    except NoMatchingPermutationError as exc:
        raise IntersectionAmbiguousError(
            f"assembled pair failed cross-validation: {exc}"
        ) from exc
    return avec, bvec, collision_set, beta
