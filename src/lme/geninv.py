"""Generalized inverses: Moore-Penrose, Drazin, group inverse, matrix index.

``drazin`` and ``group_inverse`` first try the group inverse from one SVD,
A = U S V^H: with the full-rank factors F = U_r S_r and G = V_r^H,
A^# = F (G F)^{-2} G (Cline 1968).  It serves every matrix of index at most
one whose decisions it can make as the split below would, which covers the
coefficient sums of commuting diagonalizable families, and gives way to the
split otherwise.

One core-nilpotent split feeds ``core_nilpotent`` and the other inputs of
``drazin`` and ``group_inverse``: a complex Schur form reordered by LAPACK
``trsen``, and a triangular Sylvester solve by LAPACK ``trsyl``.  ``drazin``
inverts only the core block.  ``group_inverse`` runs the index loop itself
and hands its rank to the branch and the split; the split runs the loop for
the others unless A is all nilpotent.

The split is the package's only use of scipy and imports ``scipy.linalg``
when it first runs.  Importing lme, solving, ``check_consistent``, the CLI's
reports, the oracle and pair recovery never load scipy; ``core_nilpotent``
and a Drazin inverse of index two or more do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexTooLargeError, NonFiniteError
from .matcore import as_matrix, fro, require_square
from .tolerances import TOL_RANK, TOL_ZERO

__all__ = [
    "CoreNilpotentDecomposition",
    "scalar_dagger",
    "moore_penrose",
    "matrix_rank",
    "index",
    "core_nilpotent",
    "drazin",
    "group_inverse",
]


def scalar_dagger(a: complex, tol_zero: float = TOL_ZERO) -> complex:
    """1/a when |a| exceeds the threshold, else 0."""
    a = complex(a)
    return 1.0 / a if abs(a) > tol_zero else 0j


def moore_penrose(a, tol_rank: float = TOL_RANK) -> np.ndarray:
    """Moore-Penrose inverse via SVD with threshold tol_rank * sigma_max."""
    m = as_matrix(a)
    if m.size == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=complex)
    u, s, vh = np.linalg.svd(m)
    cut = tol_rank * _require_finite(s[0], "the largest singular value")
    r = int(np.count_nonzero(s > cut))  # r = 0 gives the zero matrix
    return vh[:r].conj().T @ ((u[:, :r].conj().T) / s[:r, None])


def matrix_rank(a, tol_rank: float = TOL_RANK, scale: float | None = None) -> int:
    """Numerical rank: singular values above tol_rank * scale, where scale
    defaults to the largest singular value of ``a`` itself."""
    m = as_matrix(a)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    _require_finite(s[0], "the largest singular value")
    ref = s[0] if scale is None else scale
    return int(np.count_nonzero(s > tol_rank * ref))


def _require_finite(value: float, what: str) -> float:
    """``value``, unless it overflowed: an infinite reference would turn every
    threshold into inf and every matrix into zero."""
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} is not finite")
    return value


def index(a, tol_rank: float = TOL_RANK) -> int:
    """Least q >= 0 with rank(A^{q+1}) = rank(A^q)."""
    return _index_and_rank(require_square(as_matrix(a)), tol_rank)[0]


def _index_and_rank(m: np.ndarray, tol_rank: float) -> tuple[int, int]:
    """``index`` of a validated square matrix together with rank(A^index),
    which its loop has computed on the way."""
    n = m.shape[0]
    prev = n  # rank of A^0
    power = np.eye(n, dtype=complex)
    for q in range(n + 1):
        # an overflowing power is reported by matrix_rank's NonFiniteError
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ m
        r = matrix_rank(power, tol_rank)
        if r == prev:
            return q, prev
        prev = r
    return n, prev


@dataclass(frozen=True)
class CoreNilpotentDecomposition:
    """A = S (B ⊕ N) S^{-1} with B invertible and N nilpotent."""

    similarity: np.ndarray
    core: np.ndarray
    nilpotent: np.ndarray
    core_size: int


def _zero_threshold(m: np.ndarray, tol_zero: float, scale: float | None) -> float:
    """tol_zero times max(1, ref), where ref is ``scale`` or else ||A||_F."""
    with np.errstate(over="ignore"):
        ref = _require_finite(fro(m) if scale is None else scale, "the zero-threshold reference")
    return tol_zero * max(1.0, ref)


def _group_inverse_by_svd(
    m: np.ndarray, tol_zero: float, tol_rank: float, scale: float | None, core_size: int | None
):
    """F (G F)^{-2} G from one SVD A = U S V^H, with F = U_r S_r and G = V_r^H,
    or None where it cannot be sure to decide as ``_split`` would.

    A sigma_max at or below the zero threshold bounds every eigenvalue
    modulus, so A is all nilpotent and the inverse is zero.  Otherwise r
    counts the singular values above tol_rank * sigma_max, as ``matrix_rank``
    does, and the branch gives way when a dropped singular value is above
    the zero threshold (r = 0 among them), when rank(A^2) != r (the index
    loop's own test, or its ``core_size`` when the caller ran the loop), or
    when |det(G F)|^{1/r}, a lower bound on the spectral radius, is at or
    below the zero threshold."""
    n = m.shape[0]
    thresh = _zero_threshold(m, tol_zero, scale)
    u, s, vh = np.linalg.svd(m)
    if not n or _require_finite(s[0], "the largest singular value") <= thresh:
        return np.zeros((n, n), dtype=complex)
    r = int(np.count_nonzero(s > tol_rank * s[0]))
    if r < n and s[r] > thresh:
        return None
    if r < n and (matrix_rank(m @ m, tol_rank) if core_size is None else core_size) != r:
        return None
    f = u[:, :r] * s[:r]
    g = vh[:r]
    gf = g @ f
    if math.exp(np.linalg.slogdet(gf)[1] / r) <= thresh:
        return None
    return f @ np.linalg.solve(gf, np.linalg.solve(gf, g))


def _split(m: np.ndarray, tol_zero: float, tol_rank: float, scale: float | None, core_size: int | None):
    """(Z, B, N, k, R) with Z unitary and A = Z [[I, R], [0, I]] (B ⊕ N) [[I, -R], [0, I]] Z^H,
    from one complex Schur form A = Z T Z^H.

    k is 0 when every |T_ii| is below the zero threshold, else rank(A^index)
    from the index loop or the caller's ``core_size``.  A cutoff in the gap
    of diag(T) picks the k core eigenvalues for ``ztrsen`` (a defective zero
    cluster of size q scatters to about eps^(1/q), past a plain threshold),
    and ``ztrsyl`` solves B R - R N = -T12.  Nilpotent diagonal entries below
    the threshold are zeroed, so exact inputs give exactly nilpotent blocks."""
    import scipy.linalg  # here, not at the top: it would be most of `import lme`

    n = m.shape[0]
    thresh = _zero_threshold(m, tol_zero, scale)
    t, z = scipy.linalg.schur(m, output="complex")
    moduli = np.abs(np.diag(t))
    if n and moduli.max() <= thresh:
        k = 0  # all nilpotent; no rank test needed
    else:
        k = _index_and_rank(m, tol_rank)[1] if core_size is None else core_size
    if 0 < k < n:
        hi, lo = np.sort(moduli)[::-1][k - 1 : k + 1]
        if hi > 2.0 * lo:
            cutoff = np.sqrt(hi * max(lo, 1e-300 * hi)) if lo > 0 else hi / 2.0
        else:
            cutoff = thresh  # no usable gap; fall back to the plain threshold
        t, z, _, k, _, _, info = scipy.linalg.lapack.ztrsen(moduli > cutoff, t, z, job="N")
        if info:
            raise np.linalg.LinAlgError(f"ztrsen failed with info={info}")
    core = t[:k, :k].copy()
    nil = t[k:, k:].copy()
    small = np.flatnonzero(np.abs(np.diag(nil)) <= thresh)
    nil[small, small] = 0.0
    r = np.zeros_like(t[:k, k:])
    if fro(t[:k, k:]) > 0:
        x, sylvester_scale, info = scipy.linalg.lapack.ztrsyl(core, nil, -t[:k, k:], isgn=-1)
        if info < 0:
            raise np.linalg.LinAlgError(f"ztrsyl: illegal value in argument {-info}")
        r = x / sylvester_scale
    return z, core, nil, k, r


def core_nilpotent(
    a,
    tol_zero: float = TOL_ZERO,
    tol_rank: float = TOL_RANK,
    scale: float | None = None,
) -> CoreNilpotentDecomposition:
    """Split A into an invertible core and a nilpotent remainder, with the
    similarity Z [[I, R], [0, I]] of ``_split``, which runs the index loop
    unless A is all nilpotent.  ``scale`` overrides the zero-threshold
    reference: callers whose matrix is a residue of cancellations (a
    coefficient sum that vanishes in exact arithmetic) pass the scale of the
    uncancelled inputs, so a noise-level matrix is split as all-nilpotent
    rather than inverted.  An overflowing Frobenius norm or a ``scale`` that
    is not finite raises ``NonFiniteError``."""
    z, core, nil, k, r = _split(require_square(as_matrix(a)), tol_zero, tol_rank, scale, None)
    if r.any():
        upper = np.eye(z.shape[0], dtype=complex)
        upper[:k, k:] = r
        z = z @ upper
    return CoreNilpotentDecomposition(z, core, nil, k)


def _inverse_of_split(z, core, _, k, r) -> np.ndarray:
    """Z[:, :k] B^{-1} [I, -R] Z^H: the similarity's inverse is [[I, -R], [0, I]] Z^H."""
    return z[:, :k] @ np.linalg.solve(core, z[:, :k].conj().T - r @ z[:, k:].conj().T)


def drazin(
    a,
    tol_zero: float = TOL_ZERO,
    tol_rank: float = TOL_RANK,
    scale: float | None = None,
) -> np.ndarray:
    """Drazin inverse: the group inverse from one SVD where that branch
    decides, else from ``_split``, which runs the index loop unless A is all
    nilpotent, inverting only the k×k core; ``scale`` is as in ``core_nilpotent``."""
    m = require_square(as_matrix(a))
    x = _group_inverse_by_svd(m, tol_zero, tol_rank, scale, None)
    return _inverse_of_split(*_split(m, tol_zero, tol_rank, scale, None)) if x is None else x


def group_inverse(a, tol_rank: float = TOL_RANK, tol_zero: float = TOL_ZERO) -> np.ndarray:
    """Drazin inverse restricted to matrices of index at most one; the one
    index loop rejects index > 1 and gives its core size to the branch of
    ``drazin`` and, where that gives way, to ``_split``."""
    m = require_square(as_matrix(a))
    q, rank = _index_and_rank(m, tol_rank)
    if q > 1:
        raise IndexTooLargeError(f"matrix has index {q}, group inverse needs index <= 1")
    x = _group_inverse_by_svd(m, tol_zero, tol_rank, None, rank)
    return _inverse_of_split(*_split(m, tol_zero, tol_rank, None, rank)) if x is None else x
