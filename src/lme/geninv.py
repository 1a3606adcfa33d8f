"""Generalized inverses: Moore-Penrose, Drazin, group inverse, matrix index.

The index and the core size are read off a rank staircase of SVDs
(``_staircase``; Kågström & Ruhe 1980, Golub & Wilkinson 1976), and no
power of A is formed.  ``drazin`` and ``group_inverse`` take the full SVD
A = U S V^H as its step 0.  At index at most one the group inverse is
Cline's F (G F)^{-2} G (1968), F = U_r S_r and G = V_r^H, and step 1, the
SVD of that r×r G F, decides the index: one SVD for an invertible
coefficient sum, two for a singular one.  Elsewhere the core-nilpotent split
runs: one complex Schur form reordered by LAPACK ``trsen`` and a triangular
Sylvester solve by ``trsyl``, of which ``drazin`` inverts only the core.

The split is the package's only use of scipy, imported when it first runs:
``core_nilpotent`` loads it, and so does a Drazin inverse of index two or
more or where Cline gives way; ``index`` and the solve path never do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexTooLargeError, NonFiniteError
from .matcore import as_matrix, fro, require_square
from .tolerances import TOL_RANK, TOL_ZERO, bound

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
    r = _count_rank(s, tol_rank)  # r = 0 gives the zero matrix
    return vh[:r].conj().T @ ((u[:, :r].conj().T) / s[:r, None])


def matrix_rank(a, tol_rank: float = TOL_RANK) -> int:
    """Numerical rank: singular values above tol_rank times the largest
    singular value of ``a``."""
    m = as_matrix(a)
    return _count_rank(np.linalg.svd(m, compute_uv=False), tol_rank) if m.size else 0


def _count_rank(s: np.ndarray, tol_rank: float, scale: float | None = None) -> int:
    """The count of ``matrix_rank`` from the descending singular values ``s``."""
    ref = _require_finite(s[0], "the largest singular value") if s.size else 0.0
    return int(np.count_nonzero(s > tol_rank * (ref if scale is None else scale)))


def _require_finite(value: float, what: str) -> float:
    """``value``, unless it overflowed: an infinite reference would turn every
    threshold into inf and every matrix into zero."""
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} is not finite")
    return value


def index(a, tol_rank: float = TOL_RANK) -> int:
    """Least q >= 0 with rank(A^{q+1}) = rank(A^q), read off the staircase."""
    return _staircase(require_square(a), 0, tol_rank)[1]


def _staircase(m: np.ndarray, q: int, tol_rank: float, ref: float | None = None, stop: int | None = None):
    """The rank staircase from the state (M_q, q), M_0 = A: while the SVD
    M = U S V^H has rank r below its size, counted against tol_rank * ref,
    ref = sigma_max(A) (read at step 0 when None), M becomes the r×r
    V_r^H M V_r = G F with F = U_r S_r, G = V_r^H, and q counts the step.
    As A^(q+1) = F_0 ... F_(q-1) M_q G_(q-1) ... G_0 with full-rank factors,
    M_q has size rank(A^q) and rank rank(A^(q+1)).  Returns the state at the
    first M of full rank, q the index and its size the core size, or,
    untested, at step ``stop``."""
    while m.size and q != stop:
        u, s, vh = np.linalg.svd(m)
        ref = s[0] if ref is None else ref
        r = _count_rank(s, tol_rank, ref)
        if r == len(s):
            break
        m, q = vh[:r] @ (u[:, :r] * s[:r]), q + 1
    return m, q


@dataclass(frozen=True)
class CoreNilpotentDecomposition:
    """A = S (B ⊕ N) S^{-1} with B invertible and N nilpotent."""

    similarity: np.ndarray
    core: np.ndarray
    nilpotent: np.ndarray
    core_size: int


def _zero_threshold(m: np.ndarray, tol_zero: float, scale: float | None) -> float:
    """``bound(tol_zero, ref)``, where ref is ``scale`` or else ||A||_F."""
    with np.errstate(over="ignore"):
        ref = _require_finite(fro(m) if scale is None else scale, "the zero-threshold reference")
    return bound(tol_zero, ref)


def _split(m: np.ndarray, thresh: float, core_size):
    """(Z, B, N, k, R) with Z unitary and A = Z [[I, R], [0, I]] (B ⊕ N) [[I, -R], [0, I]] Z^H,
    from one complex Schur form A = Z T Z^H.

    k is 0 when every |T_ii| is at or below the zero threshold ``thresh``,
    else ``core_size()``, which the staircase answers only then.  A cutoff in
    the gap of diag(T) picks the k core eigenvalues for ``ztrsen`` (a
    defective zero cluster of size q scatters to about eps^(1/q)), and
    ``ztrsyl`` solves B R - R N = -T12.  Nilpotent diagonal entries at or
    below the threshold are zeroed: exact inputs give exactly nilpotent N."""
    import scipy.linalg  # here, not at the top: it would be most of `import lme`

    n = m.shape[0]
    t, z = scipy.linalg.schur(m, output="complex")
    moduli = np.abs(np.diag(t))
    k = 0 if n and moduli.max() <= thresh else core_size()  # all nilpotent: no rank test needed
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
    similarity Z [[I, R], [0, I]] of ``_split``.  ``scale`` overrides the zero-threshold
    reference: callers whose matrix is a residue of cancellations (a
    coefficient sum that vanishes in exact arithmetic) pass the scale of the
    uncancelled inputs, so a noise-level matrix is split as all-nilpotent
    rather than inverted.  An overflowing Frobenius norm or a ``scale`` that
    is not finite raises ``NonFiniteError``."""
    m = require_square(a)
    thresh = _zero_threshold(m, tol_zero, scale)
    z, core, nil, k, r = _split(m, thresh, lambda: len(_staircase(m, 0, tol_rank)[0]))
    if r.any():
        upper = np.eye(z.shape[0], dtype=complex)
        upper[:k, k:] = r
        z = z @ upper
    return CoreNilpotentDecomposition(z, core, nil, k)


def _inverse_of_split(z, core, _, k, r) -> np.ndarray:
    """Z[:, :k] B^{-1} [I, -R] Z^H: the similarity's inverse is [[I, -R], [0, I]] Z^H."""
    return z[:, :k] @ np.linalg.solve(core, z[:, :k].conj().T - r @ z[:, k:].conj().T)


def _drazin(m: np.ndarray, tol_zero: float, tol_rank: float, scale: float | None, group: bool, svd=None) -> np.ndarray:
    """``drazin``, or with ``group`` ``group_inverse`` (which runs the
    staircase to its end and rejects index > 1 first), of a validated square
    matrix, from ``svd`` = ``np.linalg.svd(m)`` when given.  A sigma_max at
    or below the zero threshold bounds every eigenvalue modulus, so the
    inverse is zero.  Cline's formula needs no dropped singular value above
    the threshold, index <= 1 and |det(G F)|^{1/r}, a lower bound on the
    spectral radius, above it."""
    n = m.shape[0]
    u, s, vh = np.linalg.svd(m) if svd is None else svd
    ref = s[0] if n else 0.0
    # counted without _count_rank's check: an infinite ref is reported below,
    # by group_inverse's staircase or after drazin's zero-threshold reference
    r = int(np.count_nonzero(s > tol_rank * ref))
    f, g = u[:, :r] * s[:r], vh[:r]
    gf = g @ f
    stair = (gf, 1) if r < n else None  # M_1, untested; None once the core size r is known
    if group and stair:
        q = _staircase(*stair, tol_rank, _require_finite(ref, "the largest singular value"))[1]
        if q > 1:
            raise IndexTooLargeError(f"matrix has index {q}, group inverse needs index <= 1")
        stair = None
    thresh = _zero_threshold(m, tol_zero, scale)
    if _require_finite(ref, "the largest singular value") <= thresh:  # n = 0 too
        return np.zeros((n, n), dtype=complex)
    cline = r == n or s[r] <= thresh  # no dropped singular value above it (r = 0 drops all)
    if cline and stair:
        m2, q = _staircase(*stair, tol_rank, ref, stop=2)  # index 1 at step 1, or 2 or more
        stair = (m2, q) if q == 2 else None
    if cline and not stair and math.exp(np.linalg.slogdet(gf)[1] / r) > thresh:
        return f @ np.linalg.solve(gf, np.linalg.solve(gf, g))

    def core_size() -> int:  # asked only when the Schur diagonal is not all at or below thresh
        return len(_staircase(*stair, tol_rank, ref)[0]) if stair else r

    return _inverse_of_split(*_split(m, thresh, core_size))


def drazin(
    a,
    tol_zero: float = TOL_ZERO,
    tol_rank: float = TOL_RANK,
    scale: float | None = None,
    *,
    _svd=None,
) -> np.ndarray:
    """Drazin inverse: Cline's formula from the staircase's first two steps
    at index <= 1, or else ``_split``, inverting only the k×k core; ``scale``
    is as in ``core_nilpotent``.  ``_svd`` is private: a caller that holds
    ``np.linalg.svd`` of A already passes it, and step 0 reuses it."""
    return _drazin(require_square(a), tol_zero, tol_rank, scale, False, _svd)


def group_inverse(a, tol_rank: float = TOL_RANK, tol_zero: float = TOL_ZERO) -> np.ndarray:
    """Drazin inverse restricted to matrices of index at most one: as
    ``drazin``, but the staircase runs to its end first and index > 1
    raises ``IndexTooLargeError``, even for an A below the zero threshold."""
    return _drazin(require_square(a), tol_zero, tol_rank, None, True)
