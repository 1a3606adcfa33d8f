"""Generalized inverses: Moore-Penrose, Drazin, group inverse, matrix index.

``drazin`` and ``group_inverse`` run the index loop first, the only code
that forms powers of A, from the full SVD A = U S V^H.  At index at most one
the group inverse is read off that SVD: with F = U_r S_r and G = V_r^H,
A^# = F (G F)^{-2} G (Cline 1968), which covers the coefficient sums of
commuting diagonalizable families.  At index two or more, or where Cline
gives way, the core-nilpotent split runs: a complex Schur form reordered by
LAPACK ``trsen`` and a triangular Sylvester solve by LAPACK ``trsyl``, of
which ``drazin`` inverts only the core block.  ``core_nilpotent`` runs the
split alone.

The split is the package's only use of scipy and imports ``scipy.linalg``
when it first runs.  Importing lme, solving, ``check_consistent``, the CLI's
reports, the oracle and pair recovery never load scipy; ``core_nilpotent``
and a Drazin inverse of index two or more do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

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
    r = _count_rank(s, tol_rank)  # r = 0 gives the zero matrix
    return vh[:r].conj().T @ ((u[:, :r].conj().T) / s[:r, None])


def matrix_rank(a, tol_rank: float = TOL_RANK, scale: float | None = None) -> int:
    """Numerical rank: singular values above tol_rank * scale, where scale
    defaults to the largest singular value of ``a`` itself."""
    m = as_matrix(a)
    return _count_rank(np.linalg.svd(m, compute_uv=False), tol_rank, scale) if m.size else 0


def _count_rank(s: np.ndarray, tol_rank: float, scale: float | None = None) -> int:
    """The count of ``matrix_rank`` from the descending singular values ``s``."""
    if not s.size:
        return 0
    _require_finite(s[0], "the largest singular value")
    return int(np.count_nonzero(s > tol_rank * (s[0] if scale is None else scale)))


def _require_finite(value: float, what: str) -> float:
    """``value``, unless it overflowed: an infinite reference would turn every
    threshold into inf and every matrix into zero."""
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} is not finite")
    return value


def index(a, tol_rank: float = TOL_RANK) -> int:
    """Least q >= 0 with rank(A^{q+1}) = rank(A^q)."""
    return [*_index_loop(require_square(as_matrix(a)), tol_rank)][-1][0]


def _index_loop(m: np.ndarray, tol_rank: float, s: np.ndarray | None = None):
    """Yield (q, rank(A^(q+1)), done) for q = 0, 1, ... of a validated square
    matrix, done when rank(A^(q+1)) = rank(A^q), q being the ``index``, or
    q = n.  Each step forms one more power, only when asked for.  rank(A)
    comes from ``s``, the full SVD's values in ``drazin`` and
    ``group_inverse``, else a values-only SVD's (``index``,
    ``core_nilpotent``); the two may differ in the last bits, and so count
    a singular value at tol_rank * sigma_max apart."""
    n = m.shape[0]
    s = np.linalg.svd(m, compute_uv=False) if s is None else s
    q, prev, rank, power = 0, n, _count_rank(s, tol_rank), m
    while rank != prev and q < n:
        yield q, rank, False
        # an overflowing power is reported by a NonFiniteError naming it
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ m
        q, prev, rank = q + 1, rank, matrix_rank(as_matrix(power, f"A^{q + 2}"), tol_rank)
    yield q, rank, True


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


def _group_inverse_by_svd(u: np.ndarray, s: np.ndarray, vh: np.ndarray, r: int, thresh: float):
    """F (G F)^{-2} G with F = U_r S_r and G = V_r^H, from the SVD A = U S V^H
    of a matrix of index at most one and rank r, or None where it cannot be
    sure to decide as ``_split`` would: when |det(G F)|^{1/r}, a lower bound
    on the spectral radius, is at or below the zero threshold ``thresh``."""
    f = u[:, :r] * s[:r]
    g = vh[:r]
    gf = g @ f
    if math.exp(np.linalg.slogdet(gf)[1] / r) <= thresh:
        return None
    return f @ np.linalg.solve(gf, np.linalg.solve(gf, g))


def _split(m: np.ndarray, thresh: float, steps):
    """(Z, B, N, k, R) with Z unitary and A = Z [[I, R], [0, I]] (B ⊕ N) [[I, -R], [0, I]] Z^H,
    from one complex Schur form A = Z T Z^H.

    k is 0 when every |T_ii| is at or below the zero threshold ``thresh``,
    else the rank in the last of ``steps``, the rest of an index loop.  A
    cutoff in the gap of diag(T) picks the k core eigenvalues for ``ztrsen``
    (a defective zero cluster of size q scatters to about eps^(1/q)), and
    ``ztrsyl`` solves B R - R N = -T12.  Nilpotent diagonal entries at or
    below the threshold are zeroed: exact inputs give exactly nilpotent N."""
    import scipy.linalg  # here, not at the top: it would be most of `import lme`

    n = m.shape[0]
    t, z = scipy.linalg.schur(m, output="complex")
    moduli = np.abs(np.diag(t))
    k = 0 if n and moduli.max() <= thresh else [*steps][-1][1]  # all nilpotent: no rank test needed
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
    m = require_square(as_matrix(a))
    z, core, nil, k, r = _split(m, _zero_threshold(m, tol_zero, scale), _index_loop(m, tol_rank))
    if r.any():
        upper = np.eye(z.shape[0], dtype=complex)
        upper[:k, k:] = r
        z = z @ upper
    return CoreNilpotentDecomposition(z, core, nil, k)


def _inverse_of_split(z, core, _, k, r) -> np.ndarray:
    """Z[:, :k] B^{-1} [I, -R] Z^H: the similarity's inverse is [[I, -R], [0, I]] Z^H."""
    return z[:, :k] @ np.linalg.solve(core, z[:, :k].conj().T - r @ z[:, k:].conj().T)


def _drazin(m: np.ndarray, tol_zero: float, tol_rank: float, scale: float | None, group: bool) -> np.ndarray:
    """``drazin``, or with ``group`` ``group_inverse`` (which runs the loop to
    its end and rejects index > 1 first), of a validated square matrix.  A
    sigma_max at or below the zero threshold bounds every eigenvalue modulus,
    so the inverse is zero.  The split reads its Schur diagonal before the
    loop goes on past A^2, so an all-nilpotent A forms no further power."""
    n = m.shape[0]
    u, s, vh = np.linalg.svd(m)
    loop = _index_loop(m, tol_rank, s)
    step = [*loop][-1] if group else None
    if step and step[0] > 1:
        raise IndexTooLargeError(f"matrix has index {step[0]}, group inverse needs index <= 1")
    thresh = _zero_threshold(m, tol_zero, scale)
    if not n or _require_finite(s[0], "the largest singular value") <= thresh:
        return np.zeros((n, n), dtype=complex)
    q, r, done = step or next(loop)
    cline = r == n or s[r] <= thresh  # no dropped singular value above it (r = 0 drops all)
    if cline and not done:
        q, r, done = next(loop)  # rank(A^2): index 1, or 2 or more
    x = _group_inverse_by_svd(u, s, vh, r, thresh) if cline and done else None
    return _inverse_of_split(*_split(m, thresh, chain([(q, r, done)], loop))) if x is None else x


def drazin(
    a,
    tol_zero: float = TOL_ZERO,
    tol_rank: float = TOL_RANK,
    scale: float | None = None,
) -> np.ndarray:
    """Drazin inverse: the index loop, then Cline's formula from its SVD at
    index <= 1, or else ``_split``, inverting only the k×k core; ``scale`` is
    as in ``core_nilpotent``."""
    return _drazin(require_square(as_matrix(a)), tol_zero, tol_rank, scale, False)


def group_inverse(a, tol_rank: float = TOL_RANK, tol_zero: float = TOL_ZERO) -> np.ndarray:
    """Drazin inverse restricted to matrices of index at most one: as
    ``drazin``, but the index loop runs to its end first and index > 1
    raises ``IndexTooLargeError``, even for an A below the zero threshold."""
    return _drazin(require_square(as_matrix(a)), tol_zero, tol_rank, None, True)
