"""Generalized inverses: Moore-Penrose, Drazin, group inverse, matrix index.

The Drazin inverse is computed through a core-nilpotent split that one
complex Schur form feeds: its diagonal gives the eigenvalues, LAPACK
``trsen`` reorders it so the near-zero eigenvalues trail, LAPACK ``trsyl``
solves the triangular Sylvester equation that removes the coupling, and the
core block is inverted.

That split is the package's only use of scipy, so ``core_nilpotent`` imports
``scipy.linalg`` when it first runs.  Importing lme, solving, the oracle and
pair recovery never load scipy; the Drazin candidate of the consistency
evidence (``x_hat``, ``check_consistent``) does.
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
    r = int(np.count_nonzero(s > cut))
    if r == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=complex)
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


def core_nilpotent(
    a,
    tol_zero: float = TOL_ZERO,
    tol_rank: float = TOL_RANK,
    scale: float | None = None,
) -> CoreNilpotentDecomposition:
    """Split A into an invertible core and a nilpotent remainder.

    One complex Schur form A = Z T Z^H feeds every step.  The core size is
    the rank of A^index(A), read off the loop that finds the index; a
    modulus cutoff placed in the spectral gap of diag(T) selects the core
    eigenvalues, and ``ztrsen`` reorders T and Z in place so that they lead
    (the reordering ``gees`` runs when it sorts).  ``ztrsyl`` then solves
    B R - R N = -T12 on the triangular blocks.  A plain threshold at
    tol_zero * max(1, ||A||_F) cannot do this job because a defective zero
    cluster of size k scatters its computed eigenvalues to roughly
    eps^(1/k).  Nilpotent-block diagonal entries below the plain
    threshold are zeroed, so exact inputs produce exactly nilpotent blocks.

    ``scale`` overrides the zero-threshold reference; callers whose matrix is
    a residue of cancellations (for example a coefficient sum that vanishes
    exactly in exact arithmetic) pass the scale of the uncancelled inputs so
    a noise-level matrix is split as all-nilpotent rather than inverted.  A
    Frobenius norm that overflows, or a ``scale`` that is not finite, raises
    ``NonFiniteError``.
    """
    import scipy.linalg  # here, not at the top: it would be most of `import lme`

    m = require_square(as_matrix(a))
    n = m.shape[0]
    with np.errstate(over="ignore"):
        ref = _require_finite(fro(m) if scale is None else scale, "the zero-threshold reference")
    thresh = tol_zero * max(1.0, ref)
    t, z = scipy.linalg.schur(m, output="complex")
    moduli = np.abs(np.diag(t))
    if n and moduli.max() <= thresh:
        k = 0  # all nilpotent; no rank test needed
    else:
        k = _index_and_rank(m, tol_rank)[1]
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
    coupling = t[:k, k:]
    if fro(coupling) > 0:
        # decouple: [[I, R],[0, I]]^{-1} [[B, T12],[0, N]] [[I, R],[0, I]]
        # is block diagonal when B R - R N = -T12, a triangular Sylvester equation
        x, sylvester_scale, info = scipy.linalg.lapack.ztrsyl(core, nil, -coupling, isgn=-1)
        if info < 0:
            raise np.linalg.LinAlgError(f"ztrsyl: illegal value in argument {-info}")
        upper = np.eye(n, dtype=complex)
        upper[:k, k:] = x / sylvester_scale
        z = z @ upper
    return CoreNilpotentDecomposition(z, core, nil, k)


def drazin(
    a,
    tol_zero: float = TOL_ZERO,
    tol_rank: float = TOL_RANK,
    scale: float | None = None,
) -> np.ndarray:
    """Drazin inverse S (B^{-1} ⊕ 0) S^{-1} from the core-nilpotent split."""
    dec = core_nilpotent(a, tol_zero, tol_rank, scale)
    n = dec.similarity.shape[0]
    k = dec.core_size
    block = np.zeros((n, n), dtype=complex)
    if k:
        block[:k, :k] = np.linalg.inv(dec.core)
    return dec.similarity @ block @ np.linalg.inv(dec.similarity)


def group_inverse(a, tol_rank: float = TOL_RANK, tol_zero: float = TOL_ZERO) -> np.ndarray:
    """Drazin inverse restricted to matrices of index at most one."""
    q = index(a, tol_rank)
    if q > 1:
        raise IndexTooLargeError(f"matrix has index {q}, group inverse needs index <= 1")
    return drazin(a, tol_zero, tol_rank)
