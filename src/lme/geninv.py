"""Generalized inverses: Moore-Penrose, Drazin, group inverse, matrix index.

The Drazin inverse is computed through a Schur-based core-nilpotent split:
eigenvalues below the zero threshold are sorted to the trailing block, the
coupling is removed with a Sylvester solve, and the core block is inverted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import IndexTooLargeError
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
    cut = tol_rank * s[0] if s.size else 0.0
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
    ref = s[0] if scale is None else scale
    return int(np.count_nonzero(s > tol_rank * ref))


def index(a, tol_rank: float = TOL_RANK) -> int:
    """Least q >= 0 with rank(A^{q+1}) = rank(A^q)."""
    m = require_square(as_matrix(a))
    n = m.shape[0]
    prev = n  # rank of A^0
    power = np.eye(n, dtype=complex)
    for q in range(n + 1):
        power = power @ m
        r = matrix_rank(power, tol_rank)
        if r == prev:
            return q
        prev = r
    return n


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

    The core size is the rank of A^index(A); a modulus cutoff placed in the
    spectral gap then sorts the Schur form so the core eigenvalues lead.  A
    plain threshold at tol_zero * max(1, ||A||_F) cannot do this job because
    a defective zero cluster of size k scatters its computed eigenvalues to
    roughly eps^(1/k).  Nilpotent-block diagonal entries below the plain
    threshold are zeroed, so exact inputs produce exactly nilpotent blocks.

    ``scale`` overrides the zero-threshold reference; callers whose matrix is
    a residue of cancellations (for example a coefficient sum that vanishes
    exactly in exact arithmetic) pass the scale of the uncancelled inputs so
    a noise-level matrix is split as all-nilpotent rather than inverted.
    """
    m = require_square(as_matrix(a))
    n = m.shape[0]
    base = max(1.0, fro(m)) if scale is None else max(1.0, scale)
    thresh = tol_zero * base
    eigs = np.linalg.eigvals(m)
    if n and np.max(np.abs(eigs)) <= thresh:
        core_size = 0  # all nilpotent; no rank test needed
    else:
        q = index(m, tol_rank)
        core_size = matrix_rank(np.linalg.matrix_power(m, q), tol_rank) if q else n
    if core_size in (0, n):
        # all nilpotent or all core: the plain Schur form is already split
        t, z = scipy.linalg.schur(m, output="complex")
        k = core_size
    else:
        moduli = np.sort(np.abs(eigs))[::-1]
        hi, lo = moduli[core_size - 1], moduli[core_size]
        if hi > 2.0 * lo:
            cutoff = np.sqrt(hi * max(lo, 1e-300 * hi)) if lo > 0 else hi / 2.0
        else:
            cutoff = thresh  # no usable gap; fall back to the plain threshold
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
            # decouple: [[I, R],[0, I]]^{-1} [[B, T12],[0, N]] [[I, R],[0, I]]
            # is block diagonal when B R - R N = -T12
            r = scipy.linalg.solve_sylvester(core, -nil, -coupling)
            upper = np.eye(n, dtype=complex)
            upper[:k, k:] = r
            similarity = z @ upper
    return CoreNilpotentDecomposition(similarity, core, nil, k)


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
    return drazin(a, tol_zero)
