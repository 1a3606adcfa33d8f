"""Random problem generators for verification sweeps and tests.

Families are built from a shared, well-conditioned diagonalizer and
eigenvalue vectors drawn from a small exact alphabet, so that relevant-matrix
cells are either exactly zero or bounded away from zero by a fixed margin.
That makes consistency verdicts and solution-space dimensions integer-exact
and lets the structured solver be compared to the brute-force oracle without
tolerance ambiguity.
"""

from __future__ import annotations

import numpy as np

from .equations import EquationSpec, equation_spec

__all__ = [
    "ALPHABET",
    "haar_unitary",
    "random_diagonalizer",
    "random_eigenvalue_vector",
    "random_family",
    "random_equation_instance",
    "random_normal",
    "random_index2",
    "random_commuting_triple",
]

# Gaussian-integer-flavored values: sums and products of a few of them are
# either exactly zero or at least 1/4 in modulus.
ALPHABET = np.array([0, 1, -1, 2, 1 + 1j, -1j], dtype=complex)
_NONZERO = ALPHABET[np.abs(ALPHABET) > 0]


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary matrix (QR of a complex Gaussian sample with
    the phase convention fixed)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_diagonalizer(rng: np.random.Generator, n: int, spread: float = 2.0) -> np.ndarray:
    """Invertible matrix with condition number at most ``spread``."""
    s = rng.uniform(1.0, spread, size=n)
    return haar_unitary(rng, n) @ (s[:, None] * haar_unitary(rng, n))


def random_eigenvalue_vector(rng: np.random.Generator, n: int, pool: int = 3) -> np.ndarray:
    """Eigenvalue vector sampled from a small sub-alphabet, so repeated
    eigenvalues are frequent."""
    values = ALPHABET[rng.choice(len(ALPHABET), size=min(pool, len(ALPHABET)), replace=False)]
    return values[rng.integers(0, len(values), size=n)]


def _assemble(s: np.ndarray, s_inv: np.ndarray, vec: np.ndarray) -> np.ndarray:
    return s @ (vec[:, None] * s_inv)


def random_family(rng: np.random.Generator, n: int, count: int, unitary: bool = False):
    """``count`` commuting diagonalizable matrices sharing one diagonalizer.

    Returns (S, eigenvalue_vectors, members); with ``unitary`` the shared
    diagonalizer is unitary and every member is normal.
    """
    s = haar_unitary(rng, n) if unitary else random_diagonalizer(rng, n)
    s_inv = np.linalg.inv(s)
    vectors = [random_eigenvalue_vector(rng, n) for _ in range(count)]
    members = [_assemble(s, s_inv, v) for v in vectors]
    return s, vectors, members


def random_equation_instance(
    rng: np.random.Generator,
    n: int,
    k: int,
    zero_diag_rows: int = 0,
    inconsistent: bool = False,
    unitary: bool = False,
) -> tuple[EquationSpec, dict]:
    """Equation data with known structure.

    ``zero_diag_rows`` forces that many diagonal cells of the relevant matrix
    to vanish; with ``inconsistent`` the right-hand side is made nonzero on
    one such row (which requires at least one forced row).  Returns the spec
    and an info dict with the generating diagonalizer and eigenvalue vectors.
    """
    if inconsistent and zero_diag_rows < 1:
        raise ValueError("an inconsistent instance needs at least one forced zero row")
    s = haar_unitary(rng, n) if unitary else random_diagonalizer(rng, n)
    s_inv = np.linalg.inv(s)
    avecs = [random_eigenvalue_vector(rng, n) for _ in range(k)]
    bvecs = [random_eigenvalue_vector(rng, n) for _ in range(k)]
    forced = rng.choice(n, size=min(zero_diag_rows, n), replace=False)
    for r in forced:
        if k == 1:
            bvecs[0][r] = 0.0
        else:
            if abs(avecs[-1][r]) == 0:
                avecs[-1][r] = _NONZERO[rng.integers(0, len(_NONZERO))]
            partial = sum(avecs[j][r] * bvecs[j][r] for j in range(k - 1))
            bvecs[-1][r] = -partial / avecs[-1][r]
    gamma_diag = sum(a * b for a, b in zip(avecs, bvecs))
    zero_rows = np.abs(gamma_diag) < 1e-9
    cvec = random_eigenvalue_vector(rng, n)
    if inconsistent:
        bad = forced[0]
        cvec[bad] = _NONZERO[rng.integers(0, len(_NONZERO))]
        zero_rows_other = zero_rows.copy()
        zero_rows_other[bad] = False
        cvec[zero_rows_other] = 0.0
    else:
        cvec[zero_rows] = 0.0
    spec = equation_spec(
        [_assemble(s, s_inv, v) for v in avecs],
        [_assemble(s, s_inv, v) for v in bvecs],
        _assemble(s, s_inv, cvec),
    )
    info = {"S": s, "a_vectors": avecs, "b_vectors": bvecs, "c_vector": cvec}
    return spec, info


def random_normal(rng: np.random.Generator, n: int, zero_fraction: float = 0.2) -> np.ndarray:
    """Normal matrix; roughly ``zero_fraction`` of its eigenvalues are zero."""
    u = haar_unitary(rng, n)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w[rng.random(n) < zero_fraction] = 0.0
    return u @ (w[:, None] * u.conj().T)


def random_index2(rng: np.random.Generator, n: int) -> np.ndarray:
    """Matrix of index exactly two: an invertible block plus a 2x2 nilpotent
    Jordan block, conjugated by a well-conditioned similarity."""
    if n < 2:
        raise ValueError("index-2 construction needs n >= 2")
    diag = np.zeros(n, dtype=complex)
    diag[: n - 2] = _NONZERO[rng.integers(0, len(_NONZERO), size=n - 2)]
    core = np.diag(diag)
    core[n - 2, n - 1] = 1.0
    s = random_diagonalizer(rng, n)
    return s @ core @ np.linalg.inv(s)


def random_commuting_triple(rng: np.random.Generator, n: int, unitary: bool = False):
    """Commuting diagonalizable (A, B, C) for the named-form solvers."""
    _, _, members = random_family(rng, n, 3, unitary=unitary)
    return tuple(members)
