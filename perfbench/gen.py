"""Seeded inputs with planted truth, built without the ``lme`` package.

Every instance is ``M = S diag(m) S^-1`` over one shared, well-conditioned
diagonalizer ``S`` (condition number at most 2; unitary where a form needs
normal matrices), with eigenvalues from a small alphabet of Gaussian
integers.  Sums and products of such values are exact in floating point,
so the verdict, the dimension and the eigenvalue pairs of each instance are
known exactly from the planted vectors.

Each shape owns a fixed eigenvalue template, drawn from a generator seeded
by the shape's own ``template`` number.  The run seed then draws the
diagonalizer, the order of the indices, a unit "gauge" factor that changes
every eigenvalue while leaving the relevant matrix unchanged, and the
nonzero values of ``c``.  So the seed changes every matrix the program sees,
while the work a shape costs (its multiplicities and its dimension, which
sets the size of the dense basis) stays the same from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHABET = np.array(
    [0, 1, -1, 2, -2, 1j, -1j, 2j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=complex
)
NONZERO = ALPHABET[1:]
UNITS = np.array([1, -1, 1j, -1j], dtype=complex)
REAL_NONZERO = np.array([1, -1, 2, -2], dtype=complex)


@dataclass(frozen=True)
class EqShape:
    """One instance of ``sum_j A_j X B_j = C`` or of a named form.

    ``kind`` is ``general`` (k terms), ``sylvester``, ``stein``, ``clyap``
    or ``dlyap``; ``zero_rows`` forces that many diagonal cells of the
    relevant matrix to vanish, and ``inconsistent`` makes ``c`` nonzero on
    one of them.  ``pool`` is how many alphabet values each eigenvalue
    vector draws from: fewer values give more zero cells.
    """

    kind: str
    n: int
    k: int
    zero_rows: int
    inconsistent: bool
    unitary: bool
    pool: int
    template: int


@dataclass(frozen=True)
class PairShape:
    """A commuting pair (A, B); ``distinct`` A has n distinct eigenvalues,
    otherwise A takes ``levels`` distinct values with repeats."""

    n: int
    distinct: bool
    levels: int
    template: int


@dataclass
class EqInstance:
    shape: EqShape
    a_list: list  # left factors, as the equation uses them
    b_list: list  # right factors
    rhs: np.ndarray
    a_mat: np.ndarray | None  # named forms: the A (and B) a user passes
    b_mat: np.ndarray | None
    consistent: bool
    dimension: int


@dataclass
class PairInstance:
    shape: PairShape
    a: np.ndarray
    b: np.ndarray
    pairs: list  # planted (a_r, b_r) eigenvalue pairs


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def diagonalizer(rng: np.random.Generator, n: int, unitary: bool):
    """(S, S^-1) with cond(S) <= 2, or a Haar unitary S."""
    if unitary:
        u = haar_unitary(rng, n)
        return u, u.conj().T
    u, v = haar_unitary(rng, n), haar_unitary(rng, n)
    sv = rng.uniform(1.0, 2.0, size=n)
    return u @ (sv[:, None] * v), v.conj().T @ (u.conj().T / sv[:, None])


def _assemble(s, s_inv, vec) -> np.ndarray:
    return s @ (np.asarray(vec, dtype=complex)[:, None] * s_inv)


def _pool_vector(rng, n, pool) -> np.ndarray:
    values = ALPHABET[rng.choice(len(ALPHABET), size=pool, replace=False)]
    return values[rng.integers(0, pool, size=n)]


def _general_template(shape: EqShape, rng):
    n, k = shape.n, shape.k
    avecs = [_pool_vector(rng, n, shape.pool) for _ in range(k)]
    bvecs = [_pool_vector(rng, n, shape.pool) for _ in range(k)]
    forced = rng.choice(n, size=shape.zero_rows, replace=False)
    for r in forced:
        if k == 1:
            bvecs[0][r] = 0
        else:
            avecs[-1][r] = 1
            bvecs[-1][r] = -sum(avecs[j][r] * bvecs[j][r] for j in range(k - 1))
    return avecs, bvecs, forced


def _named_template(shape: EqShape, rng):
    """Eigenvalue vectors (a, b) of a named form; clyap and dlyap use b = a."""
    n = shape.n
    a = _pool_vector(rng, n, shape.pool)
    if shape.kind in ("clyap", "dlyap"):
        forced = rng.choice(n, size=shape.zero_rows, replace=False)
        # conj(a_r) + a_r = 0 needs a purely imaginary a_r;
        # conj(a_r) a_r = 1 needs a unit a_r
        a[forced] = 1j if shape.kind == "clyap" else -1
        return a, a, forced
    b = _pool_vector(rng, n, shape.pool)
    forced = rng.choice(n, size=shape.zero_rows, replace=False)
    for r in forced:
        if shape.kind == "sylvester":
            b[r] = -a[r]
        else:
            a[r] = 1j
            b[r] = -1j  # a_r b_r = 1
    return a, b, forced


def _terms(kind: str, a, b):
    """Eigenvalue vectors of the terms (A_j, B_j) of a named form."""
    one = np.ones_like(a)
    if kind == "sylvester":
        return [a, one], [one, b]
    if kind == "stein":
        return [a, -one], [b, one]
    if kind == "clyap":
        return [np.conj(a), one], [one, a]
    return [np.conj(a), -one], [a, one]


def _planted_c(shape: EqShape, gamma_diag, forced, rng) -> np.ndarray:
    values = REAL_NONZERO if shape.kind in ("clyap", "dlyap") else NONZERO
    c = values[rng.integers(0, len(values), size=shape.n)]
    zero_rows = gamma_diag == 0
    c[zero_rows] = 0
    if shape.inconsistent:
        c[forced[0]] = values[rng.integers(0, len(values))]
    return c


def equation_instance(shape: EqShape, seed: int, slot: int) -> EqInstance:
    """Instance ``slot`` of a run with this seed; the truth comes from the
    exact planted vectors."""
    trng = np.random.default_rng([0x1E, shape.template])
    rng = np.random.default_rng([seed, slot])
    if shape.kind == "general":
        avecs, bvecs, forced = _general_template(shape, trng)
        gauge = UNITS[rng.integers(0, 4, size=shape.k)]
        avecs = [g * v for g, v in zip(gauge, avecs)]
        bvecs = [np.conj(g) * v for g, v in zip(gauge, bvecs)]
    else:
        # each gauge keeps its form's pair condition: a_r + b_s, a_r b_s,
        # conj(a_r) + a_s (hence a real factor) and conj(a_r) a_s
        a, b, forced = _named_template(shape, trng)
        if shape.kind == "sylvester":
            g = UNITS[rng.integers(0, 4)]
            a, b = g * a, g * b
        elif shape.kind == "stein":
            g = UNITS[rng.integers(0, 4)]
            a, b = g * a, np.conj(g) * b
        elif shape.kind == "clyap":
            g = (1, -1)[rng.integers(0, 2)]
            a = b = g * a
        else:
            a = b = UNITS[rng.integers(0, 4)] * a
        avecs, bvecs = _terms(shape.kind, a, b)
    gamma = sum(np.outer(x, y) for x, y in zip(avecs, bvecs))
    c = _planted_c(shape, np.diag(gamma), forced, rng)
    consistent = not bool(np.any((np.diag(gamma) == 0) & (c != 0)))
    perm = rng.permutation(shape.n)
    avecs = [v[perm] for v in avecs]
    bvecs = [v[perm] for v in bvecs]
    c = c[perm]
    s, s_inv = diagonalizer(rng, shape.n, shape.unitary or shape.kind in ("clyap", "dlyap"))
    a_list = [_assemble(s, s_inv, v) for v in avecs]
    b_list = [_assemble(s, s_inv, v) for v in bvecs]
    rhs = _assemble(s, s_inv, c)
    if shape.kind == "general":
        a_mat, b_mat = None, None
    elif shape.kind == "clyap":
        a_mat, b_mat = b_list[1], None
    elif shape.kind == "dlyap":
        a_mat, b_mat = b_list[0], None
    else:
        a_mat = a_list[0]
        b_mat = b_list[1] if shape.kind == "sylvester" else b_list[0]
    return EqInstance(
        shape=shape,
        a_list=a_list,
        b_list=b_list,
        rhs=rhs,
        a_mat=a_mat,
        b_mat=b_mat,
        consistent=consistent,
        dimension=int(np.count_nonzero(gamma == 0)),
    )


def pair_instance(shape: PairShape, seed: int, slot: int) -> PairInstance:
    trng = np.random.default_rng([0x9A, shape.template])
    rng = np.random.default_rng([seed, slot])
    n = shape.n
    if shape.distinct:
        a = ALPHABET[trng.choice(len(ALPHABET), size=n, replace=False)]
    else:
        values = ALPHABET[trng.choice(len(ALPHABET), size=shape.levels, replace=False)]
        a = values[np.arange(n) % shape.levels]
    b = _pool_vector(trng, n, min(n, 4))
    a = UNITS[rng.integers(0, 4)] * a
    b = UNITS[rng.integers(0, 4)] * b
    perm = rng.permutation(n)
    a, b = a[perm], b[perm]
    s, s_inv = diagonalizer(rng, n, unitary=False)
    return PairInstance(
        shape=shape,
        a=_assemble(s, s_inv, a),
        b=_assemble(s, s_inv, b),
        pairs=[(complex(x), complex(y)) for x, y in zip(a, b)],
    )
