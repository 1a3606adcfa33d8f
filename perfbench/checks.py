"""Correctness checks against the planted truth, using only numpy.

Each check returns a list of problems; an empty list means the output is
right.  Checks run outside the timed region.
"""

from __future__ import annotations

import numpy as np

RES_TOL = 1e-8  # relative residual an exact solution must meet
INDEP_TOL = 1e-6  # smallest/largest singular value of a sampled basis
PAIR_TOL = 1e-6  # distance of a recovered eigenvalue from the planted one
BASIS_SAMPLE = 6


def relative_residual(a_list, b_list, x, rhs=None) -> float:
    """||sum_j A_j X B_j - C|| relative to the size of its terms."""
    acc = sum(a @ x @ b for a, b in zip(a_list, b_list))
    scale = sum(np.linalg.norm(a) * np.linalg.norm(b) for a, b in zip(a_list, b_list))
    scale *= np.linalg.norm(x)
    if rhs is not None:
        acc = acc - rhs
        scale += np.linalg.norm(rhs)
    return float(np.linalg.norm(acc) / max(scale, 1e-300))


def check_verdict(inst, consistent, dimension, where: str) -> list[str]:
    problems = []
    if bool(consistent) != inst.consistent:
        problems.append(f"{where}: consistent={consistent}, planted {inst.consistent}")
    if dimension is not None and int(dimension) != inst.dimension:
        problems.append(f"{where}: dimension={dimension}, planted {inst.dimension}")
    return problems


def check_x_hat(inst, x_hat, where: str) -> list[str]:
    """X_hat must solve the equation when the instance is consistent."""
    if not inst.consistent:
        return []
    res = relative_residual(inst.a_list, inst.b_list, np.asarray(x_hat), inst.rhs)
    return [] if res <= RES_TOL else [f"{where}: X_hat residual {res:.2e}"]


def check_basis(inst, basis, rng: np.random.Generator) -> list[str]:
    """len(basis) is the dimension; a seeded sample of its members solves
    the homogeneous equation and is linearly independent.  Only ``len`` and
    indexing are used, so a lazy sequence passes as well as a tuple."""
    if len(basis) != inst.dimension:
        return [f"basis: len={len(basis)}, planted dimension {inst.dimension}"]
    if not inst.dimension:
        return []
    picks = rng.choice(inst.dimension, size=min(BASIS_SAMPLE, inst.dimension), replace=False)
    problems = []
    rows = []
    for i in picks.tolist():
        x = np.asarray(basis[i])
        res = relative_residual(inst.a_list, inst.b_list, x)
        if res > RES_TOL:
            problems.append(f"basis[{i}]: homogeneous residual {res:.2e}")
        rows.append(x.ravel() / max(np.linalg.norm(x), 1e-300))
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    if sv[-1] <= INDEP_TOL * sv[0]:
        problems.append(f"basis sample {picks.tolist()} is linearly dependent")
    return problems


def check_solution_set(inst, result, rng, where: str = "solve") -> list[str]:
    """A solve result (consistent, dimension, x_hat, basis) against the truth."""
    return (
        check_verdict(inst, result.consistent, result.dimension, where)
        + check_x_hat(inst, result.x_hat, where)
        + check_basis(inst, result.basis, rng)
    )


def check_pairs(planted, avec, bvec) -> list[str]:
    """The multiset of returned (a, b) pairs equals the planted one."""
    if len(avec) != len(planted) or len(bvec) != len(planted):
        return [f"pair: {len(avec)}/{len(bvec)} values for {len(planted)} planted pairs"]
    left = list(planted)
    for a, b in zip(avec, bvec):
        hit = next(
            (i for i, (pa, pb) in enumerate(left)
             if abs(a - pa) <= PAIR_TOL and abs(b - pb) <= PAIR_TOL),
            None,
        )
        if hit is None:
            return [f"pair: ({complex(a):.4g}, {complex(b):.4g}) is not a planted pair"]
        left.pop(hit)
    return []


def payload_matrix(obj) -> np.ndarray:
    """Read the {"rows", "cols", "data": [[[re, im], ...]]} matrix format."""
    data = np.asarray(obj["data"], dtype=float)
    out = data[..., 0] + 1j * data[..., 1]
    if out.shape != (obj["rows"], obj["cols"]):
        raise ValueError(f"payload shape {out.shape} != declared {(obj['rows'], obj['cols'])}")
    return out


def matrix_payload(m: np.ndarray) -> dict:
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.stack([m.real, m.imag], axis=-1).tolist(),
    }
