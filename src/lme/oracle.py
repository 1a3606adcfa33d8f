"""Brute-force ground truth via Kronecker vectorization.

The equation sum_j A_j X B_j = C is flattened (column stacking, so that
vec(A X B) = (B^T kron A) vec(X)) into an ordinary n^2 x n^2 linear system
and answered with a rank-revealing SVD.  Nothing here depends on commuting
or diagonalizable structure; the point is a small, independent referee for
the structured solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equations import AffineSolutionSet, EquationSpec
from .errors import OracleMismatchError
from .matcore import fro
from .tolerances import TOL_RANK

__all__ = [
    "VectorizedSystem",
    "OracleSolution",
    "ComparisonReport",
    "vectorize",
    "oracle_solve",
    "compare",
]


@dataclass(frozen=True)
class VectorizedSystem:
    """operator @ vec(X) = rhs_vec with column-stacked vec.

    ``scale`` records the size of the uncancelled Kronecker terms; the rank
    threshold is floored by it so an operator that cancels to rounding noise
    is treated as zero rather than as an invertible noise matrix.
    """

    operator: np.ndarray
    rhs_vec: np.ndarray
    n: int
    scale: float


@dataclass(frozen=True)
class OracleSolution:
    consistent: bool
    dimension: int
    min_norm_solution: np.ndarray | None
    nullspace: tuple[np.ndarray, ...]
    rank: int
    residual: float


@dataclass(frozen=True)
class ComparisonReport:
    consistent: bool
    dimension: int
    basis_residuals: tuple[float, ...]
    x_hat_residual: float | None


def vectorize(spec: EquationSpec) -> VectorizedSystem:
    """operator = sum_j B_j^T kron A_j, rhs = vec(C)."""
    n = spec.n
    op = np.zeros((n * n, n * n), dtype=complex)
    scale = 0.0
    for a, b in zip(spec.a_list, spec.b_list):
        op += np.kron(b.T, a)
        scale += fro(a) * fro(b)
    rhs = spec.rhs.flatten(order="F")
    return VectorizedSystem(op, rhs, n, scale)


def oracle_solve(system: VectorizedSystem, tol_rank: float = TOL_RANK) -> OracleSolution:
    """Rank-revealing answer: consistency, solution-space dimension, the
    minimum-norm solution when consistent, and a nullspace basis."""
    u, s, vh = np.linalg.svd(system.operator)
    smax = s[0] if s.size else 0.0
    r = int(np.count_nonzero(s > tol_rank * max(smax, system.scale)))
    n = system.n
    rhs = system.rhs_vec
    if r:
        coeff = (u[:, :r].conj().T @ rhs) / s[:r]
        x = vh[:r].conj().T @ coeff
    else:
        x = np.zeros(n * n, dtype=complex)
    residual = float(np.linalg.norm(system.operator @ x - rhs))
    rhs_norm = float(np.linalg.norm(rhs))
    consistent = residual <= tol_rank * rhs_norm if rhs_norm > 0 else True
    nullspace = tuple(
        vh[i].conj().reshape((n, n), order="F") for i in range(r, n * n)
    )
    return OracleSolution(
        consistent=consistent,
        dimension=n * n - r,
        min_norm_solution=x.reshape((n, n), order="F") if consistent else None,
        nullspace=nullspace,
        rank=r,
        residual=residual,
    )


def compare(
    result: AffineSolutionSet, system: VectorizedSystem, tol: float | None = None
) -> ComparisonReport:
    """Referee the structured result against the vectorized system at the
    result's own tolerances: equal consistency verdicts and equal dimensions
    (the oracle's rank test at ``result.tolerances.rank``), every structured
    basis matrix in the oracle nullspace, and the candidate solution
    satisfying the system when consistent.  Both relative residuals are
    accepted up to ``tol``, by default ``result.tolerances.res``; a NaN
    residual is not accepted.  Raises
    OracleMismatchError on the first failing check set, with every failure
    listed."""
    sol = oracle_solve(system, result.tolerances.rank)
    if tol is None:
        tol = result.tolerances.res
    failures: list[str] = []
    if sol.consistent != result.consistent:
        failures.append(
            f"consistency differs: structured={result.consistent}, oracle={sol.consistent}"
        )
    if sol.dimension != result.dimension:
        failures.append(
            f"dimension differs: structured={result.dimension}, oracle={sol.dimension}"
        )
    op_scale = max(1.0, fro(system.operator))
    basis_residuals = []
    for i, mat in enumerate(result.basis):
        res = float(np.linalg.norm(system.operator @ mat.flatten(order="F")))
        rel = res / (op_scale * max(1.0, fro(mat)))
        basis_residuals.append(rel)
        if not rel <= tol:
            failures.append(f"basis matrix {i} leaves the nullspace (residual {rel:.3e})")
    xh_res = None
    if result.consistent:
        raw = float(
            np.linalg.norm(system.operator @ result.x_hat.flatten(order="F") - system.rhs_vec)
        )
        xh_res = raw / max(1.0, float(np.linalg.norm(system.rhs_vec)))
        if not xh_res <= tol:
            failures.append(f"candidate solution violates the system (residual {xh_res:.3e})")
    if failures:
        raise OracleMismatchError(failures)
    return ComparisonReport(
        consistent=sol.consistent,
        dimension=sol.dimension,
        basis_residuals=tuple(basis_residuals),
        x_hat_residual=xh_res,
    )
