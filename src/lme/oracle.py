"""Brute-force ground truth via Kronecker vectorization.

The equation sum_j A_j X B_j = C is flattened (column stacking, so that
vec(A X B) = (B^T kron A) vec(X)) into an ordinary n^2 x n^2 linear system.
``compare`` reads the rank from the singular values of that operator L
alone and checks the verdict against the certificates ``solve`` returns:
the candidate X̂ certifies consistency, the witness cell certifies
inconsistency, and only an instance neither settles goes to LAPACK's
SVD-based least squares (gelsd).  ``oracle_solve`` keeps the full SVD,
since it returns a nullspace basis.  Both count the rank and decide
consistency by one rule: rank = #{sigma > tol_rank * max(sigma_max, scale)}
and consistent when the residual of the rank-truncated minimum-norm
solution is at most tol_rank * ||vec(C)||.  A certificate is only checked,
never trusted, so nothing here depends on commuting or diagonalizable
structure; the point is a small, independent referee for the structured
solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equations import AffineSolutionSet, EquationSpec
from .errors import NonFiniteError, OracleMismatchError
from .matcore import fro
from .tolerances import TOL_RANK, bound

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
    """operator = sum_j B_j^T kron A_j, rhs = vec(C).

    Each term is accumulated as the broadcast product
    B^T[i, j] A[p, q] at [i, p, j, q] of an (n, n, n, n) array, whose
    reshape to (n^2, n^2) is the Kronecker product without its copies.
    An operator or scale that overflows raises NonFiniteError."""
    n = spec.n
    op = np.zeros((n, n, n, n), dtype=complex)
    scale = 0.0
    # an overflow is reported by the NonFiniteError below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(spec.a_list, spec.b_list):
            op += b.T[:, None, :, None] * a[None, :, None, :]
            scale += fro(a) * fro(b)
    rhs = spec.rhs.flatten(order="F")
    system = VectorizedSystem(op.reshape(n * n, n * n), rhs, n, scale)
    _finite_operator(system)
    return system


def _finite_operator(system: VectorizedSystem) -> np.ndarray:
    """The system's operator, once it and its scale are checked finite:
    LAPACK does not return on an operator with infinite entries."""
    op = system.operator
    name = "the Kronecker operator L = sum_j B_j^T kron A_j"
    if not np.all(np.isfinite(op)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    if not np.isfinite(system.scale):
        raise NonFiniteError(f"{name} has a scale sum_j ||A_j||_F ||B_j||_F that is not finite")
    return op


def _rank(s: np.ndarray, tol_rank: float, scale: float) -> tuple[int, float]:
    """The oracle's rank rule on singular values ``s`` in descending order:
    the count above tol_rank * max(sigma_max, scale), and that threshold."""
    threshold = tol_rank * max(s[0] if s.size else 0.0, scale)
    return int(np.count_nonzero(s > threshold)), threshold


def _consistent(residual: float, rhs: np.ndarray, tol_rank: float) -> bool:
    """The oracle's consistency rule: residual <= tol_rank * ||rhs||."""
    rhs_norm = float(np.linalg.norm(rhs))
    return residual <= tol_rank * rhs_norm if rhs_norm > 0 else True


def _least_squares(system: VectorizedSystem, tol_rank: float) -> np.ndarray:
    """The minimum-norm least-squares solution truncated at the rank rule,
    from LAPACK's gelsd without singular vectors: ``compare``'s fallback
    when no certificate settles the verdict.

    gelsd zeroes the singular values at or below rcond * sigma_max.  At
    rcond = tol_rank that cut never lies above the rule's threshold, so one
    solve suffices unless the terms cancel (sigma_max < scale) and gelsd
    keeps a value the rule zeroes; it is then solved once more at
    rcond = threshold / sigma_max.  A rank of 0 gives x = 0.  A singular
    value within rounding of the threshold may fall on either side of it
    here, in ``compare``'s values-only SVD and in ``oracle_solve``, whose
    SVDs differ in the last bits: such an instance sits at its tolerance
    and its rank is not decided by any of them."""
    op, rhs = system.operator, system.rhs_vec
    x, _, kept, s = np.linalg.lstsq(op, rhs, rcond=tol_rank)
    r, threshold = _rank(s, tol_rank, system.scale)
    if r == 0:
        x = np.zeros_like(rhs, dtype=complex)
    elif r != kept:
        x = np.linalg.lstsq(op, rhs, rcond=threshold / s[0])[0]
    return x


def oracle_solve(system: VectorizedSystem, tol_rank: float = TOL_RANK) -> OracleSolution:
    """Rank-revealing answer: consistency, solution-space dimension, the
    minimum-norm solution when consistent, and a nullspace basis.

    The full SVD is kept for the nullspace, the trailing rows of V^H; the
    rank and the consistency verdict follow the rules ``compare`` uses.  A
    non-finite operator or scale raises NonFiniteError."""
    u, s, vh = np.linalg.svd(_finite_operator(system))
    r, _ = _rank(s, tol_rank, system.scale)
    n = system.n
    rhs = system.rhs_vec
    if r:
        coeff = (u[:, :r].conj().T @ rhs) / s[:r]
        x = vh[:r].conj().T @ coeff
    else:
        x = np.zeros(n * n, dtype=complex)
    residual = float(np.linalg.norm(system.operator @ x - rhs))
    consistent = _consistent(residual, rhs, tol_rank)
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


def _certified(result: AffineSolutionSet, system: VectorizedSystem, s: np.ndarray, r: int,
               residual: float) -> bool | None:
    """The consistency rule's verdict where the rank is 0 or one of
    ``compare``'s bounds proves it from the result's certificates, else None.
    ``residual`` is ||L vec X̂ - c||; ``s`` holds the singular values of L,
    r of them above the rank threshold."""
    op, rhs = system.operator, system.rhs_vec
    c_norm = float(np.linalg.norm(rhs))
    tau = result.tolerances.rank * c_norm
    x_norm = float(np.linalg.norm(result.x_hat))
    if residual + (s[r] if r < s.size else 0.0) * x_norm <= tau / 2:
        return True
    if r == 0:
        return c_norm <= tau
    w, star = result.witness_r, result.star
    if w is None or star is None:
        return None
    # y^H vec(Z) = (S^-1 Z S)[w, w] for column-stacked vec
    yh = np.kron(star.diagonalizer[:, w], star.inverse[w, :])
    gap = abs(yh @ rhs) - float(np.linalg.norm(yh @ op)) * c_norm / s[r - 1]
    return False if gap > 2 * tau * float(np.linalg.norm(yh)) else None


def compare(
    result: AffineSolutionSet, system: VectorizedSystem, tol: float | None = None
) -> ComparisonReport:
    """Referee the structured result against the vectorized system at the
    result's own tolerances: equal consistency verdicts and equal dimensions
    (the oracle's rank rule at ``result.tolerances.rank``), every structured
    basis matrix in the oracle nullspace, and the candidate solution
    satisfying the system when consistent.  Both relative residuals are
    accepted up to ``tol``, by default ``result.tolerances.res``; a NaN
    residual is not accepted.  Raises
    OracleMismatchError on the first failing check set, with every failure
    listed, and NonFiniteError, before any LAPACK call, on a non-finite
    operator or scale.

    The rank is counted on the singular values s of L alone, and
    consistency is the rule ||U_perp^H c|| <= tau = tol_rank * ||c||, with
    U_perp the left singular vectors past the first r = rank.  Three bounds
    decide it without U, each with a factor 2 to spare for rounding:

    - consistent when ||L vec X̂ - c|| + sigma_(r+1) ||X̂||_F <= tau / 2, as
      ||U_perp^H c|| <= ||U_perp^H (c - L vec X̂)|| + ||U_perp^H L vec X̂||
      and U_perp^H L has norm sigma_(r+1) (0 when r = n^2);
    - at r = 0, the rule itself: U_perp is then the whole space, so the
      residual is ||c||, and c != 0 is inconsistent (at tol_rank < 1);
    - inconsistent when the witness functional y, with
      y^H vec(Z) = (S^-1 Z S)[w, w] for w = ``result.witness_r`` and S, S^-1
      the star sequence's, gives (|y^H c| - ||L^H y|| ||c|| / sigma_r) / ||y||
      above 2 tau: splitting y^H c over U_r and U_perp gives
      |y^H c| <= ||U_r^H y|| ||c|| + ||y|| ||U_perp^H c||, and
      sigma_r ||U_r^H y|| <= ||L^H y||.

    Each bound holds for any X̂ and any y, so a wrong, missing or tampered
    certificate cannot change the verdict: it leaves the instance to
    ``_least_squares`` (gelsd), which decides it as before.  X̂ and every
    basis member meet the operator in one matrix product."""
    tol_rank = result.tolerances.rank
    if tol is None:
        tol = result.tolerances.res
    n, op, rhs = system.n, _finite_operator(system), system.rhs_vec
    s = np.linalg.svd(op, compute_uv=False)
    rank, _ = _rank(s, tol_rank, system.scale)
    members = np.array([np.ravel(m, order="F") for m in result.basis], dtype=complex)
    members = members.reshape(-1, n * n)
    images = op @ np.vstack([result.x_hat.flatten(order="F"), members]).T
    raw = float(np.linalg.norm(images[:, 0] - rhs))
    consistent = _certified(result, system, s, rank, raw)
    if consistent is None:
        x = _least_squares(system, tol_rank)
        consistent = _consistent(float(np.linalg.norm(op @ x - rhs)), rhs, tol_rank)
    dimension = n * n - rank
    failures: list[str] = []
    if consistent != result.consistent:
        failures.append(
            f"consistency differs: structured={result.consistent}, oracle={consistent}"
        )
    if dimension != result.dimension:
        failures.append(
            f"dimension differs: structured={result.dimension}, oracle={dimension}"
        )
    op_scale = bound(1.0, fro(op))
    residuals = np.linalg.norm(images[:, 1:], axis=0)
    basis_residuals = []
    for i, (res, size) in enumerate(zip(residuals, np.linalg.norm(members, axis=1))):
        rel = float(res) / (op_scale * bound(1.0, float(size)))
        basis_residuals.append(rel)
        if not rel <= tol:
            failures.append(f"basis matrix {i} leaves the nullspace (residual {rel:.3e})")
    xh_res = None
    if result.consistent:
        xh_res = raw / bound(1.0, float(np.linalg.norm(rhs)))
        if not xh_res <= tol:
            failures.append(f"candidate solution violates the system (residual {xh_res:.3e})")
    if failures:
        raise OracleMismatchError(failures)
    return ComparisonReport(
        consistent=consistent,
        dimension=dimension,
        basis_residuals=tuple(basis_residuals),
        x_hat_residual=xh_res,
    )
