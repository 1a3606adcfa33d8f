"""Numerical tolerances shared across the package.

All thresholds are relative to a per-call scale unless a docstring says
otherwise.  Most are floored at unit scale: a tolerance ``tol`` against a
reference ``ref`` becomes the threshold tol * max(1, ref), and a scale that
divides a residual is max(1, ref).  ``bound`` is that rule, and the only
code that spells it.

One frozen ``Tolerances`` value holds all six tolerances.  The entry points
take it as ``tol``: ``solve``, ``check_consistent``, ``x_hat``, the named-form
solvers, ``lyapunov_gate`` and ``named_form_pair_count`` in ``equations``,
and ``validate_family``, ``star_vector_of``, ``commutant`` and
``induced_pair_without_diagonalizer`` in ``simdiag``.  From there it travels
on the objects: ``CommutingFamily.tol`` and
``AffineSolutionSet.tolerances`` carry it to ``simultaneous_diagonalizer``,
``consistency_evidence``, ``uniqueness_report`` and ``oracle.compare``.
Primitives on plain arrays (``matcore``, ``geninv``, ``relevant_matrix``,
``match_induced_sequences``) take one scalar threshold each.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

TOL_RECON = 1e-8     # off-diagonal mass of S^{-1} M S in an eigenbasis
TOL_COMMUTE = 1e-10  # commutation, normality and Hermitian tests
TOL_CLUSTER = 1e-8   # eigenvalue clustering gap
TOL_ZERO = 1e-10     # scalar zero threshold (relevant-matrix cells, eigenvalues)
TOL_RES = 1e-8       # equation residual acceptance
TOL_RANK = 1e-10     # singular-value threshold for numerical rank


@dataclass(frozen=True)
class Tolerances:
    """The six thresholds of one run, each a finite real number >= 0
    (anything else, None or a string too, raises ``ValueError`` naming the
    field).  The defaults are the ``TOL_*`` constants, whose comments name
    the decisions each one makes; besides, ``validate_family`` groups the
    eigenvalues of its eigensolve at no more than ``recon``, and
    ``induced_vectors`` checks a supplied diagonalizer at ``commute``."""

    recon: float = TOL_RECON
    commute: float = TOL_COMMUTE
    cluster: float = TOL_CLUSTER
    zero: float = TOL_ZERO
    res: float = TOL_RES
    rank: float = TOL_RANK

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (isinstance(value, numbers.Real) and 0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite float >= 0, got {value!r}")


DEFAULT = Tolerances()


def bound(tol: float, ref: float) -> float:
    """tol * max(1, ref): the threshold of ``tol`` at reference scale ``ref``,
    floored at unit scale; ``bound(1.0, ref)`` is the floored scale itself.

    Written max(tol, tol * ref), which for tol >= 0 is tol * max(1, ref) bit
    for bit: rounding is monotone, so tol * ref rounds to at least tol when
    ref >= 1 and to at most tol when ref <= 1, and a NaN ``ref`` gives
    ``tol`` either way.  The one exception is tol = 0 with ref = inf, where
    this gives 0 and not 0 * inf = NaN: an exact zero residual still passes
    a zero tolerance when the reference overflows."""
    return max(tol, tol * ref)
