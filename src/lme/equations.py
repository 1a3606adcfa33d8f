"""Solvers for linear matrix equations sum_j A_j X B_j = C whose parameter
matrices form a commuting family of diagonalizable matrices.

In a joint eigenbasis S the equation decouples entrywise: with induced
eigenvalue vectors a^j, b^j, c, the cell (r, s) of the transformed unknown is
constrained by gamma[r, s] = sum_j a^j_r b^j_s.  Consistency holds iff every
diagonal cell has gamma[r, r] != 0 or c_r = 0, the candidate solution is
(sum_j A_j B_j)^Drazin C, and the homogeneous solution space is spanned by
S E_rs S^{-1} over the zero cells of gamma.  Sylvester, Stein and both
Lyapunov equations are thin wrappers over the same machinery.

``solve`` keeps the solution set in that factored form.  Its candidate
solution is read off the joint eigenbasis as S diag(d) S^{-1}, where d_r
divides the r-th diagonal entry of S^{-1} C S by sum_j of the r-th diagonal
entries of S^{-1} A_j S and S^{-1} B_j S (taken as computed, not as cluster
means), and d_r = 0 where gamma[r, r] is a zero cell.  Its ``basis`` is a
lazy ``FactoredBasis`` that forms the dense S E_rs S^{-1} only when indexed.
The Drazin candidate ``x_hat``, a group inverse from one SVD of
sum_j A_j B_j, is the independent view that ``consistency_evidence`` checks
it against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import geninv
from .errors import (
    DimensionMismatchError,
    HypothesisViolatedError,
    InconsistentInputError,
    LmeError,
    NonFiniteError,
    NotHermitianRhsError,
    NotNormalError,
)
from .matcore import _normal_within, as_matrix, commutes, fro, is_normal, require_square
from .simdiag import StarSequence, simultaneous_diagonalizer, validate_family
from .tolerances import DEFAULT, TOL_ZERO, Tolerances, bound

__all__ = [
    "EquationSpec",
    "RelevantMatrix",
    "FactoredBasis",
    "AffineSolutionSet",
    "ConsistencyEvidence",
    "UniquenessReport",
    "equation_spec",
    "equation_residual",
    "coefficient_sum",
    "standard_residual",
    "basis_residual_max",
    "standard_spec",
    "relevant_matrix",
    "x_hat",
    "solve",
    "check_consistent",
    "consistency_evidence",
    "solve_standard",
    "solve_sylvester",
    "solve_continuous_lyapunov",
    "solve_stein",
    "solve_discrete_lyapunov",
    "uniqueness_report",
    "named_form_pair_count",
    "named_form_spec",
    "lyapunov_gate",
]


def _read_only(m: np.ndarray) -> np.ndarray:
    """A read-only copy of ``m`` in the same memory layout."""
    m = m.copy(order="K")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class EquationSpec:
    """The data (A_1..A_k, B_1..B_k, C) of one linear matrix equation.

    Every spec is checked when it is built, whether through construction,
    ``equation_spec`` or ``dataclasses.replace``: the matrices are finite,
    square and of one size n >= 1, with as many right factors as left ones
    and at least one term.  A spec cannot change: it keeps a read-only copy
    of every array it is given, so no one else holds what the spec holds.
    A read-only input is copied too, since its owner can make it writeable
    again.  That is what lets ``solve`` memoize its result on the spec, once
    per ``Tolerances`` value, in ``_solved``.
    """

    a_list: tuple[np.ndarray, ...]
    b_list: tuple[np.ndarray, ...]
    rhs: np.ndarray
    _solved: dict[Tolerances, AffineSolutionSet] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        a, b = list(self.a_list), list(self.b_list)
        if len(a) != len(b):
            raise DimensionMismatchError(f"{len(a)} left factors but {len(b)} right factors")
        if not a:
            raise DimensionMismatchError("the equation needs at least one term")
        c = require_square(self.rhs, "C")
        n = c.shape[0]
        if n == 0:
            raise DimensionMismatchError("C has size 0, expected at least 1")
        a = [require_square(m, f"A[{i}]", n) for i, m in enumerate(a)]
        b = [require_square(m, f"B[{i}]", n) for i, m in enumerate(b)]
        object.__setattr__(self, "a_list", tuple(map(_read_only, a)))
        object.__setattr__(self, "b_list", tuple(map(_read_only, b)))
        object.__setattr__(self, "rhs", _read_only(c))

    def __reduce__(self):
        # unpickled arrays are writeable: build the spec again, without the memo
        return EquationSpec, (self.a_list, self.b_list, self.rhs)

    @property
    def n(self) -> int:
        return self.rhs.shape[0]

    @property
    def k(self) -> int:
        return len(self.a_list)

    def members(self) -> list[np.ndarray]:
        return [*self.a_list, *self.b_list, self.rhs]

    def member_names(self) -> list[str]:
        """The role of each of ``members()``: A[j], B[j] and C."""
        return [*(f"A[{j}]" for j in range(self.k)), *(f"B[{j}]" for j in range(self.k)), "C"]


def equation_spec(a_list, b_list, rhs) -> EquationSpec:
    """Validate and freeze the equation data: ``EquationSpec(a_list,
    b_list, rhs)``.  Writing into the inputs afterwards changes neither the
    spec nor what ``solve`` returns for it, which is memoized on the spec.
    """
    return EquationSpec(a_list, b_list, rhs)


def equation_residual(spec: EquationSpec, x) -> float:
    """Frobenius norm of sum_j A_j X B_j - C."""
    xm = require_square(x, "X", spec.n)
    acc = -spec.rhs.astype(complex)
    for a, b in zip(spec.a_list, spec.b_list):
        acc = acc + a @ xm @ b
    return fro(acc)


def coefficient_sum(spec: EquationSpec) -> np.ndarray:
    """The matrix sum_j A_j B_j of the attached standard equation."""
    return sum(a @ b for a, b in zip(spec.a_list, spec.b_list))


def standard_residual(spec: EquationSpec, x) -> float:
    """Frobenius norm of (sum_j A_j B_j) X - C."""
    return fro(coefficient_sum(spec) @ require_square(x, "X", spec.n) - spec.rhs)


def standard_spec(spec: EquationSpec) -> EquationSpec:
    """The attached standard equation (sum_j A_j B_j) X = C as a one-term
    instance."""
    n = spec.n
    return equation_spec([coefficient_sum(spec)], [np.eye(n)], spec.rhs)


@dataclass(frozen=True)
class RelevantMatrix:
    """gamma[r, s] = sum_j a^j_r b^j_s with its thresholded zero pattern.

    In the result of ``solve``, ``gamma`` and the vectors are taken over the
    cluster means (``star.vectors``), but ``zero_mask`` and ``zero_count``
    are the union of the zero pattern over the means and the one over the
    raw diagonals (``star.diagonals``): a cell is zero when either says so.
    """

    gamma: np.ndarray
    a_vectors: tuple[np.ndarray, ...]
    b_vectors: tuple[np.ndarray, ...]
    c_vector: np.ndarray
    zero_mask: np.ndarray
    zero_count: int
    scale: float

    @property
    def cells(self) -> tuple[tuple[int, int], ...]:
        """Zero cells as (row, col) pairs, row-major order."""
        rows, cols = np.nonzero(self.zero_mask)
        return tuple(zip(rows.tolist(), cols.tolist()))


def relevant_matrix(a_vectors, b_vectors, c_vector, tol_zero: float = TOL_ZERO) -> RelevantMatrix:
    """Assemble gamma = sum_j outer(a^j, b^j) and threshold its entries at
    tol_zero * max_j(||a^j||_inf ||b^j||_inf)."""
    avecs = tuple(np.asarray(v, dtype=complex) for v in a_vectors)
    bvecs = tuple(np.asarray(v, dtype=complex) for v in b_vectors)
    cvec = np.asarray(c_vector, dtype=complex)
    if len(avecs) != len(bvecs) or not avecs:
        raise DimensionMismatchError("need matching, non-empty vector lists")
    n = cvec.shape[0]
    for v in (*avecs, *bvecs):
        if v.shape != (n,):
            raise DimensionMismatchError("all vectors must have the right-hand side's length")
    gamma = np.zeros((n, n), dtype=complex)
    scale = 0.0
    for a, b in zip(avecs, bvecs):
        gamma += np.outer(a, b)
        scale = max(scale, float(np.max(np.abs(a)) * np.max(np.abs(b))) if n else 0.0)
    mask = np.abs(gamma) <= tol_zero * scale
    return RelevantMatrix(gamma, avecs, bvecs, cvec, mask, int(mask.sum()), scale)


class FactoredBasis(Sequence):
    """The matrices S E_rs S^{-1} over zero cells (r, s), kept as S, S^{-1}
    and the cell indices.  Member i is
    np.outer(S[:, rows[i]], S^{-1}[cols[i], :]), formed when it is indexed;
    ``tuple(basis)`` gives all of them densely.  Slicing gives another
    ``FactoredBasis``.  Its attributes cannot be rebound, since the result
    of ``solve`` that holds it is shared by every later call."""

    __slots__ = ("diagonalizer", "inverse", "rows", "cols")

    def __init__(self, diagonalizer: np.ndarray, inverse: np.ndarray, rows, cols):
        object.__setattr__(self, "diagonalizer", diagonalizer)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "rows", np.asarray(rows, dtype=np.intp))
        object.__setattr__(self, "cols", np.asarray(cols, dtype=np.intp))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to FactoredBasis.{name}")

    def __reduce__(self):
        return FactoredBasis, (self.diagonalizer, self.inverse, self.rows, self.cols)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FactoredBasis(self.diagonalizer, self.inverse, self.rows[i], self.cols[i])
        return np.outer(self.diagonalizer[:, self.rows[i]], self.inverse[self.cols[i], :])


def basis_residual_max(spec: EquationSpec, basis: Sequence[np.ndarray]) -> float:
    """Largest ||sum_j A_j Y B_j||_F over the members Y of ``basis``.

    For a ``FactoredBasis`` no member is formed: with A_j S and S^{-1} B_j
    computed once, member S E_rs S^{-1} leaves the n x n product of the
    columns (A_j S)[:, r] and the rows (S^{-1} B_j)[s, :] over j, O(k n^2)
    per member.  Any other sequence is evaluated member by member.
    """
    if not isinstance(basis, FactoredBasis):
        homogeneous = replace(spec, rhs=np.zeros_like(spec.rhs))
        return max((equation_residual(homogeneous, y) for y in basis), default=0.0)
    left = np.stack([a @ basis.diagonalizer for a in spec.a_list], axis=-1)  # [:, r, j]
    right = np.stack([basis.inverse @ b for b in spec.b_list])  # [j, s, :]
    cells = zip(basis.rows, basis.cols)
    return max((fro(left[:, r] @ right[:, s]) for r, s in cells), default=0.0)


@dataclass(frozen=True)
class AffineSolutionSet:
    """Full description of the solution set of one equation.

    When consistent, the solutions are exactly x_hat + span(basis).  ``solve``
    returns the basis as a lazy ``FactoredBasis``: the matrices S E_rs S^{-1}
    over the zero cells of the relevant matrix, each formed when indexed
    (``tuple(result.basis)`` gives them all densely); dimension equals their
    count.  x_hat is S diag(d) S^{-1} in the star-ordered joint eigenbasis,
    d_r the ratio of the r-th diagonal entries of S^{-1} C S and
    sum_j S^{-1} A_j S S^{-1} B_j S, with 0 on zero diagonal cells;
    ``consistency_evidence`` compares it with the Drazin candidate.
    ``normal_certificate`` is only set when every input matrix is normal, and
    then records whether all off-diagonal relevant-matrix entries are nonzero
    (the condition for every solution to be normal).  ``tolerances`` are the
    ones ``solve`` decided at; the evidence, the uniqueness report and the
    oracle comparison reuse them.
    """

    consistent: bool
    witness_r: int | None
    x_hat: np.ndarray
    basis: Sequence[np.ndarray]
    dimension: int
    diagonalizer: np.ndarray
    normal_certificate: bool | None
    relevant: RelevantMatrix
    star: StarSequence
    tolerances: Tolerances


def x_hat(spec: EquationSpec, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Candidate solution (sum_j A_j B_j)^Drazin C; defined for any square
    inputs, a solution exactly when the equation is consistent under the
    commuting-diagonalizable hypothesis.

    The Drazin inverse runs at ``tol.zero`` and ``tol.rank``.  Its zero
    threshold is referenced to the size of the uncancelled products, so a
    coefficient sum that vanishes up to rounding is treated as the zero
    matrix instead of being inverted.  Under the hypothesis the sum has
    index at most one, and ``geninv.drazin`` takes it as the group inverse
    from the SVD of the sum and, if singular, of its r×r G F; the Schur
    split serves only sums of index two or more.  ``consistency_evidence``
    computes the same candidate from the same SVD.
    """
    w, svd, scale, _ = _factored_sum(spec, tol)
    return geninv.drazin(w, tol.zero, tol.rank, scale=scale, _svd=svd) @ spec.rhs


def _factored_sum(spec: EquationSpec, tol: Tolerances):
    """(W, its SVD (U, s, V^H), scale, r) for W = sum_j A_j B_j: the one
    factorization of W that the Drazin candidate, rank(W) and the range test
    read.  scale is the uncancelled sum_j ||A_j||_F ||B_j||_F, and r = rank(W)
    counts the singular values above ``tol.rank`` times it, not times
    sigma_max(W), which is rounding noise when the terms cancel."""
    # an overflowing W raises the NonFiniteError here, not numpy's warnings or the SVD
    with np.errstate(over="ignore", invalid="ignore"):
        w = as_matrix(coefficient_sum(spec), "the coefficient sum W = sum_j A_j B_j")
        scale = float(sum(fro(a) * fro(b) for a, b in zip(spec.a_list, spec.b_list)))
    svd = np.linalg.svd(w)
    return w, svd, scale, geninv._count_rank(svd[1], tol.rank, scale)


def _freeze(*arrays: np.ndarray) -> None:
    """Set each array read-only, and every array it is a view of."""
    for a in arrays:
        while isinstance(a, np.ndarray):
            a.flags.writeable = False
            a = a.base


def solve(spec: EquationSpec, tol: Tolerances = DEFAULT) -> AffineSolutionSet:
    """Decide consistency and parametrize the affine solution set; every
    threshold is read from ``tol``, which the result keeps.

    The result is memoized on the spec, which cannot change: a second call
    with an equal ``tol`` returns the same object without computing again,
    and another ``tol`` or another spec (``dataclasses.replace`` makes a new
    one) computes afresh.  So every array of the result is read-only, and
    writing into ``result.x_hat`` raises instead of reaching a later
    ``check_consistent``.  Errors are not memoized.

    Raises HypothesisViolatedError when the parameter matrices do not form a
    commuting family of diagonalizable matrices; that case is outside this
    solver's scope and belongs to the brute-force oracle.  Its cause names
    the members by their role in the spec: A[j], B[j] or C.  A member norm
    or commutator that overflows raises NonFiniteError, not wrapped, and so
    does a candidate X̂ with an entry that overflows.

    Each member is validated and normed once, by ``validate_family``; the
    normal certificate tests each member's commutation with its adjoint on
    the norms the family keeps, after scaling a member of norm above 1 by a
    power of two to norm [1, 2): the verdict is the unscaled test's, and a
    normal member at entry scale 1e100 reads normal instead of overflowing.
    """
    if tol in spec._solved:
        return spec._solved[tol]
    try:
        family = validate_family(spec.members(), tol, spec.member_names())
    except NonFiniteError:
        raise  # an overflow, not a broken hypothesis
    except LmeError as exc:
        raise HypothesisViolatedError(exc) from exc
    star = simultaneous_diagonalizer(family)
    k = spec.k
    vecs, raw = star.vectors, star.diagonals
    rel = relevant_matrix(vecs[:k], vecs[k:2 * k], vecs[2 * k], tol.zero)
    # a cell is zero when either spectrum says so: a cluster that merges
    # values delta apart moves its mean by delta/m, enough to lift a cell
    # that cancels exactly on the raw diagonals off the threshold
    rel_raw = relevant_matrix(raw[:k], raw[k:2 * k], raw[2 * k], tol.zero)
    mask = rel.zero_mask | rel_raw.zero_mask
    rel = replace(rel, zero_mask=mask, zero_count=int(mask.sum()))
    c_abs = np.abs(vecs[2 * k])
    diag_zero = np.diag(mask)
    # the lowest row r with gamma[r, r] a zero cell and c_r not a zero entry
    witnesses = np.flatnonzero(diag_zero & ~(c_abs <= tol.zero * c_abs.max()))
    witness = int(witnesses[0]) if witnesses.size else None
    consistent = witness is None
    s, s_inv = star.diagonalizer, star.inverse
    # the raw diagonals, not the cluster means: their ratio is what makes
    # S diag(d) S^{-1} solve the equation on C itself; an overflow is
    # reported by the NonFiniteError below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.divide(raw[2 * k], np.diag(rel_raw.gamma), out=np.zeros(spec.n, complex), where=~diag_zero)
        x = (s * d) @ s_inv
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("the candidate X̂ = S diag(c_r / gamma[r, r]) S^{-1} overflows")
    basis = FactoredBasis(s, s_inv, *np.nonzero(rel.zero_mask))
    certificate = None
    # on members scaled to norm [1, 2), so that no residual overflows
    members = zip(family.members, family.norms)
    if all(_normal_within(m, tol.commute, norm) for m, norm in members):
        certificate = not (rel.zero_mask & ~np.eye(spec.n, dtype=bool)).any()
    # rel's vectors are star.vectors themselves; S and S^{-1} are star's and basis's
    _freeze(x, s, s_inv, basis.rows, basis.cols, rel.gamma, rel.zero_mask, *star.vectors, *star.diagonals)
    result = spec._solved[tol] = AffineSolutionSet(
        consistent=consistent,
        witness_r=witness,
        x_hat=x,
        basis=basis,
        dimension=len(basis),
        diagonalizer=s,
        normal_certificate=certificate,
        relevant=rel,
        star=star,
        tolerances=tol,
    )
    return result


@dataclass(frozen=True)
class ConsistencyEvidence:
    """Independently evaluated equivalent views of consistency.

    The five flags must agree for well-conditioned input; any disagreement is
    surfaced in ``diagnostics`` rather than resolved silently.  The two
    residuals are those of the Drazin candidate (sum_j A_j B_j)^Drazin C.
    Two independent factorizations stand behind the views: the joint
    eigenbasis that ``solve`` used decides the diagonal rule, and one SVD
    of W = sum_j A_j B_j gives the candidate, rank(W) and the range test
    behind ``standard_consistent``.
    """

    consistent: bool
    diagonal_rule: bool
    x_hat_solves_equation: bool
    standard_consistent: bool
    x_hat_solves_standard: bool
    equation_residual: float
    standard_residual: float
    diagnostics: tuple[str, ...] = field(default_factory=tuple)

    @property
    def agree(self) -> bool:
        return (
            self.diagonal_rule
            == self.x_hat_solves_equation
            == self.standard_consistent
            == self.x_hat_solves_standard
        )

    def flags(self) -> dict[str, bool]:
        return {
            "equation_consistent": self.consistent,
            "diagonal_rule": self.diagonal_rule,
            "x_hat_solves_equation": self.x_hat_solves_equation,
            "standard_consistent": self.standard_consistent,
            "x_hat_solves_standard": self.x_hat_solves_standard,
        }


def consistency_evidence(spec: EquationSpec, result: AffineSolutionSet) -> ConsistencyEvidence:
    """All equivalent views of consistency for the result ``solve`` returned
    on ``spec``, evaluated independently at ``result.tolerances``: the
    diagonal rule on the relevant matrix, the residual of the Drazin
    candidate ``x_hat`` in the equation itself, a range test on the attached
    standard equation W X = C, and the candidate's residual in the standard
    equation.  The last three read one SVD W = U S V^H: the candidate is
    ``x_hat`` from it, and C is in range(W) when its part outside the first
    r = rank(W) columns of U, ||U_(r:)^H C||_F = ||C - U_r U_r^H C||_F, is
    at most ``tol.rank`` ||C||_F (so always for C = 0); rank(W) counts the
    singular values above ``tol.rank`` sum_j ||A_j||_F ||B_j||_F.  A
    diagnostic is added when the Drazin candidate and ``result.x_hat`` (read
    off the eigenbasis) differ by more than the ``res`` tolerance, relative,
    or by NaN."""
    tol = result.tolerances
    w, svd, scale, r = _factored_sum(spec, tol)
    xh = geninv.drazin(w, tol.zero, tol.rank, scale=scale, _svd=svd) @ spec.rhs
    res_eq = equation_residual(spec, xh)
    limit = bound(tol.res, fro(spec.rhs))
    res_std = fro(w @ xh - spec.rhs)
    ev_diag = result.consistent
    ev_eq = res_eq <= limit
    ev_std_rank = fro(svd[0][:, r:].conj().T @ spec.rhs) <= tol.rank * fro(spec.rhs)
    ev_std_res = res_std <= limit
    diagnostics: list[str] = []
    if not (ev_diag == ev_eq == ev_std_rank == ev_std_res):
        diagnostics.append(
            "equivalent consistency views disagree "
            f"(diagonal={ev_diag}, equation_residual={ev_eq}, "
            f"standard_rank={ev_std_rank}, standard_residual={ev_std_res}); "
            "this indicates numerical conditioning trouble, not a verdict"
        )
    gap = fro(result.x_hat - xh)
    if not gap <= bound(tol.res, fro(xh)):
        diagnostics.append(
            f"the eigenbasis candidate differs from the Drazin candidate by {gap:.3e} "
            "(Frobenius norm); the joint eigenbasis may be ill-conditioned"
        )
    return ConsistencyEvidence(
        consistent=ev_diag,
        diagonal_rule=ev_diag,
        x_hat_solves_equation=ev_eq,
        standard_consistent=ev_std_rank,
        x_hat_solves_standard=ev_std_res,
        equation_residual=res_eq,
        standard_residual=res_std,
        diagnostics=tuple(diagnostics),
    )


def check_consistent(spec: EquationSpec, tol: Tolerances = DEFAULT) -> tuple[bool, ConsistencyEvidence]:
    """Consistency verdict plus its ``consistency_evidence``, both at ``tol``.

    The verdict is that of ``solve(spec, tol)``, which is memoized on the
    spec: after a ``solve`` at the same ``tol`` no eigensolve runs again, and
    only the independent views of the evidence are computed."""
    evidence = consistency_evidence(spec, solve(spec, tol))
    return evidence.consistent, evidence


def solve_standard(spec: EquationSpec, tol: Tolerances = DEFAULT) -> AffineSolutionSet:
    """Solve the attached standard equation (sum_j A_j B_j) X = C."""
    return solve(standard_spec(spec), tol)


def named_form_spec(kind: str, a, c, b=None) -> EquationSpec:
    """The general-form data of a named equation: sylvester A X + X B = C,
    stein A X B - X = C, clyap A* X + X A = C and dlyap A* X A - X = C.
    Only the Lyapunov forms take no B; sylvester and stein without one raise
    ``DimensionMismatchError``.  No hypothesis is checked here;
    ``lyapunov_gate`` checks the Lyapunov preconditions."""
    a = require_square(a, "A")
    if kind in ("clyap", "dlyap"):
        a, b = a.conj().T, a
    elif kind in ("sylvester", "stein"):
        if b is None:
            raise DimensionMismatchError(f"{kind} needs B")
        b = require_square(b, "B", a.shape[0])
    else:
        raise ValueError(f"unknown named form {kind!r}")
    eye = np.eye(a.shape[0])
    if kind in ("sylvester", "clyap"):
        return equation_spec([a, eye], [eye, b], c)
    return equation_spec([a, -eye], [b, eye], c)


def solve_sylvester(a, b, c, tol: Tolerances = DEFAULT) -> AffineSolutionSet:
    """A X + X B = C for a commuting diagonalizable triple; the solution-set
    dimension equals the number of index pairs with a_r + b_s = 0."""
    return solve(named_form_spec("sylvester", a, c, b), tol)


def solve_stein(a, b, c, tol: Tolerances = DEFAULT) -> AffineSolutionSet:
    """A X B - X = C for a commuting diagonalizable triple; the solution-set
    dimension equals the number of index pairs with a_r b_s = 1."""
    return solve(named_form_spec("stein", a, c, b), tol)


def lyapunov_gate(a, c, tol: Tolerances = DEFAULT):
    """Raise unless A is normal and C Hermitian (the Lyapunov preconditions);
    return both as validated square matrices.  When the Frobenius norm of A
    overflows, this raises NonFiniteError naming A before normality is
    decided."""
    a = require_square(a, "A")
    c = require_square(c, "C", a.shape[0])
    # an overflow is an input error, not a matrix that fails to be normal
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(fro(a)):
            raise NonFiniteError("A has a Frobenius norm that overflows")
        if not is_normal(a, tol.commute):
            raise NotNormalError("A must be a normal matrix")
        if fro(c - c.conj().T) > bound(tol.commute, fro(c)):
            raise NotHermitianRhsError("C must be Hermitian")
    return a, c


def solve_continuous_lyapunov(a, c, tol: Tolerances = DEFAULT) -> AffineSolutionSet:
    """A* X + X A = C with A normal, C Hermitian and AC = CA.

    The adjoint is formed internally; the dimension of the solution set is
    the number of pairs with conj(a_r) + a_s = 0.  Whether every solution is
    normal is recorded in the result's ``normal_certificate``.
    """
    a, c = lyapunov_gate(a, c, tol)
    return solve(named_form_spec("clyap", a, c), tol)


def solve_discrete_lyapunov(a, c, tol: Tolerances = DEFAULT) -> AffineSolutionSet:
    """A* X A - X = C with A normal, C Hermitian and AC = CA.

    The dimension of the solution set is the number of pairs with
    conj(a_r) a_s = 1; the normality of all solutions is recorded in
    ``normal_certificate``.
    """
    a, c = lyapunov_gate(a, c, tol)
    return solve(named_form_spec("dlyap", a, c), tol)


@dataclass(frozen=True)
class UniquenessReport:
    """Uniqueness analysis of a consistent solve result."""

    unique: bool
    infinite: bool
    dimension: int
    coefficient_sum_invertible: bool
    candidate_is_solution: bool | None = None
    candidate_equals_x_hat: bool | None = None
    candidate_commutation: tuple[bool, ...] | None = None


def uniqueness_report(result: AffineSolutionSet, spec: EquationSpec, candidate=None) -> UniquenessReport:
    """Classify the solution set of a consistent result as unique or infinite
    and, when the coefficient sum is invertible and a candidate solution is
    supplied, check whether the candidate commutes with each parameter matrix
    (any solution other than the canonical one cannot commute with all).
    Every test runs at ``result.tolerances``; the coefficient sum W counts
    as invertible when rank(W) = n, with rank(W) read off its SVD as in
    ``consistency_evidence``."""
    if not result.consistent:
        raise InconsistentInputError("uniqueness analysis needs a consistent result")
    tol = result.tolerances
    invertible = _factored_sum(spec, tol)[3] == spec.n
    unique = result.dimension == 0
    report_kwargs: dict = {}
    if candidate is not None:
        xc = require_square(candidate, "candidate", spec.n)
        res = equation_residual(spec, xc)
        report_kwargs["candidate_is_solution"] = res <= bound(tol.res, fro(spec.rhs))
        report_kwargs["candidate_equals_x_hat"] = (
            fro(xc - result.x_hat) <= bound(tol.res, fro(result.x_hat))
        )
        report_kwargs["candidate_commutation"] = tuple(
            commutes(xc, m, tol.commute) for m in (*spec.a_list, *spec.b_list)
        )
    return UniquenessReport(
        unique=unique,
        infinite=not unique,
        dimension=result.dimension,
        coefficient_sum_invertible=invertible,
        **report_kwargs,
    )


def named_form_pair_count(kind: str, a, b=None, tol: Tolerances = DEFAULT) -> int:
    """Eigenvalue-pair cardinality behind the named-form dimension formulas:
    the zero count of the relevant matrix of ``named_form_spec``, built from
    the own eigenvalues of each A_j and B_j.  Each term has one non-scalar
    factor, so no commutation hypothesis is needed.  sylvester counts a_r + b_s = 0,
    stein counts a_r b_s = 1, clyap counts conj(a_r) + a_s = 0 and dlyap
    counts conj(a_r) a_s = 1."""
    spec = named_form_spec(kind, a, np.zeros(np.shape(a)), b)
    eigs = [np.linalg.eigvals(m) for m in (*spec.a_list, *spec.b_list)]
    return relevant_matrix(eigs[:spec.k], eigs[spec.k:], np.zeros(spec.n), tol.zero).zero_count
