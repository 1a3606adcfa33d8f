"""Exception taxonomy for the lme package."""


class LmeError(Exception):
    """Base class for all package-specific errors."""


class NonSquareError(LmeError):
    """A square matrix was required."""


class NonFiniteError(LmeError):
    """Input contains NaN or infinite entries."""


class DimensionMismatchError(LmeError):
    """Shapes or lengths of the inputs are incompatible."""


class EmptyListError(LmeError):
    """At least one element was required."""


class IndexTooLargeError(LmeError):
    """The group inverse needs a matrix of index at most one."""


class NotCommutingError(LmeError):
    """Two members of a supposed commuting family fail to commute.  The
    message calls them ``names`` when given, else "members i and j"."""

    def __init__(self, i: int, j: int, residual: float | None = None,
                 names: tuple[str, str] | None = None):
        self.i = i
        self.j = j
        self.residual = residual
        pair = " and ".join(names) if names else f"members {i} and {j}"
        detail = f" (relative residual {residual:.3e})" if residual is not None else ""
        super().__init__(f"{pair} do not commute{detail}")


class NotDiagonalizableError(LmeError):
    """A family member admits no eigenbasis within tolerance.  The message
    calls it ``name`` when given, else "member i"."""

    def __init__(self, i: int = 0, detail: str = "", name: str | None = None):
        self.i = i
        self.detail = detail
        suffix = f": {detail}" if detail else ""
        super().__init__(f"{name or f'member {i}'} is not diagonalizable{suffix}")


class NotADiagonalizerError(LmeError):
    """The supplied matrix does not diagonalize a family member."""

    def __init__(self, i: int, off_mass: float):
        self.i = i
        self.off_mass = off_mass
        super().__init__(
            f"matrix does not diagonalize member {i} "
            f"(off-diagonal mass {off_mass:.3e})"
        )


class NoMatchingPermutationError(LmeError):
    """No single permutation relates the two induced sequences."""


class RefinementFailureError(LmeError):
    """Each member of a commuting family is diagonalizable, but the family's
    joint eigenbasis does not diagonalize all of them within tolerance."""


class IntersectionAmbiguousError(LmeError):
    """Eigenvalue multiset matching did not produce block-sized groups."""


class HypothesisViolatedError(LmeError):
    """A hypothesis of the solver fails: commuting-diagonalizable, or a Lyapunov gate."""

    def __init__(self, cause: LmeError | str):
        self.cause = cause if isinstance(cause, LmeError) else None
        detail = cause if isinstance(cause, str) else f"{type(cause).__name__}: {cause}"
        super().__init__(detail)


class NotNormalError(HypothesisViolatedError):
    """A Lyapunov coefficient matrix must be normal."""


class NotHermitianRhsError(HypothesisViolatedError):
    """A Lyapunov right-hand side must be Hermitian."""


class InconsistentInputError(LmeError):
    """The operation needs a consistent solve result."""


class OracleMismatchError(LmeError):
    """Structured solver and brute-force oracle disagree."""

    def __init__(self, failures: list[str]):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))
