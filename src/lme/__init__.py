"""Solvers for linear matrix equations sum_j A_j X B_j = C whose parameter
matrices form a commuting family of diagonalizable matrices, with an
independent brute-force referee."""

from .equations import (
    AffineSolutionSet,
    ConsistencyEvidence,
    EquationSpec,
    RelevantMatrix,
    UniquenessReport,
    check_consistent,
    coefficient_sum,
    equation_residual,
    equation_spec,
    named_form_pair_count,
    relevant_matrix,
    solve,
    solve_continuous_lyapunov,
    solve_discrete_lyapunov,
    solve_standard,
    solve_stein,
    solve_sylvester,
    standard_spec,
    uniqueness_report,
    x_hat,
)
from .errors import (
    DimensionMismatchError,
    EmptyListError,
    HypothesisViolatedError,
    InconsistentInputError,
    IndexTooLargeError,
    IntersectionAmbiguousError,
    LmeError,
    NoMatchingPermutationError,
    NonFiniteError,
    NonSquareError,
    NotADiagonalizerError,
    NotCommutingError,
    NotDiagonalizableError,
    NotHermitianRhsError,
    NotNormalError,
    OracleMismatchError,
    RefinementFailureError,
)
from .geninv import (
    CoreNilpotentDecomposition,
    core_nilpotent,
    drazin,
    group_inverse,
    index,
    moore_penrose,
    scalar_dagger,
)
from .matcore import (
    EigenDecomposition,
    Permutation,
    commutes,
    direct_sum,
    direct_sum_permutation,
    eig_decompose,
    is_normal,
    permutation_matrix,
    permute_vector,
)
from .oracle import (
    ComparisonReport,
    OracleSolution,
    VectorizedSystem,
    compare,
    oracle_solve,
    vectorize,
)
from .simdiag import (
    CommutantDescription,
    CommutingFamily,
    StarSequence,
    commutant,
    induced_pair_without_diagonalizer,
    induced_vectors,
    match_induced_sequences,
    simultaneous_diagonalizer,
    star_vector_of,
    validate_family,
)
from .tolerances import TOL_CLUSTER, TOL_COMMUTE, TOL_RANK, TOL_RECON, TOL_RES, TOL_ZERO, Tolerances

__version__ = "0.1.0"
