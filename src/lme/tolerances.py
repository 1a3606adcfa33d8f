"""Default numerical tolerances shared across the package.

All thresholds are relative to a per-call scale unless a docstring says
otherwise, and every public routine accepts an override.
"""

TOL_RECON = 1e-8     # off-diagonal mass of S^{-1} M S in an eigenbasis
TOL_COMMUTE = 1e-10  # commutation and normality tests
TOL_CLUSTER = 1e-8   # eigenvalue clustering gap
TOL_ZERO = 1e-10     # scalar zero threshold (relevant-matrix cells, eigenvalues)
TOL_RES = 1e-8       # equation residual acceptance
TOL_RANK = 1e-10     # singular-value threshold for numerical rank
