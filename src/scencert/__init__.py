"""Distribution-free a posteriori certificates for convex scenario programs.

Certificates combine two observable quantities: the number of support
constraints of the solved scenario program and the number of violations
seen on held-out validation samples.  The package computes the resulting
two-indexed bound grids, the classic one-indexed bounds they generalize,
fundamental lower limits, LP-based coefficient refinement, and a Monte
Carlo harness that audits every guarantee on analytically solvable toy
problems.
"""

from .binom_tail import binom_cdf, log_binom_cdf, log_binom_coeff, log_sum_exp
from .classic_bounds import (
    DEFAULT_TOL,
    ChernoffBound,
    apriori_epsilon,
    chernoff_bound,
    clopper_pearson,
)
from .lower_limits import (
    LowerLimit,
    LowerLimitTable,
    attaining_table,
    lower_limit,
    lower_limit_table,
    z_coefficients,
)
from .posterior_bounds import (
    BoundTable,
    CertificateProblem,
    CoefficientVector,
    bound_table,
    certificate_sign,
    solve_root,
    wait_and_judge,
)
from .refinement import (
    RefinementError,
    RefinementIteration,
    RefinementTrace,
    build_refinement_lp,
    dominance_check,
    refine,
)
from .scenario_lab import (
    BOUND_NAMES,
    GapStatistics,
    IncrementalStep,
    ScenarioSolution,
    ToyScenarioProblem,
    TrialRecord,
    count_validation_violations,
    incremental_judgement,
    run_monte_carlo,
    solve_scenario,
    violation_mask,
    violation_probability,
)
from .simplex import (
    LinearProgram,
    LPError,
    LPInfeasibleError,
    LPSolution,
    LPUnboundedError,
    SimplexError,
    lp_solve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # binomial tail kernel
    "log_binom_coeff",
    "log_sum_exp",
    "log_binom_cdf",
    "binom_cdf",
    # classic bounds
    "DEFAULT_TOL",
    "ChernoffBound",
    "chernoff_bound",
    "clopper_pearson",
    "apriori_epsilon",
    # two-indexed certificates
    "CertificateProblem",
    "CoefficientVector",
    "BoundTable",
    "certificate_sign",
    "solve_root",
    "bound_table",
    "wait_and_judge",
    # lower limits
    "z_coefficients",
    "LowerLimit",
    "lower_limit",
    "LowerLimitTable",
    "lower_limit_table",
    "attaining_table",
    # refinement
    "LinearProgram",
    "LPSolution",
    "LPError",
    "LPInfeasibleError",
    "LPUnboundedError",
    "SimplexError",
    "lp_solve",
    "dominance_check",
    "build_refinement_lp",
    "RefinementError",
    "RefinementIteration",
    "RefinementTrace",
    "refine",
    # scenario lab
    "ToyScenarioProblem",
    "ScenarioSolution",
    "solve_scenario",
    "violation_mask",
    "count_validation_violations",
    "violation_probability",
    "TrialRecord",
    "GapStatistics",
    "run_monte_carlo",
    "IncrementalStep",
    "incremental_judgement",
    "BOUND_NAMES",
]
