"""Person-by-person optimal strategy solver for two-stage signaling teams.

Subpackages by concern:

- quadrature: Gauss-Hermite rules (nodes, weights, exactness to degree 2n-1).
- counterexample: problem parameters, affine and sign/tanh baselines,
  Monte Carlo and deterministic-quadrature payoffs, stationarity residuals.
- ghq_solver: collocation solver for the coupled optimality equations and
  evaluable solved strategy pairs.
- fixed_point: best-response operator on gridded strategies, damped Picard
  iteration, derivative kernels, Lipschitz probes.
- measure_change: exact likelihood-ratio identities on finite team models.
- cli: command-line front end emitting JSON and CSV result documents.
"""

from .counterexample import (
    GaussianPrior,
    PayoffBreakdown,
    ProblemParams,
    StrategyPair,
    TwoPointSymmetricPrior,
    affine_cost,
    affine_optimal,
    affine_pair,
    gaussian_posterior_mean,
    jump_breakpoints,
    payoff_mc,
    payoff_quadrature,
    rnd_density,
    stationarity_residual,
    wit_nonlinear,
)
from .errors import ConfigurationError, NumericError
from .fixed_point import (
    GridStrategy,
    PicardResult,
    apply_F,
    default_grid,
    frechet_kernel,
    lipschitz_estimate,
    picard_iterate,
    strategy_from_pair,
)
from .ghq_solver import (
    SignalingLevels,
    SolveReport,
    StaircaseSummary,
    collocation_pair,
    expand_distinct_levels,
    residual_jacobian,
    residual_system,
    solve_signaling_levels,
    solved_pair,
    summarize_staircase,
)
from .measure_change import (
    BruteForceReport,
    FiniteTeamModel,
    MartingaleReport,
    PayoffEquivalenceReport,
    RadonNikodymPath,
    StrategyProfile,
    brute_force_pbp,
    expected_cost,
    identity_model,
    joint_measure_original,
    load_model,
    model_from_dict,
    model_to_dict,
    payoff_equivalence,
    profile_count,
    random_model,
    rnd_process,
    uniform_profile,
    verify_martingale,
)
from .quadrature import QuadratureRule, build_hermite_rule, integrate

__version__ = "1.0.0"

__all__ = [
    "BruteForceReport",
    "ConfigurationError",
    "FiniteTeamModel",
    "GaussianPrior",
    "GridStrategy",
    "MartingaleReport",
    "NumericError",
    "PayoffBreakdown",
    "PayoffEquivalenceReport",
    "PicardResult",
    "ProblemParams",
    "QuadratureRule",
    "RadonNikodymPath",
    "SignalingLevels",
    "SolveReport",
    "StaircaseSummary",
    "StrategyPair",
    "StrategyProfile",
    "TwoPointSymmetricPrior",
    "affine_cost",
    "affine_optimal",
    "affine_pair",
    "apply_F",
    "brute_force_pbp",
    "build_hermite_rule",
    "collocation_pair",
    "default_grid",
    "expand_distinct_levels",
    "expected_cost",
    "frechet_kernel",
    "gaussian_posterior_mean",
    "identity_model",
    "integrate",
    "joint_measure_original",
    "jump_breakpoints",
    "lipschitz_estimate",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "payoff_equivalence",
    "payoff_mc",
    "payoff_quadrature",
    "picard_iterate",
    "profile_count",
    "random_model",
    "residual_jacobian",
    "residual_system",
    "rnd_density",
    "rnd_process",
    "solve_signaling_levels",
    "solved_pair",
    "stationarity_residual",
    "strategy_from_pair",
    "summarize_staircase",
    "uniform_profile",
    "verify_martingale",
    "wit_nonlinear",
]
