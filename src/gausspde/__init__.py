"""Iterated Gaussian-integral solver for parabolic equations.

Approximates u(t, x) solving u'_t = g(x) tr(A u'') + <u', A B(x)> + C(x) u by
composing an explicit one-step Gaussian averaging operator n times and letting
n grow: the n-fold composition converges to the solution semigroup because the
one-step family is tangent to the generator and uniformly norm-bounded.

Modules: gauss (Gaussian moments and quadrature), cylinder (coefficient
functions and the generator), engine (the one-step operator and its
iteration), oracle (finite-difference and closed-form references), config and
battery and cli (experiment files, the verification battery, the command-line
front-end).
"""

from .battery import CheckResult, run_battery, smooth_suite
from .cli import main
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .cylinder import (
    Coefficients,
    CylFunction,
    OperatorL,
    apply_L,
    dissipativity_witness,
    gradient,
    trace_hessian,
)
from .engine import (
    ChernoffPlan,
    ChernoffResult,
    GridField,
    TapTableError,
    TruncationError,
    apply_S,
    chernoff_solve,
    coefficient_continuity_probe,
    norm_bound_check,
    tangency_residual,
)
from .gauss import (
    GH_MAX_DIM,
    GaussianSpec,
    IntegrandError,
    QuadratureSpec,
    TraceClassOperator,
    expect_exp,
    expect_linear_exp,
    expect_quadratic,
    expect_quadratic_exp,
    gaussian_nodes,
    integrate,
    mc_estimate,
    mc_estimates,
    philox_generator,
    scale_identity_residual,
)
from .oracle import ExactConstant, FDProblem, exact_constant_solution, fd_solve, resolvent_solve

__version__ = "0.1.0"

__all__ = [
    "GH_MAX_DIM",
    "ChernoffPlan",
    "ChernoffResult",
    "CheckResult",
    "Coefficients",
    "ConfigError",
    "CylFunction",
    "ExactConstant",
    "ExperimentConfig",
    "FDProblem",
    "GaussianSpec",
    "GridField",
    "IntegrandError",
    "OperatorL",
    "QuadratureSpec",
    "TapTableError",
    "TraceClassOperator",
    "TruncationError",
    "apply_L",
    "apply_S",
    "chernoff_solve",
    "coefficient_continuity_probe",
    "dissipativity_witness",
    "exact_constant_solution",
    "expect_exp",
    "expect_linear_exp",
    "expect_quadratic",
    "expect_quadratic_exp",
    "fd_solve",
    "gaussian_nodes",
    "gradient",
    "integrate",
    "load_config",
    "main",
    "mc_estimate",
    "mc_estimates",
    "norm_bound_check",
    "parse_config",
    "philox_generator",
    "resolvent_solve",
    "run_battery",
    "scale_identity_residual",
    "smooth_suite",
    "tangency_residual",
    "trace_hessian",
    "__version__",
]
