"""Verification battery: one row per proved property, (name, measured, threshold, pass).

The battery re-measures, at desk scale, every inequality the library is built
on.  Reference problems are fixed so the rows mean the same thing for every
configuration; the experiment configuration contributes the quadrature backend
(with its seed) everywhere and the coefficient/grid/step choices for the
contractivity row, which is the row a deliberately broken configuration
(C > 0) is expected to flip.

Checks, in report order::

    gaussian_identities             quadrature vs closed-form Gaussian moments
    scale_identity                  E_{tA} f = E_A f(sqrt(t) y), shared nodes
    tangency_decrease               |(S_tau phi - phi)/tau - L phi| -> 0
    norm_bound                      ||S_tau|| <= exp((2||A|| B0^2/g0 + ||C||) tau)
    contractivity                   B = 0, C <= 0: interior sup never grows
    dissipativity_witness           ||(L - lambda) f|| >= lambda ||f||
    constant_coefficient_exactness  iterated kernel vs e^{(c - g a k^2) t} cos(kx)
    coefficient_continuity          small coefficient changes move the solution little

measured <= threshold means pass, except tangency_decrease where measured is
the worst residual ratio between consecutive tau and must be strictly < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ExperimentConfig
from .cylinder import Coefficients, CylFunction, OperatorL, dissipativity_witness
from .engine import (
    ChernoffPlan,
    GridField,
    chernoff_solve,
    coefficient_continuity_probe,
    norm_bound_check,
    tangency_residual,
)
from .gauss import (
    GaussianSpec,
    QuadratureSpec,
    TraceClassOperator,
    expect_exp,
    expect_linear_exp,
    expect_quadratic,
    expect_quadratic_exp,
    integrate,
    mc_estimates,
    philox_generator,
    scale_identity_residual,
)
from .oracle import exact_constant_solution


@dataclass(frozen=True)
class CheckResult:
    """One battery row; passed is what the exit code aggregates."""

    name: str
    measured: float
    threshold: float
    passed: bool


# ---------------------------------------------------------------- test suites


def _cyl_1d(f, df, d2f, sup: float) -> CylFunction:
    return CylFunction(
        dim=1,
        eval=lambda x: f(x[:, 0]),
        grad=lambda x: df(x[:, 0])[:, None],
        hess=lambda x: d2f(x[:, 0])[:, None, None],
        sup_bound=sup,
    )


def smooth_suite() -> list[CylFunction]:
    """Ten bounded smooth functions with analytic first and second derivatives."""
    return [
        _cyl_1d(np.cos, lambda s: -np.sin(s), lambda s: -np.cos(s), 1.0),
        _cyl_1d(np.sin, np.cos, lambda s: -np.sin(s), 1.0),
        _cyl_1d(
            lambda s: np.cos(2.0 * s),
            lambda s: -2.0 * np.sin(2.0 * s),
            lambda s: -4.0 * np.cos(2.0 * s),
            1.0,
        ),
        _cyl_1d(
            lambda s: np.exp(-0.5 * s * s),
            lambda s: -s * np.exp(-0.5 * s * s),
            lambda s: (s * s - 1.0) * np.exp(-0.5 * s * s),
            1.0,
        ),
        _cyl_1d(
            lambda s: np.exp(-0.25 * s * s),
            lambda s: -0.5 * s * np.exp(-0.25 * s * s),
            lambda s: (0.25 * s * s - 0.5) * np.exp(-0.25 * s * s),
            1.0,
        ),
        _cyl_1d(
            lambda s: 1.0 / (1.0 + s * s),
            lambda s: -2.0 * s / (1.0 + s * s) ** 2,
            lambda s: (6.0 * s * s - 2.0) / (1.0 + s * s) ** 3,
            1.0,
        ),
        _cyl_1d(
            lambda s: s * np.exp(-0.5 * s * s),
            lambda s: (1.0 - s * s) * np.exp(-0.5 * s * s),
            lambda s: s * (s * s - 3.0) * np.exp(-0.5 * s * s),
            0.61,
        ),
        _cyl_1d(
            lambda s: np.sin(s) * np.exp(-0.25 * s * s),
            lambda s: (np.cos(s) - 0.5 * s * np.sin(s)) * np.exp(-0.25 * s * s),
            lambda s: ((0.25 * s * s - 1.5) * np.sin(s) - s * np.cos(s)) * np.exp(-0.25 * s * s),
            1.0,
        ),
        _cyl_1d(
            lambda s: np.exp(-0.5 * (s - 1.0) ** 2),
            lambda s: -(s - 1.0) * np.exp(-0.5 * (s - 1.0) ** 2),
            lambda s: ((s - 1.0) ** 2 - 1.0) * np.exp(-0.5 * (s - 1.0) ** 2),
            1.0,
        ),
        _cyl_1d(
            lambda s: s * s * np.exp(-0.5 * s * s),
            lambda s: (2.0 * s - s**3) * np.exp(-0.5 * s * s),
            lambda s: (2.0 - 5.0 * s * s + s**4) * np.exp(-0.5 * s * s),
            0.74,
        ),
    ]


# the Gauss-Hermite rule of the gaussian_identities and scale_identity rows
_GH32 = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=32)


def _operator(g: float, c: float, sine: float = 0.0, drift: float = 0.0) -> OperatorL:
    """One-axis L with A = diag(0.5): diffusion g + sine * sin(x), constant C = c and drift B = drift."""
    if sine:
        g_fn = CylFunction(dim=1, eval=lambda x: g + sine * np.sin(x[:, 0]), sup_bound=g + sine)
    else:
        g_fn = CylFunction.constant(g, 1)
    co = Coefficients(
        g=g_fn,
        B=(CylFunction.constant(drift, 1),),
        C=CylFunction.constant(c, 1),
        g_floor=g - sine,
        contractive=c <= 0.0,
    )
    return OperatorL(coeffs=co, A=TraceClassOperator([0.5]))


def _identity_cases():
    """(integrand, GaussianSpec, closed form) for the documented moment family."""
    def spec(scale, qs):
        qs = np.asarray(qs, dtype=float)
        return GaussianSpec(np.zeros(qs.size), scale, TraceClassOperator(qs))

    s21 = spec(1.0, [0.5, 0.25])
    s1w = spec(2.0, [1.0])
    s11 = spec(1.0, [1.0])
    s3 = spec(1.0, [1.0, 0.5, 0.25])
    z3 = np.array([0.3, 0.2, 0.1])
    return [
        (lambda y: y[:, 0] ** 2 + y[:, 1] ** 2, s21, expect_quadratic(np.eye(2), s21)),
        (lambda y: np.exp(y[:, 0]), s1w, expect_exp(np.array([1.0]), s1w)),
        (lambda y: np.exp(y[:, 0] + y[:, 1]), s21, expect_exp(np.array([1.0, 1.0]), s21)),
        (
            lambda y: y[:, 0] * np.exp(y[:, 0]),
            s1w,
            expect_linear_exp(np.array([1.0]), np.array([1.0]), s1w),
        ),
        (
            lambda y: (y[:, 0] + y[:, 1]) * np.exp(y[:, 0] - y[:, 1]),
            s21,
            expect_linear_exp(np.array([1.0, 1.0]), np.array([1.0, -1.0]), s21),
        ),
        (
            lambda y: y[:, 0] ** 2 * np.exp(y[:, 0]),
            s11,
            expect_quadratic_exp(np.array([[1.0]]), np.array([1.0]), s11),
        ),
        (lambda y: np.sum(y * y, axis=1), s3, expect_quadratic(np.eye(3), s3)),
        (lambda y: np.exp(y @ z3), s3, expect_exp(z3, s3)),
        (
            lambda y: np.sum(y * y, axis=1) * np.exp(0.2 * y[:, 0]),
            s3,
            expect_quadratic_exp(np.eye(3), np.array([0.2, 0.0, 0.0]), s3),
        ),
    ]


# ---------------------------------------------------------------- the checks


def _check_gaussian_identities(config: ExperimentConfig) -> CheckResult:
    mc = QuadratureSpec(
        backend="monte_carlo",
        samples=config.quadrature.samples,
        rng_seed=config.quadrature.rng_seed,
    )
    cases = _identity_cases()
    estimates = mc_estimates([(f, spec) for f, spec, _ in cases], mc)
    worst = 0.0
    for (f, spec, exact), (mean, stderr) in zip(cases, estimates):
        worst = max(worst, abs(integrate(f, spec, _GH32) - exact))
        worst = max(worst, max(0.0, abs(mean - exact) - 4.0 * stderr))
    return CheckResult("gaussian_identities", worst, 1e-9, worst <= 1e-9)


def _check_scale_identity(config: ExperimentConfig) -> CheckResult:
    A = TraceClassOperator([0.6, 0.3])
    family = [
        lambda y: np.ones(y.shape[0]),
        lambda y: y[:, 0],
        lambda y: y[:, 0] ** 2,
        lambda y: np.exp(-y[:, 0]),
        lambda y: np.exp(0.5 * (y[:, 0] + y[:, 1])),
        lambda y: y[:, 0] * y[:, 1],
    ]
    worst = max(
        scale_identity_residual(f, t, A, _GH32) for f in family for t in (0.37, 2.0, 4.0)
    )
    return CheckResult("scale_identity", worst, 1e-10, worst <= 1e-10)


def _check_tangency_decrease(config: ExperimentConfig) -> CheckResult:
    suite = smooth_suite()
    variable = _operator(1.0, -0.3, sine=0.5)
    pairs = [(variable, suite[i]) for i in (0, 3, 5, 7)] + [(_operator(1.3, -0.4, drift=0.8), suite[2])]
    grid = np.linspace(-3.0, 3.0, 61)[:, None]
    taus = (1e-1, 1e-2, 1e-3)
    worst_ratio = 0.0
    for op, phi in pairs:
        residuals = [tangency_residual(op, phi, tau, grid, config.quadrature) for tau in taus]
        for r_coarse, r_fine in zip(residuals, residuals[1:]):
            worst_ratio = max(worst_ratio, r_fine / r_coarse)
    return CheckResult("tangency_decrease", worst_ratio, 1.0, worst_ratio < 1.0)


def _check_norm_bound(config: ExperimentConfig) -> CheckResult:
    op = _operator(1.0, -1.0, drift=1.0)
    fields = [
        GridField(
            bounds=((-8.0, 8.0),),
            values=philox_generator(config.quadrature.rng_seed, (8800 + i,)).uniform(-1.0, 1.0, 257),
        )
        for i in range(20)
    ]
    ratios, bound = norm_bound_check(op, 0.2, fields, config.quadrature)
    worst = float(np.max(ratios - bound))
    return CheckResult("norm_bound", worst, 1e-8, worst <= 1e-8)


def _check_contractivity(config: ExperimentConfig) -> CheckResult:
    res = chernoff_solve(config.plan(config.steps[-1]), config.grid)
    measured = float(np.max(res.interior_sup_norms)) - config.grid.sup_norm
    return CheckResult("contractivity", measured, 1e-8, measured <= 1e-8)


def _check_dissipativity(config: ExperimentConfig) -> CheckResult:
    op = _operator(1.0, -0.3, sine=0.5)
    grid = np.linspace(-8.0, 8.0, 2001)[:, None]
    worst = -math.inf
    for f in smooth_suite():
        for lam in (0.5, 1.0, 2.0):
            lhs, rhs = dissipativity_witness(op, f, lam, grid)
            worst = max(worst, rhs - lhs)
    return CheckResult("dissipativity_witness", worst, 1e-6, worst <= 1e-6)


def _check_constant_coefficient(config: ExperimentConfig) -> CheckResult:
    bounds = ((-9.2, 9.2),)
    u0 = GridField.from_function(bounds, 512, lambda x: np.cos(x[:, 0]))
    worst = 0.0
    for c in (0.0, -1.0):
        op = _operator(1.0, c)
        plan = ChernoffPlan(t_final=1.0, steps=1, quad=config.quadrature, op=op)
        mask = u0.interior_mask(plan.required_margin())
        exact = exact_constant_solution(1.0, 0.5, c, 1.0, 1.0, u0.axes[0][mask])
        for n in (1, 4, 16):
            plan = ChernoffPlan(t_final=1.0, steps=n, quad=config.quadrature, op=op)
            res = chernoff_solve(plan, u0)
            worst = max(worst, float(np.max(np.abs(res.field.values[mask] - exact))))
    return CheckResult("constant_coefficient_exactness", worst, 1e-5, worst <= 1e-5)


def _check_coefficient_continuity(config: ExperimentConfig) -> CheckResult:
    base = _operator(1.0, -0.2, sine=0.5)
    u0 = GridField.from_function(((-8.4, 8.4),), 512, lambda x: np.cos(x[:, 0]))
    plan = ChernoffPlan(t_final=0.5, steps=8, quad=config.quadrature, op=base)
    perturbed = [_operator(1.0 + d, -0.2 - d, sine=0.5) for d in (1e-1, 1e-2, 1e-3)]
    gaps = coefficient_continuity_probe(base, perturbed, plan, u0)
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    measured = gaps[-1] if decreasing else math.inf
    return CheckResult("coefficient_continuity", measured, 1e-2, measured <= 1e-2)


_CHECKS = (
    _check_gaussian_identities,
    _check_scale_identity,
    _check_tangency_decrease,
    _check_norm_bound,
    _check_contractivity,
    _check_dissipativity,
    _check_constant_coefficient,
    _check_coefficient_continuity,
)


def run_battery(config: ExperimentConfig) -> tuple[CheckResult, ...]:
    """Run all checks in report order; deterministic for a fixed config and seed."""
    if not config.coefficients.drift_is_zero:
        raise ConfigError("coefficients.B: the verification battery needs a drift-free configuration")
    return tuple(check(config) for check in _CHECKS)
