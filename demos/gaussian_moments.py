"""Gaussian moment identities: closed forms vs quadrature.

Every expectation the solver evaluates reduces to moments of a centered
Gaussian with diagonal covariance t*A.  This script compares the four closed
forms against tensor Gauss-Hermite quadrature and Monte Carlo sampling, then
checks the scale identity E_{tA} f = E_A f(sqrt(t) y) at the node level.
"""

import numpy as np

from gausspde import (
    GaussianSpec,
    QuadratureSpec,
    TraceClassOperator,
    expect_exp,
    expect_linear_exp,
    expect_quadratic,
    expect_quadratic_exp,
    integrate,
    mc_estimates,
    scale_identity_residual,
)

gh = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=32)
mc = QuadratureSpec(backend="monte_carlo", samples=200_000, rng_seed=0)

spec = GaussianSpec(np.zeros(2), 1.0, TraceClassOperator([0.5, 0.25]))
cases = [
    ("E |y|^2", lambda y: y[:, 0] ** 2 + y[:, 1] ** 2, expect_quadratic(np.eye(2), spec)),
    ("E e^{y1+y2}", lambda y: np.exp(y[:, 0] + y[:, 1]), expect_exp(np.ones(2), spec)),
    (
        "E (y1+y2) e^{y1-y2}",
        lambda y: (y[:, 0] + y[:, 1]) * np.exp(y[:, 0] - y[:, 1]),
        expect_linear_exp(np.ones(2), np.array([1.0, -1.0]), spec),
    ),
    (
        "E |y|^2 e^{y1}",
        lambda y: (y[:, 0] ** 2 + y[:, 1] ** 2) * np.exp(y[:, 0]),
        expect_quadratic_exp(np.eye(2), np.array([1.0, 0.0]), spec),
    ),
]

# One Monte Carlo draw serves all four moments.
estimates = mc_estimates([(f, spec) for _, f, _ in cases], mc)

print("moment               closed form     GH error    MC error (4 std errs)")
for (name, f, exact), (mean, stderr) in zip(cases, estimates):
    gh_err = abs(integrate(f, spec, gh) - exact)
    print(f"{name:<20s} {exact:>12.8f}  {gh_err:>10.2e}  {abs(mean - exact):>10.2e} ({4 * stderr:.2e})")

# The scale identity: integrating against the covariance t*A equals
# integrating f(sqrt(t) y) against A, exactly at the standardized nodes.
A = TraceClassOperator([0.6, 0.3])
print("\nscale identity residuals (shared nodes, expected ~1e-16):")
for t in (0.37, 2.0, 4.0):
    residual = scale_identity_residual(lambda y: np.exp(0.5 * (y[:, 0] + y[:, 1])), t, A, gh)
    print(f"  t = {t:<5g} residual = {residual:.3e}")
