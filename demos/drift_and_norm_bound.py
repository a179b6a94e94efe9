"""Drift terms: tangency to the generator and the one-step norm bound.

Two diagnostics justify composing the one-step operator.  First, tangency:
(S_tau phi - phi)/tau approaches L phi as tau shrinks, also with a first-order
term <phi', A B> present.  Second, stability: ||S_tau u|| never exceeds
exp((2 ||A|| B0^2 / g0 + ||C||) tau) ||u||, so compositions stay bounded.
"""

import numpy as np

from gausspde import (
    Coefficients,
    CylFunction,
    GridField,
    OperatorL,
    QuadratureSpec,
    TraceClassOperator,
    norm_bound_check,
    philox_generator,
    tangency_residual,
)

quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=32)

coeffs = Coefficients(
    g=CylFunction.constant(1.3, 1),
    B=(CylFunction.constant(0.8, 1),),
    C=CylFunction.constant(-0.4, 1),
    g_floor=1.3,
)
op = OperatorL(coeffs=coeffs, A=TraceClassOperator([0.5]))

phi = CylFunction(
    dim=1,
    eval=lambda x: np.cos(2.0 * x[:, 0]),
    grad=lambda x: -2.0 * np.sin(2.0 * x[:, 0])[:, None],
    hess=lambda x: -4.0 * np.cos(2.0 * x[:, 0])[:, None, None],
    sup_bound=1.0,
)
grid = np.linspace(-3.0, 3.0, 61)[:, None]

print("generator: L phi = 1.3 * 0.5 phi'' + 0.5 * 0.8 phi' - 0.4 phi  (constant drift)")
print("tangency residual sup |(S_tau phi - phi)/tau - L phi| for phi = cos(2x):")
for tau in (1e-1, 1e-2, 1e-3, 1e-4):
    print(f"  tau = {tau:<7g} residual = {tangency_residual(op, phi, tau, grid, quad):.3e}")

# Norm bound over rough random fields: the measured growth ratio stays under
# the closed-form bound with room to spare.
bound_coeffs = Coefficients(
    g=CylFunction.constant(1.0, 1),
    B=(CylFunction.constant(1.0, 1),),
    C=CylFunction.constant(-1.0, 1),
    g_floor=1.0,
)
bound_op = OperatorL(coeffs=bound_coeffs, A=TraceClassOperator([0.5]))
tau = 0.2
print(f"\nnorm bound at tau = {tau} with g0 = 1, B0 = 1, ||C|| = 1:")
fields = [
    GridField(bounds=((-8.0, 8.0),), values=philox_generator(0, (i,)).uniform(-1.0, 1.0, 257))
    for i in range(5)
]
ratios, bound = norm_bound_check(bound_op, tau, fields, quad)
for i, ratio in enumerate(ratios):
    print(f"  field {i}: ||S u|| / ||u|| = {ratio:.4f}  <=  bound {bound:.4f}")
print(f"worst ratio {max(ratios):.4f} stays below the bound")
