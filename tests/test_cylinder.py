"""Cylindrical functions, their derivatives, and the reduced operator L."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausspde.cylinder import (
    Coefficients,
    CylFunction,
    OperatorL,
    apply_L,
    dissipativity_witness,
    gradient,
    trace_hessian,
)
from gausspde.gauss import TraceClassOperator


def f_sincos():
    return CylFunction(
        dim=2,
        eval=lambda x: np.sin(x[:, 0]) * np.cos(x[:, 1]),
        grad=lambda x: np.stack(
            [np.cos(x[:, 0]) * np.cos(x[:, 1]), -np.sin(x[:, 0]) * np.sin(x[:, 1])], axis=1
        ),
        sup_bound=1.0,
    )


def f_gauss_1d():
    e = lambda x: np.exp(-x[:, 0] ** 2)
    return CylFunction(
        dim=1,
        eval=e,
        grad=lambda x: (-2.0 * x[:, 0] * e(x))[:, None],
        hess=lambda x: ((4.0 * x[:, 0] ** 2 - 2.0) * e(x))[:, None, None],
        sup_bound=1.0,
    )


def coeffs_const(g=1.0, b=None, c=0.0, dim=1, contractive=False):
    B = None if b is None else [CylFunction.constant(bi, dim) for bi in b]
    return Coefficients(
        g=CylFunction.constant(g, dim),
        B=B,
        C=CylFunction.constant(c, dim),
        g_floor=g,
        contractive=contractive,
    )


# ---------------------------------------------------------------- CylFunction


def test_cylfunction_validation():
    with pytest.raises(ValueError):
        CylFunction(dim=0, eval=lambda x: x[:, 0], sup_bound=1.0)
    with pytest.raises(ValueError):
        CylFunction(dim=1, eval=lambda x: x[:, 0], sup_bound=1.0, fd_step=0.0)
    with pytest.raises(ValueError):
        CylFunction(dim=1, eval=lambda x: x[:, 0], sup_bound=-1.0)


def test_cylfunction_dim_must_be_an_integer():
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        CylFunction(dim=1.5, eval=lambda x: x[:, 0], sup_bound=1.0)
    assert CylFunction(dim=np.int64(2), eval=lambda x: x[:, 0], sup_bound=1.0).dim == 2


def test_sup_bound_asserted_on_evaluation():
    f = CylFunction(dim=1, eval=lambda x: x[:, 0], sup_bound=1.0)
    assert_allclose(f(np.array([[0.5]])), [0.5])
    with pytest.raises(ValueError):
        f(np.array([[2.0]]))


def test_constant_and_pointwise_constructors():
    c = CylFunction.constant(-0.5, dim=2)
    assert_allclose(c(np.zeros((3, 2))), [-0.5, -0.5, -0.5])
    assert c.is_constant and c.constant_value == -0.5


def test_declared_constant_value_must_match_eval():
    # unchecked, this B would make Coefficients drop the drift, though it reads 0.5 at pi/2
    with pytest.raises(ValueError, match="constant_value"):
        CylFunction(dim=1, eval=lambda x: 0.5 * np.sin(x[:, 0]), sup_bound=0.5, constant_value=0.0)
    assert CylFunction(dim=3, eval=lambda x: np.full(x.shape[0], 0.25), sup_bound=0.25, constant_value=0.25).is_constant


def test_declared_grad_must_match_finite_differences():
    with pytest.raises(ValueError):
        CylFunction(
            dim=1,
            eval=lambda x: np.sin(x[:, 0]),
            grad=lambda x: 2.0 * np.cos(x[:, 0])[:, None],  # wrong by a factor
            sup_bound=1.0,
        )


# ---------------------------------------------------------------- derivatives


def test_gradient_examples():
    lin = CylFunction(dim=2, eval=lambda x: x[:, 0], sup_bound=100.0)
    assert_allclose(gradient(lin, np.array([0.3, -2.0])), [1.0, 0.0], atol=1e-9)
    const = CylFunction.constant(3.0, dim=2)
    assert_allclose(gradient(const, np.zeros(2)), [0.0, 0.0], atol=1e-12)
    assert_allclose(gradient(f_sincos(), np.zeros(2)), [1.0, 0.0], atol=1e-12)


def test_gradient_matches_finite_differences():
    f = f_sincos()
    fd = CylFunction(dim=2, eval=f.eval, sup_bound=1.0, fd_step=1e-5)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, (20, 2))
    for x in pts:
        err = np.max(np.abs(gradient(f, x) - gradient(fd, x)))
        assert err <= 10 * fd.fd_step**2


def test_gradient_batch_shape():
    f = f_sincos()
    out = gradient(f, np.zeros((5, 2)))
    assert out.shape == (5, 2)


def test_trace_hessian_examples():
    A = TraceClassOperator([0.7, 0.3])
    quad = CylFunction(dim=2, eval=lambda x: x[:, 0] ** 2, sup_bound=1e6)
    assert trace_hessian(A, quad, np.array([1.0, 2.0])) == pytest.approx(2 * 0.7, abs=1e-5)
    lin = CylFunction(dim=2, eval=lambda x: 3 * x[:, 0] - x[:, 1], sup_bound=1e6)
    assert trace_hessian(A, lin, np.zeros(2)) == pytest.approx(0.0, abs=1e-5)
    cosf = CylFunction(
        dim=1,
        eval=lambda x: np.cos(x[:, 0]),
        grad=lambda x: -np.sin(x[:, 0])[:, None],
        hess=lambda x: -np.cos(x[:, 0])[:, None, None],
        sup_bound=1.0,
    )
    assert trace_hessian(TraceClassOperator([0.5]), cosf, np.zeros(1)) == pytest.approx(-0.5, abs=1e-12)


# ---------------------------------------------------------------- coefficients


def test_coefficients_validation():
    with pytest.raises(ValueError):
        Coefficients(
            g=CylFunction.constant(1.0, 1),
            B=None,
            C=CylFunction.constant(0.0, 1),
            g_floor=0.0,
        )
    # g dipping below its floor is caught on evaluation
    g = CylFunction(dim=1, eval=lambda x: 1.0 + np.sin(x[:, 0]), sup_bound=2.0)
    co = Coefficients(g=g, B=None, C=CylFunction.constant(0.0, 1), g_floor=0.5)
    with pytest.raises(ValueError):
        co.g_at(np.array([[-math.pi / 2]]))
    # contractive regime rejects positive C on evaluation
    bad = Coefficients(
        g=CylFunction.constant(1.0, 1),
        B=None,
        C=CylFunction.constant(0.5, 1),
        g_floor=1.0,
        contractive=True,
    )
    with pytest.raises(ValueError):
        bad.c_at(np.zeros((1, 1)))


def test_drift_flag_consistency():
    zero = CylFunction.constant(0.0, 1)
    co = Coefficients(g=CylFunction.constant(1.0, 1), B=[zero], C=zero, g_floor=1.0)
    assert co.drift_is_zero
    one = CylFunction.constant(1.0, 1)
    co2 = Coefficients(g=CylFunction.constant(1.0, 1), B=[one], C=zero, g_floor=1.0)
    assert not co2.drift_is_zero


def test_operator_requires_large_enough_block():
    co = coeffs_const(dim=2)
    with pytest.raises(ValueError):
        OperatorL(coeffs=co, A=TraceClassOperator([0.5]))
    op = OperatorL(coeffs=co, A=TraceClassOperator([0.5, 0.25]))
    assert op.dim == 2


# ---------------------------------------------------------------- apply_L


def test_apply_l_examples():
    A = TraceClassOperator([0.5])
    quad = CylFunction(dim=1, eval=lambda x: x[:, 0] ** 2, sup_bound=1e6)
    op = OperatorL(coeffs=coeffs_const(g=1.0, c=0.0, dim=1), A=A)
    for x in ([0.0], [1.7], [-3.0]):
        assert apply_L(op, quad, np.array(x)) == pytest.approx(2 * 0.5, abs=1e-4)

    const = CylFunction.constant(2.0, dim=1)
    cvar = CylFunction(dim=1, eval=lambda x: -0.5 - 0.25 * np.sin(x[:, 0]), sup_bound=0.75)
    opc = OperatorL(
        coeffs=Coefficients(g=CylFunction.constant(1.0, 1), B=None, C=cvar, g_floor=1.0),
        A=A,
    )
    x = np.array([0.4])
    assert apply_L(opc, const, x) == pytest.approx(2.0 * (-0.5 - 0.25 * math.sin(0.4)), abs=1e-6)

    sin = CylFunction(
        dim=1,
        eval=lambda x: np.sin(x[:, 0]),
        grad=lambda x: np.cos(x[:, 0])[:, None],
        hess=lambda x: -np.sin(x[:, 0])[:, None, None],
        sup_bound=1.0,
    )
    op_drift = OperatorL(coeffs=coeffs_const(g=1.0, b=[1.0], c=0.0, dim=1), A=A)
    assert apply_L(op_drift, sin, np.zeros(1)) == pytest.approx(0.5, abs=1e-12)


def test_apply_l_linearity_with_analytic_derivatives():
    A = TraceClassOperator([0.5])
    op = OperatorL(coeffs=coeffs_const(g=1.3, b=[0.8], c=-0.4, dim=1, contractive=True), A=A)
    cosf = CylFunction(
        dim=1,
        eval=lambda x: np.cos(x[:, 0]),
        grad=lambda x: -np.sin(x[:, 0])[:, None],
        hess=lambda x: -np.cos(x[:, 0])[:, None, None],
        sup_bound=1.0,
    )
    gau = f_gauss_1d()
    a, b = 0.7, -1.9

    def combo_eval(x):
        return a * cosf.eval(x) + b * gau.eval(x)

    combo = CylFunction(
        dim=1,
        eval=combo_eval,
        grad=lambda x: a * cosf.grad(x) + b * gau.grad(x),
        hess=lambda x: a * cosf.hess(x) + b * gau.hess(x),
        sup_bound=abs(a) + abs(b),
    )
    pts = np.linspace(-2, 2, 9)
    for x in pts:
        xv = np.array([x])
        lhs = apply_L(op, combo, xv)
        rhs = a * apply_L(op, cosf, xv) + b * apply_L(op, gau, xv)
        assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------- dissipativity


def test_dissipativity_witness_examples():
    A = TraceClassOperator([0.5])
    op = OperatorL(coeffs=coeffs_const(g=1.0, c=0.0, dim=1, contractive=True), A=A)
    grid = np.linspace(-6, 6, 1201)[:, None]

    zero = CylFunction.constant(0.0, dim=1)
    lhs, rhs = dissipativity_witness(op, zero, 1.0, grid)
    assert lhs == 0.0 and rhs == 0.0

    one = CylFunction.constant(1.0, dim=1)
    lhs, rhs = dissipativity_witness(op, one, 1.0, grid)
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)

    lhs, rhs = dissipativity_witness(op, f_gauss_1d(), 1.0, grid)
    assert lhs >= rhs - 1e-6


def test_dissipativity_witness_errors():
    A = TraceClassOperator([0.5])
    op = OperatorL(coeffs=coeffs_const(g=1.0, c=0.0, dim=1, contractive=True), A=A)
    with pytest.raises(ValueError):
        dissipativity_witness(op, CylFunction.constant(1.0, 1), 1.0, np.zeros((0, 1)))
    op_free = OperatorL(coeffs=coeffs_const(g=1.0, c=0.0, dim=1, contractive=False), A=A)
    with pytest.raises(ValueError):
        dissipativity_witness(op_free, CylFunction.constant(1.0, 1), 1.0, np.zeros((1, 1)))
