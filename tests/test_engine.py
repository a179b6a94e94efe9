"""One-step Gaussian-integral operator S_tau and its iteration on grids."""

import dataclasses
import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausspde import engine
from gausspde.config import load_config
from gausspde.cylinder import Coefficients, CylFunction, OperatorL
from gausspde.engine import (
    ChernoffPlan,
    GridField,
    TruncationError,
    _FieldEvaluator,
    _one_step_values,
    apply_S,
    chernoff_solve,
    coefficient_continuity_probe,
    norm_bound_check,
    tangency_residual,
)
from gausspde.gauss import GH_MAX_DIM, IntegrandError, QuadratureSpec, TraceClassOperator

GH = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=32)
REPO = Path(__file__).resolve().parents[1]


def const_op(g=1.0, b=None, c=0.0, q=(0.5,), contractive=False):
    dim = len(q)
    B = None if b is None else [CylFunction.constant(bi, dim) for bi in b]
    co = Coefficients(
        g=CylFunction.constant(g, dim),
        B=B,
        C=CylFunction.constant(c, dim),
        g_floor=g,
        contractive=contractive,
    )
    return OperatorL(coeffs=co, A=TraceClassOperator(list(q)))


def cos_cyl():
    return CylFunction(
        dim=1,
        eval=lambda x: np.cos(x[:, 0]),
        grad=lambda x: -np.sin(x[:, 0])[:, None],
        hess=lambda x: -np.cos(x[:, 0])[:, None, None],
        sup_bound=1.0,
    )


def field_1d(fn, half=9.3, pts=512, **kw):
    return GridField.from_function([(-half, half)], pts, fn, **kw)


# ---------------------------------------------------------------- GridField


def test_gridfield_validation():
    with pytest.raises(ValueError):
        GridField(bounds=((0.0, 1.0),), values=np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        GridField(bounds=((0.0, 1.0), (0.0, 1.0)), values=np.zeros(5))
    with pytest.raises(ValueError):
        GridField(bounds=((1.0, 0.0),), values=np.zeros(5))
    f = field_1d(lambda x: np.sin(x[:, 0]))
    assert f.dim == 1 and f.points_per_axis == 512
    assert f.sup_norm == pytest.approx(np.max(np.abs(f.values)))


@pytest.mark.parametrize("mode", ["clamp", "constant"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_gridfield_rejects_a_non_finite_boundary_value(mode, value):
    # a NaN cval would come back from every read past the edge
    with pytest.raises(ValueError, match="boundary_value must be finite"):
        GridField(bounds=((-1.0, 1.0),), values=np.zeros(8), boundary_mode=mode, boundary_value=value)


@pytest.mark.parametrize("points", [64.0, 2.5, True])
def test_from_function_requires_an_integer_point_count(points):
    with pytest.raises(ValueError, match="points_per_axis must be"):
        GridField.from_function([(-1.0, 1.0)], points, lambda x: np.ones(x.shape[0]))
    assert GridField.from_function([(-1.0, 1.0)], np.int64(8), lambda x: np.ones(x.shape[0])).points_per_axis == 8


def test_gridfield_sample_reproduces_nodes():
    # in constant mode the spline fits the field extended by boundary_value, so it still
    # passes through the edge nodes, which differ from boundary_value here
    for mode, value in (("clamp", 0.0), ("constant", 0.0), ("constant", 1.0)):
        f = field_1d(lambda x: np.sin(x[:, 0]) + 0.3 * np.cos(2 * x[:, 0]), pts=128, boundary_mode=mode,
                     boundary_value=value)
        pts = f.meshpoints()
        for kind in ("cubic", "linear"):
            assert_allclose(f.sample(pts, interpolation=kind), f.values.ravel(), atol=1e-10)


def test_gridfield_sample_accuracy_between_nodes():
    f = field_1d(lambda x: np.sin(x[:, 0]), pts=512)
    xs = np.linspace(-3.0, 3.0, 1001)[:, None]
    err = np.max(np.abs(f.sample(xs) - np.sin(xs[:, 0])))
    assert err < 1e-7


@pytest.mark.parametrize("shape", [(2, 1), (2, 3), (2,), (1, 2, 2)])
def test_gridfield_sample_requires_points_of_the_field_width(shape):
    # unchecked, (2, 1) points broadcast against both axes of a 2D field: [[.5], [.25]] reads (.5, .5), (.25, .25)
    f = GridField.from_function([(-1.0, 1.0)] * 2, 16, lambda x: x[:, 0] + 2.0 * x[:, 1])
    with pytest.raises(ValueError, match=r"points must be an \(m, 2\) array"):
        f.sample(np.full(shape, 0.25))
    assert_allclose(f.sample(np.array([[0.5, 0.25]]), interpolation="linear"), [1.0])


def test_gridfield_constant_boundary_mode():
    f = GridField.from_function(
        [(-1.0, 1.0)], 64, lambda x: np.ones(x.shape[0]), boundary_mode="constant", boundary_value=0.0
    )
    far = f.sample(np.array([[5.0]]))
    assert abs(far[0]) < 1e-12


def test_gridfield_interior_mask():
    f = field_1d(lambda x: np.zeros(x.shape[0]), half=2.0, pts=5)  # nodes at -2,-1,0,1,2
    mask = f.interior_mask(0.5)
    assert mask.tolist() == [False, True, True, True, False]
    for bad in (-5.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="margin must be finite and nonnegative"):
            f.interior_mask(bad)


# ---------------------------------------------------------------- apply_S


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", ["clamp", "constant"])
def test_apply_s_at_vanishing_tau_is_the_identity(dim, mode):
    # S(0) = I, at the edge nodes too: as tau -> 0 every node sits on its grid point, where
    # the spline returns the field's value; tau L u adds about 1e-10 at the constant-mode edge
    u = GridField.from_function([(-3.0, 3.0)] * dim, 64, lambda x: 2.0 + np.prod(np.cos(x), axis=1),
                                boundary_mode=mode, boundary_value=0.0)
    op = const_op(q=(0.5, 0.25)[:dim])
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    assert np.max(np.abs(apply_S(op, 1e-12, u, quad).values - u.values)) <= 1e-9


def test_apply_s_mass_preservation():
    op = const_op(g=1.0, c=0.0)
    u = field_1d(lambda x: np.ones(x.shape[0]))
    out = apply_S(op, 0.3, u, GH)
    inner = out.values[u.interior_mask(6 * math.sqrt(2 * 0.3 * 1.0 * 0.5))]
    assert np.max(np.abs(inner - 1.0)) < 1e-9


def test_apply_s_quadratic_shift():
    op = const_op(g=1.0, c=0.0, q=(0.7,))
    u = field_1d(lambda x: x[:, 0] ** 2)
    tau = 0.25
    out = apply_S(op, tau, u, GH)
    margin = 6 * math.sqrt(2 * tau * 1.0 * 0.7)
    mask = u.interior_mask(margin)
    x = u.axes[0][mask]
    assert np.max(np.abs(out.values[mask] - (x**2 + 2 * tau * 0.7))) < 1e-6


def test_apply_s_cosine_decay():
    gamma, a, k, tau = 1.3, 0.5, 2.0, 0.15
    op = const_op(g=gamma, c=0.0, q=(a,))
    u = field_1d(lambda x: np.cos(k * x[:, 0]), pts=1024)
    out = apply_S(op, tau, u, GH)
    mask = u.interior_mask(6 * math.sqrt(2 * tau * gamma * a))
    x = u.axes[0][mask]
    ref = math.exp(-gamma * a * k * k * tau) * np.cos(k * x)
    assert np.max(np.abs(out.values[mask] - ref)) < 1e-6


def test_apply_s_drift_closed_form():
    # constant coefficients: S_tau cos(k.) = e^{tau c} e^{-tau g q k^2} cos(k(x + tau q b))
    g, b, c, q, k, tau = 1.2, 0.8, -0.4, 0.5, 1.0, 0.2
    op = const_op(g=g, b=[b], c=c, q=(q,))
    u = field_1d(lambda x: np.cos(k * x[:, 0]), pts=1024)
    out = apply_S(op, tau, u, GH)
    mask = u.interior_mask(6 * math.sqrt(2 * tau * g * q) + tau * q * abs(b))
    x = u.axes[0][mask]
    ref = math.exp(tau * c) * math.exp(-tau * g * q * k * k) * np.cos(k * (x + tau * q * b))
    assert np.max(np.abs(out.values[mask] - ref)) < 1e-6


def test_apply_s_2d_drift_closed_form():
    # each axis has its own shift tau q_i b_i:
    # S_tau cos(x1) cos(x2) = e^{tau c} e^{-tau g (q1 + q2)} cos(x1 + tau q1 b1) cos(x2 + tau q2 b2)
    g, b, c, q, tau = 1.2, (0.8, -0.5), -0.4, (0.5, 0.25), 0.2
    op = const_op(g=g, b=b, c=c, q=q)
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=16)
    u = GridField.from_function([(-math.pi - 3.0, math.pi + 3.0)] * 2, 128, lambda x: np.cos(x[:, 0]) * np.cos(x[:, 1]))
    out = apply_S(op, tau, u, quad).values.ravel()
    mask = u.interior_mask(ChernoffPlan(t_final=tau, steps=1, quad=quad, op=op).required_margin()).ravel()
    x = u.meshpoints()[mask]
    ref = math.exp(tau * c - tau * g * sum(q)) * np.prod(np.cos(x + tau * np.multiply(q, b)), axis=1)
    assert np.max(np.abs(out[mask] - ref)) < 1e-6


def test_apply_s_2d_product_solution():
    op = const_op(g=1.0, c=0.0, q=(0.5, 0.25))
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=16)
    half = math.pi + 2.0
    u = GridField.from_function(
        [(-half, half)] * 2, 128, lambda x: np.cos(x[:, 0]) * np.cos(x[:, 1])
    )
    tau = 0.05
    out = apply_S(op, tau, u, quad)
    mask = u.interior_mask(6 * math.sqrt(2 * tau * 1.0 * 0.5))
    pts = u.meshpoints()[mask.ravel()]
    ref = math.exp(-tau * (0.5 + 0.25)) * np.cos(pts[:, 0]) * np.cos(pts[:, 1])
    assert np.max(np.abs(out.values.ravel()[mask.ravel()] - ref)) < 1e-5


def test_step_rejects_a_field_of_another_dimension():
    u2 = GridField.from_function([(-9.3, 9.3)] * 2, 32, lambda x: np.cos(x[:, 0]))
    with pytest.raises(ValueError, match="field dimension 2 does not match operator dimension 1"):
        engine._Step(const_op(), 0.1, u2, GH, "cubic")


def test_apply_s_overflow_is_an_integrand_error():
    # e^{tau C} = e^{800} overflows, so every prefactored value is inf
    u = field_1d(lambda x: np.cos(x[:, 0]))
    with np.errstate(over="ignore"), pytest.raises(IntegrandError, match="one-step integral produced a non-finite"):
        apply_S(const_op(c=800.0), 1.0, u, GH)


def test_apply_s_linearity():
    op = const_op(g=1.0, b=[0.5], c=-0.2, q=(0.5,))
    u = field_1d(lambda x: np.cos(x[:, 0]))
    v = field_1d(lambda x: np.sin(x[:, 0]) * np.exp(-0.1 * x[:, 0] ** 2))
    alpha, beta = 0.7, -1.3
    combo = GridField(bounds=u.bounds, values=alpha * u.values + beta * v.values)
    for quad in (GH, QuadratureSpec(backend="monte_carlo", samples=4000, rng_seed=99)):
        lhs = apply_S(op, 0.2, combo, quad).values
        rhs = alpha * apply_S(op, 0.2, u, quad).values + beta * apply_S(op, 0.2, v, quad).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_apply_s_mc_reproducible():
    op = const_op(g=1.0, c=0.0)
    u = field_1d(lambda x: np.cos(x[:, 0]), pts=128)
    quad = QuadratureSpec(backend="monte_carlo", samples=2000, rng_seed=42)
    a = apply_S(op, 0.1, u, quad).values
    b = apply_S(op, 0.1, u, quad).values
    assert np.array_equal(a, b)
    c = apply_S(op, 0.1, u, QuadratureSpec(backend="monte_carlo", samples=2000, rng_seed=43)).values
    assert not np.array_equal(a, c)


def test_apply_s_truncation_margin_guard():
    op = const_op(g=1.0, c=0.0)
    tiny = GridField.from_function([(-0.5, 0.5)], 32, lambda x: np.ones(x.shape[0]))
    with pytest.raises(TruncationError):
        apply_S(op, 1.0, tiny, GH)


def variable_op(dim, drift):
    """g = 1 + sin(x1)/2, C = -0.3 + 0.2 cos(x1), optional B_i = 0.4 cos(x_i + i)."""
    q = (0.5, 0.25, 0.2)[:dim]
    g = CylFunction(dim=dim, eval=lambda x: 1.0 + 0.5 * np.sin(x[:, 0]), sup_bound=1.5)
    c = CylFunction(dim=dim, eval=lambda x: -0.3 + 0.2 * np.cos(x[:, 0]), sup_bound=0.5)
    B = None
    if drift:
        B = [CylFunction(dim=dim, eval=lambda x, i=i: 0.4 * np.cos(x[:, i] + i), sup_bound=0.4) for i in range(dim)]
    co = Coefficients(g=g, B=B, C=c, g_floor=0.5)
    return OperatorL(coeffs=co, A=TraceClassOperator(list(q)))


def rough_field(dim, pts, half, **kw):
    fn = lambda x: np.cos(1.3 * x[:, 0]) * np.prod(np.cos(0.7 * x[:, 1:] + 0.4), axis=1) + 0.2 * np.sign(x[:, 0])
    return GridField.from_function([(-half, half)] * dim, pts, fn, **kw)


@pytest.mark.parametrize(
    ("dim", "nodes"),
    [pytest.param(1, 16, id="1"), pytest.param(2, 8, id="2"), pytest.param(3, 8, id="3"),
     pytest.param(1, 32, id="1-K32")],
)
@pytest.mark.parametrize("interpolation", ["cubic", "linear"])
@pytest.mark.parametrize("mode", ["clamp", "constant"])
@pytest.mark.parametrize("drift", [False, True])
def test_compiled_step_matches_per_node_reference(dim, nodes, interpolation, mode, drift):
    # g depends on x1 and B_i on x_i only, so the per-axis factors reproduce the tensor step;
    # at K = 32 the step leaves out the 4 nodes of weight below 2^-60, the reference keeps them
    op = variable_op(dim, drift)
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=nodes)
    half, tau = 3.0, 0.4
    u = rough_field(dim, (200, 24, 10)[dim - 1], half, boundary_mode=mode, boundary_value=0.75)
    # the outermost nodes of the edge points read more than a sixth of the box past the edge
    z_max = math.sqrt(2.0) * np.polynomial.hermite.hermgauss(nodes)[0].max()
    assert math.sqrt(2 * tau * 0.5 * 0.25) * z_max > 2 * half / 6
    ref = _one_step_values(op, tau, _FieldEvaluator(u, interpolation), u.meshpoints(), quad)
    out = apply_S(op, tau, u, quad, interpolation).values.ravel()
    assert np.max(np.abs(out - ref)) <= 1e-13


def test_line_taps_name_each_column_once_in_increasing_order():
    # neighbouring nodes share spline taps, and edge rows clip many taps onto the edge column:
    # both are folded into one entry, in the shared block (axis 1) and in per-point blocks
    g = CylFunction(dim=2, eval=lambda x: 1.0 + 0.5 * np.sin(x[:, 0]) * np.cos(x[:, 1]), sup_bound=1.5)
    co = Coefficients(g=g, B=None, C=CylFunction.constant(0.0, 2), g_floor=0.5)
    per_point = OperatorL(coeffs=co, A=TraceClassOperator([0.5, 0.25]))
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=32)
    for op, u in [(variable_op(1, drift=True), rough_field(1, 200, 3.0)), (per_point, rough_field(2, 24, 3.0))]:
        for factor in engine._Step(op, 0.4, u, quad, "cubic").factors:
            assert isinstance(factor, engine._LineTaps)
            m = factor.matrix
            starts = np.zeros(m.nnz, dtype=bool)
            starts[m.indptr[:-1]] = True
            assert np.all(np.diff(m.indices)[~starts[1:]] > 0)
            # the first point of every line reads its edge coefficient, once
            assert np.array_equal(m.indices[m.indptr[: factor.lines]], np.arange(factor.lines))
            assert m.indptr[1] < 28 * 4  # fewer entries than the taps of its 28 kept nodes


def line_taps_built(op, tau, u, quad, interpolation):
    """The arguments of every _LineTaps table the step builds."""
    calls = []
    line_taps = engine._LineTaps
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_LineTaps", lambda *args: calls.append(args) or line_taps(*args))
        engine._Step(op, tau, u, quad, interpolation)
    return calls


def reach(idx, order, pad):
    """(first, width): the grid offsets, from each point's own coefficient, that the taps at
    node indices idx reach, taken over every node."""
    offsets = np.floor(idx) - (np.arange(idx.shape[0]) + pad)[:, None, None]
    first = int(offsets.min()) - order // 2
    return first, int(offsets.max()) + order - order // 2 - first + 1


@pytest.mark.parametrize(("dim", "drift"), [(1, False), (1, True), (2, False), (2, True)],
                         ids=["1d", "1d-drift", "2d-shared", "2d-per-point"])
@pytest.mark.parametrize("interpolation", ["cubic", "linear"])
@pytest.mark.parametrize("mode", ["clamp", "constant"])
def test_kernel_rows_match_csr_taps(dim, drift, interpolation, mode):
    # both forms of every shared table the step builds, on random coefficient lines: the nodes of
    # the edge points reach past the field's edge, where the kernel rows read the extended lines
    # and the CSR taps the clipped columns. In 2D, axis 1 is a shared table; with drift, axis 2's
    # scale varies across its lines and its shift along them, so its table is per point, and
    # keeps CSR taps though its rows reach fewer offsets than their taps
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=32)
    u = rough_field(dim, (200, 24)[dim - 1], 3.0, boundary_mode=mode, boundary_value=0.75)
    calls = line_taps_built(variable_op(dim, drift), 0.4, u, quad, interpolation)
    assert [args[0].shape[1] for args in calls] == ([1] if dim == 1 else [1, 24] if drift else [1])
    rng = np.random.default_rng(dim)
    for idx, weights, order, pad, lines, span in calls:
        if idx.shape[1] > 1:
            assert span is None and reach(idx, order, pad)[1] * 8 <= idx.shape[2] * (order + 1) * 12
            continue
        assert span in (None, reach(idx, order, pad))
        kernel = engine._LineTaps(idx, weights, order, pad, lines, reach(idx, order, pad))
        csr = engine._LineTaps(idx, weights, order, pad, lines, None)
        assert kernel.matrix is None and csr.matrix is not None
        assert idx[0].min() < pad - 2 and idx[-1].max() > idx.shape[0] + pad + 1
        for _ in range(2):  # the extension buffer is rewritten by every call
            coeffs = rng.standard_normal((idx.shape[0] + 2 * pad, lines))
            assert np.max(np.abs(kernel(coeffs) - csr(coeffs))) <= 1e-15 * np.max(np.abs(coeffs))


@pytest.mark.parametrize(
    ("config", "steps", "kernel_rows"),
    [("converge_variable_g", 64, True), ("converge_variable_g", 32, True), ("converge_variable_g", 16, False)],
)
def test_tables_take_kernel_rows_when_they_are_no_larger_than_csr_taps(config, steps, kernel_rows):
    # K = 28 kept cubic nodes: kernel rows when they reach at most 28 * 4 * 12 / 8 = 168 offsets.
    # converge_variable_g at n = 64 is perfbench's var1d (113 offsets); n = 16 reaches 221
    cfg = load_config(REPO / "configs" / f"{config}.json")
    (idx, _, order, pad, _, span), = line_taps_built(cfg.operator(), cfg.t_final / steps, cfg.grid,
                                                      cfg.quadrature, cfg.interpolation)
    width = reach(idx, order, pad)[1]
    assert (width * 8 <= idx.shape[2] * (order + 1) * 12) == kernel_rows
    assert span == (reach(idx, order, pad) if kernel_rows else None)


def test_the_verify_single_step_and_the_2d_shared_block_pick_as_predicted():
    # the battery's constant-coefficient row at n = 1 (g = 1, tau = 1, 512 points on +-9.2)
    # reaches 461 offsets and keeps CSR taps; var2d's axis-1 block at K = 8 reaches 31 of the
    # 8 * 4 * 12 / 8 = 48 offsets its taps could take, and takes kernel rows
    verify = load_config(REPO / "configs" / "verify_default.json")
    u0 = GridField.from_function(((-9.2, 9.2),), 512, lambda x: np.cos(x[:, 0]))
    (args,) = line_taps_built(const_op(g=1.0, c=-1.0), 1.0, u0, verify.quadrature, "cubic")
    assert args[-1] is None and reach(args[0], 3, 0)[1] == 461
    var2d = load_config(REPO / "perfbench" / "configs" / "var2d.json")
    (args,) = line_taps_built(var2d.operator(), var2d.t_final / 4, var2d.grid, var2d.quadrature, "cubic")
    assert args[-1] == reach(args[0], 3, 0) and args[-1][1] == 31 and args[4] == 128


@pytest.mark.parametrize("points", range(2, 17))
def test_cubic_spline_passes_through_the_nodes_of_short_lines(points):
    # scipy's "nearest" prefilter misses the node values of short lines (by 1e-3 at 2 points);
    # the field's spline and the grid step's prefilter are exact at every length. With one
    # Gauss-Hermite node at 0 and no drift, the step reads the spline at the grid points
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=1)
    rng = np.random.default_rng(points)
    for dim in (1, 2):
        u = GridField([(-1.0, 1.0)] * dim, rng.standard_normal((points,) * dim))
        assert np.max(np.abs(u.sample(u.meshpoints()) - u.values.ravel())) <= 1e-14
        assert np.max(np.abs(apply_S(const_op(q=(0.5,) * dim), 0.1, u, quad).values - u.values)) <= 1e-14


@pytest.mark.parametrize("budget", [1 << 16, 64])
def test_compiled_step_3d_patch_gather(monkeypatch, budget):
    # a small budget makes the per-node reference gather the field at one node at a time
    monkeypatch.setattr(engine, "_GATHER_ELEMENTS", budget)
    op = variable_op(3, drift=True)
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=4)
    u = rough_field(3, 7, 3.0, boundary_mode="constant", boundary_value=0.5)
    ref = _one_step_values(op, 0.3, _FieldEvaluator(u, "cubic"), u.meshpoints(), quad)
    assert np.max(np.abs(apply_S(op, 0.3, u, quad).values.ravel() - ref)) <= 1e-13


def x1_drift_op(dim):
    """variable_op's g and C with the drift B_i = b_i cos(x1), a function of x1 alone."""
    op = variable_op(dim, drift=False)
    b = (0.4, -0.3, 0.25)[:dim]
    B = [CylFunction(dim=dim, eval=lambda x, bi=bi: bi * np.cos(x[:, 0]), sup_bound=abs(bi)) for bi in b]
    co = Coefficients(g=op.coeffs.g, B=B, C=op.coeffs.C, g_floor=0.5)
    return OperatorL(coeffs=co, A=op.A)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("interpolation", ["cubic", "linear"])
@pytest.mark.parametrize("mode", ["clamp", "constant"])
def test_per_line_stencils_fold_the_drift_weight(dim, interpolation, mode):
    # scale and tilt along axes 2.. are constant on each grid line and differ between lines, so
    # each line's taps, drift weights and node weights fold into one kernel
    op = x1_drift_op(dim)
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    u = rough_field(dim, (24, 10)[dim - 2], 3.0, boundary_mode=mode, boundary_value=0.75)
    step = engine._Step(op, 0.4, u, quad, interpolation)
    assert all(isinstance(factor, engine._LineStencil) for factor in step.factors[1:])
    ref = _one_step_values(op, 0.4, _FieldEvaluator(u, interpolation), u.meshpoints(), quad)
    assert np.max(np.abs(step(u, ()).values.ravel() - ref)) <= 1e-13


def test_building_a_constant_mode_step_applies_no_factor(monkeypatch):
    # every factor maps boundary_value to itself, so its padding cells are boundary_value and
    # no factor has to be run over a constant field when the step is built
    calls = []
    factor = engine._Step._factor
    monkeypatch.setattr(engine._Step, "_factor", lambda self, i, values: calls.append(i) or factor(self, i, values))
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=4)
    u = rough_field(3, 10, 3.0, boundary_mode="constant", boundary_value=0.75)
    step = engine._Step(variable_op(3, drift=True), 0.3, u, quad, "cubic")
    assert calls == []
    step(u, ())
    assert calls == [0, 1, 2]


@pytest.mark.parametrize("interpolation", ["cubic", "linear"])
def test_constant_mode_step_keeps_no_state_between_calls(interpolation):
    # the padded buffers are reused by every call: a step that has just been applied to u
    # gives for v exactly what a fresh step gives
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    op = x1_drift_op(2)
    u = rough_field(2, 24, 3.0, boundary_mode="constant", boundary_value=0.75)
    v = dataclasses.replace(u, values=np.cos(u.values) - 2.0)
    step = engine._Step(op, 0.4, u, quad, interpolation)
    step(u, ())
    fresh = engine._Step(op, 0.4, u, quad, interpolation)(v, ())
    assert step(v, ()).values.tobytes() == fresh.values.tobytes()


def test_building_the_step_holds_no_per_point_tables():
    # per-point spline taps at K = 8 cubic nodes of 256^2 points take K M (order + 1) 12 B = 25 MB
    # per axis; with g of x1 alone the factors are shared taps along axis 1 and per-line stencils
    g = CylFunction(dim=2, eval=lambda x: 1.0 + 0.5 * np.sin(x[:, 0]), sup_bound=1.5)
    co = Coefficients(g=g, B=None, C=CylFunction.constant(0.0, 2), g_floor=0.5)
    op = OperatorL(coeffs=co, A=TraceClassOperator([0.5, 0.25]))
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    u = GridField.from_function([(-8.0, 8.0)] * 2, 256, lambda x: np.cos(x[:, 0]) * np.cos(x[:, 1]))
    tracemalloc.start()
    try:
        engine._Step(op, 1.0 / 32, u, quad, "cubic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("mode", ["clamp", "constant"])
def test_applying_the_step_makes_no_array_per_node(mode):
    # the node and drift weights are folded into the taps when the step is built, so an
    # application holds a few field-sized arrays, not the K M node values of one axis
    op = x1_drift_op(2)
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    u = GridField.from_function([(-8.0, 8.0)] * 2, 256, lambda x: np.cos(x[:, 0]) * np.cos(x[:, 1]),
                                boundary_mode=mode, boundary_value=0.5)
    step = engine._Step(op, 1.0 / 32, u, quad, "cubic")
    tracemalloc.start()
    try:
        step(u, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 256**2 * 8


def test_per_point_taps_past_the_budget_are_refused_before_any_is_computed(monkeypatch):
    # g of x1 and x2 varies along and across both axes: per-point taps at K = 16 cubic nodes
    # of 256^2 points take K M (order + 1) 12 B = 50 MB per axis, the node indices alone 8 MB
    g = CylFunction(dim=2, eval=lambda x: 1.0 + 0.5 * np.sin(x[:, 0]) * np.cos(x[:, 1]), sup_bound=1.5)
    co = Coefficients(g=g, B=None, C=CylFunction.constant(0.0, 2), g_floor=0.5)
    op = OperatorL(coeffs=co, A=TraceClassOperator([0.5, 0.25]))
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=16)
    u = GridField.from_function([(-8.0, 8.0)] * 2, 256, lambda x: np.cos(x[:, 0]) * np.cos(x[:, 1]))
    table = 16 * 256**2 * 4 * 12
    monkeypatch.setattr(engine, "_TAP_TABLE_BYTES", table - 1)
    tracemalloc.start()
    try:
        with pytest.raises(engine.TapTableError, match=f"take {table} bytes"):
            engine._Step(op, 1.0 / 32, u, quad, "cubic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 256**2 * 8
    monkeypatch.setattr(engine, "_TAP_TABLE_BYTES", table)
    assert isinstance(engine._Step(op, 1.0 / 32, u, quad, "cubic").factors[0], engine._LineTaps)


def test_compiled_step_is_the_lie_product_when_g_varies_along_a_later_axis():
    # g = 1 + sin(x2)/2 changes along axis 2, which is filtered after the axis-1 factor,
    # so the factors do not commute: the step is their Lie product, O(tau^2) from the tensor step
    g = CylFunction(dim=2, eval=lambda x: 1.0 + 0.5 * np.sin(x[:, 1]), sup_bound=1.5)
    co = Coefficients(g=g, B=None, C=CylFunction.constant(0.0, 2), g_floor=0.5)
    op = OperatorL(coeffs=co, A=TraceClassOperator([0.5, 0.25]))
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    u = GridField.from_function([(-6.0, 6.0)] * 2, 48, lambda x: np.cos(x[:, 0]) * np.cos(x[:, 1]))
    taus = (0.2, 0.1, 0.05)
    # the clamped edge is a kink of the extended field; compare where no node reaches it
    mask = u.interior_mask(ChernoffPlan(t_final=taus[0], steps=1, quad=quad, op=op).required_margin()).ravel()
    dev = []
    for tau in taus:
        ref = _one_step_values(op, tau, _FieldEvaluator(u, "cubic"), u.meshpoints(), quad)
        dev.append(np.max(np.abs(apply_S(op, tau, u, quad).values.ravel() - ref)[mask]))
    assert dev[0] > 1e-3
    assert dev[0] >= 3.0 * dev[1] and dev[1] >= 3.0 * dev[2]


def test_gauss_hermite_grid_step_has_no_dimension_cap():
    # the step applies a 1D rule per axis (d K M work, not K^d), so the tensor rule's GH_MAX_DIM
    # does not bound it; a separable field under a constant drift-free operator steps as the
    # outer product of its 1-axis steps
    q = (0.5, 0.4, 0.3, 0.2, 0.1)
    assert len(q) > GH_MAX_DIM
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    box, tau = (-3.0, 3.0), 0.1
    lines = np.random.default_rng(3).standard_normal((len(q), 7))
    steps = [apply_S(const_op(q=(qi,)), tau, GridField([box], line), quad).values for qi, line in zip(q, lines)]
    u = GridField([box] * len(q), functools.reduce(np.multiply.outer, lines))
    expected = functools.reduce(np.multiply.outer, steps)
    assert np.max(np.abs(apply_S(const_op(q=q), tau, u, quad).values - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("interpolation", ["cubic", "linear"])
def test_monte_carlo_grid_step_is_the_per_node_step(interpolation):
    # the grid step draws stream () in apply_S and stream (k-1,) at step k of chernoff_solve
    op = variable_op(2, drift=True)
    quad = QuadratureSpec(backend="monte_carlo", samples=64, rng_seed=3)
    u = rough_field(2, 32, 6.0, boundary_mode="constant", boundary_value=0.75)
    ref = {
        stream: _one_step_values(op, 0.2, _FieldEvaluator(u, interpolation), u.meshpoints(), quad, stream)
        for stream in ((), (0,))
    }
    assert not np.array_equal(ref[()], ref[(0,)])
    assert np.array_equal(apply_S(op, 0.2, u, quad, interpolation).values.ravel(), ref[()])
    plan = ChernoffPlan(t_final=0.4, steps=2, quad=quad, op=op, interpolation=interpolation)
    first = chernoff_solve(plan, u, checkpoint_steps=(1,)).checkpoints[1]
    assert np.array_equal(first.values.ravel(), ref[(0,)])


@pytest.mark.parametrize("backend", ["gauss_hermite", "monte_carlo"])
def test_chernoff_solve_evaluates_the_coefficients_once(backend):
    calls = []

    def g_eval(x):
        calls.append(x.shape[0])
        return 1.0 + 0.5 * np.sin(x[:, 0])

    g = CylFunction(dim=1, eval=g_eval, sup_bound=1.5)
    co = Coefficients(g=g, B=[CylFunction.constant(0.3, 1)], C=CylFunction.constant(-0.2, 1), g_floor=0.5)
    op = OperatorL(coeffs=co, A=TraceClassOperator([0.5]))
    quad = QuadratureSpec(backend=backend, nodes_per_dim=8, samples=200)
    u0 = field_1d(lambda x: np.cos(x[:, 0]), pts=128)
    calls.clear()
    chernoff_solve(ChernoffPlan(t_final=0.4, steps=4, quad=quad, op=op), u0)
    assert calls == [128]


@pytest.mark.parametrize("dim", [1, 2])
def test_chernoff_checkpoint_equals_repeated_apply_s(dim):
    op = variable_op(dim, drift=True)
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    u0 = rough_field(dim, (256, 32)[dim - 1], 9.0, boundary_mode="constant", boundary_value=0.1)
    plan = ChernoffPlan(t_final=0.3, steps=6, quad=quad, op=op)
    k = 4
    res = chernoff_solve(plan, u0, checkpoint_steps=(k,))
    mask = u0.interior_mask(plan.required_margin())
    u, sup_norms, interior = u0, [], []
    for step in range(1, plan.steps + 1):
        u = apply_S(op, plan.tau, u, quad)
        sup_norms.append(u.sup_norm)
        interior.append(float(np.max(np.abs(u.values[mask]))))
        if step == k:
            assert np.array_equal(res.checkpoints[k].values, u.values)
    assert np.array_equal(res.field.values, u.values)
    assert np.array_equal(res.sup_norms, sup_norms)
    assert np.array_equal(res.interior_sup_norms, interior)


def test_bad_checkpoint_raises_before_any_factor_is_built(monkeypatch):
    # a per-point tap table can take up to _TAP_TABLE_BYTES, so the checkpoints are checked first
    built = []
    monkeypatch.setattr(engine, "_axis_factor", lambda *args: built.append(args))
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    plan = ChernoffPlan(t_final=0.3, steps=6, quad=quad, op=variable_op(2, drift=True))
    u0 = rough_field(2, 32, 9.0)
    for bad in (0, 7, 2.5):
        with pytest.raises(ValueError, match=f"checkpoint step {bad} outside 1..6"):
            chernoff_solve(plan, u0, checkpoint_steps=(1, bad))
    assert built == []


def test_empty_interior_raises_before_any_factor_is_built(monkeypatch):
    # a per-point tap table can take up to _TAP_TABLE_BYTES, so the interior is checked first
    built = []
    monkeypatch.setattr(engine, "_axis_factor", lambda *args: built.append(args))
    op = const_op(g=1.0, c=0.0, q=(0.5,), contractive=True)
    u0 = GridField.from_function([(-3.0, 3.0)], 2, lambda x: np.cos(x[:, 0]))
    with pytest.raises(TruncationError, match="no grid point"):
        chernoff_solve(ChernoffPlan(t_final=0.05, steps=4, quad=GH, op=op), u0)
    assert built == []


# ---------------------------------------------------------------- norm bound


def test_norm_bound_examples():
    op = const_op(g=1.0, c=0.0)
    one = field_1d(lambda x: np.ones(x.shape[0]))
    (ratio,), bound = norm_bound_check(op, 0.3, [one], GH)
    assert ratio == pytest.approx(1.0, abs=1e-12)
    assert bound == pytest.approx(1.0)

    opc = const_op(g=1.0, c=-1.0, contractive=True)
    (ratio,), bound = norm_bound_check(opc, 0.3, [one], GH)
    assert ratio == pytest.approx(math.exp(-0.3), rel=1e-12)
    assert ratio <= bound + 1e-8

    cos = field_1d(lambda x: np.cos(x[:, 0]))
    (ratio,), _ = norm_bound_check(opc, 0.3, [cos], GH)
    assert ratio <= 1 + 1e-8

    zero = field_1d(lambda x: np.zeros(x.shape[0]))
    with pytest.raises(ValueError):
        norm_bound_check(op, 0.3, [zero], GH)


def test_norm_bound_random_fields_with_drift():
    op = const_op(g=1.0, b=[1.0], c=-1.0, q=(0.5,), contractive=True)
    rng = np.random.default_rng(1)
    fields = [GridField(bounds=((-4.0, 4.0),), values=rng.uniform(-1.0, 1.0, 256)) for _ in range(5)]
    ratios, bound = norm_bound_check(op, 0.2, fields, GH)
    assert ratios.shape == (5,)
    assert np.all(ratios <= bound + 1e-8)
    assert bound == pytest.approx(math.exp((2 * 0.5 * 1.0 + 1.0) * 0.2), rel=1e-12)


# ---------------------------------------------------------------- tangency


def test_tangency_quadratic_exact():
    op = const_op(g=1.4, c=0.0, q=(0.6,))
    quad_fn = CylFunction(
        dim=1,
        eval=lambda x: x[:, 0] ** 2,
        grad=lambda x: 2.0 * x[:, 0:1],
        hess=lambda x: np.full((x.shape[0], 1, 1), 2.0),
        sup_bound=1e8,
    )
    grid = np.linspace(-2, 2, 21)[:, None]
    for tau in (1e-1, 1e-2, 1e-3):
        assert tangency_residual(op, quad_fn, tau, grid, GH) < 1e-9


def test_tangency_constant_zero():
    op = const_op(g=1.0, c=0.0)
    const = CylFunction.constant(2.5, dim=1)
    grid = np.linspace(-1, 1, 5)[:, None]
    assert tangency_residual(op, const, 1e-2, grid, GH) < 1e-12


def test_tangency_monotone_cos():
    op = const_op(g=1.0, c=0.0, q=(0.5,))
    grid = np.linspace(-2, 2, 41)[:, None]
    r = [tangency_residual(op, cos_cyl(), tau, grid, GH) for tau in (1e-1, 1e-2, 1e-3)]
    assert r[0] > r[1] > r[2]


def test_tangency_monotone_with_drift():
    op = const_op(g=1.3, b=[0.8], c=-0.4, q=(0.5,), contractive=True)
    grid = np.linspace(-2, 2, 41)[:, None]
    r = [tangency_residual(op, cos_cyl(), tau, grid, GH) for tau in (1e-1, 1e-2, 1e-3)]
    assert r[0] > r[1] > r[2]


def test_tangency_requires_analytic_derivatives():
    op = const_op(g=1.0, c=0.0)
    fd_only = CylFunction(dim=1, eval=lambda x: np.cos(x[:, 0]), sup_bound=1.0)
    with pytest.raises(ValueError):
        tangency_residual(op, fd_only, 1e-2, np.zeros((1, 1)), GH)


def test_tangency_requires_points_of_the_operator_width():
    op = const_op(g=1.0, c=0.0)
    with pytest.raises(ValueError, match=r"grid must be a nonempty \(m, 1\) array"):
        tangency_residual(op, cos_cyl(), 1e-2, np.zeros((3, 2)), GH)


# ---------------------------------------------------------------- chernoff_solve


def test_chernoff_one_step_equals_apply_s():
    op = const_op(g=1.0, c=-0.5, contractive=True)
    u0 = field_1d(lambda x: np.cos(x[:, 0]))
    plan = ChernoffPlan(t_final=0.4, steps=1, quad=GH, op=op)
    res = chernoff_solve(plan, u0)
    direct = apply_S(op, 0.4, u0, GH)
    assert np.array_equal(res.field.values, direct.values)
    assert res.sup_norms.shape == (1,)


def test_chernoff_constant_coefficients_independent_of_n():
    op = const_op(g=1.0, c=0.0, q=(0.5,))
    u0 = field_1d(lambda x: np.cos(x[:, 0]))
    outs = {}
    for n in (1, 16):
        plan = ChernoffPlan(t_final=1.0, steps=n, quad=GH, op=op)
        outs[n] = chernoff_solve(plan, u0)
    mask = u0.interior_mask(6 * math.sqrt(2 * 1.0 * 1.0 * 0.5))
    diff = np.max(np.abs(outs[1].field.values[mask] - outs[16].field.values[mask]))
    assert diff < 5e-7
    x = u0.axes[0][mask]
    ref = math.exp(-0.5) * np.cos(x)
    assert np.max(np.abs(outs[16].field.values[mask] - ref)) < 1e-5


def test_chernoff_drift_composes_exactly():
    g, b, c, q, t = 1.0, 0.6, -0.3, 0.5, 0.5
    op = const_op(g=g, b=[b], c=c, q=(q,))
    u0 = field_1d(lambda x: np.cos(x[:, 0]), pts=1024)
    fields = {}
    for n in (1, 8):
        plan = ChernoffPlan(t_final=t, steps=n, quad=GH, op=op)
        fields[n] = chernoff_solve(plan, u0).field.values
    margin = 6 * math.sqrt(2 * t * g * q) + t * q * abs(b)
    mask = u0.interior_mask(margin)
    assert np.max(np.abs(fields[1][mask] - fields[8][mask])) < 1e-6
    x = u0.axes[0][mask]
    ref = math.exp(t * c) * math.exp(-t * g * q) * np.cos(x + t * q * b)
    assert np.max(np.abs(fields[8][mask] - ref)) < 1e-5


def test_chernoff_contractive_sup_norms():
    op = const_op(g=1.0, c=-0.4, q=(0.5,), contractive=True)
    u0 = field_1d(lambda x: np.cos(x[:, 0]) + 0.3 * np.sin(2 * x[:, 0]))
    plan = ChernoffPlan(t_final=1.0, steps=8, quad=GH, op=op)
    res = chernoff_solve(plan, u0)
    assert res.interior_sup_norms.shape == (8,)
    assert np.all(res.interior_sup_norms <= u0.sup_norm + 1e-8)


def test_chernoff_checkpoints():
    op = const_op(g=1.0, c=0.0, q=(0.5,))
    u0 = field_1d(lambda x: np.cos(x[:, 0]))
    plan = ChernoffPlan(t_final=0.8, steps=8, quad=GH, op=op)
    res = chernoff_solve(plan, u0, checkpoint_steps=(2, 4, 8))
    assert sorted(res.checkpoints) == [2, 4, 8]
    assert np.array_equal(res.checkpoints[8].values, res.field.values)


def test_chernoff_mc_reproducible():
    op = const_op(g=1.0, c=0.0, q=(0.5,))
    u0 = field_1d(lambda x: np.cos(x[:, 0]), pts=128)
    quad = QuadratureSpec(backend="monte_carlo", samples=1500, rng_seed=7)
    plan = ChernoffPlan(t_final=0.4, steps=4, quad=quad, op=op)
    a = chernoff_solve(plan, u0).field.values
    b = chernoff_solve(plan, u0).field.values
    assert np.array_equal(a, b)


def test_step_counts_must_be_integers():
    op = const_op(g=1.0, c=0.0, q=(0.5,))
    u0 = field_1d(lambda x: np.cos(x[:, 0]), pts=128)
    plan = ChernoffPlan(t_final=0.4, steps=np.int64(4), quad=GH, op=op)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            ChernoffPlan(t_final=0.4, steps=bad, quad=GH, op=op)
        with pytest.raises(ValueError, match=rf"checkpoint step {bad} outside 1\.\.4"):
            chernoff_solve(plan, u0, checkpoint_steps=(bad,))
    res = chernoff_solve(plan, u0, checkpoint_steps=(np.int32(2), 4))
    assert sorted(res.checkpoints) == [2, 4]


def test_chernoff_domain_too_small():
    op = const_op(g=1.0, c=0.0, q=(0.5,))
    u0 = GridField.from_function([(-2.0, 2.0)], 64, lambda x: np.cos(x[:, 0]))
    plan = ChernoffPlan(t_final=4.0, steps=4, quad=GH, op=op)
    with pytest.raises(TruncationError):
        chernoff_solve(plan, u0)


def test_chernoff_empty_interior_is_a_truncation_error():
    # 2 * margin < width, yet neither grid point lies at least `margin` inside the box
    op = const_op(g=1.0, c=0.0, q=(0.5,), contractive=True)
    u0 = GridField.from_function([(-3.0, 3.0)], 2, lambda x: np.cos(x[:, 0]))
    plan = ChernoffPlan(t_final=0.05, steps=4, quad=GH, op=op)
    assert plan.required_margin() == pytest.approx(1.34, abs=5e-3)
    with pytest.raises(TruncationError, match=r"margin 1\.34.*spacing 6"):
        chernoff_solve(plan, u0)
    with pytest.raises(TruncationError, match="no grid point"):
        coefficient_continuity_probe(op, [op], plan, u0)


# ---------------------------------------------------------------- continuity


def variable_g_op(delta_g=0.0, delta_c=0.0):
    g = CylFunction(
        dim=1,
        eval=lambda x: 1.0 + 0.5 * np.sin(x[:, 0]) + delta_g,
        sup_bound=1.5 + delta_g,
    )
    co = Coefficients(
        g=g,
        B=None,
        C=CylFunction.constant(-delta_c, 1),
        g_floor=0.5 + delta_g,
        contractive=True,
    )
    return OperatorL(coeffs=co, A=TraceClassOperator([0.5]))


def test_continuity_probe_identical_ops():
    op = variable_g_op()
    u0 = field_1d(lambda x: np.cos(x[:, 0]), half=8.4, pts=256)
    plan = ChernoffPlan(t_final=0.5, steps=8, quad=GH, op=op)
    assert coefficient_continuity_probe(op, [op], plan, u0)[0] < 1e-12


def test_continuity_probe_monotone_in_g():
    op0 = variable_g_op()
    u0 = field_1d(lambda x: np.cos(x[:, 0]), half=8.4, pts=256)
    plan = ChernoffPlan(t_final=0.5, steps=8, quad=GH, op=op0)
    perturbed = [variable_g_op(delta_g=d) for d in (1e-1, 1e-2, 1e-3)]
    gaps = coefficient_continuity_probe(op0, perturbed, plan, u0)
    # one call per perturbation measures the same gaps, bit for bit
    assert gaps == [coefficient_continuity_probe(op0, [op], plan, u0)[0] for op in perturbed]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


def test_continuity_probe_monotone_in_c():
    op0 = variable_g_op()
    u0 = field_1d(lambda x: np.cos(x[:, 0]), half=8.4, pts=256)
    plan = ChernoffPlan(t_final=0.5, steps=8, quad=GH, op=op0)
    gaps = coefficient_continuity_probe(op0, [variable_g_op(delta_c=d) for d in (1e-1, 1e-2, 1e-3)], plan, u0)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


def test_continuity_probe_rejects_drift():
    op0 = variable_g_op()
    op_drift = const_op(g=1.0, b=[0.5], c=0.0, q=(0.5,))
    u0 = field_1d(lambda x: np.cos(x[:, 0]), half=8.4, pts=256)
    plan = ChernoffPlan(t_final=0.5, steps=8, quad=GH, op=op0)
    with pytest.raises(ValueError):
        coefficient_continuity_probe(op0, [op_drift], plan, u0)


def test_continuity_probe_requires_nonpositive_c_and_steps_divisible_by_4():
    op0 = variable_g_op()
    u0 = field_1d(lambda x: np.cos(x[:, 0]), half=8.4, pts=256)
    plan = ChernoffPlan(t_final=0.5, steps=8, quad=GH, op=op0)
    growing = const_op(g=1.0, c=0.2, q=(0.5,))
    with pytest.raises(ValueError, match=r"requires C <= 0 \(perturbed\[1\] violates it\)"):
        coefficient_continuity_probe(op0, [op0, growing], plan, u0)
    # a constant C <= 0 passes without the contractive flag
    decaying = const_op(g=1.0, c=-0.2, q=(0.5,))
    assert coefficient_continuity_probe(op0, [decaying], plan, u0)[0] > 0.0
    six = ChernoffPlan(t_final=0.5, steps=6, quad=GH, op=op0)
    with pytest.raises(ValueError, match="steps divisible by 4"):
        coefficient_continuity_probe(op0, [op0], six, u0)


def test_plan_validation():
    op = const_op()
    with pytest.raises(ValueError):
        ChernoffPlan(t_final=0.0, steps=1, quad=GH, op=op)
    with pytest.raises(ValueError):
        ChernoffPlan(t_final=1.0, steps=0, quad=GH, op=op)
    with pytest.raises(ValueError):
        ChernoffPlan(t_final=1.0, steps=1, quad=GH, op=op, interpolation="quintic")
    plan = ChernoffPlan(t_final=1.0, steps=4, quad=GH, op=op)
    assert plan.tau == pytest.approx(0.25)
