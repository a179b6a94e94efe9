"""One-step Gaussian-integral operator S_tau and its iteration on grids."""

import dataclasses
import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
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


def reach(cols):
    """(first, width): the grid offsets, from each point, that the tap columns cols reach, taken
    over every tap."""
    first = int(cols.min())
    return first, int(cols.max()) - first + 1


def csr_taps(cols, w, size, pad, lines):
    """The reference a table of kernel rows is checked against: the tap columns cols and weights w
    of every point, (size, 1 or L, K, order + 1), as one sparse block of size L rows by padded size
    L columns applied to the raveled coefficient lines, the tap at coefficient j of line r at
    column j L + r, with taps past the padded line clipped onto its edge coefficient."""
    cols = np.clip(cols, 0, size + 2 * pad - 1) * lines + np.arange(lines)[:, None, None]
    w = np.broadcast_to(w, cols.shape)
    matrix = sp.csr_matrix((w.ravel(), cols.ravel(), np.arange(0, w.size + 1, cols[0, 0].size)),
                           shape=(size * lines, (size + 2 * pad) * lines))
    return lambda coeffs: (matrix @ coeffs.ravel()).reshape(size, lines)


@pytest.mark.parametrize(
    ("dim", "drift", "points", "tau", "past"),
    [(1, False, 200, 0.4, 0), (1, True, 200, 0.4, 0), (2, False, 24, 0.4, 0), (2, True, 24, 0.4, 0),
     (2, "x1", 24, 0.4, 0), (3, "x1", 10, 0.4, 0), (2, "x1", 40, 0.4, 2), (3, "x1", 32, 0.6, 2)],
    ids=["1d", "1d-drift", "2d-shared", "2d-per-point", "2d-line-keyed", "3d-line-keyed",
         "2d-line-keyed-past-the-pad", "3d-line-keyed-past-the-pad"],
)
@pytest.mark.parametrize("interpolation", ["cubic", "linear"])
@pytest.mark.parametrize("mode", ["clamp", "constant"])
def test_kernel_rows_match_csr_taps(dim, drift, points, tau, past, interpolation, mode):
    # the kernel rows of every table the step builds, against CSR taps of the same offsets at every
    # point, on random coefficient lines: the nodes of the edge points reach past the field's edge,
    # where the kernel rows read the extended lines and the CSR taps the clipped columns. In 2D and
    # 3D, axis 1 is keyed by point; axes 2.. are keyed by line when the coefficients depend on x1
    # alone (no drift, or x1_drift_op's). With variable_op's drift, axis 2's scale varies across its
    # lines and its shift along them, so its rows are keyed by each point of each line. The edge
    # rows of the first `past` tables reach past the padded line, the _PAD cells of a constant-mode
    # field included, where the extended lines take the outermost coefficient
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=32)
    u = rough_field(dim, points, 3.0, boundary_mode=mode, boundary_value=0.75)
    op = x1_drift_op(dim) if drift == "x1" else variable_op(dim, drift)
    factors = engine._Step(op, tau, u, quad, interpolation).factors
    n = u.points_per_axis
    later = (n, n) if drift is True else (1, n ** (dim - 1))  # per point, or keyed by line
    assert [factor.keys for factor in factors] == [(n, 1)] + [later] * (dim - 1)
    rng = np.random.default_rng(dim)
    for table, factor in enumerate(factors):
        cols, w = factor.taps()
        size, pad, lines = factor.size, factor.pad, factor.lines
        assert (factor.first, factor.width) == reach(cols)
        # every point's taps, as columns of the padded line
        points = cols + pad + np.arange(size)[:, None, None, None]
        csr = csr_taps(points, w, size, pad, lines)
        assert points[0].min() < pad - 3 and points[-1].max() > size + pad + 2
        if table < past:
            assert points[0].min() < 0 and points[-1].max() > size + 2 * pad - 1
        for _ in range(2):  # the extension buffer is rewritten by every call
            coeffs = rng.standard_normal((size + 2 * pad, lines))
            assert np.max(np.abs(factor.rows(coeffs) - csr(coeffs))) <= 1e-15 * np.max(np.abs(coeffs))


@pytest.mark.parametrize(("dim", "points", "tau"), [(1, 400, 0.01), (2, 24, 0.4), (3, 10, 0.4)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("mode", ["clamp", "constant"])
def test_kernel_rows_do_not_depend_on_the_build_block(monkeypatch, dim, points, tau, mode):
    # each row's taps fold in the same order whatever block of keys computes them, so tables built
    # one point or line at a time, or all keys at once, equal the default build bit for bit. Axis 1
    # is keyed by point; with x1_drift_op axes 2.. are keyed by line, with variable_op's drift by
    # each point of each line. 400 * 28 * 4 taps in 1D, and the per-point tables' M * 28 * 4, take
    # several default blocks
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=32)
    u = rough_field(dim, points, 3.0, boundary_mode=mode, boundary_value=0.75)
    ops = (x1_drift_op(dim), variable_op(dim, drift=True))

    def kernels():
        steps = [engine._Step(op, tau, u, quad, "cubic") for op in ops]
        return [[(factor.kernel.shape, factor.kernel.tobytes()) for factor in step.factors] for step in steps]

    default = kernels()
    assert all(shape[::2] == (points, points ** (dim - 1)) for shape, _ in default[1][1:])
    assert points**dim * 28 * 4 > 2 * engine._BUILD_TAPS
    for taps in (1, 1 << 40):
        monkeypatch.setattr(engine, "_BUILD_TAPS", taps)
        assert kernels() == default


@pytest.mark.parametrize(("dim", "points"), [(1, 200), (2, 24), (3, 10)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("interpolation", ["cubic", "linear"])
@pytest.mark.parametrize("nodes", [8, 32])
def test_kernel_rows_do_not_depend_on_the_boundary_mode(dim, points, interpolation, nodes):
    # tap columns are offsets from the point in both modes and only the window start adds
    # _PAD, so a constant-mode table is the clamp-mode table bit for bit, its window moved by _PAD
    # cells. Axis 1 is keyed by point; axes 2.. are keyed by line with x1_drift_op and by each point
    # of each line with variable_op's drift
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=nodes)
    keyings = set()
    for op in (x1_drift_op(dim), variable_op(dim, drift=True)):
        clamp, constant = (
            engine._Step(op, 0.4, rough_field(dim, points, 3.0, boundary_mode=mode, boundary_value=0.75),
                         quad, interpolation).factors
            for mode in ("clamp", "constant")
        )
        for a, b in zip(clamp, constant, strict=True):
            keyings.add("point" if a.kernel.shape[1] == 1 else "line" if a.kernel.shape[0] == 1 else "each")
            assert b.kernel.shape == a.kernel.shape and b.kernel.tobytes() == a.kernel.tobytes()
            assert np.array_equal(b.index, a.index + engine._PAD)
    assert len(keyings) == (1, 3, 3)[dim - 1]


def test_building_kernel_rows_holds_the_table_and_one_block():
    # converge_variable_g at n = 64 (perfbench's var1d): all its taps at once take 3.4 MB, which
    # glibc gives back to the OS and faults in again at every solve. Built a block of keys at a
    # time, the build holds the table, its extension buffer and one block of _BUILD_TAPS taps, at
    # most 64 bytes each with their indices and temporaries, besides the step's per-point arrays
    cfg = load_config(REPO / "configs" / "converge_variable_g.json")
    tracemalloc.start()
    try:
        step = engine._Step(cfg.operator(), cfg.t_final / 64, cfg.grid, cfg.quadrature, cfg.interpolation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (factor,) = step.factors
    assert factor.kernel.shape == (1024, 1, 113)
    assert peak < factor.kernel.nbytes + factor.extended.nbytes + 64 * engine._BUILD_TAPS + 16 * 1024 * 8


def test_the_verify_single_step_and_the_2d_shared_block_pick_as_predicted():
    # the battery's constant-coefficient row at n = 1 (g = 1, tau = 1, 512 points on +-9.2) is one
    # row of 461 offsets for every point; var2d's axis-1 rows at K = 8 reach 31, and its axis-2
    # rows, one per line of 128, reach 23
    verify = load_config(REPO / "configs" / "verify_default.json")
    u0 = GridField.from_function(((-9.2, 9.2),), 512, lambda x: np.cos(x[:, 0]))
    (factor,) = engine._Step(const_op(g=1.0, c=-1.0), 1.0, u0, verify.quadrature, "cubic").factors
    assert factor.kernel.shape == (1, 1, 461)
    var2d = load_config(REPO / "perfbench" / "configs" / "var2d.json")
    step = engine._Step(var2d.operator(), var2d.t_final / 4, var2d.grid, var2d.quadrature, "cubic")
    shared, line_keyed = step.factors
    assert shared.kernel.shape == (128, 1, 31) and line_keyed.kernel.shape == (1, 23, 128)


@pytest.mark.parametrize("drift", [False, True])
@pytest.mark.parametrize("interpolation", ["cubic", "linear"])
def test_rows_repeat_where_the_coefficients_repeat(interpolation, drift):
    # every row holds its key's node offsets from its own point, so g and B that repeat exactly
    # every P cells, by index lookup, give rows that repeat every P points bit for bit, at the
    # edge points too; node indices taken from the start of the line would round differently
    lo, hi, points, period = -3.0, 3.0, 200, 7
    rng = np.random.default_rng(period)
    g_cells, b_cells = 1.0 + 0.5 * rng.random(period), 0.8 * rng.random(period) - 0.4
    cell = lambda x: np.rint((x[:, 0] - lo) / ((hi - lo) / (points - 1))).astype(np.intp) % period
    g = CylFunction(dim=1, eval=lambda x: g_cells[cell(x)], sup_bound=1.5)
    B = [CylFunction(dim=1, eval=lambda x: b_cells[cell(x)], sup_bound=0.4)] if drift else None
    op = OperatorL(coeffs=Coefficients(g=g, B=B, C=CylFunction.constant(0.0, 1), g_floor=1.0),
                   A=TraceClassOperator([0.5]))
    u = GridField([(lo, hi)], np.zeros(points))
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=32)
    (factor,) = engine._Step(op, 0.4, u, quad, interpolation).factors
    assert factor.kernel.shape[:2] == (points, 1)
    assert factor.kernel[period:].tobytes() == factor.kernel[:-period].tobytes()
    assert factor.kernel[:period].tobytes() != factor.kernel[1 : period + 1].tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", ["clamp", "constant"])
@pytest.mark.parametrize("drift", [False, True])
def test_constant_coefficients_build_one_row_per_axis(dim, mode, drift):
    # scale and shift vary neither along nor across any axis, so every table is one (1, 1) row,
    # which np.matmul broadcasts over the points of every line
    op = const_op(g=1.2, b=(0.8, -0.5, 0.3)[:dim] if drift else None, c=-0.4, q=(0.5, 0.25, 0.2)[:dim])
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=(16, 8, 8)[dim - 1])
    u = rough_field(dim, (200, 24, 10)[dim - 1], 3.0, boundary_mode=mode, boundary_value=0.75)
    step = engine._Step(op, 0.4, u, quad, "cubic")
    assert [factor.keys for factor in step.factors] == [(1, 1)] * dim
    ref = _one_step_values(op, 0.4, _FieldEvaluator(u, "cubic"), u.meshpoints(), quad)
    assert np.max(np.abs(apply_S(op, 0.4, u, quad).values.ravel() - ref)) <= 1e-13


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


@pytest.mark.parametrize(("dim", "points", "tau"), [(2, 24, 0.4), (3, 10, 0.4), (2, 96, 0.6), (3, 96, 0.6)],
                         ids=["2", "3", "2-past-the-pad", "3-past-the-pad"])
@pytest.mark.parametrize("interpolation", ["cubic", "linear"])
@pytest.mark.parametrize("mode", ["clamp", "constant"])
def test_per_line_stencils_fold_the_drift_weight(dim, points, tau, interpolation, mode):
    # scale and tilt along axes 2.. are constant on each grid line and differ between lines, so
    # each line's taps, drift weights and node weights fold into one kernel. At 96 points the
    # edge rows of those kernels reach past the padded line, the _PAD cells of a constant-mode
    # field included; in 3D the per-node reference, K^3 node values a point, is taken on the
    # edge lines of axes 2 and 3 in every 19th plane along x1
    op = x1_drift_op(dim)
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    u = rough_field(dim, points, 3.0, boundary_mode=mode, boundary_value=0.75)
    step = engine._Step(op, tau, u, quad, interpolation)
    assert all(isinstance(factor, engine._AxisFactor) and factor.kernel.shape[0] == 1 for factor in step.factors[1:])
    if points == 96:
        assert all(factor.index[0] < 0 for factor in step.factors[1:])
    at = np.ones(u.values.shape, dtype=bool)
    if dim == 3 and points == 96:
        at[:] = False
        at[::19, [0, -1], :] = at[::19, :, [0, -1]] = True
    ref = _one_step_values(op, tau, _FieldEvaluator(u, interpolation), u.meshpoints()[at.ravel()], quad)
    assert np.max(np.abs(step(u, ()).values[at] - ref)) <= 1e-13


def test_building_a_constant_mode_step_applies_no_factor(monkeypatch):
    # every factor maps boundary_value to itself, so its padding cells are boundary_value and
    # no factor has to be run over a constant field when the step is built
    calls = []
    factor = engine._AxisFactor.__call__
    monkeypatch.setattr(engine._AxisFactor, "__call__",
                        lambda self, values: calls.append(self.axis) or factor(self, values))
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
    # per axis; with g of x1 alone the factors are rows keyed by point on axis 1 and by line on axis 2
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
    # g of x1 and x2 varies along and across both axes, so both axes take rows keyed by each point
    # of each line: at K = 16 cubic nodes on 256^2 points axis 1's rows reach 49 offsets, M W 8 B =
    # 25.7 MB, and the node indices alone take 8 MB. Within the budget, the build holds the tables,
    # their extension buffers and one block of _BUILD_TAPS taps, at most 64 bytes each with their
    # indices and temporaries, besides the step's per-point arrays, about 8 doubles a point
    g = CylFunction(dim=2, eval=lambda x: 1.0 + 0.5 * np.sin(x[:, 0]) * np.cos(x[:, 1]), sup_bound=1.5)
    co = Coefficients(g=g, B=None, C=CylFunction.constant(0.0, 2), g_floor=0.5)
    op = OperatorL(coeffs=co, A=TraceClassOperator([0.5, 0.25]))
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=16)
    u = GridField.from_function([(-8.0, 8.0)] * 2, 256, lambda x: np.cos(x[:, 0]) * np.cos(x[:, 1]))
    table = 256**2 * 49 * 8
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
    tracemalloc.start()
    try:
        step = engine._Step(op, 1.0 / 32, u, quad, "cubic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [factor.kernel.shape for factor in step.factors] == [(256, 49, 256), (256, 37, 256)]
    held = sum(factor.kernel.nbytes + factor.extended.nbytes for factor in step.factors)
    assert peak < held + 64 * engine._BUILD_TAPS + 8 * 256**2 * 8


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


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", ["clamp", "constant"])
@pytest.mark.parametrize("sign", ["mixed", "negative", "negative zero"])
def test_step_norms_are_the_largest_magnitudes(dim, mode, sign):
    # chernoff_solve takes each step's norms as the larger of max and -min, the interior's over the
    # slices of its box: they equal np.max(np.abs(v)) and its masked max bit for bit, on fields
    # whose largest magnitude is negative and on a field of -0.0, whose norms are 0.0; the
    # checkpoints are the steps' values
    op = variable_op(dim, drift=True)
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    u0 = rough_field(dim, (128, 32, 12)[dim - 1], 9.0, boundary_mode=mode, boundary_value=0.0)
    values = {"mixed": u0.values, "negative": -0.5 - np.abs(u0.values), "negative zero": np.full(u0.values.shape, -0.0)}
    u0 = dataclasses.replace(u0, values=values[sign])
    plan = ChernoffPlan(t_final=0.3, steps=4, quad=quad, op=op)
    res = chernoff_solve(plan, u0, checkpoint_steps=range(1, 5))
    mask = u0.interior_mask(plan.required_margin())
    assert mask.any() and not mask.all()
    step, u = engine._Step(op, plan.tau, u0, quad, "cubic"), u0
    for k in range(1, 5):
        u = step(u, (k - 1,))
        assert res.checkpoints[k].values.tobytes() == u.values.tobytes()
    steps = [res.checkpoints[k].values for k in range(1, 5)]
    assert res.sup_norms.tobytes() == np.array([np.max(np.abs(v)) for v in steps]).tobytes()
    assert res.interior_sup_norms.tobytes() == np.array([np.max(np.abs(v[mask])) for v in steps]).tobytes()
    assert res.field.values.tobytes() == steps[-1].tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_step_value_raises_at_that_step(monkeypatch, dim, bad):
    # the step loop checks finiteness with the sup norm of each step's values: a NaN, +inf or -inf
    # that step 3 leaves at a corner point, outside the interior, raises IntegrandError there,
    # before step 4 runs
    applied = []
    apply = engine._Step.apply

    def spoiled(self, values, stream):
        applied.append(stream)
        out = apply(self, values, stream)
        if len(applied) == 3:
            out[(0,) * dim] = bad
        return out

    monkeypatch.setattr(engine._Step, "apply", spoiled)
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    plan = ChernoffPlan(t_final=0.3, steps=6, quad=quad, op=variable_op(dim, drift=False))
    u0 = rough_field(dim, (128, 32)[dim - 1], 9.0)
    assert not u0.interior_mask(plan.required_margin()).flat[0]
    with pytest.raises(IntegrandError, match="^one-step integral produced a non-finite value$"):
        chernoff_solve(plan, u0)
    assert applied == [(0,), (1,), (2,)]


def test_bad_checkpoint_raises_before_any_factor_is_built(monkeypatch):
    # a tap table can take up to _TAP_TABLE_BYTES, so the checkpoints are checked first
    built = []
    monkeypatch.setattr(engine, "_AxisFactor", lambda *args: built.append(args))
    quad = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=8)
    plan = ChernoffPlan(t_final=0.3, steps=6, quad=quad, op=variable_op(2, drift=True))
    u0 = rough_field(2, 32, 9.0)
    for bad in (0, 7, 2.5):
        with pytest.raises(ValueError, match=f"checkpoint step {bad} outside 1..6"):
            chernoff_solve(plan, u0, checkpoint_steps=(1, bad))
    assert built == []


def test_empty_interior_raises_before_any_factor_is_built(monkeypatch):
    # a tap table can take up to _TAP_TABLE_BYTES, so the interior is checked first
    built = []
    monkeypatch.setattr(engine, "_AxisFactor", lambda *args: built.append(args))
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
