"""Reference finite-difference solvers and closed-form solutions."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.sparse.linalg import splu

from gausspde.cylinder import Coefficients, CylFunction, OperatorL
from gausspde.engine import GridField
from gausspde.gauss import TraceClassOperator
from gausspde.oracle import (
    ExactConstant,
    FDProblem,
    assemble_operator,
    exact_constant_solution,
    fd_solve,
    resolvent_solve,
)


def const_coeffs(g=1.0, b=None, c=0.0, dim=1, contractive=False):
    B = None if b is None else [CylFunction.constant(bi, dim) for bi in b]
    return Coefficients(
        g=CylFunction.constant(g, dim),
        B=B,
        C=CylFunction.constant(c, dim),
        g_floor=g,
        contractive=contractive,
    )


def problem_1d(coeffs, *, q=(0.5,), pts=512, steps=2000, t=1.0, half=math.pi,
               boundary="periodic", boundary_value=0.0):
    return FDProblem(
        dim=1,
        coeffs=coeffs,
        A=TraceClassOperator(list(q)),
        bounds=((-half, half),),
        points_per_axis=pts,
        t_final=t,
        time_steps=steps,
        boundary=boundary,
        boundary_value=boundary_value,
    )


def cos_field(p):
    return GridField.from_function(p.bounds, p.points_per_axis, lambda x: np.cos(x[:, 0]))


# ---------------------------------------------------------------- closed form


def test_exact_constant_solution_examples():
    x = np.linspace(-3, 3, 7)
    assert_allclose(exact_constant_solution(1.0, 0.5, 0.0, 2.0, 0.0, x), np.cos(2 * x))
    assert_allclose(exact_constant_solution(1.0, 0.5, 0.0, 0.0, 3.7, x), np.ones_like(x))
    assert exact_constant_solution(1.0, 0.5, 0.0, 1.0, 1.0, 0.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    with pytest.raises(ValueError):
        exact_constant_solution(-1.0, 0.5, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        exact_constant_solution(1.0, 0.5, 0.2, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("name", ["gamma", "a", "c", "k", "t"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_exact_constant_solution_rejects_non_finite_arguments(name, value):
    # unchecked, NaN in c, k or t comes back as NaN values, and t = inf as zeros
    args = dict(gamma=1.0, a=0.5, c=-0.1, k=1.0, t=1.0)
    args[name] = value
    with pytest.raises(ValueError):
        exact_constant_solution(x=np.linspace(-1.0, 1.0, 5), **args)


def test_exact_constant_oracle_checks_its_parameters_and_ignores_the_initial_function():
    oracle = ExactConstant(1.0, 0.5, -1.0, 1.0, 1.0)
    x = np.linspace(-3, 3, 7)
    assert_allclose(oracle.values(None, x[:, None]), exact_constant_solution(1.0, 0.5, -1.0, 1.0, 1.0, x), rtol=0)
    assert (ExactConstant.kind, ExactConstant.bounds) == ("exact_constant", None)
    with pytest.raises(ValueError, match="c must be nonpositive"):
        ExactConstant(1.0, 0.5, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        ExactConstant(1.0, 0.5, -1.0, 1.0, math.nan)


# ---------------------------------------------------------------- fd_solve


def test_fd_constant_coefficients_match_exact():
    p = problem_1d(const_coeffs(g=1.0, c=-0.3, contractive=True), pts=512, steps=2000, t=1.0)
    out = fd_solve(p, cos_field(p))
    x = out.axes[0]
    ref = exact_constant_solution(1.0, 0.5, -0.3, 1.0, 1.0, x)
    assert np.max(np.abs(out.values - ref)) < 1e-5


def test_fd_unit_field_is_fixed_point():
    p = problem_1d(const_coeffs(g=1.0, c=0.0), pts=128, steps=50, t=0.5)
    one = GridField.from_function(p.bounds, p.points_per_axis, lambda x: np.ones(x.shape[0]))
    out = fd_solve(p, one)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_fd_richardson_self_convergence():
    g = CylFunction(dim=1, eval=lambda x: 1.0 + 0.5 * np.sin(x[:, 0]), sup_bound=1.5)
    co = Coefficients(g=g, B=None, C=CylFunction.constant(0.0, 1), g_floor=0.5)
    sols = {}
    for pts, steps in ((129, 100), (257, 200), (513, 400)):
        p = problem_1d(co, pts=pts, steps=steps, t=0.5)
        sols[pts] = fd_solve(p, cos_field(p)).values[:-1]
    d1 = np.max(np.abs(sols[129] - sols[257][::2]))
    d2 = np.max(np.abs(sols[257] - sols[513][::2]))
    assert 2.5 < d1 / d2 < 6.0


def test_fd_2d_product_solution():
    co = const_coeffs(g=1.0, c=0.0, dim=2)
    p = FDProblem(
        dim=2,
        coeffs=co,
        A=TraceClassOperator([0.5, 0.25]),
        bounds=((-math.pi, math.pi), (-math.pi, math.pi)),
        points_per_axis=65,
        t_final=0.5,
        time_steps=200,
        boundary="periodic",
    )
    # cos x1 cos(2 x2) decays as e^{-1.5 t}, and as e^{-2.25 t} with the axes swapped
    for k2 in (1.0, 2.0):
        u0 = GridField.from_function(p.bounds, p.points_per_axis, lambda x: np.cos(x[:, 0]) * np.cos(k2 * x[:, 1]))
        out = fd_solve(p, u0)
        pts = u0.meshpoints()
        ref = math.exp(-0.5 * (0.5 + 0.25 * k2 * k2)) * np.cos(pts[:, 0]) * np.cos(k2 * pts[:, 1])
        assert np.max(np.abs(out.values.ravel() - ref)) < 5e-3


def periodic_2d_problem(pts):
    return FDProblem(
        dim=2,
        coeffs=const_coeffs(g=1.0, c=0.0, dim=2),
        A=TraceClassOperator([0.5, 0.25]),
        bounds=((-math.pi, math.pi), (-math.pi, math.pi)),
        points_per_axis=pts,
        t_final=0.5,
        time_steps=100,
    )


def test_periodic_values_are_as_accurate_as_the_nodes_up_to_the_edge():
    # a clamped spline reads 1.2e-3 within two cells of the edge here, against a nodal error of 2.1e-4
    p = periodic_2d_problem(65)
    u0 = lambda x: np.cos(x[:, 0] + 0.3) * np.cos(x[:, 1])
    exact = lambda x: math.exp(-0.5 * 0.75) * u0(x)
    nodes = fd_solve(p, p.initial_field(u0))
    nodal = np.max(np.abs(nodes.values.ravel() - exact(nodes.meshpoints())))
    rng = np.random.default_rng(5)
    inside = rng.uniform(-math.pi, math.pi, (2000, 2))
    band = 2.0 * nodes.spacings[0] * rng.uniform(size=(2000, 2))
    edge = np.where(rng.uniform(size=(2000, 2)) < 0.5, -math.pi + band, math.pi - band)
    for points in (inside, edge):
        assert np.max(np.abs(p.values(u0, points) - exact(points))) <= 1.1 * nodal


def test_oracle_values_reproduce_the_solution_at_the_nodes():
    u0 = lambda x: np.cos(x[:, 0] + 0.3) * np.cos(x[:, 1])
    p = periodic_2d_problem(33)
    nodes = fd_solve(p, p.initial_field(u0))
    assert_allclose(p.values(u0, nodes.meshpoints()), nodes.values.ravel(), rtol=0, atol=1e-14)
    d = problem_1d(const_coeffs(), pts=64, steps=10, half=math.pi / 2, boundary="dirichlet")
    nodes = fd_solve(d, cos_field(d))
    assert_allclose(d.values(lambda x: np.cos(x[:, 0]), nodes.meshpoints()), nodes.values, rtol=0, atol=1e-14)


def edge_band(bounds, h, rng, m=2000):
    """m random points within two cells h of an edge of the box, on either side of every axis."""
    lo, hi = np.array(bounds).T
    band = 2.0 * h * rng.uniform(size=(m, lo.size))
    return np.where(rng.uniform(size=(m, lo.size)) < 0.5, lo + band, hi - band)


@pytest.mark.parametrize("dim, bv", [(1, 0.0), (1, 0.5), (2, 0.0)], ids=["1d", "1d_shifted", "2d"])
def test_dirichlet_values_are_as_accurate_as_the_nodes_up_to_the_edge(dim, bv):
    # a clamped spline reads 1.85e-3 within two cells of the edge in 1D, against a nodal error of 6.1e-5
    q, t, steps = ((0.5,), 1.0, 200) if dim == 1 else ((0.5, 0.25), 0.5, 100)
    p = FDProblem(
        dim=dim,
        coeffs=const_coeffs(dim=dim),
        A=TraceClassOperator(list(q)),
        bounds=((0.0, math.pi),) * dim,
        points_per_axis=65 if dim == 1 else 33,
        t_final=t,
        time_steps=steps,
        boundary="dirichlet",
        boundary_value=bv,
    )
    u0 = lambda x: bv + np.prod(np.sin(x), axis=1)
    exact = lambda x: bv + math.exp(-sum(q) * t) * np.prod(np.sin(x), axis=1)
    nodes = fd_solve(p, p.initial_field(u0))
    nodal = np.max(np.abs(nodes.values.ravel() - exact(nodes.meshpoints())))
    rng = np.random.default_rng(7)
    for points in (rng.uniform(0.0, math.pi, (2000, dim)), edge_band(p.bounds, nodes.spacings[0], rng)):
        assert np.max(np.abs(p.values(u0, points) - exact(points))) <= 1.1 * nodal


def test_dirichlet_values_converge_at_second_order_up_to_a_curved_edge():
    # C < 0 bends u = 1 + e^{..} sin x away from its edge value, so u'' does not vanish at the edge; the
    # odd continuation keeps the edge band second order (4x per halving), a clamped spline falls 2x
    def problem(pts):
        return FDProblem(
            dim=1,
            coeffs=const_coeffs(c=-0.5),
            A=TraceClassOperator([0.5]),
            bounds=((0.0, math.pi),),
            points_per_axis=pts,
            t_final=1.0,
            time_steps=200,
            boundary="dirichlet",
            boundary_value=1.0,
        )

    u0 = lambda x: 1.0 + np.sin(x[:, 0])
    fine = fd_solve(problem(4097), problem(4097).initial_field(u0))
    rng = np.random.default_rng(11)
    errors = []
    for pts in (65, 129, 257):
        points = edge_band(((0.0, math.pi),), math.pi / (pts - 1), rng)
        reference = np.interp(points[:, 0], fine.axes[0], fine.values)
        errors.append(np.max(np.abs(problem(pts).values(u0, points) - reference)))
    assert errors[0] / errors[1] >= 3.0 and errors[1] / errors[2] >= 3.0


def test_values_refuse_points_not_shaped_m_by_dim():
    # unchecked, a 1-D array raised IndexError from the spline sampler
    cos = lambda x: np.cos(x[:, 0])
    for oracle in (problem_1d(const_coeffs(), pts=64, steps=10), ExactConstant(1.0, 0.5, -1.0, 1.0, 1.0)):
        for points in (np.zeros(5), np.zeros((5, 2)), np.zeros((5, 1, 1))):
            with pytest.raises(ValueError, match=r"points must be shaped \(m, 1\)"):
                oracle.values(cos, points)
    with pytest.raises(ValueError, match=r"points must be shaped \(m, 2\)"):
        periodic_2d_problem(33).values(lambda x: np.cos(x[:, 0]) * np.cos(x[:, 1]), np.zeros((4, 1)))


def test_values_outside_a_dirichlet_box_raise_naming_the_axis():
    # past an edge the odd continuation reads the negated solution: -0.3734 at pi + 0.5 for sin x
    u0 = lambda x: np.prod(np.sin(x), axis=1)
    d = FDProblem(
        dim=2,
        coeffs=const_coeffs(dim=2),
        A=TraceClassOperator([0.5, 0.25]),
        bounds=((0.0, math.pi),) * 2,
        points_per_axis=33,
        t_final=0.5,
        time_steps=20,
        boundary="dirichlet",
    )
    for bad, axis in (([math.pi + 0.5, 1.0], 0), ([1.0, -0.1], 1), ([-1e-9, 4.0], 0)):
        with pytest.raises(ValueError, match=f"axis {axis}"):
            d.values(u0, np.array([[1.0, 1.0], bad]))
    assert np.all(d.values(u0, [[0.0, math.pi], [1.0, 2.0]]) >= 0.0)
    # a periodic solution is periodic, so a periodic box keeps wrapping
    p = problem_1d(const_coeffs(), pts=64, steps=10)
    cos = lambda x: np.cos(x[:, 0])
    x = np.array([[-3.0], [0.4], [2.9]])
    assert_allclose(p.values(cos, x + 2.0 * math.pi), p.values(cos, x), rtol=0, atol=1e-12)


def test_fd_2d_non_square_box_uses_each_axis_spacing():
    # axis 2 is twice as long as axis 1, so its spacing is twice axis 1's
    co = const_coeffs(g=1.0, c=0.0, dim=2)
    p = FDProblem(
        dim=2,
        coeffs=co,
        A=TraceClassOperator([0.5, 0.25]),
        bounds=((-math.pi, math.pi), (-2.0 * math.pi, 2.0 * math.pi)),
        points_per_axis=65,
        t_final=0.5,
        time_steps=200,
    )
    u0 = GridField.from_function(p.bounds, p.points_per_axis, lambda x: np.cos(x[:, 0]) * np.cos(0.5 * x[:, 1]))
    out = fd_solve(p, u0)
    pts = u0.meshpoints()
    ref = math.exp(-0.5 * (0.5 + 0.25 * 0.25)) * np.cos(pts[:, 0]) * np.cos(0.5 * pts[:, 1])
    # 1.7e-4 with each axis's own spacing; 6.7e-2 with axis 1's spacing on both axes
    assert np.max(np.abs(out.values.ravel() - ref)) < 1e-3
    assert out.spacings == pytest.approx((math.pi / 32, math.pi / 16), rel=1e-15)


def test_fd_dirichlet_sine_decay():
    co = const_coeffs(g=1.0, c=0.0)
    p = FDProblem(
        dim=1,
        coeffs=co,
        A=TraceClassOperator([0.5]),
        bounds=((0.0, math.pi),),
        points_per_axis=257,
        t_final=0.5,
        time_steps=500,
        boundary="dirichlet",
        boundary_value=0.0,
    )
    u0 = GridField.from_function(p.bounds, p.points_per_axis, lambda x: np.sin(x[:, 0]))
    out = fd_solve(p, u0)
    ref = math.exp(-0.25) * np.sin(out.axes[0])
    assert abs(out.values[0]) < 1e-12 and abs(out.values[-1]) < 1e-12
    assert np.max(np.abs(out.values - ref)) < 1e-4


def test_fd_constant_drift_shifts_the_cosine():
    # u_t = g q u'' + q b u' + c u carries cos x to e^{(c - g q) t} cos(x + q b t); dropping the
    # drift leaves an error of 0.13, and a first difference of the wrong sign one of 0.27
    q, b, c, t = 0.5, 0.8, -0.3, 0.5
    p = problem_1d(const_coeffs(g=1.0, b=[b], c=c), q=(q,), pts=257, steps=500, t=t)
    out = fd_solve(p, cos_field(p))
    ref = math.exp((c - q) * t) * np.cos(out.axes[0] + q * b * t)
    assert np.max(np.abs(out.values - ref)) < 1e-4


def test_fd_2d_drift_acts_on_its_own_axis():
    # drift on axis 2 only: a Kronecker product in the wrong order moves axis 1 instead (error 0.10)
    q, b2, t = (0.5, 0.25), 0.6, 0.5
    p = FDProblem(
        dim=2,
        coeffs=const_coeffs(g=1.0, b=[0.0, b2], c=0.0, dim=2),
        A=TraceClassOperator(list(q)),
        bounds=((-math.pi, math.pi), (-math.pi, math.pi)),
        points_per_axis=65,
        t_final=t,
        time_steps=200,
    )
    u0 = GridField.from_function(p.bounds, p.points_per_axis, lambda x: np.cos(x[:, 0]) * np.cos(x[:, 1]))
    out = fd_solve(p, u0)
    pts = u0.meshpoints()
    ref = math.exp(-sum(q) * t) * np.cos(pts[:, 0]) * np.cos(pts[:, 1] + q[1] * b2 * t)
    assert np.max(np.abs(out.values.ravel() - ref)) < 1e-3


def test_fd_2d_dirichlet_box():
    q, t = (0.5, 0.25), 0.5
    p = FDProblem(
        dim=2,
        coeffs=const_coeffs(g=1.0, c=0.0, dim=2),
        A=TraceClassOperator(list(q)),
        bounds=((0.0, math.pi), (0.0, 2.0 * math.pi)),
        points_per_axis=65,
        t_final=t,
        time_steps=200,
        boundary="dirichlet",
    )
    u0 = GridField.from_function(p.bounds, p.points_per_axis, lambda x: np.sin(x[:, 0]) * np.sin(0.5 * x[:, 1]))
    out = fd_solve(p, u0)
    pts = u0.meshpoints()
    ref = math.exp(-(q[0] + 0.25 * q[1]) * t) * np.sin(pts[:, 0]) * np.sin(0.5 * pts[:, 1])
    assert np.max(np.abs(out.values.ravel() - ref)) < 1e-4
    v = out.values
    for edge in (v[0], v[-1], v[:, 0], v[:, -1]):
        assert np.max(np.abs(edge)) < 1e-12


@pytest.mark.parametrize("drift", [False, True], ids=["no_drift", "drift"])
@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("dim", [1, 2])
def test_fd_solve_matches_the_textbook_crank_nicolson_march(dim, boundary, drift):
    # the reference: default splu of a1 = I - dt/2 L, then u <- a1^{-1} (a2 u) with a2 = I + dt/2 L
    g = CylFunction(dim=dim, eval=lambda x: 1.0 + 0.5 * np.sin(x[:, 0]), sup_bound=1.5)
    B = [CylFunction.constant(b, dim) for b in (0.8, -0.5)[:dim]] if drift else None
    co = Coefficients(g=g, B=B, C=CylFunction.constant(-0.2, dim), g_floor=0.5)
    periodic = boundary == "periodic"
    bv = 0.0 if periodic else 0.37
    p = FDProblem(
        dim=dim,
        coeffs=co,
        A=TraceClassOperator([0.5, 0.25][:dim]),
        bounds=((-math.pi, math.pi) if periodic else (0.0, math.pi),) * dim,
        points_per_axis=129 if dim == 1 else 33,
        t_final=0.5,
        time_steps=100 if dim == 1 else 50,
        boundary=boundary,
        boundary_value=bv,
    )
    wave = np.cos if periodic else np.sin
    u0 = GridField.from_function(p.bounds, p.points_per_axis, lambda x: bv + np.prod(wave(x), axis=1))
    out = fd_solve(p, u0).values

    m = assemble_operator(p).matrix
    eye = sp.identity(m.shape[0], format="csr")
    lu = splu((eye - 0.5 * p.dt * m).tocsc())
    a2 = (eye + 0.5 * p.dt * m).tocsr()
    unknowns = (slice(0, -1) if periodic else slice(None),) * dim
    u = u0.values[unknowns].ravel()
    for _ in range(p.time_steps):
        u = lu.solve(a2 @ u)
    assert np.max(np.abs(out[unknowns].ravel() - u)) < 1e-12 * (1.0 + np.max(np.abs(u)))
    if not periodic:
        edges = np.concatenate([np.take(out, k, axis=i).ravel() for i in range(dim) for k in (0, -1)])
        assert np.max(np.abs(edges - bv)) < 1e-12


def test_fd_crank_nicolson_contractive_per_step():
    co = const_coeffs(g=1.0, c=-0.3, contractive=True)
    p = problem_1d(co, pts=128, steps=1, t=2e-3)
    u = GridField.from_function(p.bounds, p.points_per_axis, lambda x: np.cos(x[:, 0]) + 0.4 * np.sin(3 * x[:, 0]))
    sup = u.sup_norm
    for _ in range(10):
        u = fd_solve(p, u)
        assert u.sup_norm <= sup + 1e-10
        sup = u.sup_norm


def test_fd_validation():
    co = const_coeffs(g=1.0, c=0.0)
    with pytest.raises(ValueError):
        problem_1d(co, pts=512, steps=0)
    with pytest.raises(ValueError):
        FDProblem(
            dim=3,
            coeffs=const_coeffs(dim=3),
            A=TraceClassOperator([0.5, 0.4, 0.3]),
            bounds=((-1, 1),) * 3,
            points_per_axis=16,
            t_final=1.0,
            time_steps=10,
            boundary="periodic",
        )
    p = problem_1d(co)
    wrong = GridField.from_function([(-1.0, 1.0)], p.points_per_axis, lambda x: np.ones(x.shape[0]))
    with pytest.raises(ValueError):
        fd_solve(p, wrong)


def test_fd_solve_checks_the_initial_field_at_the_edges():
    p = problem_1d(const_coeffs(), pts=64, steps=10)
    ramp = GridField.from_function(p.bounds, p.points_per_axis, lambda x: x[:, 0])
    with pytest.raises(ValueError, match="matching values at the wrapped endpoints"):
        fd_solve(p, ramp)
    d = problem_1d(const_coeffs(), pts=64, steps=10, boundary="dirichlet", boundary_value=0.5)
    with pytest.raises(ValueError, match="equal boundary_value on the boundary"):
        fd_solve(d, cos_field(d))


def test_initial_field_applies_the_edge_rule_of_fd_solve():
    p = problem_1d(const_coeffs(), pts=64, steps=10)
    assert_allclose(p.initial_field(lambda x: np.cos(x[:, 0])).values, cos_field(p).values, rtol=0, atol=0)
    with pytest.raises(ValueError, match="matching values at the wrapped endpoints"):
        p.initial_field(lambda x: x[:, 0])
    d = problem_1d(const_coeffs(), pts=64, steps=10, boundary="dirichlet", boundary_value=0.5)
    with pytest.raises(ValueError, match="equal boundary_value on the boundary"):
        d.initial_field(lambda x: np.cos(x[:, 0]))


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_fd_problem_rejects_a_non_finite_boundary_value(boundary, value):
    # a NaN boundary_value would switch off fd_solve's Dirichlet edge check (NaN > tol is False)
    with pytest.raises(ValueError, match="boundary_value must be finite"):
        problem_1d(const_coeffs(), boundary=boundary, boundary_value=value)


@pytest.mark.parametrize(
    "count, message",
    [("pts", "points_per_axis must be at least 8"), ("steps", "time_steps must be a positive integer")],
)
def test_fd_problem_counts_must_be_integers(count, message):
    for value in (64.0, 2.5, True):
        with pytest.raises(ValueError, match=message):
            problem_1d(const_coeffs(), **{count: value})
    problem_1d(const_coeffs(), **{count: np.int64(64)})  # numpy integers pass


# ---------------------------------------------------------------- resolvent


def test_resolvent_constant_rhs():
    p = problem_1d(const_coeffs(g=1.0, c=0.0), pts=128)
    lam = 0.7
    rhs = CylFunction.constant(lam * 2.5, dim=1)
    f = resolvent_solve(p, lam, rhs)
    assert np.max(np.abs(f.values - 2.5)) < 1e-12


def test_resolvent_cosine_identity():
    p = problem_1d(const_coeffs(g=1.0, c=0.0), pts=2049)
    lam, k = 1.0, 1.0
    rhs = CylFunction(
        dim=1,
        eval=lambda x: (lam + 1.0 * 0.5 * k * k) * np.cos(k * x[:, 0]),
        sup_bound=lam + 0.5,
    )
    f = resolvent_solve(p, lam, rhs)
    assert np.max(np.abs(f.values - np.cos(k * f.axes[0]))) < 1e-6


def test_resolvent_discrete_residual_and_max_principle():
    g = CylFunction(dim=1, eval=lambda x: 1.0 + 0.5 * np.sin(x[:, 0]), sup_bound=1.5)
    cfun = CylFunction(dim=1, eval=lambda x: -0.2 - 0.1 * np.cos(x[:, 0]), sup_bound=0.3)
    co = Coefficients(g=g, B=None, C=cfun, g_floor=0.5, contractive=True)
    p = problem_1d(co, pts=512)
    rhs = CylFunction(
        dim=1,
        eval=lambda x: 0.8 * np.cos(x[:, 0]) + 0.1 * np.sin(3 * x[:, 0]),
        sup_bound=0.9,
    )
    asm = assemble_operator(p)
    for lam in (0.5, 1.0, 2.0):
        f = resolvent_solve(p, lam, rhs)
        fv = f.values[:-1]
        rv = rhs(asm.points)
        residual = np.max(np.abs(lam * fv - asm.matrix @ fv - rv))
        assert residual < 1e-10
        # discrete maximum principle, and the dissipativity estimate it rearranges to
        assert np.max(np.abs(fv)) <= np.max(np.abs(rv)) / lam + 1e-8
        lhs = np.max(np.abs(asm.matrix @ fv - lam * fv))
        assert lhs >= lam * np.max(np.abs(fv)) - 1e-6


def test_resolvent_requires_positive_lambda():
    p = problem_1d(const_coeffs(g=1.0, c=0.0), pts=64)
    with pytest.raises(ValueError):
        resolvent_solve(p, 0.0, CylFunction.constant(1.0, 1))
