"""One-step Gaussian-integral operator and its Chernoff iteration on grids.

The step with coefficients (g, B, C) and diagonal A = diag(q) is

    (S_tau u)(x) = e^{tau C(x) - tau <A B(x), B(x)>/(4 g(x))}
                   * Integral u(x + y) e^{<B(x)/(2 g(x)), y>} dmu_{2 tau g(x) A}(y),

which is tangent to (L u)(x) = g(x) sum_i q_i u_ii + sum_i q_i B_i(x) u_i + C(x) u
as tau -> 0 and reduces to plain Gaussian smoothing times e^{tau C} when B = 0.
The measure is evaluated through the substitution y = sqrt(2 tau g(x)) z with
z ~ N(0, diag q): gauss.gaussian_nodes owns the node set, shared by all points
of one application, and _step_coefficients the per-point factors.

Solutions of u'_t = L u are approximated by (S_{t/n})^n u0 on a truncated
grid: each step smooths over a Gaussian of scale sqrt(2 tau g q_1), so grid
bounds must exceed the region of interest by the accumulated margin
6 sqrt(2 t g_max q_1) (plus t q_1 B_0 under drift); assertions apply to
interior points only.

On a grid S_tau is linear and the same at every step, so one step object per
chernoff_solve (and per apply_S call), _Step, serves both backends: it checks the
geometry and computes the grid points and per-point factors once.  Gauss-Hermite
node sums are fixed as one sparse 1D factor per axis, about d M K (order + 1) * 12
bytes for M grid points and K nodes per axis.  Monte Carlo draws fresh nodes at
every step (Philox stream k-1) and sums them by _node_sum, as tangency_residual does.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.ndimage as ndi
import scipy.sparse as sp

from .cylinder import Coefficients, CylFunction, OperatorL, apply_L
from .gauss import GH_MAX_DIM, IntegrandError, QuadratureSpec, gaussian_nodes, is_integer

__all__ = [
    "ChernoffPlan",
    "ChernoffResult",
    "GridField",
    "TruncationError",
    "apply_S",
    "chernoff_solve",
    "coefficient_continuity_probe",
    "norm_bound_check",
    "tangency_residual",
]

_ORDERS = {"linear": 1, "cubic": 3}
_BOUNDARY_MODES = ("clamp", "constant")
_POINTS_MESSAGE = "points_per_axis must be the same on every axis and at least 2"
# field values gathered at once by the per-node step: K M of them for K nodes and M points
_GATHER_ELEMENTS = 4_000_000


def _spline_order(interpolation: str) -> int:
    """Spline order of an interpolation name; raises ValueError for an unknown name."""
    if interpolation not in _ORDERS:
        raise ValueError(f"interpolation must be one of {tuple(_ORDERS)}")
    return _ORDERS[interpolation]


def _mesh(bounds, points_per_axis: int) -> np.ndarray:
    """Points of the uniform tensor grid on `bounds`, one row each, the last axis fastest."""
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in bounds]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


class TruncationError(RuntimeError):
    """Grid bounds are too small for the Gaussian spread of the requested step."""


@dataclass(frozen=True, eq=False)
class GridField:
    """Sampled field on a closed rectangular box with a uniform tensor grid."""

    bounds: tuple
    values: np.ndarray
    boundary_mode: str = "clamp"
    boundary_value: float = 0.0

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        for lo, hi in bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid axis bounds ({lo}, {hi})")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != len(bounds):
            raise ValueError(f"values have {vals.ndim} axes for {len(bounds)} bounds")
        sizes = set(vals.shape)
        if len(sizes) != 1 or min(vals.shape) < 2:
            raise ValueError(_POINTS_MESSAGE)
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        if self.boundary_mode not in _BOUNDARY_MODES:
            raise ValueError(f"boundary_mode must be one of {_BOUNDARY_MODES}")
        if not math.isfinite(self.boundary_value):
            raise ValueError("boundary_value must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, bounds, points_per_axis: int, fn, boundary_mode="clamp", boundary_value=0.0):
        if not (is_integer(points_per_axis) and points_per_axis >= 2):
            raise ValueError(_POINTS_MESSAGE)
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        vals = np.asarray(fn(_mesh(bounds, points_per_axis)), dtype=float).reshape([points_per_axis] * len(bounds))
        return cls(bounds=bounds, values=vals, boundary_mode=boundary_mode, boundary_value=boundary_value)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def points_per_axis(self) -> int:
        return self.values.shape[0]

    @property
    def spacings(self) -> tuple:
        """Grid spacing of each axis."""
        return tuple((hi - lo) / (self.points_per_axis - 1) for lo, hi in self.bounds)

    @property
    def axes(self) -> tuple:
        return tuple(np.linspace(lo, hi, self.points_per_axis) for lo, hi in self.bounds)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def meshpoints(self) -> np.ndarray:
        return _mesh(self.bounds, self.points_per_axis)

    def interior_mask(self, margin: float) -> np.ndarray:
        """Boolean mask of grid points at least `margin` from every boundary."""
        if not (math.isfinite(margin) and margin >= 0.0):
            raise ValueError(f"margin must be finite and nonnegative, got {margin}")
        eps = 1e-9 * max(hi - lo for lo, hi in self.bounds)
        mask = np.ones(self.values.shape, dtype=bool)
        for i, (ax, (lo, hi)) in enumerate(zip(self.axes, self.bounds)):
            m1 = (ax >= lo + margin - eps) & (ax <= hi - margin + eps)
            shape = [1] * self.dim
            shape[i] = -1
            mask &= m1.reshape(shape)
        return mask

    def sample(self, points: np.ndarray, interpolation: str = "cubic") -> np.ndarray:
        """Interpolated values at an (m, dim) array of points, honoring boundary_mode."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"points must be an (m, {self.dim}) array, got shape {points.shape}")
        return _FieldEvaluator(self, interpolation)(points)


def _spline_mode(fld: GridField) -> tuple[str, float]:
    """scipy.ndimage mode and cval that realize the field's boundary_mode."""
    if fld.boundary_mode == "clamp":
        return "nearest", 0.0
    return "grid-constant", fld.boundary_value


class _FieldEvaluator:
    """Spline evaluator for a GridField; prefilters once, then maps batches."""

    def __init__(self, fld: GridField, interpolation: str):
        self.order = _spline_order(interpolation)
        self.mode, self.cval = _spline_mode(fld)
        self.coeffs = fld.values
        if self.order > 1:
            self.coeffs = ndi.spline_filter(fld.values, order=self.order, mode=self.mode, output=np.float64)
        self.lo = np.array([lo for lo, _ in fld.bounds])
        self.dx = np.array(fld.spacings)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        idx = (pts - self.lo) / self.dx
        return ndi.map_coordinates(
            self.coeffs, idx.T, order=self.order, mode=self.mode, cval=self.cval, prefilter=False
        )


@dataclass(frozen=True, eq=False)
class ChernoffPlan:
    """Iteration plan: n steps of size t_final/n with a fixed backend."""

    t_final: float
    steps: int
    quad: QuadratureSpec
    op: OperatorL
    interpolation: str = "cubic"

    def __post_init__(self):
        if not (math.isfinite(self.t_final) and self.t_final > 0.0):
            raise ValueError("t_final must be positive")
        if not (is_integer(self.steps) and self.steps >= 1):
            raise ValueError("steps must be a positive integer")
        _spline_order(self.interpolation)

    @property
    def tau(self) -> float:
        return self.t_final / self.steps

    def required_margin(self) -> float:
        """Grid margin consumed by the full chain: 6 sigma of accumulated spread plus drift reach."""
        return _margin(self.op, self.t_final)


def _margin(op: OperatorL, t: float) -> float:
    co = op.coeffs
    q1 = float(op.q[0])
    m = 6.0 * math.sqrt(2.0 * t * co.g_max * q1)
    if not co.drift_is_zero:
        m += t * q1 * co.drift_norm
    return m


def _step_coefficients(op: OperatorL, tau: float, pts: np.ndarray):
    """Per-point factors of S_tau at pts: scale sqrt(2 tau g), drift tilt B/(2g) (None without
    drift) and prefactor e^{tau C - tau <A B, B>/(4 g)}."""
    co = op.coeffs
    g = co.g_at(pts)
    c = co.c_at(pts)
    b = co.b_at(pts)
    scale = np.sqrt(2.0 * tau * g)
    if b is None:
        return scale, None, np.exp(tau * c)
    return scale, b / (2.0 * g)[:, None], np.exp(tau * c - tau * ((b * b) @ op.q) / (4.0 * g))


def _node_sum(eval_fn: Callable[[np.ndarray], np.ndarray], pts: np.ndarray, scale: np.ndarray,
              tilt: Optional[np.ndarray], nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k f(x + s(x) z_k) e^{s(x) <tilt(x), z_k>} at pts, for a node set z_k of N(0, diag q)."""
    m, n = pts.shape
    acc = np.zeros(m)
    chunk = max(1, _GATHER_ELEMENTS // m)
    for k0 in range(0, nodes.shape[0], chunk):
        zc = nodes[k0 : k0 + chunk]
        pos = pts[None, :, :] + scale[None, :, None] * zc[:, None, :]
        vals = eval_fn(pos.reshape(-1, n)).reshape(zc.shape[0], m)
        if tilt is not None:
            vals = vals * np.exp(np.einsum("mn,kn->km", tilt, zc) * scale[None, :])
        acc += weights[k0 : k0 + chunk] @ vals
    return acc


def _prefactored(prefactor: np.ndarray, node_sum: np.ndarray) -> np.ndarray:
    """The step's values prefactor * node_sum; raises IntegrandError if any is not finite."""
    out = prefactor * node_sum
    if not np.all(np.isfinite(out)):
        raise IntegrandError("one-step integral produced a non-finite value")
    return out


def _one_step_values(
    op: OperatorL,
    tau: float,
    eval_fn: Callable[[np.ndarray], np.ndarray],
    pts: np.ndarray,
    quad: QuadratureSpec,
    stream: tuple = (),
) -> np.ndarray:
    """(S_tau f)(x) at the given points, f supplied as a vectorized evaluator."""
    scale, tilt, prefactor = _step_coefficients(op, tau, pts)
    return _prefactored(prefactor, _node_sum(eval_fn, pts, scale, tilt, *gaussian_nodes(quad, op.q, stream)))


def _spline_taps(idx: np.ndarray, order: int, size: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient columns and B-spline weights that interpolation at grid index idx reads.

    Bit for bit what scipy.ndimage.map_coordinates computes (prefilter=False) at the same
    index: taps floor(idx) - order // 2 ... + order, the last weight by the sum rule.
    Reads past the edge clamp to it ("nearest") or, for "grid-constant", land on a
    padding cell holding cval, so columns address the coefficients padded by one cell.
    """
    base = np.floor(idx)
    cols = base.astype(np.intp)[..., None] + (np.arange(order + 1, dtype=np.intp) - order // 2)
    t = np.subtract(idx, base, out=base)
    w = np.empty(idx.shape + (order + 1,))
    if order == 1:
        w[..., 0] = 1.0 - t
    else:
        z = 1.0 - t
        w[..., 0] = z * z * z / 6.0
        w[..., 1] = (t * t * (t - 2.0) * 3.0 + 4.0) / 6.0
        w[..., 2] = (z * z * (z - 2.0) * 3.0 + 4.0) / 6.0
    last = 1.0
    for j in range(order):
        last = last - w[..., j]
    w[..., order] = last
    if mode == "nearest":
        np.clip(cols, 0, size - 1, out=cols)
    else:
        np.clip(cols, -1, size, out=cols)
        cols += 1
    return cols, w


def _axis_matrix(idx: np.ndarray, axis: int, shape: tuple, order: int, mode: str) -> sp.csr_matrix:
    """Sparse matrix of the spline taps at grid index idx[k, p] along `axis` of a field of `shape`.

    Row k M + p reads the coefficients on point p's line along `axis`, which "grid-constant"
    pads by one cell at each end of that axis.  Columns are flat indices into them, in intp
    since 4-axis grids can pass 2^31 cells; scipy stores them in int32 when they fit.
    """
    size = shape[axis]
    padded = size + 2 if mode == "grid-constant" else size
    cols, w = _spline_taps(idx, order, size, mode)
    inner = math.prod(shape[axis + 1 :])
    point = np.arange(idx.shape[1], dtype=np.intp)
    cols *= inner
    cols += (point // (size * inner) * (padded * inner) + point % inner)[:, None]
    return sp.csr_matrix(
        (w.ravel(), cols.ravel(), np.arange(0, w.size + 1, order + 1, dtype=np.intp)),
        shape=(w.size // (order + 1), idx.shape[1] // size * padded),
    )


class _Step:
    """S_tau on the geometry of one grid, as a map (field, stream) -> field for both backends.

    Built once per plan: __init__ checks the step against the grid and computes the grid
    points and _step_coefficients' per-point factors; __call__ applies the node sum, then the
    prefactor.  Monte Carlo draws a fresh node set from Philox stream `stream` at every call,
    then prefilters the field and interpolates it at the nodes (_node_sum).

    Gauss-Hermite node sums are fixed, one sparse factor per axis.  A is diagonal, so the
    step moves points one axis at a time: factor i is the spline prefilter along axis i, the
    spline taps at the nodes x + sqrt(2 tau g(x) q_i) z_k e_i of the 1D rule gaussian_nodes
    gives for q_i (a sparse matrix), the drift weight e^{beta_i s sqrt(q_i) z_k} and the node
    sum.  In 1D this is _node_sum's own summation, so results are bit-identical to it (while
    K M <= 4e6, where it sums all nodes at once).  In d >= 2 the factors' product is the
    tensor step, up to rounding, when g depends on x_1 only and B_j on x_1 .. x_j only, so
    that no factor's weights change along the axes filtered after it; otherwise it is their
    Lie product, O(tau^2) per step from it and still first order (Chernoff 1968).  With
    boundary_mode "constant", reads past the edge along axis i see what factors 0 .. i-1
    make of the constant boundary_value field; its edge slabs are built once.
    """

    def __init__(self, op: OperatorL, tau: float, grid: GridField, quad: QuadratureSpec, interpolation: str):
        self.order = _spline_order(interpolation)
        if not (math.isfinite(tau) and tau > 0.0):
            raise ValueError("tau must be positive")
        if grid.dim != op.dim:
            raise ValueError(f"field dimension {grid.dim} does not match operator dimension {op.dim}")
        reach = _margin(op, tau)
        for lo, hi in grid.bounds:
            if reach >= hi - lo:
                raise TruncationError(
                    f"one-step Gaussian reach {reach:.3g} exceeds domain width {hi - lo:.3g}; enlarge the grid"
                )
        self.gauss_hermite = quad.backend == "gauss_hermite"
        if self.gauss_hermite and grid.dim > GH_MAX_DIM:
            raise ValueError(f"gauss_hermite backend supports dimension <= {GH_MAX_DIM}, got {grid.dim}")
        pts = grid.meshpoints()
        scale, tilt, self.prefactor = _step_coefficients(op, tau, pts)
        if not self.gauss_hermite:
            self.interpolation, self.quad, self.q = interpolation, quad, op.q
            self.pts, self.scale, self.tilt = pts, scale, tilt
            return

        self.mode, self.cval = _spline_mode(grid)
        self.shape = grid.values.shape
        self.matrices, self.drifts = [], []
        for i, ((lo, _), dx) in enumerate(zip(grid.bounds, grid.spacings)):
            zc, self.node_weights = gaussian_nodes(quad, op.q[i : i + 1])  # the same weights on every axis
            zc = zc[:, 0]
            # node grid indices go straight in, so they are freed before the next axis is built
            self.matrices.append(_axis_matrix(
                (pts[None, :, i] + scale[None, :] * zc[:, None] - lo) / dx,
                i, self.shape, self.order, self.mode,
            ))
            self.drifts.append(None if tilt is None else np.exp(np.outer(zc, tilt[:, i]) * scale[None, :]))

        self.edges = []
        if self.mode == "grid-constant":
            exterior = np.full(self.shape, self.cval)
            for i in range(grid.dim):
                self.edges.append((exterior.take([0], axis=i), exterior.take([-1], axis=i)))
                if i + 1 < grid.dim:
                    exterior = self._factor(i, exterior)

    def _factor(self, i: int, coeffs: np.ndarray) -> np.ndarray:
        """Axis-i factor on coefficients already prefiltered along axis i."""
        if self.edges:
            coeffs = np.concatenate((self.edges[i][0], coeffs, self.edges[i][1]), axis=i)
        node_vals = (self.matrices[i] @ coeffs.ravel()).reshape(self.node_weights.size, -1)
        if self.drifts[i] is not None:
            node_vals = node_vals * self.drifts[i]
        return (self.node_weights @ node_vals).reshape(self.shape)

    def __call__(self, u: GridField, stream: tuple) -> GridField:
        if self.gauss_hermite:
            values = u.values
            for i in range(len(self.shape)):
                if self.order > 1:
                    values = ndi.spline_filter1d(values, order=self.order, axis=i, mode=self.mode, output=np.float64)
                values = self._factor(i, values)
            node_sum = values.ravel()
        else:
            node_sum = _node_sum(_FieldEvaluator(u, self.interpolation), self.pts, self.scale, self.tilt,
                                 *gaussian_nodes(self.quad, self.q, stream))
        return dataclasses.replace(u, values=_prefactored(self.prefactor, node_sum).reshape(u.values.shape))


def apply_S(op: OperatorL, tau: float, u: GridField, quad: QuadratureSpec, interpolation: str = "cubic") -> GridField:
    """One application of S_tau to a grid field."""
    return _Step(op, tau, u, quad, interpolation)(u, ())


@dataclass(frozen=True, eq=False)
class ChernoffResult:
    """Final field of (S_{t/n})^n u0 plus per-step diagnostics."""

    field: GridField
    sup_norms: np.ndarray
    interior_sup_norms: np.ndarray
    checkpoints: dict


def chernoff_solve(plan: ChernoffPlan, u0: GridField, checkpoint_steps: Sequence[int] = ()) -> ChernoffResult:
    """Iterate S_{t/n} n times; records sup-norms per step and optional snapshots."""
    step_S = _Step(plan.op, plan.tau, u0, plan.quad, plan.interpolation)
    for k in checkpoint_steps:
        if not (is_integer(k) and 1 <= k <= plan.steps):
            raise ValueError(f"checkpoint step {k} outside 1..{plan.steps}")
    margin = plan.required_margin()
    mask = u0.interior_mask(margin)
    if not mask.any():
        dx = max(u0.spacings)
        raise TruncationError(
            f"chain margin {margin:.3g} leaves no grid point in the interior at spacing {dx:.3g}; "
            "enlarge or refine the grid"
        )
    sup_norms = np.empty(plan.steps)
    interior = np.empty(plan.steps)
    checkpoints: dict[int, GridField] = {}
    wanted = set(checkpoint_steps)
    u = u0
    for step in range(1, plan.steps + 1):
        u = step_S(u, (step - 1,))
        sup_norms[step - 1] = u.sup_norm
        interior[step - 1] = float(np.max(np.abs(u.values[mask])))
        if step in wanted:
            checkpoints[step] = u
    return ChernoffResult(field=u, sup_norms=sup_norms, interior_sup_norms=interior, checkpoints=checkpoints)


def tangency_residual(op: OperatorL, phi: CylFunction, tau: float, grid, quad: QuadratureSpec) -> float:
    """max over grid of |(S_tau phi - phi)/tau - L phi|; -> 0 as tau -> 0."""
    if phi.grad is None or phi.hess is None:
        raise ValueError("tangency check requires analytic grad and hess on phi")
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError("tau must be positive")
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.shape[0] == 0 or pts.shape[1] != op.dim:
        raise ValueError(f"grid must be a nonempty (m, {op.dim}) array")
    s_vals = _one_step_values(op, tau, phi, pts, quad)
    l_vals = apply_L(op, phi, pts)
    return float(np.max(np.abs((s_vals - phi(pts)) / tau - l_vals)))


def norm_bound_check(op: OperatorL, tau: float, u: GridField, quad: QuadratureSpec) -> tuple[float, float]:
    """(||S_tau u|| / ||u||, exp((2 ||A|| B0^2 / g0 + ||C||) tau)) in sup-norm."""
    if u.sup_norm == 0.0:
        raise ValueError("norm bound check requires a nonzero input field")
    out = apply_S(op, tau, u, quad)
    co = op.coeffs
    growth = 2.0 * op.A.operator_norm * co.drift_norm**2 / co.g_floor + co.c_norm
    return out.sup_norm / u.sup_norm, math.exp(growth * tau)


def _c_is_nonpositive(co: Coefficients) -> bool:
    return co.contractive or (co.C.is_constant and co.C.constant_value <= 0.0)


def coefficient_continuity_probe(op0: OperatorL, op_j: OperatorL, plan: ChernoffPlan, u0: GridField) -> float:
    """Sup gap between the two solutions at t/4, t/2, t over shared interior points."""
    for name, op in (("op0", op0), ("op_j", op_j)):
        if not op.coeffs.drift_is_zero:
            raise ValueError(f"continuity probe requires drift-free coefficients ({name} has drift)")
        if not _c_is_nonpositive(op.coeffs):
            raise ValueError(f"continuity probe requires C <= 0 ({name} violates it)")
    if plan.steps % 4 != 0:
        raise ValueError("continuity probe needs steps divisible by 4 for the t/4, t/2, t checkpoints")
    marks = (plan.steps // 4, plan.steps // 2, plan.steps)
    res0 = chernoff_solve(dataclasses.replace(plan, op=op0), u0, checkpoint_steps=marks)
    res_j = chernoff_solve(dataclasses.replace(plan, op=op_j), u0, checkpoint_steps=marks)
    margin = max(_margin(op0, plan.t_final), _margin(op_j, plan.t_final))
    mask = u0.interior_mask(margin)
    gap = 0.0
    for k in marks:
        d = np.max(np.abs(res0.checkpoints[k].values[mask] - res_j.checkpoints[k].values[mask]))
        gap = max(gap, float(d))
    return gap
