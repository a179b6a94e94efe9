"""One-step Gaussian-integral operator and its Chernoff iteration on grids.

The step with coefficients (g, B, C) and diagonal A = diag(q) is

    (S_tau u)(x) = e^{tau C(x) - tau <A B(x), B(x)>/(4 g(x))}
                   * Integral u(x + y) e^{<B(x)/(2 g(x)), y>} dmu_{2 tau g(x) A}(y),

which is tangent to (L u)(x) = g(x) sum_i q_i u_ii + sum_i q_i B_i(x) u_i + C(x) u
as tau -> 0.  Completing the square moves the exponential weight into the Gaussian's
mean, and its factor e^{tau <A B, B>/(4 g)} cancels the prefactor's:

    (S_tau u)(x) = e^{tau C(x)} E[u(x + tau A B(x) + sqrt(2 tau g(x)) Z)],  Z ~ N(0, diag q).

That is the form evaluated here: gauss.gaussian_nodes owns the node set z_k of Z, shared
by all points of one application, and _step_coefficients the per-point scale, shift and
prefactor, so the nodes of x sit at x + tau A B(x) + sqrt(2 tau g(x)) z_k.

Solutions of u'_t = L u are approximated by (S_{t/n})^n u0 on a truncated
grid: each step smooths over a Gaussian of scale sqrt(2 tau g q_1), so grid
bounds must exceed the region of interest by the accumulated margin
6 sqrt(2 t g_max q_1) (plus t q_1 B_0 under drift); assertions apply to
interior points only.

Fields are read through their cubic (or linear) spline, and a read past the edge takes
the edge coefficient.  boundary_mode "constant" is the same rule on the field extended
by _PAD cells of boundary_value, so its spline still passes through the edge nodes.
The spline passes through every node at every line length: clamp lines under _SHORT_LINE
points are prefiltered by an exact solve (_short_prefilter), since scipy's is not exact there.

On a grid S_tau is linear and the same at every step, so one step object per
chernoff_solve (and per apply_S call), _Step, serves both backends: it checks the
geometry and computes the grid points and per-point factors once, and chernoff_solve
iterates it on arrays, making a GridField only for checkpoints and the result.
Gauss-Hermite node sums are fixed as one linear map per axis, its node weights folded into
its spline taps when it is built, once per grid line rather than once per point wherever
the coefficients allow it.  For K nodes per axis, lines of n points and M grid points, and
W the grid offsets a point's row reaches (about 2 s z_max / dx + order + 1), a per-line
stencil takes 8 bytes per line and offset; a table shared by L lines takes n W * 8 bytes as
kernel rows when W 8 <= K (order + 1) 12, plus an extension buffer of (n + W - 1) L * 8,
and otherwise CSR taps of at most K n (order + 1) * 12; per-point taps take at most
K M (order + 1) * 12 bytes (taps on one coefficient are one entry, so these are bounds),
refused (TapTableError) above _TAP_TABLE_BYTES.  Monte Carlo
draws fresh nodes at every step (Philox stream k-1) and sums them by _node_sum, as
tangency_residual does.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.ndimage as ndi
import scipy.sparse as sp

from .cylinder import Coefficients, CylFunction, OperatorL, apply_L
from .gauss import IntegrandError, QuadratureSpec, gaussian_nodes, is_integer

__all__ = [
    "ChernoffPlan",
    "ChernoffResult",
    "GridField",
    "TapTableError",
    "TruncationError",
    "apply_S",
    "chernoff_solve",
    "coefficient_continuity_probe",
    "norm_bound_check",
    "tangency_residual",
]

_ORDERS = {"linear": 1, "cubic": 3}
_BOUNDARY_MODES = ("clamp", "constant")
# cells of boundary_value that extend a "constant" field at each end before its spline prefilter:
# the prefilter's influence decays as (2 - sqrt 3)^k per cell, and 0.268^28 < 1e-15
_PAD = 28
_POINTS_MESSAGE = "points_per_axis must be the same on every axis and at least 2"
# field values gathered at once by the per-node step: K M of them for K nodes and M points
_GATHER_ELEMENTS = 4_000_000
# bytes of one axis factor's per-point tap table, K M (order + 1) * 12, above which it is refused
_TAP_TABLE_BYTES = 1 << 28
# Gauss-Hermite nodes the grid step leaves out: weight below 2^-60, far under an ulp of the sum
_NODE_WEIGHT_FLOOR = 2.0**-60
# clamp lines shorter than this are prefiltered by an exact solve: scipy's "nearest" prefilter
# misses the node values there (by about 1e-3 at 2 points, 3e-12 at 10, 2e-14 at 12)
_SHORT_LINE = 16


def _short_prefilter(values: np.ndarray, axis: int) -> np.ndarray:
    """Cubic spline coefficients of values along `axis` whose spline passes through every node
    when a read past the edge takes the edge coefficient: the solution of the tridiagonal
    (1, 4, 1)/6 system with 5/6 in both corners, solved directly, for lines under _SHORT_LINE."""
    n = values.shape[axis]
    system = 4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    system[0, 0] = system[-1, -1] = 5.0
    lines = values.swapaxes(0, axis)
    return np.linalg.solve(system / 6.0, lines.reshape(n, -1)).reshape(lines.shape).swapaxes(0, axis)


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


class TapTableError(RuntimeError):
    """An axis factor would need a per-point tap table larger than _TAP_TABLE_BYTES."""


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
        """Interpolated values at an (m, dim) array of points.

        The spline passes through every node, and a read past the edge takes the edge
        coefficient.  With boundary_mode "constant" the spline is fitted to the field
        extended by _PAD cells of boundary_value, so it passes through boundary_value at
        each of those cells, and through the field's own values at its edge nodes."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"points must be an (m, {self.dim}) array, got shape {points.shape}")
        return _FieldEvaluator(self, interpolation)(points)


class _FieldEvaluator:
    """Spline evaluator for a GridField; prefilters once, then maps batches."""

    def __init__(self, fld: GridField, interpolation: str):
        self.order = _spline_order(interpolation)
        self.pad = _PAD if fld.boundary_mode == "constant" else 0
        self.coeffs = fld.values
        if self.pad:
            self.coeffs = np.pad(self.coeffs, self.pad, constant_values=fld.boundary_value)
        if self.order > 1 and self.coeffs.shape[0] < _SHORT_LINE:  # clamp only: constant pads by _PAD
            for axis in range(self.coeffs.ndim):
                self.coeffs = _short_prefilter(self.coeffs, axis)
        elif self.order > 1:
            self.coeffs = ndi.spline_filter(self.coeffs, order=self.order, mode="nearest", output=np.float64)
        self.lo = np.array([lo for lo, _ in fld.bounds])
        self.dx = np.array(fld.spacings)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        idx = (pts - self.lo) / self.dx
        idx += self.pad
        return ndi.map_coordinates(self.coeffs, idx.T, order=self.order, mode="nearest", prefilter=False)


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
    """Per-point factors of S_tau at pts: scale sqrt(2 tau g), node shift tau q_i B_i on each
    axis i (zero without drift) and prefactor e^{tau C}."""
    co = op.coeffs
    b = co.b_at(pts)
    shift = np.zeros(pts.shape) if b is None else tau * b * op.q
    return np.sqrt(2.0 * tau * co.g_at(pts)), shift, np.exp(tau * co.c_at(pts))


def _node_sum(eval_fn: Callable[[np.ndarray], np.ndarray], centres: np.ndarray, scale: np.ndarray,
              nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k f(c_j + s_j z_k) at each centre c_j with its scale s_j, for a node set z_k of N(0, diag q)."""
    m, n = centres.shape
    acc = np.zeros(m)
    chunk = max(1, _GATHER_ELEMENTS // m)
    for k0 in range(0, nodes.shape[0], chunk):
        zc = nodes[k0 : k0 + chunk]
        pos = centres[None, :, :] + scale[None, :, None] * zc[:, None, :]
        acc += weights[k0 : k0 + chunk] @ eval_fn(pos.reshape(-1, n)).reshape(zc.shape[0], m)
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
    scale, shift, prefactor = _step_coefficients(op, tau, pts)
    return _prefactored(prefactor, _node_sum(eval_fn, pts + shift, scale, *gaussian_nodes(quad, op.q, stream)))


def _spline_taps(idx: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices and B-spline weights that interpolation at grid index idx reads.

    Bit for bit what scipy.ndimage.map_coordinates computes (prefilter=False) at the same
    index: taps floor(idx) - order // 2 ... + order, the last weight by the sum rule.
    Taps may lie past the edge, where mode "nearest" reads the edge coefficient.
    """
    base = np.floor(idx)
    ibase = base.astype(np.intp)
    # one strided add per tap column: broadcasting a length-(order + 1) last axis runs one tiny
    # inner loop per node, about three times slower
    cols = np.empty(idx.shape + (order + 1,), dtype=np.intp)
    for j in range(order + 1):
        np.add(ibase, j - order // 2, out=cols[..., j])
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
    return cols, w


class _LineTaps:
    """Axis factor as a table of weighted spline taps, one row per grid point of a line.

    Maps coefficients arranged (padded size, L), one grid line along the axis per column, to
    node sums (size, L).  Node indices idx are (size, 1, K) when the rows are the same on every
    line, or (size, L, K) for rows per point of each line; `lines` is L either way.  Each row
    holds the K (order + 1) taps of its point, each times its node weight, so it sums to 1.  It
    is stored in one of two forms, picked by _axis_factor:

    kernel rows (span = (first, width), shared rows only): one bincount folds each row's taps by
    offset into a dense row over the grid offsets first .. first + width - 1 from the point's
    own coefficient.  A tap past the edge keeps its offset and reads the coefficient lines
    extended past the edge by the edge coefficient.  The extension is a buffer kept with the
    factor, with its view of sliding windows (a new view costs about 12 us a call), so a call
    is not reentrant.  Each point's row contracts its window on all lines by np.matmul, whose
    bits do not depend on the number of BLAS threads.

    CSR taps (span None): one sparse block, (size x padded size) applied to all columns at once
    when shared, or one block per line, where the tap at coefficient j of line r is column j L + r
    of the raveled coefficients.  Taps that read the same coefficient (those of neighbouring
    nodes, and every tap clipped to the edge) are summed into one entry, so a row names each
    column once, in increasing order.  Columns are intp, since 4-axis grids can pass 2^31 cells;
    scipy stores them in int32 when they fit.
    """

    def __init__(self, idx: np.ndarray, weights: np.ndarray, order: int, pad: int, lines: int, span):
        self.size, self.lines, nodes = idx.shape
        cols, w = _spline_taps(idx, order)
        w *= weights[..., None]
        self.matrix = None
        if span is None:
            padded = self.size + 2 * pad
            np.clip(cols, 0, padded - 1, out=cols)
            cols *= self.lines
            cols += np.arange(self.lines, dtype=np.intp)[:, None, None]
            self.matrix = sp.csr_matrix(
                (w.ravel(), cols.ravel(), np.arange(0, w.size + 1, nodes * (order + 1), dtype=np.intp)),
                shape=(self.size * self.lines, padded * self.lines),
            )
            self.matrix.sum_duplicates()
            return
        first, width = span
        # the tap of point j at column c is entry (j, c - j - pad - first) of the table
        cols += (np.arange(self.size) * (width - 1) - pad - first)[:, None, None, None]
        kernel = np.bincount(cols.ravel(), w.ravel(), minlength=self.size * width)
        self.kernel = kernel.reshape(self.size, 1, width)  # a row vector per point, for matmul
        self.index = np.arange(pad + first, pad + first + self.size + width - 1)  # clipped by np.take
        self.extended = np.empty((self.size + width - 1, lines))
        self.windows = np.lib.stride_tricks.sliding_window_view(self.extended, width, axis=0).swapaxes(1, 2)

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        lines = coeffs.shape[1]
        if self.matrix is not None:
            # one shared block multiplies the coefficient matrix; a single column stays a matvec
            return (self.matrix @ (coeffs if self.lines < lines else coeffs.ravel())).reshape(self.size, lines)
        np.take(coeffs, self.index, axis=0, out=self.extended, mode="clip")
        # (1 x width) @ (width x L) at each point
        return np.matmul(self.kernel, self.windows).reshape(self.size, lines)


class _LineStencil:
    """Axis factor whose scale and shift are constant along each line: one kernel per line.

    Line r's nodes sit at the same offsets shift_r + s_r z_k from every point, so its taps and
    node weights fold into one kernel over grid offsets lo .. lo + width - 1, summing to 1,
    applied as a banded convolution on the coefficients extended past the edge.
    """

    def __init__(self, rel: np.ndarray, weights: np.ndarray, order: int, size: int, pad: int):
        lines = rel.shape[0]
        cols, w = _spline_taps(rel, order)  # (L, K, order + 1) taps at node offsets (shift_r + s_r z_k) / dx
        w *= weights[..., None]
        lo = int(cols.min())
        self.width = int(cols.max()) - lo + 1
        cols += (np.arange(lines, dtype=np.intp) * self.width - lo)[:, None, None]
        self.kernel = np.bincount(cols.ravel(), w.ravel(), minlength=lines * self.width).reshape(lines, self.width)
        self.index = np.clip(np.arange(lo + pad, lo + pad + size + self.width - 1), 0, size + 2 * pad - 1)

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        extended = np.take(coeffs.T, self.index, axis=1)  # C-ordered, unlike coeffs.T[:, index]
        windows = np.lib.stride_tricks.sliding_window_view(extended, self.width, axis=1)
        return np.einsum("rjw,rw->rj", windows, self.kernel).T


def _lines(a: np.ndarray, axis: int) -> np.ndarray:
    """a as a matrix with one column per grid line along `axis`: that axis swapped to the front,
    the others raveled.  Every step calls it once per axis, so it uses swapaxes: moveaxis spends
    about 10 us on argument handling, several percent of a 1D step."""
    return a.swapaxes(0, axis).reshape(a.shape[axis], -1)


def _axis_factor(x: np.ndarray, scale: np.ndarray, shift: np.ndarray, nodes: np.ndarray,
                 weights: np.ndarray, lo: float, dx: float, order: int, pad: int):
    """Factor along the axis with coordinates x, for scale and shift given per line (_lines), on
    coefficients padded by `pad` cells at each end: the spline taps at the nodes
    x + shift + scale z_k, each times its node weight.

    Its form follows scale and shift: one table of taps shared by every line when they are the
    same on each line, a folded stencil per line when they are constant along each line, and
    taps per point otherwise; those are refused with TapTableError, before any is computed, when
    they would take more than _TAP_TABLE_BYTES.  A shared table takes kernel rows over the W grid
    offsets its rows reach when W 8 <= K (order + 1) 12, the bytes a row of CSR taps can take
    at most, and CSR taps otherwise; per-point tables always take CSR taps.
    """
    lines = scale.shape[1]
    if np.all(scale == scale[:, :1]) and np.all(shift == shift[:, :1]):
        scale, shift = scale[:, :1], shift[:, :1]
    elif np.all(scale == scale[:1]) and np.all(shift == shift[:1]):
        scale, shift = scale[0], shift[0]  # one value per line
    elif (table := nodes.size * scale.size * (order + 1) * 12) > _TAP_TABLE_BYTES:
        raise TapTableError(
            f"per-point taps along one axis would take {table} bytes, more than the budget of "
            f"{_TAP_TABLE_BYTES}; use fewer points or nodes, or coefficients constant along or "
            "across the axis"
        )
    offset = shift[..., None] + scale[..., None] * nodes
    if scale.ndim == 1:
        return _LineStencil(offset / dx, weights, order, x.size, pad)
    idx = np.add(x[:, None, None], offset, out=offset)  # in place: offset is not needed again
    idx -= lo
    idx /= dx
    idx += pad
    span = None
    if scale.shape[1] == 1:  # shared rows: the grid offsets, from each point's own coefficient, they reach
        own = np.arange(x.size) + pad  # floor is monotone, so each point's outermost nodes decide
        first = int((np.floor(idx.min(axis=(1, 2))) - own).min()) - order // 2
        width = int((np.floor(idx.max(axis=(1, 2))) - own).max()) + order - order // 2 - first + 1
        if width * 8 <= nodes.size * (order + 1) * 12:
            span = (first, width)
    return _LineTaps(idx, weights, order, pad, lines, span)


class _Step:
    """S_tau on the geometry of one grid, as a map (field, stream) -> field for both backends.

    Built once per plan: __init__ checks the step against the grid and computes the grid
    points and _step_coefficients' per-point factors; apply maps field values to the step's
    values (the node sum, then the prefactor), and __call__ does the same for a GridField.
    Monte Carlo draws a fresh node set from Philox stream `stream` at every call, then
    prefilters the field and interpolates it at the nodes (_node_sum).

    Gauss-Hermite node sums are fixed, one linear factor per axis.  A is diagonal, so the
    step moves points one axis at a time: factor i is the spline prefilter along axis i and
    the spline taps at the nodes x + tau q_i B_i(x) e_i + sqrt(2 tau g(x) q_i) z_k e_i of the
    1D rule gaussian_nodes gives for q_i, each weighted by its node weight.  Nodes of weight
    below _NODE_WEIGHT_FLOOR = 2^-60 are left out: none for K <= 24, and for K = 32 the 4
    outermost, 1.04e-18 of the weight, which widened every row from +-8.2 to +-10.1
    standard deviations.  A spline is bounded by its largest coefficient, at most
    3 ||u||_inf for cubic (the prefilter's inverse has sup-norm 3) and ||u||_inf for linear,
    with u the factor's input (boundary_value included in constant mode), so leaving them
    out moves a factor's output by at most 3.2e-18 ||u||_inf at K = 32.

    The factor's form is picked from the scale s and shift tau q_i B_i along axis i alone
    (_axis_factor):
      (a) the same on every line along axis i (always in 1D, and on axis 1 when the
          coefficients depend on x_1 only): one table of n rows for lines of n points, each
          row the K (order + 1) weighted taps of one point, applied to every line;
      (b) constant along each line and different between lines (axes 2.. when the
          coefficients depend on x_1 only): each line folds its weighted taps into one
          kernel, applied as a banded convolution;
      (c) otherwise: taps per point, (a) with one CSR block of n rows per line.
    The table of (a) takes kernel rows, one dense row per point over the W grid offsets its
    rows reach, when W 8 <= K (order + 1) 12, the most bytes a row's CSR taps can take, and
    keeps the CSR taps otherwise; kernel rows thus take no more than that CSR bound, plus an
    extension buffer of (n + W - 1) L * 8 bytes for L lines.  At K = 32 (28 kept nodes, cubic)
    that is W <= 168, about s / dx <= 10: converge_variable_g at n = 32 and 64 takes kernel
    rows, at n = 4 .. 16 CSR taps.
    In 1D this agrees with _node_sum's per-node summation up to rounding (2e-15 on fields of
    size 1).  In d >= 2 the factors' product is the tensor step, up to rounding, when g
    depends on x_1 only and B_j on x_1 .. x_j only, so that no factor's weights change along
    the axes filtered after it; otherwise it is their Lie product, O(tau^2) per step from it
    and still first order (Chernoff 1968).  Every read past the edge takes the edge
    coefficient.  Node and tap weights each sum to 1, so every factor maps a constant to
    itself; with boundary_mode "constant", factor i therefore extends its input by _PAD cells
    of boundary_value along axis i at each end, as _FieldEvaluator extends the field, in a
    buffer per axis built with the step and prefiltered in place.
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
        self.shape = grid.values.shape
        pts = grid.meshpoints()
        scale, shift, self.prefactor = _step_coefficients(op, tau, pts)
        if not self.gauss_hermite:
            self.grid, self.interpolation, self.quad, self.q = grid, interpolation, quad, op.q
            self.centres, self.scale = pts + shift, scale
            return

        self.pad = _PAD if grid.boundary_mode == "constant" else 0
        self.boundary_value = grid.boundary_value
        # constant mode: per axis, the field extended by _PAD cells along it, prefiltered in place
        self.padded = [
            np.empty(tuple(n + 2 * self.pad * (j == i) for j, n in enumerate(self.shape)))
            for i in range(len(self.shape) if self.pad else 0)
        ]
        scale = scale.reshape(self.shape)
        self.factors = []
        for i, ((lo, _), dx, x) in enumerate(zip(grid.bounds, grid.spacings, grid.axes)):
            zc, weights = gaussian_nodes(quad, op.q[i : i + 1])  # the same weights on every axis
            kept = weights >= _NODE_WEIGHT_FLOOR
            zc, weights = zc[kept], weights[kept]
            shift_i = _lines(shift[:, i].reshape(self.shape), i)
            factor = _axis_factor(x, _lines(scale, i), shift_i, zc[:, 0], weights, lo, dx, self.order, self.pad)
            self.factors.append(factor)

    def _factor(self, i: int, values: np.ndarray) -> np.ndarray:
        """Axis-i factor: extend along axis i (constant mode), prefilter along it, take the taps."""
        output = np.float64
        if self.pad:
            # the in-place prefilter overwrites the slabs too, so every call sets them again
            output, ext = self.padded[i], self.padded[i].swapaxes(0, i)
            ext[: self.pad] = self.boundary_value
            ext[-self.pad :] = self.boundary_value
            ext[self.pad : -self.pad] = values.swapaxes(0, i)
            values = output
        if self.order > 1 and values.shape[i] < _SHORT_LINE:  # clamp only: constant pads by _PAD
            values = _short_prefilter(values, i)
        elif self.order > 1:
            values = ndi.spline_filter1d(values, order=self.order, axis=i, mode="nearest", output=output)
        return self.factors[i](_lines(values, i)).reshape(self.shape).swapaxes(0, i)

    def apply(self, values: np.ndarray, stream: tuple) -> np.ndarray:
        """The step's values on the grid for field values `values`; chernoff_solve iterates this."""
        if self.gauss_hermite:
            for i in range(len(self.shape)):
                values = self._factor(i, values)
        else:
            evaluator = _FieldEvaluator(dataclasses.replace(self.grid, values=values), self.interpolation)
            values = _node_sum(evaluator, self.centres, self.scale, *gaussian_nodes(self.quad, self.q, stream))
        return _prefactored(self.prefactor, values.ravel()).reshape(self.shape)

    def __call__(self, u: GridField, stream: tuple) -> GridField:
        return dataclasses.replace(u, values=self.apply(u.values, stream))


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
    # the checks above come first: building the step can take a per-point table of _TAP_TABLE_BYTES
    step_S = _Step(plan.op, plan.tau, u0, plan.quad, plan.interpolation)
    sup_norms = np.empty(plan.steps)
    interior = np.empty(plan.steps)
    checkpoints: dict[int, GridField] = {}
    wanted = set(checkpoint_steps)
    values = u0.values
    for step in range(1, plan.steps + 1):
        values = step_S.apply(values, (step - 1,))
        magnitude = np.abs(values)
        sup_norms[step - 1] = np.max(magnitude)
        interior[step - 1] = np.max(magnitude[mask])
        if step in wanted:
            checkpoints[step] = dataclasses.replace(u0, values=values)
    field = dataclasses.replace(u0, values=values)
    return ChernoffResult(field=field, sup_norms=sup_norms, interior_sup_norms=interior, checkpoints=checkpoints)


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


def norm_bound_check(op: OperatorL, tau: float, fields: Sequence[GridField],
                     quad: QuadratureSpec) -> tuple[np.ndarray, float]:
    """(||S_tau u|| / ||u|| for each field u, exp((2 ||A|| B0^2 / g0 + ||C||) tau)) in sup-norm.

    The fields share one grid (bounds, points and boundary), so one step serves them all."""
    fields = list(fields)
    if not fields:
        raise ValueError("norm bound check requires at least one field")
    grid = fields[0]
    for u in fields:
        if (u.bounds, u.values.shape, u.boundary_mode, u.boundary_value) != (
            grid.bounds, grid.values.shape, grid.boundary_mode, grid.boundary_value
        ):
            raise ValueError("norm bound check requires every field on the same grid and boundary")
        if u.sup_norm == 0.0:
            raise ValueError("norm bound check requires nonzero input fields")
    step_S = _Step(op, tau, grid, quad, "cubic")
    ratios = np.array([step_S(u, ()).sup_norm / u.sup_norm for u in fields])
    co = op.coeffs
    growth = 2.0 * op.A.operator_norm * co.drift_norm**2 / co.g_floor + co.c_norm
    return ratios, math.exp(growth * tau)


def _c_is_nonpositive(co: Coefficients) -> bool:
    return co.contractive or (co.C.is_constant and co.C.constant_value <= 0.0)


def coefficient_continuity_probe(op0: OperatorL, perturbed: Sequence[OperatorL], plan: ChernoffPlan,
                                  u0: GridField) -> list[float]:
    """Sup gap between op0's solution and each perturbed operator's at t/4, t/2, t, over the
    interior points the pair shares; op0 is solved once for all of them."""
    perturbed = list(perturbed)
    for name, op in [("op0", op0)] + [(f"perturbed[{j}]", op) for j, op in enumerate(perturbed)]:
        if not op.coeffs.drift_is_zero:
            raise ValueError(f"continuity probe requires drift-free coefficients ({name} has drift)")
        if not _c_is_nonpositive(op.coeffs):
            raise ValueError(f"continuity probe requires C <= 0 ({name} violates it)")
    if plan.steps % 4 != 0:
        raise ValueError("continuity probe needs steps divisible by 4 for the t/4, t/2, t checkpoints")
    marks = (plan.steps // 4, plan.steps // 2, plan.steps)
    res0 = chernoff_solve(dataclasses.replace(plan, op=op0), u0, checkpoint_steps=marks)
    gaps = []
    for op_j in perturbed:
        res_j = chernoff_solve(dataclasses.replace(plan, op=op_j), u0, checkpoint_steps=marks)
        mask = u0.interior_mask(max(_margin(op0, plan.t_final), _margin(op_j, plan.t_final)))
        gap = 0.0
        for k in marks:
            d = np.max(np.abs(res0.checkpoints[k].values[mask] - res_j.checkpoints[k].values[mask]))
            gap = max(gap, float(d))
        gaps.append(gap)
    return gaps
