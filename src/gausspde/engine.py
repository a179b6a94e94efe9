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
Gauss-Hermite node sums are fixed as one linear map per axis, _AxisFactor, which owns
its keying, span, budget, blocked build and contraction: its node weights are folded into
kernel rows of spline taps over grid offsets when it is built.  chernoff_solve takes each
step's sup norm as the larger of max and -min, which is also its finiteness check, and the
interior's from the slices of the interior box.  Monte Carlo draws fresh nodes at every step
(Philox stream k-1) and sums them by _node_sum, as tangency_residual does.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.ndimage as ndi

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
# spline taps computed at once while a table of kernel rows is built, a block of keys at a time;
# with their node indices, the block's rows and temporaries they take about 50 bytes each
_BUILD_TAPS = 1 << 14
# bytes of one axis factor's table of kernel rows, keys W 8, above which it is refused: 256 MiB
# takes a 1D single step with varying g or B whose reach nearly fills the box (W about 2.74 n) up
# to about 3,500 points
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


def _prefilter(values: np.ndarray, axis: int, order: int, output=np.float64) -> np.ndarray:
    """Spline coefficients of values along `axis`, in `output` where scipy computes them: the
    values themselves for linear splines, else their cubic prefilter with a read past the edge
    taking the edge coefficient.  Short lines only occur in clamp mode: constant pads by _PAD."""
    if order == 1:
        return values
    if values.shape[axis] < _SHORT_LINE:
        return _short_prefilter(values, axis)
    return ndi.spline_filter1d(values, order=order, axis=axis, mode="nearest", output=output)


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
    """An axis factor would need a table of kernel rows larger than _TAP_TABLE_BYTES."""


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
        for axis in range(self.coeffs.ndim):  # what ndi.spline_filter does
            self.coeffs = _prefilter(self.coeffs, axis, self.order)
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


_NOT_FINITE = "one-step integral produced a non-finite value"


def _finite(values: np.ndarray) -> np.ndarray:
    """The step's values; raises IntegrandError if any is not finite."""
    if not np.all(np.isfinite(values)):
        raise IntegrandError(_NOT_FINITE)
    return values


def _sup_norm(values: np.ndarray) -> float:
    """max |values|, as the larger of max and -min: two passes that make no array.  It is
    not finite when a value is not: max and min are NaN if any value is, and +-inf shows in one."""
    return abs(max(values.max(), -values.min()))  # abs makes the -0.0 of an all-zero field 0.0


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
    return _finite(prefactor * _node_sum(eval_fn, pts + shift, scale, *gaussian_nodes(quad, op.q, stream)))


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


def _lines(a: np.ndarray, axis: int) -> np.ndarray:
    """a as a matrix with one column per grid line along `axis`: that axis swapped to the front,
    the others raveled.  Every step calls it once per axis, so it uses swapaxes: moveaxis spends
    about 10 us on argument handling, several percent of a 1D step."""
    return a.swapaxes(0, axis).reshape(a.shape[axis], -1)


class _AxisFactor:
    """Factor `axis` of the Gauss-Hermite grid step, one fixed linear map on grid-shaped values:
    extend the field by _PAD cells of boundary_value at each end of the axis (constant mode),
    prefilter it along the axis, then apply kernel rows of the weighted spline taps at the nodes
    x + shift + scale z_k of each point, for scale and shift given at every grid point.

    Keys.  Every row holds its key's node offsets from its own point, (shift + scale z_k) / dx, so
    it depends on its key's scale and shift alone.  Along the L lines of n points (_lines), a table
    keeps the point axis only if scale or shift varies along the lines, and the line axis only if
    they vary across them: (n, 1), keyed by point (in 1D when g or B varies, and on axis 1 when the
    coefficients depend on x_1 only); (1, L), keyed by line (axes 2.. when they depend on x_1
    only); (n, L), keyed by each point of each line; and (1, 1), one row for the axis, where they
    are constant on it.  taps(keys) gives the tap columns, offsets from the point, and weights
    (_spline_taps) of a slice of the points, or of the lines where keys[0] is 1, (points, lines, K,
    order + 1), each weight times its node weight, so that a row sums to 1.  The columns do not
    depend on the boundary mode, so a constant-mode table equals the clamp-mode table bit for bit
    and only the window start `index` moves by _PAD.

    Span and budget.  A row is dense over the W grid offsets first .. first + W - 1 from its point
    that its taps reach, about 2 s z_max / dx + order + 1.  Nodes ascend and scale >= 0, so each
    key's node offsets ascend (rounding keeps their order) and the first and last tap columns of
    its two outermost nodes bound all its taps: the span comes from those alone, and a table of
    keys W 8 bytes above _TAP_TABLE_BYTES is refused with TapTableError before any other tap is
    computed.

    Fill.  The table is filled a block of keys (points, or lines where keys[0] is 1) at a time,
    about _BUILD_TAPS taps a block, a per-point table's counted across its L lines: one bincount
    folds the block's taps by offset into its rows, in the order the taps of one row come, so a row
    has the same bits whatever the block.  A build holds the table and one block, not all the taps:
    those of converge_variable_g's step at n = 64 take 3.4 MB, which glibc hands back to the OS when
    they are freed, so that each solve would fault them in again (about 810 minor page faults).

    Contraction.  A tap past the edge keeps its offset and reads the coefficient lines extended past
    the edge by the edge coefficient: `extended`, a buffer of (n + W - 1) L * 8 bytes kept with the
    factor, as is its view of sliding windows (a new view costs about 12 us a call) and, in constant
    mode, the padded field it is prefiltered in; so a call is not reentrant.  Tables with one key
    across the lines, (n, 1) and (1, 1), contract each point's window on all lines by np.matmul,
    whose bits do not depend on the number of BLAS threads, a (1, 1) row broadcast over the points;
    the others contract each point's window on each line with its row by np.einsum, which calls no
    BLAS, a (1, L) row broadcast over its line's points (np.einsum is 2.6 times slower than
    np.matmul on rows shared by 128 lines).
    """

    def __init__(self, grid: GridField, axis: int, scale: np.ndarray, shift: np.ndarray,
                 nodes: np.ndarray, weights: np.ndarray, order: int):
        self.axis, self.order, self.shape = axis, order, grid.values.shape
        self.dx, self.nodes, self.weights = grid.spacings[axis], nodes, weights
        self.pad = _PAD if grid.boundary_mode == "constant" else 0
        self.boundary_value = grid.boundary_value
        scale, shift = _lines(scale, axis), _lines(shift, axis)
        self.size, self.lines = scale.shape
        along = not (np.all(scale == scale[:1]) and np.all(shift == shift[:1]))
        across = not (np.all(scale == scale[:, :1]) and np.all(shift == shift[:, :1]))
        keys = (self.size if along else 1, self.lines if across else 1)
        if keys != scale.shape:  # copies, so that a collapsed table keeps no per-point array alive
            scale, shift = scale[: keys[0], : keys[1]].copy(), shift[: keys[0], : keys[1]].copy()
        self.scale, self.shift, self.keys = scale, shift, keys
        self.first, self.width = self._span()
        if (table := scale.size * self.width * 8) > _TAP_TABLE_BYTES:
            raise TapTableError(
                f"kernel rows along one axis would take {table} bytes, more than the budget of "
                f"{_TAP_TABLE_BYTES}; use fewer points, more steps, or coefficients constant along or "
                "across the axis"
            )
        self.kernel = self._fill()
        self.index = self.pad + self.first + np.arange(self.size + self.width - 1)  # clipped by np.take
        self.extended = np.empty((self.size + self.width - 1, self.lines))
        self.windows = np.lib.stride_tricks.sliding_window_view(self.extended, self.width, axis=0).swapaxes(1, 2)
        # constant mode: the field extended by _PAD cells along the axis, prefiltered in place
        padded = tuple(n + 2 * self.pad * (j == axis) for j, n in enumerate(self.shape))
        self.padded = np.empty(padded) if self.pad else None

    def _indices(self, keys: slice, nodes: np.ndarray) -> np.ndarray:
        at = (slice(None), keys) if self.keys[0] == 1 else (keys,)
        idx = self.shift[at][..., None] + self.scale[at][..., None] * nodes
        idx /= self.dx  # node offsets from the point, in cells
        return idx

    def taps(self, keys: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Tap columns, offsets from the point, and tap weights times node weights of a slice of the keys."""
        cols, w = _spline_taps(self._indices(keys, self.nodes), self.order)
        w *= self.weights[..., None]
        return cols, w

    def _span(self) -> tuple[int, int]:
        ends = np.floor(self._indices(slice(None), self.nodes[[0, -1]])).astype(np.intp)
        first = int(ends[..., 0].min()) - self.order // 2
        return first, int(ends[..., 1].max()) + self.order - self.order // 2 - first + 1

    def _fill(self) -> np.ndarray:
        by_line = self.keys[0] == 1
        per_key = self.keys[1] if self.keys[0] > 1 else 1  # keys in one point or line of a block
        block = max(1, _BUILD_TAPS // (self.nodes.size * (self.order + 1) * per_key))
        table = np.empty((self.keys[0], self.width, self.keys[1]))
        for start in range(0, self.keys[1 if by_line else 0], block):
            cols, w = self.taps(slice(start, start + block))
            keys = np.arange(cols.shape[0] * cols.shape[1]).reshape(cols.shape[:2])  # (points, lines)
            # the tap of key r of the block at offset c is entry (r, c - first) of its rows
            cols += (keys * self.width - self.first)[..., None, None]
            rows = np.bincount(cols.ravel(), w.ravel(), minlength=keys.size * self.width)
            at = np.s_[..., start : start + keys.shape[1]] if by_line else np.s_[start : start + len(keys)]
            table[at] = rows.reshape(keys.shape + (self.width,)).swapaxes(1, 2)
        return table.swapaxes(1, 2) if self.keys[1] == 1 else table  # (size or 1, 1, width) for matmul

    def rows(self, coeffs: np.ndarray) -> np.ndarray:
        """The rows applied to coefficients arranged (padded size, L), one grid line per column."""
        np.take(coeffs, self.index, axis=0, out=self.extended, mode="clip")
        if self.keys[1] > 1:
            return np.einsum("jwr,jwr->jr", self.windows, self.kernel)
        # (1 x width) @ (width x L) at each point
        return np.matmul(self.kernel, self.windows).reshape(self.size, self.lines)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The factor on grid-shaped values."""
        output = np.float64
        if self.pad:
            # the in-place prefilter overwrites the slabs too, so every call sets them again
            output, ext = self.padded, self.padded.swapaxes(0, self.axis)
            ext[: self.pad] = self.boundary_value
            ext[-self.pad :] = self.boundary_value
            ext[self.pad : -self.pad] = values.swapaxes(0, self.axis)
            values = output
        values = _prefilter(values, self.axis, self.order, output)
        return self.rows(_lines(values, self.axis)).reshape(self.shape).swapaxes(0, self.axis)


class _Step:
    """S_tau on the geometry of one grid, as a map (field, stream) -> field for both backends.

    Built once per plan: __init__ checks the step against the grid and computes the grid
    points and _step_coefficients' per-point factors; apply maps field values to the step's
    values (the node sum, then the prefactor), and __call__ does the same for a GridField.
    Monte Carlo draws a fresh node set from Philox stream `stream` at every call, then
    prefilters the field and interpolates it at the nodes (_node_sum).

    Gauss-Hermite node sums are fixed, one linear factor per axis (_AxisFactor).  A is
    diagonal, so the step moves points one axis at a time: factor i is the spline prefilter
    along axis i and the spline taps at the nodes x + tau q_i B_i(x) e_i + sqrt(2 tau g(x) q_i) z_k e_i
    of the 1D rule gaussian_nodes gives for q_i, each weighted by its node weight.  Nodes of
    weight below _NODE_WEIGHT_FLOOR = 2^-60 are left out: none for K <= 24, and for K = 32 the 4
    outermost, 1.04e-18 of the weight, which widened every row from +-8.2 to +-10.1
    standard deviations.  A spline is bounded by its largest coefficient, at most
    3 ||u||_inf for cubic (the prefilter's inverse has sup-norm 3) and ||u||_inf for linear,
    with u the factor's input (boundary_value included in constant mode), so leaving them
    out moves a factor's output by at most 3.2e-18 ||u||_inf at K = 32.

    In 1D this agrees with _node_sum's per-node summation up to rounding (1.3e-14 on smooth
    fields of size 1 at 1024 points, mostly _node_sum's rounding of the node position).  In d >= 2
    the factors' product is the tensor step, up to rounding, when g depends on x_1 only and B_j on
    x_1 .. x_j only, so that no factor's weights change along the axes filtered after it; otherwise
    it is their Lie product, O(tau^2) per step from it and still first order (Chernoff 1968).
    Every read past the edge takes the edge coefficient.  Node and tap weights each sum to 1, so
    every factor maps a constant to itself; with boundary_mode "constant", factor i therefore
    extends its input by _PAD cells of boundary_value along axis i at each end, as _FieldEvaluator
    extends the field.
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

        scale = scale.reshape(self.shape)
        self.factors = []
        for i in range(grid.dim):
            zc, weights = gaussian_nodes(quad, op.q[i : i + 1])  # the same weights on every axis
            kept = weights >= _NODE_WEIGHT_FLOOR
            shift_i = shift[:, i].reshape(self.shape)
            self.factors.append(_AxisFactor(grid, i, scale, shift_i, zc[kept, 0], weights[kept], self.order))

    def apply(self, values: np.ndarray, stream: tuple) -> np.ndarray:
        """The step's values on the grid for field values `values`, not checked for finiteness:
        chernoff_solve iterates this and checks each step's values with its sup norm."""
        if self.gauss_hermite:
            for factor in self.factors:
                values = factor(values)
        else:
            evaluator = _FieldEvaluator(dataclasses.replace(self.grid, values=values), self.interpolation)
            values = _node_sum(evaluator, self.centres, self.scale, *gaussian_nodes(self.quad, self.q, stream))
        return (self.prefactor * values.ravel()).reshape(self.shape)

    def __call__(self, u: GridField, stream: tuple) -> GridField:
        """The step applied to u; raises IntegrandError if a value is not finite."""
        return dataclasses.replace(u, values=_finite(self.apply(u.values, stream)))


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
    # the checks above come first: building the step can take a table of _TAP_TABLE_BYTES
    step_S = _Step(plan.op, plan.tau, u0, plan.quad, plan.interpolation)
    sup_norms = np.empty(plan.steps)
    interior = np.empty(plan.steps)
    checkpoints: dict[int, GridField] = {}
    wanted = set(checkpoint_steps)
    box = tuple(slice(i.min(), i.max() + 1) for i in np.nonzero(mask))  # the mask is a box
    values = u0.values
    for step in range(1, plan.steps + 1):
        values = step_S.apply(values, (step - 1,))
        sup_norms[step - 1] = _sup_norm(values)
        if not math.isfinite(sup_norms[step - 1]):
            raise IntegrandError(_NOT_FINITE)
        interior[step - 1] = _sup_norm(values[box])
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
