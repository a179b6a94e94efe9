"""Reference solvers at desk scale, independent of the Gaussian-step engine.

Finite differences discretize  u'_t = g(x) sum_i q_i u_ii + sum_i q_i B_i(x) u_i + C(x) u
with central stencils on a uniform grid, either periodic (right endpoint of
the closed grid is the wrapped duplicate of the left) or Dirichlet (boundary
points pinned to a fixed value).  Time stepping is Crank-Nicolson: one sparse
LU factorization of a1 = I - dt/2 L, reused each step.  Since
a2 = I + dt/2 L = 2I - a1, a step a1^{-1} a2 u is 2 a1^{-1} u - u: one solve
and no matvec.

The operator is one Kronecker sum in every dimension.  Each axis's second-
and first-difference stencils, at that axis's own spacing, act on the
flattened grid as I (x) D_i (x) I; a periodic axis closes them with two
corner entries.  g, B_i and C enter as diagonal factors.  On a Dirichlet box
the boundary rows are zeroed, which pins those points: the time stepper
leaves them unchanged up to rounding, and the resolvent puts a 1 on their
diagonal.  A Kronecker sum of central stencils is structurally symmetric, so
every factorization orders its columns by minimum degree on the pattern of
A + A^T; SuperLU's default, COLAMD on A^T A, doubles the LU fill in 2D.

The resolvent solver inverts  lambda f - L f = rhs  (1D) by the same assembly
and checks the discrete residual before returning.

FDProblem.values samples a solution by one cubic spline wrapped around a
period (on a Dirichlet box, u - boundary_value continued oddly across each
edge), not by the engine's evaluator, so the check stays independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.ndimage as ndi
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .cylinder import Coefficients, CylFunction
from .engine import GridField
from .gauss import TraceClassOperator, is_integer

__all__ = [
    "AssembledOperator",
    "ExactConstant",
    "FDProblem",
    "assemble_operator",
    "exact_constant_solution",
    "fd_solve",
    "resolvent_solve",
]

_BOUNDARIES = ("periodic", "dirichlet")

# the stencil pattern is symmetric, so order for A + A^T rather than A^T A
_PERMC_SPEC = "MMD_AT_PLUS_A"


def exact_constant_solution(gamma: float, a: float, c: float, k: float, t: float, x):
    """Exact solution e^{(c - gamma a k^2) t} cos(k x) of u_t = gamma a u'' + c u."""
    if not all(math.isfinite(v) for v in (gamma, a, c, k, t)):
        raise ValueError("gamma, a, c, k and t must be finite")
    if not (gamma > 0.0 and a > 0.0):
        raise ValueError("gamma and a must be positive")
    if c > 0.0:
        raise ValueError("c must be nonpositive")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    return math.exp((c - gamma * a * k * k) * t) * np.cos(k * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ExactConstant:
    """The closed-form oracle: exact_constant_solution with its parameters fixed."""

    kind: ClassVar[str] = "exact_constant"
    bounds: ClassVar[None] = None  # the closed form holds on the whole line

    gamma: float
    a: float
    c: float
    k: float
    t: float

    def __post_init__(self):
        exact_constant_solution(self.gamma, self.a, self.c, self.k, self.t, ())

    def values(self, initial_fn, points) -> np.ndarray:
        """The solution at t on (m, 1) points; k already fixes the initial cos(k x)."""
        return exact_constant_solution(self.gamma, self.a, self.c, self.k, self.t, np.asarray(points)[:, 0])


@dataclass(frozen=True, eq=False)
class FDProblem:
    """Grid, coefficients and Crank-Nicolson time steps for one reference finite-difference run."""

    kind: ClassVar[str] = "crank_nicolson"

    dim: int
    coeffs: Coefficients
    A: TraceClassOperator
    bounds: tuple
    points_per_axis: int
    t_final: float
    time_steps: int
    boundary: str = "periodic"
    boundary_value: float = 0.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("FDProblem supports dim 1 or 2")
        if self.coeffs.dim != self.dim:
            raise ValueError("coefficients dimension does not match the problem")
        self.A.block(self.dim)
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) != self.dim or any(not lo < hi for lo, hi in bounds):
            raise ValueError("bounds must be dim intervals with lo < hi")
        if not (is_integer(self.points_per_axis) and self.points_per_axis >= 8):
            raise ValueError("points_per_axis must be at least 8")
        if not (math.isfinite(self.t_final) and self.t_final > 0.0):
            raise ValueError("t_final must be positive")
        if not (is_integer(self.time_steps) and self.time_steps >= 1):
            raise ValueError("time_steps must be a positive integer")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")
        if not math.isfinite(self.boundary_value):
            raise ValueError("boundary_value must be finite")
        object.__setattr__(self, "bounds", bounds)

    @property
    def dt(self) -> float:
        return self.t_final / self.time_steps

    def initial_field(self, fn) -> GridField:
        """fn on the closed grid; ValueError unless its edges fit the boundary, as fd_solve requires."""
        u0 = GridField.from_function(self.bounds, self.points_per_axis, fn)
        _extract(self, u0)
        return u0

    def values(self, initial_fn, points) -> np.ndarray:
        """The solution at t_final from u0 = initial_fn, at (m, dim) points inside the box.

        One cubic spline that wraps around a period samples both boundaries.  A
        periodic period is the unknowns; on a Dirichlet box u - boundary_value is
        continued oddly across each edge, so a period is 2(N - 1) cells.
        """
        u = fd_solve(self, self.initial_field(initial_fn))
        shift = self.boundary_value if self.boundary == "dirichlet" else 0.0
        period = _extract(self, u) - shift
        if self.boundary == "dirichlet":
            for axis in range(self.dim):
                inner = np.flip(period, axis).take(range(1, self.points_per_axis - 1), axis)
                period = np.concatenate([period, -inner], axis)
        points = np.asarray(points, dtype=float)
        coords = [(points[:, i] - lo) / dx for i, ((lo, _), dx) in enumerate(zip(u.bounds, u.spacings))]
        return ndi.map_coordinates(period, coords, order=3, mode="grid-wrap") + shift


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """Discrete L over the unknown grid points (periodic: right duplicates dropped)."""

    matrix: sp.csr_matrix
    points: np.ndarray
    interior: np.ndarray
    grid_shape: tuple


def _axis_stencils(nu: int, dx: float, wrap: bool) -> tuple:
    """Central second and first differences on an axis of nu points; wrap adds the periodic corners."""
    offsets = [-1, 0, 1]
    d2, d1 = [1.0, -2.0, 1.0], [-0.5, 0.0, 0.5]
    if wrap:
        offsets = [1 - nu] + offsets + [nu - 1]
        d2, d1 = [1.0] + d2 + [1.0], [0.5] + d1 + [-0.5]
    return tuple(sp.diags(v, offsets, shape=(nu, nu), format="csr") / h for v, h in ((d2, dx * dx), (d1, dx)))


def _on_axis(d: sp.csr_matrix, i: int, nu: int, dim: int) -> sp.csr_matrix:
    """One-axis operator d acting along axis i of the flattened grid (last axis fastest)."""
    return sp.kron(sp.identity(nu**i), sp.kron(d, sp.identity(nu ** (dim - 1 - i))), format="csr")


def assemble_operator(p: FDProblem) -> AssembledOperator:
    """L as the sum over axes of I (x) D_i (x) I, with g, B and C as diagonal factors."""
    wrap = p.boundary == "periodic"
    n = p.points_per_axis
    nu = n - 1 if wrap else n
    axes = [np.linspace(lo, hi, n)[:nu] for lo, hi in p.bounds]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    q = p.A.block(p.dim)
    spacings = [(hi - lo) / (n - 1) for lo, hi in p.bounds]
    stencils = [[_on_axis(d, i, nu, p.dim) for d in _axis_stencils(nu, dx, wrap)] for i, dx in enumerate(spacings)]

    co = p.coeffs
    m = sp.diags(co.g_at(pts)) @ sum(qi * d2 for qi, (d2, _) in zip(q, stencils))
    bvals = co.b_at(pts)
    if bvals is not None:
        for qi, bi, (_, d1) in zip(q, bvals.T, stencils):
            m = m + qi * (sp.diags(bi) @ d1)
    m = m + sp.diags(co.c_at(pts))

    interior = np.full((nu,) * p.dim, wrap)
    interior[(slice(1, -1),) * p.dim] = True
    interior = interior.ravel()
    if not wrap:
        # boundary rows carry no dynamics: their values stay pinned
        m = sp.diags(interior.astype(float)) @ m
    return AssembledOperator(matrix=m.tocsr(), points=pts, interior=interior, grid_shape=(nu,) * p.dim)


def _check_geometry(p: FDProblem, u0: GridField):
    if u0.dim != p.dim or u0.points_per_axis != p.points_per_axis:
        raise ValueError("initial field does not match the problem grid")
    for (alo, ahi), (blo, bhi) in zip(u0.bounds, p.bounds):
        if not (math.isclose(alo, blo, abs_tol=1e-12) and math.isclose(ahi, bhi, abs_tol=1e-12)):
            raise ValueError("initial field bounds do not match the problem bounds")


def _extract(p: FDProblem, u0: GridField) -> np.ndarray:
    vals = u0.values
    periodic = p.boundary == "periodic"
    gap = 0.0
    for axis in range(p.dim):
        first, last = np.take(vals, 0, axis=axis), np.take(vals, -1, axis=axis)
        # periodic: the last slab duplicates the first; dirichlet: both equal boundary_value
        pairs = [(last, first)] if periodic else [(first, p.boundary_value), (last, p.boundary_value)]
        for slab, want in pairs:
            gap = max(gap, float(np.max(np.abs(slab - want))))
    if gap > 1e-8 * (1.0 + float(np.max(np.abs(vals)))):
        if periodic:
            raise ValueError("periodic problem requires matching values at the wrapped endpoints")
        raise ValueError("dirichlet problem requires the initial field to equal boundary_value on the boundary")
    return vals[(slice(0, -1),) * p.dim] if periodic else vals


def _wrap_back(p: FDProblem, asm: AssembledOperator, vec: np.ndarray) -> np.ndarray:
    """Unknowns back on the closed grid; a periodic grid gets its wrapped duplicates back."""
    arr = vec.reshape(asm.grid_shape)
    return np.pad(arr, [(0, 1)] * p.dim, mode="wrap") if p.boundary == "periodic" else arr


def _require_diagonally_dominant(a: sp.csr_matrix):
    d = np.abs(a.diagonal())
    rowsum = np.asarray(np.abs(a).sum(axis=1)).ravel() - d
    if np.any(d + 1e-9 < rowsum):
        raise ValueError(
            "Crank-Nicolson system is not diagonally dominant; refine the grid or reduce drift"
        )


def fd_solve(p: FDProblem, u0: GridField) -> GridField:
    """March u'_t = L u to t_final by Crank-Nicolson with the configured boundary.

    a1 = I - dt/2 L is factored once, with its columns ordered by minimum
    degree on the pattern of a1 + a1^T (the Kronecker-sum stencil is
    structurally symmetric).  Each step is u <- 2 a1^{-1} u - u, which is
    a1^{-1} (I + dt/2 L) u because I + dt/2 L = 2I - a1.
    """
    _check_geometry(p, u0)
    asm = assemble_operator(p)
    u = _extract(p, u0).ravel()
    m = asm.matrix
    dt = p.dt

    eye = sp.identity(m.shape[0], format="csr")
    a1 = (eye - 0.5 * dt * m).tocsr()
    _require_diagonally_dominant(a1)
    lu = splu(a1.tocsc(), permc_spec=_PERMC_SPEC)
    for _ in range(p.time_steps):
        u = 2.0 * lu.solve(u) - u

    if not np.all(np.isfinite(u)):
        raise RuntimeError("finite-difference march produced non-finite values")
    return GridField(
        bounds=p.bounds,
        values=_wrap_back(p, asm, u),
        boundary_mode=u0.boundary_mode,
        boundary_value=u0.boundary_value,
    )


def resolvent_solve(p: FDProblem, lam: float, rhs: CylFunction) -> GridField:
    """Solve lambda f - L f = rhs on the 1D grid of p; periodic or Dirichlet closure."""
    if p.dim != 1:
        raise ValueError("resolvent_solve is 1D only")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lambda must be positive")
    if rhs.dim != 1:
        raise ValueError("rhs must be a 1D cylindrical function")
    asm = assemble_operator(p)
    # assemble_operator leaves the Dirichlet rows empty, so a 1 on their diagonal pins them
    system = sp.diags(np.where(asm.interior, lam, 1.0)) - asm.matrix
    rhs_vec = np.where(asm.interior, rhs(asm.points), p.boundary_value)
    f = splu(system.tocsc(), permc_spec=_PERMC_SPEC).solve(rhs_vec)
    residual = np.max(np.abs(system @ f - rhs_vec))
    if residual > 1e-10 * max(1.0, float(np.max(np.abs(rhs_vec)))):
        raise RuntimeError(f"resolvent solve residual {residual:.3g} exceeds tolerance")
    return GridField(bounds=p.bounds, values=_wrap_back(p, asm, f))
