"""Reference solvers at desk scale, independent of the Gaussian-step engine.

Finite differences discretize  u'_t = g(x) sum_i q_i u_ii + sum_i q_i B_i(x) u_i + C(x) u
with central stencils on a uniform grid, either periodic (right endpoint of
the closed grid is the wrapped duplicate of the left) or Dirichlet (boundary
points pinned to a fixed value).  Time stepping is Crank-Nicolson (one sparse
LU factorization, reused each step) or explicit Euler under the stability
bound dt <= dx^2/(2 g_max q_1 dim), dx the smallest axis spacing.  Each axis's
stencils use that axis's own spacing, so boxes need not be square.

The resolvent solver inverts  lambda f - L f = rhs  (1D) by the same assembly
and checks the discrete residual before returning.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .cylinder import Coefficients, CylFunction
from .engine import GridField
from .gauss import TraceClassOperator

__all__ = [
    "AssembledOperator",
    "FDProblem",
    "assemble_operator",
    "exact_constant_solution",
    "fd_solve",
    "resolvent_solve",
]

_SCHEMES = ("crank_nicolson", "explicit_euler")
_BOUNDARIES = ("periodic", "dirichlet")


def exact_constant_solution(gamma: float, a: float, c: float, k: float, t: float, x):
    """Exact solution e^{(c - gamma a k^2) t} cos(k x) of u_t = gamma a u'' + c u."""
    if not (gamma > 0.0 and a > 0.0):
        raise ValueError("gamma and a must be positive")
    if c > 0.0:
        raise ValueError("c must be nonpositive")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    return math.exp((c - gamma * a * k * k) * t) * np.cos(k * np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class FDProblem:
    """Grid, scheme and coefficients for one reference finite-difference run."""

    dim: int
    coeffs: Coefficients
    A: TraceClassOperator
    bounds: tuple
    points_per_axis: int
    t_final: float
    time_steps: int
    scheme: str = "crank_nicolson"
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
        if not (isinstance(self.points_per_axis, numbers.Integral) and self.points_per_axis >= 8):
            raise ValueError("points_per_axis must be at least 8")
        if not (math.isfinite(self.t_final) and self.t_final > 0.0):
            raise ValueError("t_final must be positive")
        if not (isinstance(self.time_steps, numbers.Integral) and self.time_steps >= 1):
            raise ValueError("time_steps must be a positive integer")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")
        if not math.isfinite(self.boundary_value):
            raise ValueError("boundary_value must be finite")
        object.__setattr__(self, "bounds", bounds)

    @property
    def spacings(self) -> tuple:
        """Grid spacing of each axis."""
        return tuple((hi - lo) / (self.points_per_axis - 1) for lo, hi in self.bounds)

    @property
    def dt(self) -> float:
        return self.t_final / self.time_steps

    def closed_axes(self) -> tuple:
        return tuple(np.linspace(lo, hi, self.points_per_axis) for lo, hi in self.bounds)


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """Discrete L over the unknown grid points (periodic: right duplicates dropped)."""

    matrix: sp.csr_matrix
    points: np.ndarray
    interior: np.ndarray
    grid_shape: tuple


def _d2(nu: int, dx: float, wrap: bool) -> sp.csr_matrix:
    off = np.ones(nu - 1)
    m = sp.diags([off, np.full(nu, -2.0), off], [-1, 0, 1], format="lil")
    if wrap:
        m[0, -1] = 1.0
        m[-1, 0] = 1.0
    return (m / (dx * dx)).tocsr()


def _d1(nu: int, dx: float, wrap: bool) -> sp.csr_matrix:
    off = np.full(nu - 1, 0.5)
    m = sp.diags([-off, off], [-1, 1], format="lil")
    if wrap:
        m[0, -1] = -0.5
        m[-1, 0] = 0.5
    return (m / dx).tocsr()


def assemble_operator(p: FDProblem) -> AssembledOperator:
    wrap = p.boundary == "periodic"
    axes = [ax[:-1] if wrap else ax for ax in p.closed_axes()]
    nu = axes[0].size
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    q = p.A.block(p.dim)

    d2s = [_d2(nu, dx, wrap) for dx in p.spacings]
    d1s = [_d1(nu, dx, wrap) for dx in p.spacings]
    if p.dim == 1:
        ks, k1s = d2s, d1s
    else:
        eye = sp.identity(nu, format="csr")
        ks = [sp.kron(d2s[0], eye, format="csr"), sp.kron(eye, d2s[1], format="csr")]
        k1s = [sp.kron(d1s[0], eye, format="csr"), sp.kron(eye, d1s[1], format="csr")]

    co = p.coeffs
    gvals = co.g_at(pts)
    diffusion = q[0] * ks[0]
    for i in range(1, p.dim):
        diffusion = diffusion + q[i] * ks[i]
    m = sp.diags(gvals) @ diffusion
    bvals = co.b_at(pts)
    if bvals is not None:
        for i in range(p.dim):
            m = m + q[i] * (sp.diags(bvals[:, i]) @ k1s[i])
    m = m + sp.diags(co.c_at(pts))

    if wrap:
        interior = np.ones(pts.shape[0], dtype=bool)
    else:
        interior = np.ones(pts.shape[0], dtype=bool)
        idx = np.unravel_index(np.arange(pts.shape[0]), (nu,) * p.dim)
        for axis_idx in idx:
            interior &= (axis_idx != 0) & (axis_idx != nu - 1)
        # boundary rows carry no dynamics: their values stay pinned
        m = sp.diags(interior.astype(float)) @ m

    return AssembledOperator(
        matrix=m.tocsr(), points=pts, interior=interior, grid_shape=(nu,) * p.dim
    )


def _check_geometry(p: FDProblem, u0: GridField):
    if u0.dim != p.dim or u0.points_per_axis != p.points_per_axis:
        raise ValueError("initial field does not match the problem grid")
    for (alo, ahi), (blo, bhi) in zip(u0.bounds, p.bounds):
        if not (math.isclose(alo, blo, abs_tol=1e-12) and math.isclose(ahi, bhi, abs_tol=1e-12)):
            raise ValueError("initial field bounds do not match the problem bounds")


def _extract(p: FDProblem, u0: GridField) -> np.ndarray:
    vals = u0.values
    scale = 1.0 + float(np.max(np.abs(vals)))
    if p.boundary == "periodic":
        wrap_gap = 0.0
        for axis in range(p.dim):
            first = np.take(vals, 0, axis=axis)
            last = np.take(vals, -1, axis=axis)
            wrap_gap = max(wrap_gap, float(np.max(np.abs(first - last))))
        if wrap_gap > 1e-8 * scale:
            raise ValueError("periodic problem requires matching values at the wrapped endpoints")
        sl = tuple(slice(0, -1) for _ in range(p.dim))
        return vals[sl].ravel()
    edge_gap = 0.0
    for axis in range(p.dim):
        for side in (0, -1):
            edge_gap = max(edge_gap, float(np.max(np.abs(np.take(vals, side, axis=axis) - p.boundary_value))))
    if edge_gap > 1e-8 * scale:
        raise ValueError("dirichlet problem requires the initial field to equal boundary_value on the boundary")
    return vals.ravel()


def _wrap_back(p: FDProblem, vec: np.ndarray) -> np.ndarray:
    if p.boundary == "periodic":
        nu = p.points_per_axis - 1
        arr = vec.reshape((nu,) * p.dim)
        return np.pad(arr, [(0, 1)] * p.dim, mode="wrap")
    return vec.reshape((p.points_per_axis,) * p.dim)


def _require_diagonally_dominant(a: sp.csr_matrix):
    d = np.abs(a.diagonal())
    rowsum = np.asarray(np.abs(a).sum(axis=1)).ravel() - d
    if np.any(d + 1e-9 < rowsum):
        raise ValueError(
            "Crank-Nicolson system is not diagonally dominant; refine the grid or reduce drift"
        )


def fd_solve(p: FDProblem, u0: GridField) -> GridField:
    """March u'_t = L u to t_final with the configured scheme and boundary."""
    _check_geometry(p, u0)
    asm = assemble_operator(p)
    u = _extract(p, u0)
    m = asm.matrix
    dt = p.dt

    if p.scheme == "explicit_euler":
        q1 = float(p.A.block(p.dim)[0])
        limit = min(p.spacings) ** 2 / (2.0 * p.coeffs.g_max * q1 * p.dim)
        if dt > limit * (1.0 + 1e-12):
            raise ValueError(
                f"explicit Euler is unstable: dt = {dt:.3g} exceeds dx^2/(2 g_max q_1 dim) = {limit:.3g}"
            )
        for _ in range(p.time_steps):
            u = u + dt * (m @ u)
    else:
        n = m.shape[0]
        eye = sp.identity(n, format="csr")
        a1 = (eye - 0.5 * dt * m).tocsr()
        _require_diagonally_dominant(a1)
        a2 = (eye + 0.5 * dt * m).tocsr()
        lu = splu(a1.tocsc())
        for _ in range(p.time_steps):
            u = lu.solve(a2 @ u)

    if not np.all(np.isfinite(u)):
        raise RuntimeError("finite-difference march produced non-finite values")
    return GridField(
        bounds=p.bounds,
        values=_wrap_back(p, u),
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
    n = asm.matrix.shape[0]
    system = (lam * sp.identity(n, format="csr") - asm.matrix).tolil()
    rhs_vec = rhs(asm.points).copy()
    if p.boundary == "dirichlet":
        for j in np.flatnonzero(~asm.interior):
            system.rows[j] = [j]
            system.data[j] = [1.0]
            rhs_vec[j] = p.boundary_value
    f = splu(system.tocsc()).solve(rhs_vec)
    residual = np.max(np.abs(system.tocsr() @ f - rhs_vec))
    if residual > 1e-10 * max(1.0, float(np.max(np.abs(rhs_vec)))):
        raise RuntimeError(f"resolvent solve residual {residual:.3g} exceeds tolerance")
    return GridField(bounds=p.bounds, values=_wrap_back(p, f))
