"""Cylindrical functions and the reduced second-order operator

    (L f)(x) = g(x) * sum_i q_i f_ii(x) + sum_i q_i B_i(x) f_i(x) + C(x) f(x)

on the n-dimensional cylinder subspace, with diagonal trace-class A = diag(q).

Evaluators are vectorized: eval maps an (m, n) array of points to an (m,)
array, grad to (m, n), hess to (m, n, n).  Missing derivatives fall back to
central finite differences with step _FD_STEP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .gauss import TraceClassOperator, is_integer

__all__ = [
    "Coefficients",
    "CylFunction",
    "OperatorL",
    "apply_L",
    "dissipativity_witness",
    "gradient",
    "trace_hessian",
]

# central-difference step for derivatives that a CylFunction does not declare
_FD_STEP = 1e-5


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Normalize a single n-vector or an (m, n) batch to 2-d; report if batched."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        if a.shape != (dim,):
            raise ValueError(f"point has shape {a.shape}, expected ({dim},)")
        return a[None, :], False
    if a.ndim == 2 and a.shape[1] == dim:
        return a, True
    raise ValueError(f"points have shape {a.shape}, expected (m, {dim})")


@dataclass(frozen=True, eq=False)
class CylFunction:
    """Function of finitely many coordinates with a declared sup bound.

    The bound is asserted at every evaluation; declared grad/hess callbacks
    are cross-checked against finite differences at fixed probe points on
    construction.  A constant_value marks the function as that constant; eval
    must return exactly that value at the probe points.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sup_bound: float = field(kw_only=True)
    constant_value: Optional[float] = field(default=None, kw_only=True)

    def __post_init__(self):
        if not (is_integer(self.dim) and self.dim >= 1):
            raise ValueError("dim must be a positive integer")
        if not (np.isfinite(self.sup_bound) and self.sup_bound >= 0.0):
            raise ValueError("sup_bound must be a finite nonnegative real")
        if self.constant_value is not None and np.any(self(self._probe_points()) != self.constant_value):
            raise ValueError(
                f"eval disagrees with the declared constant_value {self.constant_value} at probe points"
            )
        if self.grad is not None or self.hess is not None:
            self._probe_derivatives()

    @classmethod
    def constant(cls, value: float, dim: int) -> "CylFunction":
        v = float(value)
        return cls(
            dim=dim,
            eval=lambda x: np.full(x.shape[0], v),
            grad=lambda x: np.zeros_like(x),
            hess=lambda x: np.zeros((x.shape[0], x.shape[1], x.shape[1])),
            sup_bound=abs(v),
            constant_value=v,
        )

    @property
    def is_constant(self) -> bool:
        return self.constant_value is not None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.eval(x), dtype=float)
        if vals.shape != (x.shape[0],):
            raise ValueError(
                f"evaluator returned shape {vals.shape} for {x.shape[0]} points; expected ({x.shape[0]},)"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("evaluator produced a non-finite value")
        cap = self.sup_bound * (1.0 + 1e-12) + 1e-300
        if np.max(np.abs(vals), initial=0.0) > cap:
            raise ValueError(
                f"evaluation exceeded declared sup_bound {self.sup_bound} (max |value| = {np.max(np.abs(vals))})"
            )
        return vals

    # -- finite differences ------------------------------------------------

    def _fd_gradient(self, x: np.ndarray) -> np.ndarray:
        h = _FD_STEP
        out = np.empty_like(x)
        for i in range(self.dim):
            step = np.zeros(self.dim)
            step[i] = h
            out[:, i] = (self(x + step) - self(x - step)) / (2.0 * h)
        return out

    def _fd_hess_diag(self, x: np.ndarray) -> np.ndarray:
        h = _FD_STEP
        center = self(x)
        out = np.empty_like(x)
        for i in range(self.dim):
            step = np.zeros(self.dim)
            step[i] = h
            out[:, i] = (self(x + step) - 2.0 * center + self(x - step)) / (h * h)
        return out

    def _probe_points(self) -> np.ndarray:
        base = np.array([0.0, 0.37, -0.61, 0.93])
        pts = np.zeros((base.size, self.dim))
        for j, b in enumerate(base):
            pts[j] = b * np.linspace(1.0, 0.5, self.dim)
        return pts

    def _probe_derivatives(self):
        pts = self._probe_points()
        if self.grad is not None:
            gv = np.asarray(self.grad(pts), dtype=float)
            if gv.shape != pts.shape:
                raise ValueError(f"grad returned shape {gv.shape}, expected {pts.shape}")
            fd = self._fd_gradient(pts)
            tol = 1e-5 * (1.0 + np.max(np.abs(gv)))
            if np.max(np.abs(gv - fd)) > tol:
                raise ValueError(
                    "declared grad disagrees with central differences of eval at probe points"
                )
        if self.hess is not None:
            hv = np.asarray(self.hess(pts), dtype=float)
            if hv.shape != (pts.shape[0], self.dim, self.dim):
                raise ValueError(
                    f"hess returned shape {hv.shape}, expected {(pts.shape[0], self.dim, self.dim)}"
                )
            hd = np.einsum("mii->mi", hv)
            fd = self._fd_hess_diag(pts)
            tol = 1e-3 * (1.0 + np.max(np.abs(hd)))
            if np.max(np.abs(hd - fd)) > tol:
                raise ValueError(
                    "declared hess diagonal disagrees with second differences of eval at probe points"
                )


def gradient(f: CylFunction, x) -> np.ndarray:
    """Gradient of f at x: declared callback if present, else central differences."""
    pts, batched = _as_points(x, f.dim)
    out = np.asarray(f.grad(pts), dtype=float) if f.grad is not None else f._fd_gradient(pts)
    if out.shape != pts.shape:
        raise ValueError(f"gradient returned shape {out.shape}, expected {pts.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("gradient produced a non-finite value")
    return out if batched else out[0]


def trace_hessian(A: TraceClassOperator, f: CylFunction, x):
    """sum_i q_i f_ii(x) = tr(A_n f''(x)) for diagonal A."""
    pts, batched = _as_points(x, f.dim)
    q = A.block(f.dim)
    if f.hess is not None:
        hv = np.asarray(f.hess(pts), dtype=float)
        diag = np.einsum("mii->mi", hv)
    else:
        diag = f._fd_hess_diag(pts)
    out = diag @ q
    if not np.all(np.isfinite(out)):
        raise ValueError("trace of the Hessian is non-finite")
    return out if batched else float(out[0])


@dataclass(frozen=True, eq=False)
class Coefficients:
    """The triple (g, B, C) with the uniform floor g >= g_floor > 0.

    B is None (or a list of zero constants, normalized to None) in the
    drift-free regime.  With contractive=True every C evaluation is asserted
    to be <= 0.
    """

    g: CylFunction
    B: Optional[Sequence[CylFunction]]
    C: CylFunction
    g_floor: float
    contractive: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.g_floor) and self.g_floor > 0.0):
            raise ValueError("g_floor must be strictly positive")
        if self.C.dim != self.g.dim:
            raise ValueError("g and C must share the cylinder dimension")
        if self.g.sup_bound < self.g_floor:
            raise ValueError("g.sup_bound is inconsistent with g_floor")
        B = self.B
        if B is not None:
            B = tuple(B)
            if len(B) != self.g.dim:
                raise ValueError(f"B must have {self.g.dim} components, got {len(B)}")
            for comp in B:
                if comp.dim != self.g.dim:
                    raise ValueError("every B component must share the cylinder dimension")
            if all(comp.is_constant and comp.constant_value == 0.0 for comp in B):
                B = None
        object.__setattr__(self, "B", B)

    @property
    def dim(self) -> int:
        return self.g.dim

    @property
    def drift_is_zero(self) -> bool:
        return self.B is None

    @property
    def g_max(self) -> float:
        return self.g.sup_bound

    @property
    def c_norm(self) -> float:
        return self.C.sup_bound

    @property
    def drift_norm(self) -> float:
        """Upper bound for sup ||B(x)|| from the declared component bounds."""
        if self.B is None:
            return 0.0
        return float(np.sqrt(sum(comp.sup_bound**2 for comp in self.B)))

    def g_at(self, x: np.ndarray) -> np.ndarray:
        vals = self.g(x)
        if np.min(vals) < self.g_floor * (1.0 - 1e-12):
            raise ValueError(f"g dipped below its declared floor {self.g_floor} (min = {np.min(vals)})")
        return vals

    def c_at(self, x: np.ndarray) -> np.ndarray:
        vals = self.C(x)
        if self.contractive and np.max(vals) > 1e-12:
            raise ValueError("contractive regime requires C <= 0, got a positive value")
        return vals

    def b_at(self, x: np.ndarray) -> Optional[np.ndarray]:
        if self.B is None:
            return None
        return np.stack([comp(x) for comp in self.B], axis=1)


@dataclass(frozen=True, eq=False)
class OperatorL:
    """L f = g * tr(A f'') + sum_i q_i B_i f_i + C f reduced to the cylinder."""

    coeffs: Coefficients
    A: TraceClassOperator

    def __post_init__(self):
        q = self.A.block(self.coeffs.dim)
        # uniform ellipticity along every active coordinate
        if self.coeffs.g_floor * float(q[-1]) <= 0.0:
            raise ValueError("ellipticity requires g_floor * q_n > 0")

    @property
    def dim(self) -> int:
        return self.coeffs.dim

    @property
    def q(self) -> np.ndarray:
        return self.A.block(self.coeffs.dim)


def apply_L(op: OperatorL, f: CylFunction, x):
    """(L f)(x) for a single point (returns float) or an (m, n) batch."""
    if f.dim != op.dim:
        raise ValueError(f"function dimension {f.dim} does not match operator dimension {op.dim}")
    pts, batched = _as_points(x, op.dim)
    co = op.coeffs
    out = co.g_at(pts) * trace_hessian(op.A, f, pts) + co.c_at(pts) * f(pts)
    b = co.b_at(pts)
    if b is not None:
        out = out + (b * gradient(f, pts)) @ op.q
    if not np.all(np.isfinite(out)):
        raise ValueError("L f produced a non-finite value")
    return out if batched else float(out[0])


def dissipativity_witness(op: OperatorL, f: CylFunction, lam: float, grid) -> tuple[float, float]:
    """(max |L f - lam f|, lam * max |f|) over the grid; C <= 0 regime only."""
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError("lambda must be positive")
    if not op.coeffs.contractive:
        raise ValueError("dissipativity witness requires the contractive regime (C <= 0)")
    pts, _ = _as_points(np.atleast_2d(np.asarray(grid, dtype=float)), op.dim)
    if pts.shape[0] == 0:
        raise ValueError("grid must be nonempty")
    lf = apply_L(op, f, pts)
    fv = f(pts)
    return float(np.max(np.abs(lf - lam * fv))), float(lam * np.max(np.abs(fv)))
