"""Finite-dimensional Gaussian measures with diagonal trace-class covariance.

Conventions
-----------
A Gaussian measure on R^n is described by a mean vector and a covariance
s*diag(q_1, ..., q_n), s > 0, where q_1 >= q_2 >= ... >= q_n > 0 is the active
block of a trace-class diagonal operator.  For the centered case, writing
A~ = s*diag(q), the closed forms implemented here are (z, w in R^n, G an
n x n matrix):

    E <G y, y>              = tr(A~ G)
    E e^<z,y>               = e^{<A~ z, z>/2}
    E <w, y> e^<z,y>        = <A~ w, z> e^{<A~ z, z>/2}
    E <G y, y> e^<z,y>      = (tr(A~ G) + <G A~ z, A~ z>) e^{<A~ z, z>/2}

together with the scale identity  E_{tA}[f] = E_A[f(sqrt(t) y)]  for t > 0.

Numerical backends: tensor-product Gauss-Hermite (physicists' convention,
E_{N(0,v)} f ~= sum_k (w_k/sqrt(pi)) f(sqrt(2 v) x_k)) for dimension <= 4,
and Monte Carlo driven by a counter-based Philox generator keyed by rng_seed.
gaussian_nodes builds the node set of N(0, diag v) for either backend; the
integrators here and the grid step in engine both take their nodes from it.

Evaluators are vectorized: an integrand receives an (m, n) array of points
and must return an (m,) array of values.  A row's value must depend on that row
only: Monte Carlo points arrive in blocks of at most _BLOCK rows, so one
estimate may take several calls, and mc_estimates serves all of its cases from
one shared draw.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = [
    "GH_MAX_DIM",
    "GaussianSpec",
    "IntegrandError",
    "QuadratureSpec",
    "TraceClassOperator",
    "expect_exp",
    "expect_linear_exp",
    "expect_quadratic",
    "expect_quadratic_exp",
    "gaussian_nodes",
    "integrate",
    "mc_estimate",
    "mc_estimates",
    "philox_generator",
    "scale_identity_residual",
]

GH_MAX_DIM = 4

Evaluator = Callable[[np.ndarray], np.ndarray]

# Monte Carlo rows scaled, shifted and evaluated at once: bounds the point arrays
# held beside the one shared draw of an mc_estimates call
_BLOCK = 1 << 16


class IntegrandError(ValueError):
    """An integrand produced a non-finite value at a quadrature node or sample."""


def is_integer(value) -> bool:
    """True for an integral number other than a bool, which numbers.Integral admits."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _frozen_array(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TraceClassOperator:
    """Diagonal positive operator given by its eigenvalues q_1 >= ... >= q_n > 0."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        q = _frozen_array(self.eigenvalues, "eigenvalues")
        if q.ndim != 1 or q.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d sequence")
        if np.any(q <= 0.0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(q) > 0.0):
            raise ValueError("eigenvalues must be in nonincreasing order")
        object.__setattr__(self, "eigenvalues", q)

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum())

    @property
    def operator_norm(self) -> float:
        return float(self.eigenvalues[0])

    def block(self, dim: int) -> np.ndarray:
        """Leading dim x dim diagonal block as a vector of eigenvalues."""
        if not 1 <= dim <= self.eigenvalues.size:
            raise ValueError(
                f"requested block of dimension {dim}, operator has {self.eigenvalues.size} eigenvalues"
            )
        return self.eigenvalues[:dim]


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """Gaussian measure with mean and covariance covariance_scale * diag(q_1..q_n)."""

    mean: np.ndarray
    covariance_scale: float
    operator: TraceClassOperator

    def __post_init__(self):
        m = _frozen_array(self.mean, "mean")
        if m.ndim != 1 or m.size == 0:
            raise ValueError("mean must be a nonempty 1-d vector")
        if not (np.isfinite(self.covariance_scale) and self.covariance_scale > 0.0):
            raise ValueError("covariance_scale must be positive")
        self.operator.block(m.size)
        object.__setattr__(self, "mean", m)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def variances(self) -> np.ndarray:
        """Marginal variances s*q_i along the active coordinates."""
        return self.covariance_scale * self.operator.block(self.dim)

    @property
    def is_centered(self) -> bool:
        return bool(np.all(self.mean == 0.0))


_BACKENDS = ("gauss_hermite", "monte_carlo")


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration backend choice: tensor Gauss-Hermite or plain Monte Carlo."""

    backend: str
    nodes_per_dim: int = 32
    samples: int = 100_000
    rng_seed: int = 0

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {self.backend!r}")
        for name in ("nodes_per_dim", "samples"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 1):
                raise ValueError(f"{name} must be a positive integer")
        if not (is_integer(self.rng_seed) and 0 <= self.rng_seed < 2**64):
            raise ValueError("rng_seed must be an integer that fits in 64 bits")


# ---------------------------------------------------------------- closed forms


def _require_centered(spec: GaussianSpec):
    if not spec.is_centered:
        raise ValueError("closed-form moments are defined for centered measures only")


def _check_vector(v, n: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
    return v


def _check_matrix(G, n: int) -> np.ndarray:
    G = np.asarray(G, dtype=float)
    if G.shape != (n, n):
        raise ValueError(f"matrix has shape {G.shape}, expected ({n}, {n})")
    return G


def expect_quadratic(G, spec: GaussianSpec) -> float:
    """E <G y, y> = tr(A~ G) for the centered measure."""
    _require_centered(spec)
    G = _check_matrix(G, spec.dim)
    return float(np.dot(spec.variances, np.diag(G)))


def expect_exp(z, spec: GaussianSpec) -> float:
    """E e^<z,y> = e^{<A~ z, z>/2} for the centered measure."""
    _require_centered(spec)
    z = _check_vector(z, spec.dim, "z")
    return float(np.exp(0.5 * np.dot(spec.variances * z, z)))


def expect_linear_exp(w, z, spec: GaussianSpec) -> float:
    """E <w, y> e^<z,y> = <A~ w, z> e^{<A~ z, z>/2} for the centered measure."""
    _require_centered(spec)
    w = _check_vector(w, spec.dim, "w")
    z = _check_vector(z, spec.dim, "z")
    return float(np.dot(spec.variances * w, z)) * expect_exp(z, spec)


def expect_quadratic_exp(G, z, spec: GaussianSpec) -> float:
    """E <G y, y> e^<z,y> = (tr(A~ G) + <G A~ z, A~ z>) e^{<A~ z, z>/2}."""
    _require_centered(spec)
    G = _check_matrix(G, spec.dim)
    z = _check_vector(z, spec.dim, "z")
    az = spec.variances * z
    return float((np.dot(spec.variances, np.diag(G)) + az @ G @ az) * expect_exp(z, spec))


# ---------------------------------------------------------------- quadrature


@lru_cache(maxsize=32)
def _gh_standard(nodes_per_dim: int, dim: int):
    """Tensor rule for N(0, I_dim): points (K^dim, dim) and weights (K^dim,)."""
    x, w = hermgauss(nodes_per_dim)
    z1 = math.sqrt(2.0) * x
    w1 = w / math.sqrt(math.pi)
    grids = np.meshgrid(*([z1] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgt = np.ones(1)
    for _ in range(dim):
        wgt = np.multiply.outer(wgt, w1).ravel()
    pts.setflags(write=False)
    wgt.setflags(write=False)
    return pts, wgt


def philox_generator(seed: int, stream: tuple[int, ...] = ()) -> np.random.Generator:
    """Counter-based generator keyed by seed; stream selects an independent child."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=stream)))


def gaussian_nodes(quad: QuadratureSpec, variances, stream: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Points (m, n) and weights (m,) of the backend's rule for N(0, diag(variances)): the tensor
    Gauss-Hermite rule (n <= GH_MAX_DIM), or quad.samples Philox draws from child `stream` of
    rng_seed with equal weights; either way the standard nodes are scaled by sqrt(variances)."""
    sd = np.sqrt(np.asarray(variances, dtype=float))
    if quad.backend == "gauss_hermite":
        if sd.size > GH_MAX_DIM:
            raise ValueError(f"gauss_hermite backend supports dimension <= {GH_MAX_DIM}, got {sd.size}")
        z, w = _gh_standard(quad.nodes_per_dim, sd.size)
        return z * sd, w
    pts = philox_generator(quad.rng_seed, stream).standard_normal((quad.samples, sd.size))
    pts *= sd
    return pts, np.full(quad.samples, 1.0 / quad.samples)


def _evaluate(f: Evaluator, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError(
            f"integrand returned shape {vals.shape} for {pts.shape[0]} points; evaluators must map (m, n) -> (m,)"
        )
    if not np.all(np.isfinite(vals)):
        raise IntegrandError("integrand produced a non-finite value")
    return vals


def mc_estimates(cases, quad: QuadratureSpec) -> list[tuple[float, float]]:
    """Monte Carlo mean and standard error of E[f] for each (f, GaussianSpec) pair in cases.

    One draw of quad.samples rows, as wide as the widest spec, serves every case: a case of
    dimension d reads its first samples*d normals, which are exactly the normals a fresh
    (samples, d) draw from the same stream gives.  Each case scales, shifts and evaluates its
    points _BLOCK rows at a time and takes its moments over all samples at once."""
    if quad.backend != "monte_carlo":
        raise ValueError("mc_estimates requires a monte_carlo QuadratureSpec")
    cases = list(cases)
    if not cases:
        return []
    n = quad.samples
    width = max(spec.dim for _, spec in cases)
    z = gaussian_nodes(quad, np.ones(width))[0].ravel()
    out = []
    for f, spec in cases:
        pts = z[: n * spec.dim].reshape(n, spec.dim)
        sd = np.sqrt(spec.variances)
        vals = np.empty(n)
        for lo in range(0, n, _BLOCK):
            block = pts[lo : lo + _BLOCK] * sd
            block += spec.mean
            vals[lo : lo + _BLOCK] = _evaluate(f, block)
        se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
        out.append((float(vals.mean()), se))
    return out


def mc_estimate(f: Evaluator, spec: GaussianSpec, quad: QuadratureSpec) -> tuple[float, float]:
    """Monte Carlo mean and standard error of E[f] under the spec's measure."""
    return mc_estimates([(f, spec)], quad)[0]


def integrate(f: Evaluator, spec: GaussianSpec, quad: QuadratureSpec) -> float:
    """E[f] under the spec's Gaussian measure, by the requested backend."""
    if quad.backend == "gauss_hermite":
        pts, w = gaussian_nodes(quad, spec.variances)
        pts += spec.mean
        return float(w @ _evaluate(f, pts))
    return mc_estimate(f, spec, quad)[0]


def scale_identity_residual(f: Evaluator, t: float, A: TraceClassOperator, quad: QuadratureSpec) -> float:
    """|E_{tA}[f] - E_A[f(sqrt(t) y)]|, both sides on the same nodes or draws."""
    if not (np.isfinite(t) and t > 0.0):
        raise ValueError("t must be positive")
    dim = A.eigenvalues.size
    zero = np.zeros(dim)
    lhs = integrate(f, GaussianSpec(zero, t, A), quad)
    root_t = math.sqrt(t)
    rhs = integrate(lambda y: f(root_t * y), GaussianSpec(zero, 1.0, A), quad)
    return abs(lhs - rhs)
