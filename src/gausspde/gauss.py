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
gaussian_nodes builds the node set of N(0, diag v) for either backend; integrate
and the grid step in engine take their nodes from it, while mc_estimates makes
one pass over one shared stream of standard normals from Philox directly, in
memory O((_SEGMENT + _BLOCK) width) whatever the number of samples or cases.
Its stream is drawn in rounds of fixed sizes on one helper thread, one round
ahead of the evaluation on the calling thread, so the draw overlaps the
integrands and gives the bits a draw on the caller would; every integrand runs
on the calling thread, and no thread outlives the call.

Evaluators are vectorized: an integrand receives an (m, n) array of points
and must return an (m,) array of values.  A row's value must depend on that row
only: Monte Carlo points arrive in blocks of at most _BLOCK normals, so one
estimate may take several calls, and mc_estimates serves all of its cases from
one pass over one shared stream.  Those blocks are (m, n) views with contiguous
columns, not C order: elementwise integrands give the same bits on any layout,
but a matmul such as y @ z may move in the last bits, since BLAS takes another
path.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
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

# standard normals of Monte Carlo rows scaled, shifted and evaluated at once: bounds the point
# buffer of an mc_estimates call and each call of its integrands
_BLOCK = 1 << 16
# values of one case whose moments mc_estimates takes at once (1 MiB) and merges into the
# case's running moments, and rows of the widest case per round of the stream; fixed, so that
# a case's estimate depends neither on _BLOCK nor on the other cases of its call
_SEGMENT = 1 << 17


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
    variances = np.asarray(variances, dtype=float)
    if variances.ndim != 1 or variances.size == 0 or not np.all(np.isfinite(variances) & (variances >= 0.0)):
        raise ValueError("variances must be a nonempty 1-d vector of finite, nonnegative numbers")
    sd = np.sqrt(variances)
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

    One pass over stream () of rng_seed serves every case: quad.samples rows of standard normals
    as wide as the widest spec, drawn in rounds of seg width normals, seg = min(samples,
    _SEGMENT), the last one partial, which equal one large draw.  A case of dimension d reads
    row r from normals [r d, (r + 1) d) of the stream, exactly the normals a fresh (samples, d)
    draw from it gives.  One worker thread, started and joined by each call, makes every draw:
    while the calling thread copies round r into the window and evaluates it, the worker draws
    round r + 1, so at most one round is in flight besides the window.  The rounds' sizes and
    order are fixed before any case is evaluated, so the normals are those of a draw on the
    calling thread.  Whether the call returns or raises, it awaits the pending draw and joins
    the worker; an error of the draw or of an integrand reaches the caller.
    After each round, every case takes each of its segments of seg rows (the last one partial)
    that the normals drawn so far cover: it scales and shifts the segment's rows a block of at
    most _BLOCK normals at a time, one column at a time, into one reused (width, _BLOCK) buffer,
    whose transpose the integrand receives, and writes the values into one buffer of seg values
    shared by all cases.  A column whose mean is 0.0 is scaled and not shifted.  That differs
    from adding 0.0 only on a normal of exactly -0.0, which then stays -0.0 rather than
    becoming +0.0: Ziggurat gives one about once in 2^52 draws, and only an integrand that
    reads the sign of a zero can tell.  The segment's mean and centred sum of squares are taken
    in place with the numpy operations of vals.mean() and vals.std(), then merged into the case's
    running ones by the pairwise update of Chan, Golub and LeVeque (1979); the first segment sets
    them directly.  The window keeps the stream from the first normal an unfinished case still
    needs, at most seg (width - 1) of them carried into the next round, so memory is
    O((_SEGMENT + _BLOCK) width), whatever quad.samples or the number of cases is.
    Consequently, for row-local integrands:
      - up to _SEGMENT samples, mean and standard error are bit-identical to numpy's vals.mean()
        and vals.std(ddof=1) / sqrt(samples) over all values at once;
      - they never depend on _BLOCK or on which other cases share the call;
      - past one segment they differ from those full-sample moments by about 1e-16 relative."""
    if quad.backend != "monte_carlo":
        raise ValueError("mc_estimates requires a monte_carlo QuadratureSpec")
    cases = list(cases)
    if not cases:
        return []
    n = quad.samples
    seg = min(n, _SEGMENT)
    width = max(spec.dim for _, spec in cases)
    total = n * width
    stream = philox_generator(quad.rng_seed)
    z = np.empty(min(total, seg * (2 * width - 1)))  # normals [start, end) of the stream
    buf = np.empty((width, min(seg, _BLOCK)))
    vals = np.empty(seg)
    sds = [np.sqrt(spec.variances) for _, spec in cases]
    done = [0] * len(cases)  # rows whose moments each case has merged
    means, m2s = [0.0] * len(cases), [0.0] * len(cases)
    start = end = 0
    # from here on only the worker touches the stream; leaving the block awaits its pending
    # draw and joins it, whether the loop returns or raises
    with ThreadPoolExecutor(1) as worker:
        draw = worker.submit(stream.standard_normal, min(seg * width, total))
        while end < total:
            c = min(seg * width, total - end)
            z[end - start : end - start + c] = draw.result()
            end += c
            del draw  # frees this round before the worker draws the next one
            if end < total:
                draw = worker.submit(stream.standard_normal, min(seg * width, total - end))
            for k, (f, spec) in enumerate(cases):
                d, lo = spec.dim, done[k]
                rows = max(1, _BLOCK // d)
                while lo < n and min(n, lo + seg) * d <= end:
                    hi = min(n, lo + seg)
                    for a in range(lo, hi, rows):
                        b = min(hi, a + rows)
                        pts = z[a * d - start : b * d - start].reshape(b - a, d)
                        for j in range(d):
                            np.multiply(pts[:, j], sds[k][j], out=buf[j, : b - a])
                            if spec.mean[j]:
                                buf[j, : b - a] += spec.mean[j]
                        vals[a - lo : b - lo] = _evaluate(f, buf[:d, : b - a].T)
                    m = hi - lo
                    v = vals[:m]
                    mean = float(v.mean())
                    np.subtract(v, mean, out=v)
                    np.square(v, out=v)
                    m2 = float(v.sum())
                    if lo:
                        delta = mean - means[k]
                        means[k] += delta * (m / hi)
                        m2s[k] += m2 + delta * delta * (lo * m / hi)
                    else:
                        means[k], m2s[k] = mean, m2
                    lo = done[k] = hi
            keep = min((r * spec.dim for r, (_, spec) in zip(done, cases) if r < n), default=end)
            z[: end - keep] = z[keep - start : end - start]
            start = keep
    # standard error sqrt(var(ddof=1) / samples); inf for a single sample
    return [(mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else math.inf) for mean, m2 in zip(means, m2s)]


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
