"""Closed-form Gaussian moments, checked against independent sampling and
1D quadrature oracles, plus the two integration backends."""

import dataclasses
import math
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from gausspde import gauss
from gausspde.battery import _check_gaussian_identities, _identity_cases
from gausspde.config import load_config
from gausspde.gauss import (
    GaussianSpec,
    IntegrandError,
    QuadratureSpec,
    TraceClassOperator,
    expect_exp,
    expect_linear_exp,
    expect_quadratic,
    expect_quadratic_exp,
    gaussian_nodes,
    integrate,
    mc_estimate,
    mc_estimates,
    philox_generator,
    scale_identity_residual,
)


def centered(qs, s=1.0):
    qs = np.asarray(qs, dtype=float)
    return GaussianSpec(np.zeros(qs.size), s, TraceClassOperator(qs))


GH = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=32)
MC = QuadratureSpec(backend="monte_carlo", samples=1_000_000, rng_seed=20260814)


# independent oracle: plain numpy sampling, not the package's generator
def mc_oracle(f, variances, n_samples=1_000_000, seed=7):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n_samples, len(variances))) * np.sqrt(variances)
    vals = f(y)
    return vals.mean(), vals.std(ddof=1) / math.sqrt(n_samples)


# ---------------------------------------------------------------- types


def test_trace_class_operator_validation():
    op = TraceClassOperator([0.5, 0.25])
    assert op.trace == 0.75
    assert op.operator_norm == 0.5
    assert_allclose(op.block(1), [0.5])
    with pytest.raises(ValueError):
        TraceClassOperator([0.5, -0.1])
    with pytest.raises(ValueError):
        TraceClassOperator([0.25, 0.5])  # must be nonincreasing
    with pytest.raises(ValueError):
        TraceClassOperator([])
    with pytest.raises(ValueError):
        op.block(3)


def test_gaussian_spec_validation():
    op = TraceClassOperator([0.5, 0.25])
    spec = GaussianSpec(np.zeros(2), 2.0, op)
    assert_allclose(spec.variances, [1.0, 0.5])
    with pytest.raises(ValueError):
        GaussianSpec(np.zeros(2), 0.0, op)
    with pytest.raises(ValueError):
        GaussianSpec(np.zeros(3), 1.0, op)  # active block too small
    with pytest.raises(ValueError):
        GaussianSpec(np.array([np.nan, 0.0]), 1.0, op)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(backend="simpson")
    with pytest.raises(ValueError):
        QuadratureSpec(backend="gauss_hermite", nodes_per_dim=0)
    with pytest.raises(ValueError):
        QuadratureSpec(backend="monte_carlo", samples=0)
    spec = QuadratureSpec(backend="monte_carlo", nodes_per_dim=np.int64(4), samples=np.int32(10), rng_seed=np.uint64(7))
    assert (spec.nodes_per_dim, spec.samples, spec.rng_seed) == (4, 10, 7)


@pytest.mark.parametrize(
    "field,value",
    [("nodes_per_dim", 32.0), ("samples", 1000.0), ("rng_seed", 1.5)]
    + [(field, True) for field in ("nodes_per_dim", "samples", "rng_seed")],
)
def test_quadrature_spec_rejects_non_integers(field, value):
    with pytest.raises(ValueError, match=field):
        QuadratureSpec(backend="monte_carlo", **{field: value})


# ---------------------------------------------------------------- closed forms


def test_expect_quadratic_examples():
    spec = centered([0.5, 0.25])
    assert expect_quadratic(np.eye(2), spec) == pytest.approx(0.75, abs=1e-15)
    assert expect_quadratic(np.zeros((2, 2)), spec) == 0.0
    assert expect_quadratic(np.array([[0.0, 1.0], [1.0, 0.0]]), spec) == 0.0


def test_expect_exp_examples():
    assert expect_exp(np.zeros(2), centered([0.5, 0.25])) == 1.0
    assert expect_exp(np.array([1.0]), centered([2.0])) == pytest.approx(math.e, rel=1e-15)
    val = expect_exp(np.array([1.0, 1.0]), centered([0.5, 0.25]))
    assert val == pytest.approx(math.exp(0.375), rel=1e-15)
    est, se = mc_oracle(lambda y: np.exp(y[:, 0] + y[:, 1]), [0.5, 0.25])
    assert abs(val - est) < 3 * se


def test_expect_linear_exp_examples():
    spec = centered([0.5, 0.25])
    assert expect_linear_exp(np.array([3.0, -2.0]), np.zeros(2), spec) == 0.0
    assert expect_linear_exp(np.array([1.0]), np.array([1.0]), centered([2.0])) == pytest.approx(
        2.0 * math.e, rel=1e-15
    )
    val = expect_linear_exp(np.array([1.0, 1.0]), np.array([1.0, -1.0]), spec)
    assert val == pytest.approx(0.25 * math.exp(0.375), rel=1e-15)
    est, se = mc_oracle(lambda y: (y[:, 0] + y[:, 1]) * np.exp(y[:, 0] - y[:, 1]), [0.5, 0.25])
    assert abs(val - est) < 3 * se


def test_expect_quadratic_exp_examples():
    spec = centered([0.5, 0.25])
    G = np.array([[1.0, 0.5], [0.5, 2.0]])
    assert expect_quadratic_exp(G, np.zeros(2), spec) == expect_quadratic(G, spec)
    assert expect_quadratic_exp(np.zeros((2, 2)), np.array([1.0, 1.0]), spec) == 0.0
    val = expect_quadratic_exp(np.array([[1.0]]), np.array([1.0]), centered([1.0]))
    assert val == pytest.approx(2.0 * math.sqrt(math.e), rel=1e-14)
    # 1D analytic oracle: integral of y^2 e^y against N(0,1)
    ref, err = quad(lambda y: y * y * math.exp(y) * math.exp(-y * y / 2) / math.sqrt(2 * math.pi), -12, 12)
    assert abs(val - ref) < 1e-10 + 10 * err


def test_expect_exp_symmetric_in_z():
    spec = centered([0.7, 0.3], s=1.3)
    z = np.array([0.4, -1.1])
    assert expect_exp(z, spec) == expect_exp(-z, spec)


def test_closed_forms_require_centered_spec():
    op = TraceClassOperator([1.0])
    off = GaussianSpec(np.array([0.5]), 1.0, op)
    for call in (
        lambda: expect_quadratic(np.eye(1), off),
        lambda: expect_exp(np.ones(1), off),
        lambda: expect_linear_exp(np.ones(1), np.ones(1), off),
        lambda: expect_quadratic_exp(np.eye(1), np.ones(1), off),
    ):
        with pytest.raises(ValueError):
            call()


def test_closed_forms_dimension_mismatch():
    spec = centered([0.5, 0.25])
    with pytest.raises(ValueError):
        expect_quadratic(np.eye(3), spec)
    with pytest.raises(ValueError):
        expect_exp(np.ones(3), spec)
    with pytest.raises(ValueError):
        expect_linear_exp(np.ones(2), np.ones(3), spec)
    with pytest.raises(ValueError):
        expect_quadratic_exp(np.ones((2, 3)), np.ones(2), spec)


# ---------------------------------------------------------------- integrate


def test_gaussian_nodes_gauss_hermite_rows():
    pts, w = gaussian_nodes(QuadratureSpec(backend="gauss_hermite", nodes_per_dim=3), [4.0, 0.25])
    # physicists' nodes: x_k = 0, +-sqrt(3/2); weights w_k / sqrt(pi) = 2/3, 1/6, 1/6
    z = np.sqrt(2.0) * np.polynomial.hermite.hermgauss(3)[0]
    w1 = np.array([1.0, 4.0, 1.0]) / 6.0
    # the first axis varies slowest
    assert_allclose(pts, [[2.0 * a, 0.5 * b] for a in z for b in z], rtol=1e-15)
    assert_allclose(w, np.outer(w1, w1).ravel(), rtol=1e-14)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="dimension <= 4"):
        gaussian_nodes(GH, np.ones(5))


@pytest.mark.parametrize("backend", ["gauss_hermite", "monte_carlo"])
@pytest.mark.parametrize(
    "variances", [[-1.0], [np.nan], [np.inf], [1.0, -0.5], [[1.0, 2.0]], [], 1.0], ids=repr
)
def test_gaussian_nodes_reject_bad_variances(backend, variances):
    quad = QuadratureSpec(backend=backend, nodes_per_dim=4, samples=16)
    with pytest.raises(ValueError, match="variances must be a nonempty 1-d vector"):
        gaussian_nodes(quad, variances)


def test_gaussian_nodes_monte_carlo_stream():
    quad = QuadratureSpec(backend="monte_carlo", samples=1000, rng_seed=17)
    pts, w = gaussian_nodes(quad, [4.0, 0.25, 1.0, 1.0, 1.0], stream=(3,))
    ref = philox_generator(17, (3,)).standard_normal((1000, 5)) * np.sqrt([4.0, 0.25, 1.0, 1.0, 1.0])
    assert np.array_equal(pts, ref)
    assert np.array_equal(w, np.full(1000, 1e-3))
    assert not np.array_equal(gaussian_nodes(quad, [4.0], stream=(4,))[0], pts[:, :1])


def test_integrate_gh_examples():
    spec = centered([0.5, 0.25], s=2.0)
    assert integrate(lambda y: np.ones(y.shape[0]), spec, GH) == pytest.approx(1.0, abs=1e-14)
    assert integrate(lambda y: y[:, 0] ** 2, spec, GH) == pytest.approx(0.5 * 2.0, abs=1e-12)
    val = integrate(lambda y: np.exp(y[:, 0]), centered([2.0]), GH)
    assert abs(val - math.e) < 1e-10


def test_integrate_gh_matches_closed_forms_to_1e9():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        qs = np.sort(rng.uniform(0.2, 1.0, n))[::-1]
        spec = centered(qs, s=0.9)
        G = rng.standard_normal((n, n))
        z = rng.uniform(-1.0, 1.0, n)
        w = rng.uniform(-1.0, 1.0, n)
        cases = [
            (lambda y: np.einsum("mi,ij,mj->m", y, G, y), expect_quadratic(G, spec)),
            (lambda y: np.exp(y @ z), expect_exp(z, spec)),
            (lambda y: (y @ w) * np.exp(y @ z), expect_linear_exp(w, z, spec)),
            (lambda y: np.einsum("mi,ij,mj->m", y, G, y) * np.exp(y @ z), expect_quadratic_exp(G, z, spec)),
        ]
        for f, ref in cases:
            assert abs(integrate(f, spec, GH) - ref) < 1e-9


def test_integrate_mc_within_four_stderr():
    spec = centered([0.5, 0.25])
    est, se = mc_estimate(lambda y: np.exp(y[:, 0] + y[:, 1]), spec, MC)
    assert abs(est - math.exp(0.375)) < 4 * se
    assert integrate(lambda y: np.exp(y[:, 0] + y[:, 1]), spec, MC) == est


def test_integrate_mc_reproducible_per_seed():
    spec = centered([1.0, 0.5])
    q1 = QuadratureSpec(backend="monte_carlo", samples=5000, rng_seed=11)
    q2 = QuadratureSpec(backend="monte_carlo", samples=5000, rng_seed=11)
    q3 = QuadratureSpec(backend="monte_carlo", samples=5000, rng_seed=12)
    f = lambda y: y[:, 0] ** 2 + np.sin(y[:, 1])
    a, b, c = integrate(f, spec, q1), integrate(f, spec, q2), integrate(f, spec, q3)
    assert a == b
    assert a != c


def test_integrate_honors_nonzero_mean():
    op = TraceClassOperator([0.5, 0.25])
    spec = GaussianSpec(np.array([0.7, -0.2]), 1.0, op)
    val = integrate(lambda y: y[:, 0], spec, GH)
    assert val == pytest.approx(0.7, abs=1e-13)


def test_integrate_errors():
    with pytest.raises(ValueError):
        integrate(lambda y: np.ones(y.shape[0]), centered(np.full(5, 0.5)), GH)
    with pytest.raises(IntegrandError):
        integrate(lambda y: np.where(y[:, 0] > 0, 1.0, np.nan), centered([1.0]), GH)
    with pytest.raises(ValueError):
        integrate(lambda y: np.ones((y.shape[0], 2)), centered([1.0]), GH)


# ---------------------------------------------------------------- scale identity


def test_scale_identity_examples():
    A = TraceClassOperator([0.8, 0.4])
    assert scale_identity_residual(lambda y: np.ones(y.shape[0]), 0.37, A, GH) == pytest.approx(0.0, abs=1e-14)
    assert scale_identity_residual(lambda y: y[:, 0] ** 2, 4.0, A, GH) < 1e-10
    assert scale_identity_residual(lambda y: np.exp(y[:, 0]), 2.0, TraceClassOperator([1.0]), GH) < 1e-10


def test_scale_identity_family():
    A = TraceClassOperator([0.8, 0.4])
    family = [
        lambda y: np.ones(y.shape[0]),
        lambda y: y[:, 0],
        lambda y: y[:, 0] ** 2,
        lambda y: np.exp(-y[:, 0]),
        lambda y: np.exp(0.5 * y[:, 0]),
        lambda y: np.exp(y[:, 0]),
    ]
    for t in (0.37, 2.0, 4.0):
        for f in family:
            assert scale_identity_residual(f, t, A, GH) < 1e-10


def test_scale_identity_mc_shares_draws():
    A = TraceClassOperator([0.6])
    q = QuadratureSpec(backend="monte_carlo", samples=20_000, rng_seed=5)
    r = scale_identity_residual(lambda y: np.cos(y[:, 0]), 0.37, A, q)
    assert r < 1e-10


# ---------------------------------------------------------------- mc_estimates


def _row_local_cases():
    """(integrand, spec) with dims 1, 2 and 3 and nonzero means; elementwise only, so a
    row's value is bit-identical however the rows are blocked."""
    return [
        (lambda y: np.exp(y[:, 0]), GaussianSpec(np.array([0.3]), 2.0, TraceClassOperator([1.0]))),
        (
            lambda y: np.sin(y[:, 0]) * np.exp(y[:, 1]),
            GaussianSpec(np.array([0.7, -0.2]), 1.3, TraceClassOperator([0.5, 0.25])),
        ),
        (
            lambda y: y[:, 0] * y[:, 1] + y[:, 2] ** 2,
            GaussianSpec(np.array([-1.0, 0.5, 2.0]), 0.8, TraceClassOperator([1.0, 0.5, 0.25])),
        ),
    ]


@pytest.mark.parametrize("samples", [1, 1000, (1 << 16) + 4465])
def test_mc_estimates_equal_a_fresh_draw_per_case(samples):
    # samples of 1, below one block, and past one block but not a multiple of it
    quad_mc = QuadratureSpec(backend="monte_carlo", samples=samples, rng_seed=20260814)
    cases = _row_local_cases()
    for (f, spec), (mean, se) in zip(cases, mc_estimates(cases, quad_mc)):
        y = philox_generator(20260814).standard_normal((samples, spec.dim)) * np.sqrt(spec.variances) + spec.mean
        vals = f(y)
        assert mean == vals.mean()
        if samples == 1:
            assert se == math.inf
        else:
            assert se == vals.std(ddof=1) / math.sqrt(samples)
        assert mc_estimate(f, spec, quad_mc) == (mean, se)


def test_mc_estimates_do_not_depend_on_the_block_size(monkeypatch):
    quad_mc = QuadratureSpec(backend="monte_carlo", samples=500, rng_seed=3)
    cases = _row_local_cases()
    reference = mc_estimates(cases, quad_mc)
    for block in (1, 7, gauss._BLOCK):
        monkeypatch.setattr(gauss, "_BLOCK", block)
        assert mc_estimates(cases, quad_mc) == reference


@pytest.mark.parametrize("block", [7, None])
def test_mc_estimates_blocks_do_not_leak_between_cases(monkeypatch, block):
    # points arrive as views of one reused buffer; an integrand that writes into them, here
    # over every column, must not change what a later block or case receives
    if block is not None:
        monkeypatch.setattr(gauss, "_BLOCK", block)
    quad_mc = QuadratureSpec(backend="monte_carlo", samples=50, rng_seed=3)

    def scribbler(y):
        vals = y[:, 0] * y[:, 2]
        y[:] = np.nan
        return vals

    spec3 = GaussianSpec(np.array([0.1, 0.2, 0.3]), 1.0, TraceClassOperator([1.0, 0.5, 0.25]))
    cases = [(scribbler, spec3)] + _row_local_cases() + [(scribbler, spec3)]
    shared = mc_estimates(cases, quad_mc)
    assert shared == [mc_estimates([case], quad_mc)[0] for case in cases]
    assert shared[0] == shared[-1]


def test_mc_estimates_check_every_block(monkeypatch):
    monkeypatch.setattr(gauss, "_BLOCK", 7)
    quad_mc = QuadratureSpec(backend="monte_carlo", samples=50, rng_seed=3)
    calls = []

    def late_nan(y):
        calls.append(y.shape[0])
        return np.full(y.shape[0], np.nan if len(calls) == 3 else 1.0)

    with pytest.raises(IntegrandError):
        mc_estimates([(late_nan, centered([1.0]))], quad_mc)
    assert calls == [7, 7, 7]
    with pytest.raises(ValueError, match="evaluators must map"):
        mc_estimates([(lambda y: np.ones((y.shape[0], 2)), centered([1.0]))], quad_mc)
    with pytest.raises(ValueError, match="monte_carlo"):
        mc_estimates([(lambda y: y[:, 0], centered([1.0]))], GH)
    assert mc_estimates([], quad_mc) == []


def test_gaussian_identities_row_draws_once(monkeypatch):
    # nine cases of dimensions 1 to 3 share one draw as wide as the widest
    drawn = []

    class Counting:
        def __init__(self, gen):
            self._gen = gen

        def standard_normal(self, size):
            out = self._gen.standard_normal(size)
            drawn.append(out.size)
            return out

    monkeypatch.setattr(gauss, "philox_generator", lambda *a, **k: Counting(philox_generator(*a, **k)))
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "verify_default.json")
    config = dataclasses.replace(config, quadrature=QuadratureSpec(backend="gauss_hermite", samples=1000, rng_seed=3))
    _check_gaussian_identities(config)
    assert drawn == [3 * 1000]


# ---------------------------------------------------------------- mc_estimates across segments


def _full_sample_moments(cases, quad_mc):
    """numpy's mean and std(ddof=1) / sqrt(samples) over every value of a fresh draw per case."""
    out = []
    for f, spec in cases:
        z = philox_generator(quad_mc.rng_seed).standard_normal((quad_mc.samples, spec.dim))
        vals = f(z * np.sqrt(spec.variances) + spec.mean)
        out.append((vals.mean(), vals.std(ddof=1) / math.sqrt(quad_mc.samples)))
    return out


def _segment_merged_moments(cases, quad_mc, segment):
    """The documented estimate from a fresh (samples, d) draw per case: numpy's mean and centred
    sum of squares of each segment of `segment` values, merged in order by
    mean += delta (n_b / n), m2 += m2_b + delta**2 (n_a n_b / n)."""
    out = []
    n = quad_mc.samples
    for f, spec in cases:
        z = philox_generator(quad_mc.rng_seed).standard_normal((n, spec.dim))
        vals = f(z * np.sqrt(spec.variances) + spec.mean)
        mean = m2 = 0.0
        for lo in range(0, n, segment):
            seg = vals[lo : lo + segment]
            seg_mean = float(seg.mean())
            seg_m2 = float(((seg - seg_mean) ** 2).sum())
            m, hi = seg.size, lo + seg.size
            if lo:
                delta = seg_mean - mean
                mean += delta * (m / hi)
                m2 += seg_m2 + delta * delta * (lo * m / hi)
            else:
                mean, m2 = seg_mean, seg_m2
        out.append((mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else math.inf))
    return out


def _assert_close_to(estimates, reference):
    for (mean, se), (ref_mean, ref_se) in zip(estimates, reference, strict=True):
        assert abs(mean - ref_mean) <= 1e-13 * abs(ref_mean)
        assert abs(se - ref_se) <= 1e-13 * ref_se


@pytest.mark.parametrize("segment", [7, 1024])
def test_mc_estimates_merge_segments(monkeypatch, segment):
    # many segments, the last one partial: the merged moments are exactly the documented
    # segment-by-segment merge of a fresh draw, stay within 1e-13 of numpy's full-sample ones,
    # and are exact functions of the case alone, whatever the blocking
    monkeypatch.setattr(gauss, "_SEGMENT", segment)
    quad_mc = QuadratureSpec(backend="monte_carlo", samples=70_001, rng_seed=20260814)
    cases = _row_local_cases()
    reference = mc_estimates(cases, quad_mc)
    assert reference == _segment_merged_moments(cases, quad_mc, segment)
    _assert_close_to(reference, _full_sample_moments(cases, quad_mc))
    assert [mc_estimates([case], quad_mc)[0] for case in cases] == reference
    for block in (1, 7):
        monkeypatch.setattr(gauss, "_BLOCK", block)
        assert mc_estimates(cases, quad_mc) == reference


def test_mc_estimates_span_several_default_segments():
    quad_mc = QuadratureSpec(backend="monte_carlo", samples=3 * gauss._SEGMENT + 12345, rng_seed=5)
    cases = _row_local_cases()
    _assert_close_to(mc_estimates(cases, quad_mc), _full_sample_moments(cases, quad_mc))


def test_mc_estimates_draw_the_stream_in_chunks(monkeypatch):
    # rounds of one segment of the widest case, seg * width = 3072 normals, cover the draw once;
    # the dim-2 case's second segment, normals [2048, 4096), straddles the first two rounds and
    # reads the normals carried over from the first
    monkeypatch.setattr(gauss, "_SEGMENT", 1024)
    quad_mc = QuadratureSpec(backend="monte_carlo", samples=5000, rng_seed=3)
    cases = _row_local_cases()
    drawn = []

    class Counting:
        def __init__(self, gen):
            self._gen = gen

        def standard_normal(self, size):
            drawn.append(size)
            return self._gen.standard_normal(size)

    monkeypatch.setattr(gauss, "philox_generator", lambda *a, **k: Counting(philox_generator(*a, **k)))
    assert mc_estimates(cases, quad_mc) == _segment_merged_moments(cases, quad_mc, 1024)
    assert drawn == [3072] * 4 + [5000 * 3 - 4 * 3072]


class _SlowStream:
    """Generator fake: records each draw's size and thread, sleeps about 2 ms on the first 100
    draws so that the caller evaluates while a draw is pending, then draws; it may raise on
    draw number `fail_at` instead."""

    def __init__(self, gen, fail_at=None):
        self._gen, self._fail_at = gen, fail_at
        self.sizes, self.threads = [], []

    def standard_normal(self, size):
        self.sizes.append(size)
        self.threads.append(threading.get_ident())
        if len(self.sizes) == self._fail_at:
            raise RuntimeError("draw failed")
        if len(self.sizes) <= 100:
            time.sleep(0.002)
        return self._gen.standard_normal(size)


def _slow_streams(monkeypatch, fail_at=None):
    """Make gauss.philox_generator return _SlowStream fakes; returns the list they join."""
    streams = []

    def slow_generator(*args, **kwargs):
        streams.append(_SlowStream(philox_generator(*args, **kwargs), fail_at))
        return streams[-1]

    monkeypatch.setattr(gauss, "philox_generator", slow_generator)
    return streams


@pytest.mark.parametrize("segment", [7, 1024])
def test_mc_estimates_draw_off_the_calling_thread(monkeypatch, segment):
    # one worker draws every round while the caller evaluates the one before: the estimates and
    # the rounds (seg * width normals, the last one partial) are those of a draw on the caller
    monkeypatch.setattr(gauss, "_SEGMENT", segment)
    quad_mc = QuadratureSpec(backend="monte_carlo", samples=70_001, rng_seed=20260814)
    cases = _row_local_cases()
    streams = _slow_streams(monkeypatch)
    estimates = mc_estimates(cases, quad_mc)
    assert estimates == _segment_merged_moments(cases, quad_mc, segment)
    (stream,) = streams
    total, c = 70_001 * 3, segment * 3
    assert stream.sizes == [c] * (total // c) + [total % c]
    assert len(set(stream.threads)) == 1
    assert threading.get_ident() not in stream.threads


def test_mc_estimates_failures_join_the_worker(monkeypatch):
    # whether an integrand or a draw fails, the caller gets the error and no thread outlives the call
    monkeypatch.setattr(gauss, "_SEGMENT", 1024)
    quad_mc = QuadratureSpec(backend="monte_carlo", samples=5000, rng_seed=3)
    calls = []

    def third_segment_raises(y):
        calls.append(y.shape[0])
        if len(calls) == 3:
            raise IntegrandError("third segment")
        return y[:, 0]

    threads = threading.active_count()
    with pytest.raises(IntegrandError, match="third segment"):
        mc_estimates([(third_segment_raises, centered([1.0]))], quad_mc)
    assert calls == [1024] * 3
    assert threading.active_count() == threads
    with pytest.raises(IntegrandError, match="non-finite"):
        mc_estimates([(lambda y: np.full(y.shape[0], np.inf), centered([1.0]))], quad_mc)
    assert threading.active_count() == threads
    streams = _slow_streams(monkeypatch, fail_at=2)
    with pytest.raises(RuntimeError, match="draw failed"):
        mc_estimates(_row_local_cases(), quad_mc)
    assert threading.active_count() == threads
    assert streams[0].sizes == [3072] * 2


def test_mc_estimates_memory_does_not_grow_with_samples():
    # the battery's nine cases: the round window, point buffer and value buffer, none of them a
    # whole draw
    cases = [(f, spec) for f, spec, _ in _identity_cases()]
    peaks = []
    for samples in (1_000_000, 2_000_000):
        quad_mc = QuadratureSpec(backend="monte_carlo", samples=samples, rng_seed=1)
        tracemalloc.start()
        try:
            mc_estimates(cases, quad_mc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 16e6
    assert abs(peaks[1] - peaks[0]) < 1e6


def test_mc_estimates_memory_does_not_grow_with_cases():
    # forty one-axis cases share one buffer of segment values; none keeps a segment of its own
    cases = [(lambda y, a=a: np.cos(a * y[:, 0]), centered([1.0])) for a in range(40)]
    quad_mc = QuadratureSpec(backend="monte_carlo", samples=1_000_000, rng_seed=1)
    tracemalloc.start()
    try:
        mc_estimates(cases, quad_mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
