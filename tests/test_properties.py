"""Properties the paper proves for S_tau, checked through apply_S on random problems.

A case is a box of 1-3 axes with at least 16 points per axis, a boundary mode, an
interpolation, a backend, variable g and C, optional drift, and a step tau whose one-step
reach fits the box.  In half the cases g, C and B vary along x1 only, as every registry
coefficient does, so the Gauss-Hermite grid step meets each of its three factor forms.
"""

import math
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from gausspde.cylinder import Coefficients, CylFunction, OperatorL
from gausspde import engine
from gausspde.engine import GridField, _FieldEvaluator, _one_step_values, apply_S
from gausspde.gauss import QuadratureSpec, TraceClassOperator

# deterministic, no example database on disk, and a few seconds of tier 1
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)
# Hypothesis also caches constants it reads from the package source, at collection and
# under ./.hypothesis by default; keep that cache out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gausspde-hypothesis")


@dataclass
class Case:
    op: OperatorL
    tau: float
    bounds: tuple
    points: int
    mode: str
    interpolation: str
    quad: QuadratureSpec
    rng: np.random.Generator

    def field(self, values, boundary_value=0.0):
        return GridField(self.bounds, values, boundary_mode=self.mode, boundary_value=boundary_value)

    def step(self, u):
        return apply_S(self.op, self.tau, u, self.quad, self.interpolation).values

    @property
    def shape(self):
        return (self.points,) * len(self.bounds)


def _wave(draw, dim, x1_only):
    """cos(<k, x> + phase) for a random wave vector k, or k = (k1, 0, ...) when x1_only."""
    k = np.array([draw(st.floats(-1.5, 1.5)) for _ in range(dim)])
    if x1_only:
        k[1:] = 0.0
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    return lambda x: np.cos(x @ k + phase)


@st.composite
def cases(draw, drift=True, always_drift=False, c_nonpositive=False, modes=("clamp", "constant"),
          interpolations=("cubic", "linear"), max_dim=3):
    dim = draw(st.sampled_from(range(1, max_dim + 1)))
    # coefficients of x1 alone give the grid step's rows keyed by point on axis 1 and by line on
    # the later axes; waves along every axis give rows keyed by each point
    x1_only = draw(st.booleans())
    halves = [draw(st.floats(1.0, 6.0)) for _ in range(dim)]
    bounds = tuple((c - h, c + h) for c, h in zip((draw(st.floats(-2.0, 2.0)) for _ in range(dim)), halves))
    q = sorted((draw(st.floats(0.05, 1.0)) for _ in range(dim)), reverse=True)

    g0 = draw(st.floats(0.3, 2.0))
    ga = draw(st.floats(0.0, 0.9)) * g0
    wg = _wave(draw, dim, x1_only)
    g = CylFunction(dim=dim, eval=lambda x: g0 + ga * wg(x), sup_bound=g0 + ga)
    c0, ca, wc = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 0.5)), _wave(draw, dim, x1_only)
    if c_nonpositive:
        c = CylFunction(dim=dim, eval=lambda x: -abs(c0) - ca * (1.0 + wc(x)), sup_bound=abs(c0) + 2.0 * ca)
    else:
        c = CylFunction(dim=dim, eval=lambda x: c0 + ca * wc(x), sup_bound=abs(c0) + ca)
    B = None
    if always_drift or (drift and draw(st.booleans())):
        B = []
        for _ in range(dim):
            b, wb = draw(st.floats(-1.0, 1.0)), _wave(draw, dim, x1_only)
            B.append(CylFunction(dim=dim, eval=lambda x, b=b, wb=wb: b * wb(x), sup_bound=abs(b)))
    co = Coefficients(g=g, B=B, C=c, g_floor=g0 - ga)
    op = OperatorL(coeffs=co, A=TraceClassOperator(q))

    # reach 6 sqrt(2 tau g_max q_1) + tau q_1 |B| = a s + b s^2 with s = sqrt(tau), set to a fraction of the width
    width = 2.0 * min(halves)
    a, b = 6.0 * math.sqrt(2.0 * co.g_max * q[0]), q[0] * co.drift_norm
    reach = draw(st.floats(0.05, 0.9)) * width
    s = reach / a if b == 0.0 else 2.0 * reach / (a + math.sqrt(a * a + 4.0 * b * reach))
    tau = min(s * s, 1.0)

    if draw(st.sampled_from(("gauss_hermite", "monte_carlo"))) == "gauss_hermite":
        quad = QuadratureSpec("gauss_hermite", nodes_per_dim=draw(st.integers(2, 10)))
    else:
        quad = QuadratureSpec("monte_carlo", samples=draw(st.integers(8, 64)), rng_seed=draw(st.integers(0, 2**32)))
    return Case(
        op=op,
        tau=tau,
        bounds=bounds,
        points=draw(st.integers(16, (96, 40, 20)[dim - 1])),
        mode=draw(st.sampled_from(modes)),
        interpolation=draw(st.sampled_from(interpolations)),
        quad=quad,
        rng=np.random.default_rng(draw(st.integers(0, 2**32))),
    )


@PROPERTY
@given(cases(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_step_is_linear_in_values_and_boundary_value(case, alpha, beta):
    u_vals, v_vals = case.rng.standard_normal((2,) + case.shape)
    u_edge, v_edge = case.rng.standard_normal(2)
    su = case.step(case.field(u_vals, u_edge))
    sv = case.step(case.field(v_vals, v_edge))
    combined = case.step(case.field(alpha * u_vals + beta * v_vals, alpha * u_edge + beta * v_edge))
    scale = np.abs(alpha * su) + np.abs(beta * sv)
    assert np.all(np.abs(combined - (alpha * su + beta * sv)) <= 1e-12 * np.max(scale))


@PROPERTY
@given(cases(drift=False))
def test_step_maps_one_to_exp_tau_c_without_drift(case):
    one = case.field(np.ones(case.shape), boundary_value=1.0)
    expected = np.exp(case.tau * case.op.coeffs.C(one.meshpoints())).reshape(case.shape)
    assert np.all(np.abs(case.step(one) - expected) <= 1e-12 * expected)


@PROPERTY
@given(cases(always_drift=True))
def test_step_maps_one_to_exp_tau_c_with_drift(case):
    # the drift shifts the nodes and leaves their weights alone, so a constant stays constant
    one = case.field(np.ones(case.shape), boundary_value=1.0)
    expected = np.exp(case.tau * case.op.coeffs.C(one.meshpoints())).reshape(case.shape)
    assert np.all(np.abs(case.step(one) - expected) <= 1e-12 * expected)


@PROPERTY
@given(cases(interpolations=("linear",)))
def test_linear_step_is_positive(case):
    values = np.maximum(case.rng.standard_normal(case.shape), 0.0)
    assert np.min(case.step(case.field(values, boundary_value=case.rng.uniform(0.0, 2.0)))) >= 0.0


@PROPERTY
@given(cases(drift=False, c_nonpositive=True, modes=("clamp",), interpolations=("linear",)))
def test_linear_step_is_a_sup_norm_contraction_without_drift_for_nonpositive_c(case):
    u = case.field(case.rng.standard_normal(case.shape))
    assert np.max(np.abs(case.step(u))) <= u.sup_norm * (1.0 + 1e-12)


@PROPERTY
@given(cases(always_drift=True, c_nonpositive=True, interpolations=("linear",)))
def test_linear_step_is_a_sup_norm_contraction_with_drift_for_nonpositive_c(case):
    # linear taps and node weights are nonnegative and sum to 1 wherever the drift puts the nodes
    u = case.field(case.rng.standard_normal(case.shape))
    assert np.max(np.abs(case.step(u))) <= u.sup_norm * (1.0 + 1e-12)


@PROPERTY
@given(cases(max_dim=2))
def test_node_sum_does_not_depend_on_the_chunk_size(case):
    # _GATHER_ELEMENTS // M nodes are gathered per chunk: a budget of 1 sums one node at a time,
    # a budget past K M sums every node at once
    u = case.field(case.rng.standard_normal(case.shape), boundary_value=case.rng.standard_normal())
    evaluator, pts = _FieldEvaluator(u, case.interpolation), u.meshpoints()
    sums = []
    for budget in (1, 2**62):
        # patched in the body: hypothesis refuses function-scoped fixtures such as monkeypatch
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_GATHER_ELEMENTS", budget)
            sums.append(_one_step_values(case.op, case.tau, evaluator, pts, case.quad))
    assert np.max(np.abs(sums[0] - sums[1])) <= 1e-13 * (1.0 + u.sup_norm)


@PROPERTY
@given(cases())
def test_every_tap_table_counts_against_the_tap_table_budget(case):
    # every factor is a table of kernel rows, keys W 8 bytes, whatever its keys: a budget one
    # byte short of the largest refuses the step, and a budget of exactly its bytes builds it.
    # Monte Carlo builds no table, so no budget refuses it
    u = case.field(np.zeros(case.shape))
    step = engine._Step(case.op, case.tau, u, case.quad, case.interpolation)
    largest = max((factor.kernel.nbytes for factor in step.factors), default=0) if step.gauss_hermite else 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_TAP_TABLE_BYTES", largest - 1)
        if step.gauss_hermite:
            with pytest.raises(engine.TapTableError, match=f"take {largest} bytes"):
                engine._Step(case.op, case.tau, u, case.quad, case.interpolation)
        else:
            engine._Step(case.op, case.tau, u, case.quad, case.interpolation)
        patch.setattr(engine, "_TAP_TABLE_BYTES", largest)
        engine._Step(case.op, case.tau, u, case.quad, case.interpolation)


def test_a_1d_table_at_the_reach_limit_is_refused_before_it_is_allocated():
    # a single step whose one-step reach nearly fills the box: at K = 32 the 28 kept nodes of the
    # 512 points reach W = 1403 offsets, about 2.74 n, and g varies along the line, so the table
    # takes 512 W 8 B = 5.7 MB. One byte less of budget refuses it, and the build holds far less
    # than the table. With g constant the same step is one row of 1403 offsets
    g = CylFunction(dim=1, eval=lambda x: 1.0 - 1e-3 * np.sin(x[:, 0]) ** 2, sup_bound=1.0)
    co = Coefficients(g=g, B=None, C=CylFunction.constant(0.0, 1), g_floor=0.999)
    op = OperatorL(coeffs=co, A=TraceClassOperator([0.5]))
    quad = QuadratureSpec("gauss_hermite", nodes_per_dim=32)
    u = GridField([(-9.2, 9.2)], np.zeros(512))
    tau = 0.999 * (2 * 9.2 / 6.0) ** 2 / (2 * 0.5)  # the reach 6 sqrt(2 tau g q) just under the width
    table = 512 * 1403 * 8
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_TAP_TABLE_BYTES", table - 1)
        tracemalloc.start()
        try:
            with pytest.raises(engine.TapTableError, match=f"take {table} bytes"):
                engine._Step(op, tau, u, quad, "cubic")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table / 8
        patch.setattr(engine, "_TAP_TABLE_BYTES", table)
        assert engine._Step(op, tau, u, quad, "cubic").factors[0].kernel.shape == (512, 1, 1403)
    co = Coefficients(g=CylFunction.constant(1.0, 1), B=None, C=CylFunction.constant(0.0, 1), g_floor=1.0)
    step = engine._Step(OperatorL(coeffs=co, A=op.A), tau, u, quad, "cubic")
    assert step.factors[0].kernel.shape == (1, 1, 1403)
