"""Acceptance gate: one test per published criterion, at the stated tolerances.

Each test prints one `[PASS]`/`[FAIL]` line with the measured numbers, so a
`pytest -v -s tests/test_acceptance.py` run reads as the acceptance report.
"""

import json
import time
from pathlib import Path

import numpy as np

from gausspde.battery import smooth_suite
from gausspde.cli import main
from gausspde.config import load_config
from gausspde.cylinder import Coefficients, CylFunction, OperatorL, dissipativity_witness
from gausspde.engine import (
    ChernoffPlan,
    GridField,
    chernoff_solve,
    coefficient_continuity_probe,
    norm_bound_check,
    tangency_residual,
)
from gausspde.gauss import (
    GaussianSpec,
    QuadratureSpec,
    TraceClassOperator,
    expect_exp,
    expect_linear_exp,
    expect_quadratic,
    expect_quadratic_exp,
    integrate,
    mc_estimate,
    philox_generator,
    scale_identity_residual,
)
from gausspde.oracle import FDProblem, exact_constant_solution, fd_solve, resolvent_solve

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
GH32 = QuadratureSpec(backend="gauss_hermite", nodes_per_dim=32)


def report(number: int, description: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}", flush=True)
    assert ok, f"criterion {number}: {description}"


def centered(scale, qs):
    qs = np.asarray(qs, dtype=float)
    return GaussianSpec(np.zeros(qs.size), scale, TraceClassOperator(qs))


def variable_diffusion_op(c_value=-0.3, extra_g=0.0):
    co = Coefficients(
        g=CylFunction(
            dim=1,
            eval=lambda x, d=extra_g: 1.0 + d + 0.5 * np.sin(x[:, 0]),
            sup_bound=1.5 + extra_g,
        ),
        B=None,
        C=CylFunction.constant(c_value, 1),
        g_floor=0.5 + extra_g,
        contractive=True,
    )
    return OperatorL(coeffs=co, A=TraceClassOperator([0.5]))


def constant_op(c_value, g_value=1.0, drift=None, contractive=False):
    co = Coefficients(
        g=CylFunction.constant(g_value, 1),
        B=None if drift is None else (CylFunction.constant(drift, 1),),
        C=CylFunction.constant(c_value, 1),
        g_floor=g_value,
        contractive=contractive,
    )
    return OperatorL(coeffs=co, A=TraceClassOperator([0.5]))


def test_criterion_01_gaussian_identities():
    start = time.perf_counter()
    s21 = centered(1.0, [0.5, 0.25])
    s1w = centered(2.0, [1.0])
    s11 = centered(1.0, [1.0])
    s3 = centered(1.0, [1.0, 0.5, 0.25])
    z3 = np.array([0.3, 0.2, 0.1])
    cases = [
        (lambda y: y[:, 0] ** 2 + y[:, 1] ** 2, s21, expect_quadratic(np.eye(2), s21)),
        (lambda y: np.exp(y[:, 0]), s1w, expect_exp(np.array([1.0]), s1w)),
        (lambda y: np.exp(y[:, 0] + y[:, 1]), s21, expect_exp(np.array([1.0, 1.0]), s21)),
        (
            lambda y: y[:, 0] * np.exp(y[:, 0]),
            s1w,
            expect_linear_exp(np.array([1.0]), np.array([1.0]), s1w),
        ),
        (
            lambda y: (y[:, 0] + y[:, 1]) * np.exp(y[:, 0] - y[:, 1]),
            s21,
            expect_linear_exp(np.array([1.0, 1.0]), np.array([1.0, -1.0]), s21),
        ),
        (
            lambda y: y[:, 0] ** 2 * np.exp(y[:, 0]),
            s11,
            expect_quadratic_exp(np.array([[1.0]]), np.array([1.0]), s11),
        ),
        (lambda y: np.sum(y * y, axis=1), s3, expect_quadratic(np.eye(3), s3)),
        (lambda y: np.exp(y @ z3), s3, expect_exp(z3, s3)),
        (
            lambda y: np.sum(y * y, axis=1) * np.exp(0.2 * y[:, 0]),
            s3,
            expect_quadratic_exp(np.eye(3), np.array([0.2, 0.0, 0.0]), s3),
        ),
    ]
    mc = QuadratureSpec(backend="monte_carlo", samples=1_000_000, rng_seed=0)
    gh_worst, mc_worst = 0.0, 0.0
    for f, spec, exact in cases:
        gh_worst = max(gh_worst, abs(integrate(f, spec, GH32) - exact))
        mean, stderr = mc_estimate(f, spec, mc)
        mc_worst = max(mc_worst, abs(mean - exact) / (4.0 * stderr))
    elapsed = time.perf_counter() - start
    ok = gh_worst <= 1e-9 and mc_worst <= 1.0 and elapsed < 10.0
    report(
        1,
        f"Gaussian identities: GH error {gh_worst:.2e} <= 1e-9, "
        f"MC worst |err|/4se {mc_worst:.2f} <= 1, {elapsed:.1f}s < 10s",
        ok,
    )


def test_criterion_02_scale_identity():
    start = time.perf_counter()
    A = TraceClassOperator([0.6, 0.3])
    family = [
        lambda y: np.ones(y.shape[0]),
        lambda y: y[:, 0],
        lambda y: y[:, 0] ** 2,
        lambda y: np.exp(-y[:, 0]),
        lambda y: np.exp(0.5 * (y[:, 0] + y[:, 1])),
        lambda y: y[:, 0] * y[:, 1],
    ]
    worst = max(scale_identity_residual(f, t, A, GH32) for f in family for t in (0.37, 2.0, 4.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(2, f"scale identity: residual {worst:.2e} < 1e-10, {elapsed:.2f}s < 1s", ok)


def test_criterion_03_constant_coefficient_exactness():
    start = time.perf_counter()
    u0 = GridField.from_function(((-9.2, 9.2),), 512, lambda x: np.cos(x[:, 0]))
    worst_exact, worst_pair = 0.0, 0.0
    for c in (0.0, -1.0):
        op = constant_op(c, contractive=True)
        plan1 = ChernoffPlan(t_final=1.0, steps=1, quad=GH32, op=op)
        mask = u0.interior_mask(plan1.required_margin())
        exact = exact_constant_solution(1.0, 0.5, c, 1.0, 1.0, u0.axes[0][mask])
        fields = {}
        for n in (1, 4, 16):
            plan = ChernoffPlan(t_final=1.0, steps=n, quad=GH32, op=op)
            fields[n] = chernoff_solve(plan, u0).field.values[mask]
            worst_exact = max(worst_exact, float(np.max(np.abs(fields[n] - exact))))
        worst_pair = max(worst_pair, float(np.max(np.abs(fields[1] - fields[16]))))
    elapsed = time.perf_counter() - start
    ok = worst_exact < 1e-5 and worst_pair < 5e-7 and elapsed < 30.0
    report(
        3,
        f"constant coefficients: error vs exact {worst_exact:.2e} < 1e-5, "
        f"n=1 vs n=16 gap {worst_pair:.2e} < 5e-7, {elapsed:.1f}s < 30s",
        ok,
    )


def test_criterion_04_variable_coefficient_convergence(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "converge.csv"
    code = main(["converge", "--config", str(CONFIG_DIR / "converge_variable_g.json"), "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith(("#", "n,"))]
    ns = [int(r[0]) for r in rows]
    errors = [float(r[1]) for r in rows]
    elapsed = time.perf_counter() - start
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    ok = ns == [4, 8, 16, 32, 64] and decreasing and errors[-1] < errors[0] / 3.0 and elapsed < 300.0
    report(
        4,
        f"variable-g convergence: errors {['%.2e' % e for e in errors]} strictly decreasing, "
        f"error(64) {errors[-1]:.2e} < error(4)/3 {errors[0] / 3:.2e}, {elapsed:.1f}s < 300s",
        ok,
    )


def test_criterion_05_tangency():
    start = time.perf_counter()
    suite = smooth_suite()
    drift_co = Coefficients(
        g=CylFunction.constant(1.3, 1),
        B=(CylFunction.constant(0.8, 1),),
        C=CylFunction.constant(-0.4, 1),
        g_floor=1.3,
    )
    pairs = [
        (variable_diffusion_op(), suite[0]),
        (variable_diffusion_op(), suite[3]),
        (variable_diffusion_op(), suite[5]),
        (variable_diffusion_op(), suite[7]),
        (OperatorL(coeffs=drift_co, A=TraceClassOperator([0.5])), suite[2]),
    ]
    grid = np.linspace(-3.0, 3.0, 61)[:, None]
    all_decreasing = True
    sequences = []
    for op, phi in pairs:
        residuals = [tangency_residual(op, phi, tau, grid, GH32) for tau in (1e-1, 1e-2, 1e-3)]
        sequences.append(residuals)
        all_decreasing &= residuals[0] > residuals[1] > residuals[2]
    elapsed = time.perf_counter() - start
    ok = all_decreasing and elapsed < 30.0
    worst_tail = max(seq[-1] for seq in sequences)
    report(
        5,
        f"tangency: residuals strictly decrease over tau=1e-1,1e-2,1e-3 for 5 functions "
        f"(one with constant drift), worst at 1e-3 is {worst_tail:.2e}, {elapsed:.1f}s < 30s",
        ok,
    )


def test_criterion_06_norm_bound():
    start = time.perf_counter()
    co = Coefficients(
        g=CylFunction.constant(1.0, 1),
        B=(CylFunction.constant(1.0, 1),),
        C=CylFunction.constant(-1.0, 1),
        g_floor=1.0,
    )
    op = OperatorL(coeffs=co, A=TraceClassOperator([0.5]))
    worst = -np.inf
    for i in range(20):
        rng = philox_generator(0, (8800 + i,))
        u = GridField(bounds=((-8.0, 8.0),), values=rng.uniform(-1.0, 1.0, 257))
        ratio, bound = norm_bound_check(op, 0.2, u, GH32)
        worst = max(worst, ratio - bound)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report(
        6,
        f"norm bound (g0=1, B0=1, |C|=1): worst ratio-bound {worst:.2e} <= 1e-8 "
        f"over 20 random fields, {elapsed:.1f}s < 30s",
        ok,
    )


def test_criterion_07_contractivity_across_the_config_suite():
    checked = []
    ok = True
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = load_config(path)
        if not (config.coefficients.drift_is_zero and config.coefficients.contractive):
            continue
        u0 = config.initial_field()
        result = chernoff_solve(config.plan(config.steps[-1]), u0)
        excess = float(np.max(result.interior_sup_norms)) - u0.sup_norm
        checked.append((config.problem, excess))
        ok &= excess <= 1e-8
    ok &= len(checked) >= 3
    report(
        7,
        "contractivity (B=0, C<=0): interior sup never grows; worst excess "
        + ", ".join(f"{name}: {excess:.1e}" for name, excess in checked),
        ok,
    )


def test_criterion_08_dissipativity_and_resolvent():
    op = variable_diffusion_op()
    grid = np.linspace(-8.0, 8.0, 2001)[:, None]
    witness_worst = -np.inf
    for f in smooth_suite():
        for lam in (0.5, 1.0, 2.0):
            lhs, rhs = dissipativity_witness(op, f, lam, grid)
            witness_worst = max(witness_worst, rhs - lhs)

    problem = FDProblem(
        dim=1,
        coeffs=op.coeffs,
        A=op.A,
        bounds=((-np.pi, np.pi),),
        points_per_axis=1025,
        t_final=1.0,
        time_steps=1,
    )
    resolvent_worst = -np.inf
    for f in smooth_suite():
        for lam in (0.5, 1.0, 2.0):
            solution = resolvent_solve(problem, lam, f)
            rhs_sup = float(np.max(np.abs(f(solution.axes[0][:, None]))))
            resolvent_worst = max(resolvent_worst, solution.sup_norm - rhs_sup / lam)
    ok = witness_worst <= 1e-6 and resolvent_worst <= 1e-8
    report(
        8,
        f"dissipativity: witness slack {witness_worst:.2e} <= 1e-6 and resolvent "
        f"max-principle excess {resolvent_worst:.2e} <= 1e-8 for 10 functions x lambda in {{0.5,1,2}}",
        ok,
    )


def test_criterion_09_coefficient_continuity():
    base = variable_diffusion_op(c_value=-0.2)
    u0 = GridField.from_function(((-8.4, 8.4),), 512, lambda x: np.cos(x[:, 0]))
    plan = ChernoffPlan(t_final=0.5, steps=8, quad=GH32, op=base)
    gaps = []
    for delta in (1e-1, 1e-2, 1e-3):
        perturbed_co = Coefficients(
            g=CylFunction(
                dim=1,
                eval=lambda x, d=delta: 1.0 + d + 0.5 * np.sin(x[:, 0]),
                sup_bound=1.5 + delta,
            ),
            B=None,
            C=CylFunction.constant(-0.2 - delta, 1),
            g_floor=0.5 + delta,
            contractive=True,
        )
        perturbed = OperatorL(coeffs=perturbed_co, A=TraceClassOperator([0.5]))
        gaps.append(coefficient_continuity_probe(base, perturbed, plan, u0))
    decreasing = gaps[0] > gaps[1] > gaps[2]
    ok = decreasing and gaps[2] < 1e-2
    report(
        9,
        f"coefficient continuity: gaps {['%.2e' % g for g in gaps]} strictly decreasing "
        f"and gap(1e-3) {gaps[2]:.2e} < 1e-2",
        ok,
    )


def test_criterion_10_reproducibility_and_exit_codes(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    config = str(CONFIG_DIR / "verify_default.json")
    code_a = main(["verify", "--config", config, "--out", str(first)])
    code_b = main(["verify", "--config", config, "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()

    negative_out = tmp_path / "neg.csv"
    negative = str(CONFIG_DIR / "verify_negative_control.json")
    code_neg = main(["verify", "--config", negative, "--out", str(negative_out)])
    rows = [
        line.split(",")
        for line in negative_out.read_text().splitlines()
        if not line.startswith(("#", "name,"))
    ]
    flagged = {r[0] for r in rows if r[3] == "false"}

    broken = tmp_path / "broken.json"
    data = json.loads(Path(config).read_text())
    data["steps"] = [8, 8]
    broken.write_text(json.dumps(data))
    code_cfg = main(["verify", "--config", str(broken), "--out", str(tmp_path / "c.csv")])

    ok = (
        code_a == 0
        and code_b == 0
        and identical
        and code_neg == 1
        and flagged == {"contractivity"}
        and code_cfg == 2
    )
    report(
        10,
        f"reproducibility: verify twice byte-identical={identical}, exit codes "
        f"(pass={code_a}, negative control={code_neg} flagging {sorted(flagged)}, config error={code_cfg})",
        ok,
    )
