"""Verification battery: row names, pass/fail semantics, determinism."""

import math

import numpy as np
import pytest

from gausspde import battery, engine
from gausspde.battery import CheckResult, run_battery, smooth_suite
from gausspde.config import ConfigError, parse_config
from gausspde.engine import GridField, apply_S, norm_bound_check
from gausspde.gauss import philox_generator

EXPECTED_NAMES = (
    "gaussian_identities",
    "scale_identity",
    "tangency_decrease",
    "norm_bound",
    "contractivity",
    "dissipativity_witness",
    "constant_coefficient_exactness",
    "coefficient_continuity",
)


def battery_config(**overrides):
    data = {
        "problem": "battery",
        "eigenvalues": [0.5],
        "coefficients": {
            "g": {"kind": "one_plus_half_sin"},
            "C": {"kind": "constant", "value": -0.3},
            "contractive": True,
        },
        "initial": {"kind": "cosine", "wavenumber": 1.0},
        "t_final": 0.5,
        "steps": [8],
        "grid": {"bounds": [[-8.4, 8.4]], "points_per_axis": 512, "boundary_mode": "clamp"},
        "quadrature": {"backend": "gauss_hermite", "nodes_per_dim": 32, "samples": 50000},
    }
    data.update(overrides)
    return parse_config(data)


def negative_control_config():
    return battery_config(
        problem="battery-negative",
        coefficients={
            "g": {"kind": "constant", "value": 1.0},
            "C": {"kind": "constant", "value": 0.5},
            "contractive": False,
        },
        initial={"kind": "constant", "value": 1.0},
    )


def test_smooth_suite_has_ten_bounded_members():
    suite = smooth_suite()
    assert len(suite) == 10
    x = np.linspace(-6.0, 6.0, 201)[:, None]
    for f in suite:
        vals = f(x)
        assert np.all(np.abs(vals) <= f.sup_bound + 1e-12)
        assert f.grad is not None and f.hess is not None


def test_battery_rows_in_report_order_and_all_pass():
    rows = run_battery(battery_config())
    assert tuple(r.name for r in rows) == EXPECTED_NAMES
    for row in rows:
        assert isinstance(row, CheckResult)
        assert math.isfinite(row.measured)
        assert row.passed, f"{row.name}: measured {row.measured} vs threshold {row.threshold}"


def test_negative_control_flips_exactly_the_contractivity_row():
    rows = run_battery(negative_control_config())
    by_name = {r.name: r for r in rows}
    assert not by_name["contractivity"].passed
    # a growth factor of exp(0.5 * 0.5) on a unit field
    assert by_name["contractivity"].measured == pytest.approx(math.exp(0.25) - 1.0, abs=1e-6)
    for name in EXPECTED_NAMES:
        if name != "contractivity":
            assert by_name[name].passed, name


def test_battery_rejects_drift_configurations():
    cfg = battery_config(
        coefficients={
            "g": {"kind": "constant", "value": 1.0},
            "B": [{"kind": "constant", "value": 0.5}],
            "C": {"kind": "constant", "value": -0.3},
        },
    )
    with pytest.raises(ConfigError, match="drift-free"):
        run_battery(cfg)


def test_battery_is_deterministic_for_a_fixed_seed():
    first = run_battery(battery_config())
    second = run_battery(battery_config())
    assert first == second


def test_battery_deterministic_with_monte_carlo_backend():
    cfg = battery_config(
        quadrature={"backend": "monte_carlo", "samples": 2000, "rng_seed": 11},
        steps=[4],
    )
    first = run_battery(cfg)
    second = run_battery(cfg)
    assert first == second
    shifted = run_battery(cfg.with_seed(12))
    assert any(a.measured != b.measured for a, b in zip(first, shifted))


@pytest.mark.parametrize("backend", ["gauss_hermite", "monte_carlo"])
def test_norm_bound_row_builds_one_step_for_its_twenty_fields(monkeypatch, backend):
    config = battery_config(quadrature={"backend": backend, "samples": 2000, "rng_seed": 5})
    built = []

    class CountingStep(engine._Step):
        def __init__(self, *args, **kwargs):
            built.append(args[2].values.shape)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "_Step", CountingStep)
    row = battery._check_norm_bound(config)
    assert built == [(257,)]
    # the same fields, one apply_S (and one step) each, give the same value bit for bit
    op = battery._operator(1.0, -1.0, drift=1.0)
    worst = -math.inf
    for i in range(20):
        rng = philox_generator(5, (8800 + i,))
        u = GridField(bounds=((-8.0, 8.0),), values=rng.uniform(-1.0, 1.0, 257))
        _, bound = norm_bound_check(op, 0.2, [u], config.quadrature)
        worst = max(worst, apply_S(op, 0.2, u, config.quadrature).sup_norm / u.sup_norm - bound)
    assert len(built) == 1 + 20 + 20
    assert row.measured == worst
    assert row.passed


def test_norm_bound_check_needs_fields_on_one_grid():
    op = battery._operator(1.0, -1.0, drift=1.0)
    quad = battery_config().quadrature
    u = GridField(bounds=((-8.0, 8.0),), values=np.cos(np.linspace(-8.0, 8.0, 257)))
    for other in (
        GridField(bounds=((-8.0, 8.5),), values=u.values),
        GridField(bounds=u.bounds, values=u.values[:256]),
        GridField(bounds=u.bounds, values=u.values, boundary_mode="constant"),
    ):
        with pytest.raises(ValueError, match="same grid"):
            norm_bound_check(op, 0.2, [u, other], quad)
    with pytest.raises(ValueError, match="at least one field"):
        norm_bound_check(op, 0.2, [], quad)


def test_coefficient_continuity_row_solves_the_base_operator_once(monkeypatch):
    solved = []
    solve = engine.chernoff_solve
    monkeypatch.setattr(engine, "chernoff_solve", lambda plan, *a, **k: solved.append(plan.op) or solve(plan, *a, **k))
    row = battery._check_coefficient_continuity(battery_config())
    assert len(solved) == 4
    assert len(set(map(id, solved))) == 4
    assert row.passed
