"""Configuration parsing: registries, validation, diagnostics naming fields."""

import copy
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausspde.config import ConfigError, load_config, parse_config
from gausspde.engine import ChernoffPlan, GridField
from gausspde.gauss import QuadratureSpec
from gausspde.oracle import ExactConstant, FDProblem


def base_dict():
    return {
        "problem": "demo",
        "eigenvalues": [0.5],
        "coefficients": {
            "g": {"kind": "constant", "value": 1.0},
            "C": {"kind": "constant", "value": -1.0},
            "contractive": True,
        },
        "initial": {"kind": "cosine", "wavenumber": 1.0},
        "t_final": 1.0,
        "steps": [1, 4, 16],
        "grid": {"bounds": [[-9.2, 9.2]], "points_per_axis": 512},
        "quadrature": {"backend": "gauss_hermite", "nodes_per_dim": 32},
        "oracle": {"kind": "exact_constant"},
        "output": "out/demo.csv",
    }


def variant(**updates):
    data = copy.deepcopy(base_dict())
    data.update(updates)
    return data


def test_parse_round_trip():
    cfg = parse_config(base_dict())
    assert cfg.problem == "demo"
    assert cfg.dim == 1
    assert cfg.eigenvalues == (0.5,)
    assert cfg.steps == (1, 4, 16)
    assert cfg.coefficients.drift_is_zero
    assert cfg.coefficients.contractive
    assert cfg.grid.boundary_mode == "clamp"
    assert cfg.quadrature.backend == "gauss_hermite"
    assert cfg.interpolation == "cubic"
    assert cfg.oracle.kind == "exact_constant"
    assert cfg.output == "out/demo.csv"


def test_grid_boundary_mode_defaults_to_the_library_default():
    cfg = parse_config(base_dict())
    assert cfg.grid.boundary_mode == "clamp" == GridField.__dataclass_fields__["boundary_mode"].default
    assert cfg.grid.boundary_value == 0.0
    data = base_dict()
    data["grid"]["boundary_mode"] = "constant"
    assert parse_config(data).grid.boundary_mode == "constant"


def test_helpers_build_runnable_objects():
    cfg = parse_config(base_dict())
    op = cfg.operator()
    assert op.dim == 1 and float(op.q[0]) == 0.5
    u0 = cfg.grid
    assert isinstance(u0, GridField)
    assert u0.points_per_axis == 512
    assert_allclose(u0.values, np.cos(u0.axes[0]), atol=1e-14)
    plan = cfg.plan(4)
    assert isinstance(plan, ChernoffPlan)
    assert plan.tau == pytest.approx(0.25)


def test_with_seed_overrides_only_the_seed():
    cfg = parse_config(base_dict())
    other = cfg.with_seed(99)
    assert other.quadrature.rng_seed == 99
    assert other.quadrature.backend == cfg.quadrature.backend
    assert cfg.quadrature.rng_seed == 0


def test_unknown_keys_are_rejected_with_names():
    with pytest.raises(ConfigError, match="telemetry"):
        parse_config(variant(telemetry=True))
    data = base_dict()
    data["grid"]["spacing"] = 0.1
    with pytest.raises(ConfigError, match="grid.*spacing"):
        parse_config(data)
    data = base_dict()
    data["coefficients"]["g"]["scale"] = 2.0
    with pytest.raises(ConfigError, match="coefficients.g"):
        parse_config(data)


def test_missing_required_key_names_the_field():
    data = base_dict()
    del data["t_final"]
    with pytest.raises(ConfigError, match="t_final"):
        parse_config(data)
    data = base_dict()
    del data["coefficients"]["C"]
    with pytest.raises(ConfigError, match="coefficients.C"):
        parse_config(data)


def test_steps_must_increase_strictly():
    with pytest.raises(ConfigError, match="steps"):
        parse_config(variant(steps=[4, 4, 8]))
    with pytest.raises(ConfigError, match="steps"):
        parse_config(variant(steps=[8, 4]))
    with pytest.raises(ConfigError, match="steps"):
        parse_config(variant(steps=[0, 4]))


def test_eigenvalues_validated():
    with pytest.raises(ConfigError, match="eigenvalues"):
        parse_config(variant(eigenvalues=[-0.5]))
    with pytest.raises(ConfigError, match="eigenvalues"):
        parse_config(variant(eigenvalues=[0.25, 0.5]))


def test_unknown_registry_kinds():
    data = base_dict()
    data["coefficients"]["g"] = {"kind": "polynomial", "coefs": [1.0]}
    with pytest.raises(ConfigError, match="kind"):
        parse_config(data)
    data = base_dict()
    data["initial"] = {"kind": "sawtooth"}
    with pytest.raises(ConfigError, match="initial.kind"):
        parse_config(data)
    data = base_dict()
    data["oracle"] = {"kind": "spectral"}
    with pytest.raises(ConfigError, match="oracle.kind"):
        parse_config(data)


def test_one_plus_half_sin_coefficient():
    data = variant(oracle=None)
    data["coefficients"]["g"] = {"kind": "one_plus_half_sin"}
    data["coefficients"]["C"] = {"kind": "constant", "value": 0.0}
    cfg = parse_config(data)
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    assert_allclose(cfg.coefficients.g_at(x), 1.0 + 0.5 * np.sin(x[:, 0]), atol=1e-15)
    assert cfg.coefficients.g_max == 1.5
    assert cfg.coefficients.g_floor == 0.5


def test_table_coefficient_interpolates_and_clamps():
    data = variant(oracle=None)
    data["coefficients"]["g"] = {"kind": "table", "x": [-1.0, 0.0, 2.0], "y": [1.0, 2.0, 4.0]}
    cfg = parse_config(data)
    pts = np.array([[-1.0], [-0.5], [1.0], [5.0]])
    assert_allclose(cfg.coefficients.g_at(pts), [1.0, 1.5, 3.0, 4.0], atol=1e-15)
    assert cfg.coefficients.g_floor == 1.0


def test_table_coefficient_validation():
    data = variant(oracle=None)
    data["coefficients"]["g"] = {"kind": "table", "x": [0.0, 0.0], "y": [1.0, 1.0]}
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config(data)
    data = variant(oracle=None)
    data["coefficients"]["g"] = {"kind": "table", "x": [0.0, 1.0], "y": [1.0]}
    with pytest.raises(ConfigError, match="equal length"):
        parse_config(data)
    data = variant(oracle=None)
    data["coefficients"]["g"] = {"kind": "table", "x": [0.0, 1.0], "y": [0.0, -1.0]}
    with pytest.raises(ConfigError, match="g_floor"):
        parse_config(data)


def test_drift_components_match_dimension():
    data = variant(oracle=None)
    data["coefficients"]["B"] = [{"kind": "constant", "value": 0.8}]
    data["coefficients"]["contractive"] = False
    cfg = parse_config(data)
    assert not cfg.coefficients.drift_is_zero
    assert cfg.coefficients.drift_norm == pytest.approx(0.8)
    data["coefficients"]["B"] = [{"kind": "constant", "value": 0.8}] * 2
    with pytest.raises(ConfigError, match="B"):
        parse_config(data)


def test_initial_condition_registry():
    data = variant(oracle=None, initial={"kind": "gaussian_bump", "width": 0.5, "center": [1.0]})
    cfg = parse_config(data)
    fn = cfg.initial
    assert_allclose(fn(np.array([[1.0]])), [1.0], atol=1e-15)
    assert_allclose(fn(np.array([[0.0]])), [math.exp(-2.0)], rtol=1e-15)

    data = variant(oracle=None, initial={"kind": "constant", "value": 3.5})
    fn = parse_config(data).initial
    assert_allclose(fn(np.zeros((4, 1))), np.full(4, 3.5))

    data = variant(oracle=None, initial={"kind": "gaussian_bump", "center": [0.0, 0.0]})
    with pytest.raises(ConfigError, match="center"):
        parse_config(data)


def test_cosine_initial_is_a_product_across_axes():
    data = variant(
        oracle=None,
        eigenvalues=[0.5, 0.25],
        grid={"bounds": [[-8.0, 8.0], [-8.0, 8.0]], "points_per_axis": 16},
    )
    cfg = parse_config(data)
    fn = cfg.initial
    pts = np.array([[0.3, -0.7], [1.1, 0.2]])
    assert_allclose(fn(pts), np.cos(pts[:, 0]) * np.cos(pts[:, 1]), atol=1e-15)


def test_exact_constant_oracle_requires_constant_problem():
    data = base_dict()
    data["coefficients"]["g"] = {"kind": "one_plus_half_sin"}
    data["coefficients"]["contractive"] = False
    with pytest.raises(ConfigError, match="exact_constant"):
        parse_config(data)
    data = variant(initial={"kind": "constant", "value": 1.0})
    with pytest.raises(ConfigError, match="cosine"):
        parse_config(data)


def test_crank_nicolson_oracle_fields():
    data = variant(
        oracle={
            "kind": "crank_nicolson",
            "bounds": [[-math.pi, math.pi]],
            "points_per_axis": 256,
            "time_steps": 100,
        }
    )
    cfg = parse_config(data)
    assert cfg.oracle.boundary == "periodic"
    assert cfg.oracle.points_per_axis == 256
    for missing in ("bounds", "points_per_axis", "time_steps"):
        data = variant(
            oracle={
                "kind": "crank_nicolson",
                "bounds": [[-math.pi, math.pi]],
                "points_per_axis": 256,
                "time_steps": 100,
            }
        )
        del data["oracle"][missing]
        with pytest.raises(ConfigError, match=f"oracle.{missing}"):
            parse_config(data)


def cn_oracle(**updates):
    oracle = {"kind": "crank_nicolson", "bounds": [[-math.pi, math.pi]], "points_per_axis": 256, "time_steps": 100}
    oracle.update(updates)
    return oracle


def with_section(section, **updates):
    data = base_dict()
    data[section].update(updates)
    return data


BAD_VALUES = {
    "grid_single_point": (with_section("grid", points_per_axis=1), r"^grid\b.*points_per_axis"),
    "grid_negative_points": (with_section("grid", points_per_axis=-3), r"^grid\b.*points_per_axis"),
    "oracle_few_points": (variant(oracle=cn_oracle(points_per_axis=4)), r"^oracle\b.*points_per_axis"),
    "oracle_no_time_steps": (variant(oracle=cn_oracle(time_steps=0)), r"^oracle\b.*time_steps"),
    "oracle_neumann": (variant(oracle=cn_oracle(boundary="neumann")), r"^oracle\b.*boundary"),
    "oracle_three_axes": (
        variant(
            eigenvalues=[0.5, 0.25, 0.125],
            grid={"bounds": [[-9.0, 9.0]] * 3, "points_per_axis": 8},
            oracle=cn_oracle(bounds=[[-3.0, 3.0]] * 3),
        ),
        r"^oracle\b.*1 or 2",
    ),
    "t_final_zero": (variant(t_final=0), r"t_final"),
    "g_floor_negative": (with_section("coefficients", g_floor=-1), r"^coefficients\b.*g_floor"),
    "exact_oracle_growing_c": (
        with_section("coefficients", C={"kind": "constant", "value": 0.5}, contractive=False),
        r"^coefficients\.C\b",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_bad_values_raise_config_errors_naming_the_field(name):
    data, message = BAD_VALUES[name]
    with pytest.raises(ConfigError, match=message):
        parse_config(data)


def test_grid_is_the_initial_field_with_the_library_defaults():
    cfg = parse_config(base_dict())
    assert isinstance(cfg.grid, GridField)
    assert cfg.grid.bounds == ((-9.2, 9.2),) and cfg.grid.points_per_axis == 512
    quad = parse_config(variant(quadrature={"backend": "monte_carlo"})).quadrature
    assert quad == QuadratureSpec(backend="monte_carlo")
    assert parse_config(variant(oracle=cn_oracle())).oracle.boundary == FDProblem.boundary


def test_crank_nicolson_oracle_is_the_fd_problem_of_its_section():
    # cos(x / 2) is 0 at +-pi, so it fits the Dirichlet box
    data = variant(oracle=cn_oracle(boundary="dirichlet"), initial={"kind": "cosine", "wavenumber": 0.5})
    cfg = parse_config(data)
    problem = cfg.oracle
    assert isinstance(problem, FDProblem) and problem.kind == "crank_nicolson"
    assert problem.bounds == ((-math.pi, math.pi),)
    assert (problem.points_per_axis, problem.time_steps, problem.boundary) == (256, 100, "dirichlet")
    assert problem.t_final == cfg.t_final and problem.coeffs is cfg.coefficients


def test_exact_constant_oracle_is_the_closed_form():
    cfg = parse_config(base_dict())
    assert isinstance(cfg.oracle, ExactConstant) and cfg.oracle.kind == "exact_constant"
    assert cfg.oracle.bounds is None
    x = np.linspace(-1.0, 1.0, 5)
    values = cfg.oracle.values(cfg.initial, x[:, None])
    assert_allclose(values, math.exp(-1.5) * np.cos(x), rtol=1e-15)


def test_grid_and_scalar_validation():
    with pytest.raises(ConfigError, match="t_final"):
        parse_config(variant(t_final=-1.0))
    with pytest.raises(ConfigError, match="t_final"):
        parse_config(variant(t_final="soon"))
    with pytest.raises(ConfigError, match="interpolation"):
        parse_config(variant(interpolation="quintic"))
    data = base_dict()
    data["grid"]["boundary_mode"] = "reflect"
    with pytest.raises(ConfigError, match="boundary_mode"):
        parse_config(data)
    data = base_dict()
    data["grid"]["bounds"] = [[2.0, -2.0]]
    with pytest.raises(ConfigError, match="grid.bounds"):
        parse_config(data)
    data = base_dict()
    data["quadrature"]["backend"] = "simpson"
    with pytest.raises(ConfigError, match="quadrature"):
        parse_config(data)


def test_load_config_file_round_trip(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(base_dict()))
    cfg = load_config(path)
    assert cfg.problem == "demo"

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="missing.json"):
        load_config(tmp_path / "missing.json")
