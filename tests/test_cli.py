"""Command-line contract: CSV shapes, exit codes, reproducibility."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gausspde.cli import main
from gausspde.config import load_config
from gausspde.engine import chernoff_solve
from gausspde.oracle import exact_constant_solution

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def read_csv(path):
    metadata, header, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            metadata[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return metadata, header, rows


def write_config(tmp_path, data, name="experiment.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


def fast_verify_dict():
    return {
        "problem": "verify-fast",
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


def test_solve_writes_field_matching_the_exact_solution(tmp_path):
    out = tmp_path / "field.csv"
    code = main(["solve", "--config", str(CONFIG_DIR / "solve_constant.json"), "--out", str(out)])
    assert code == 0
    metadata, header, rows = read_csv(out)
    assert header == ["x1", "u"]
    assert metadata["command"] == "solve"
    assert metadata["t"] == "1" and metadata["n"] == "16"
    assert metadata["backend"] == "gauss_hermite" and metadata["seed"] == "0"
    assert len(metadata["sup_norms"].split()) == 16
    assert len(rows) == 512
    x = np.array([float(r[0]) for r in rows])
    u = np.array([float(r[1]) for r in rows])
    interior = np.abs(x) <= 3.19
    exact = exact_constant_solution(1.0, 0.5, -1.0, 1.0, 1.0, x[interior])
    assert np.max(np.abs(u[interior] - exact)) < 1e-5


def test_solve_constant_unit_field_stays_at_one(tmp_path):
    data = fast_verify_dict()
    data["problem"] = "unit"
    data["coefficients"] = {
        "g": {"kind": "constant", "value": 1.0},
        "C": {"kind": "constant", "value": 0.0},
        "contractive": True,
    }
    data["initial"] = {"kind": "constant", "value": 1.0}
    data["steps"] = [4]
    path = write_config(tmp_path, data)
    out = tmp_path / "unit.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    u = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(u - 1.0)) < 1e-9


def test_solve_output_falls_back_to_the_config_key(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = fast_verify_dict()
    data["steps"] = [2]
    data["output"] = "out/field.csv"
    path = write_config(tmp_path, data)
    assert main(["solve", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "field.csv").exists()


def test_malformed_config_exits_2_naming_the_field(tmp_path, capsys):
    data = fast_verify_dict()
    data["steps"] = [8, 4]
    path = write_config(tmp_path, data)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert "steps" in capsys.readouterr().err

    data = fast_verify_dict()
    data["grid"]["spacing"] = 0.5
    path = write_config(tmp_path, data)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert "spacing" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert main(["solve", "--config", str(missing), "--out", str(tmp_path / "x.csv")]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_oracle_value_exits_2_naming_the_field(tmp_path, capsys):
    data = json.loads((CONFIG_DIR / "converge_variable_g.json").read_text())
    data["oracle"]["time_steps"] = 0
    path = write_config(tmp_path, data)
    assert main(["converge", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: oracle") and "time_steps" in err
    assert not (tmp_path / "x.csv").exists()


def test_exact_oracle_with_growing_c_exits_2_before_solving(tmp_path, capsys):
    data = json.loads((CONFIG_DIR / "solve_constant.json").read_text())
    data["coefficients"]["C"]["value"] = 0.5
    data["coefficients"]["contractive"] = False
    path = write_config(tmp_path, data)
    assert main(["converge", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: coefficients.C")
    assert not (tmp_path / "x.csv").exists()


def test_engine_failure_exits_3(tmp_path, capsys):
    data = fast_verify_dict()
    data["grid"] = {"bounds": [[-2.0, 2.0]], "points_per_axis": 64, "boundary_mode": "clamp"}
    path = write_config(tmp_path, data)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 3
    assert "runtime error" in capsys.readouterr().err


def test_converge_constant_coefficients_is_flat_at_noise_level(tmp_path):
    out = tmp_path / "errors.csv"
    code = main(["converge", "--config", str(CONFIG_DIR / "solve_constant.json"), "--out", str(out)])
    assert code == 0
    metadata, header, rows = read_csv(out)
    assert header == ["n", "sup_error_vs_oracle", "runtime_ms"]
    assert metadata["oracle"] == "exact_constant"
    assert [r[0] for r in rows] == ["1", "4", "16"]
    errors = [float(r[1]) for r in rows]
    assert max(errors) < 1e-6
    assert all(float(r[2]) >= 0.0 for r in rows)


def test_converge_single_step_row_equals_a_direct_run(tmp_path):
    config_path = CONFIG_DIR / "solve_constant.json"
    data = json.loads(config_path.read_text())
    data["steps"] = [1]
    path = write_config(tmp_path, data)
    out = tmp_path / "single.csv"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 1

    config = load_config(path)
    u0 = config.grid
    mask = u0.interior_mask(config.plan(1).required_margin())
    result = chernoff_solve(config.plan(1), u0)
    exact = exact_constant_solution(1.0, 0.5, -1.0, 1.0, 1.0, u0.axes[0][mask])
    direct = float(np.max(np.abs(result.field.values[mask] - exact)))
    assert float(rows[0][1]) == pytest.approx(direct, abs=1e-15)


def test_converge_requires_an_oracle(tmp_path, capsys):
    data = fast_verify_dict()
    path = write_config(tmp_path, data)
    assert main(["converge", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert "oracle" in capsys.readouterr().err


def test_converge_exits_2_when_the_oracle_box_misses_the_interior(tmp_path, capsys):
    data = json.loads((CONFIG_DIR / "converge_variable_g.json").read_text())
    # inside the grid, but within the padding; symmetric about -2 pi, so cos x fits the periodic box
    data["oracle"]["bounds"] = [[-7.0, 7.0 - 4.0 * math.pi]]
    path = write_config(tmp_path, data)
    assert main(["converge", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: oracle.bounds") and "no engine interior points" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
def test_initial_field_off_the_oracle_boundary_exits_2_before_solving(tmp_path, capsys, boundary):
    data = json.loads((CONFIG_DIR / "converge_variable_g.json").read_text())
    data["initial"] = {"kind": "gaussian_bump", "center": [1.0]}
    data["oracle"]["boundary"] = boundary
    path = write_config(tmp_path, data)
    assert main(["converge", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: oracle: ")
    assert ("wrapped endpoints" if boundary == "periodic" else "boundary_value") in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("boundary, wavenumber", [("periodic", 1.0), ("dirichlet", 0.5)], ids=["periodic", "dirichlet"])
def test_converge_against_crank_nicolson_equals_direct_runs(tmp_path, boundary, wavenumber):
    # cos(x/2) vanishes at the Dirichlet box's edges -pi and pi, so it fits boundary_value 0
    data = json.loads((CONFIG_DIR / "converge_variable_g.json").read_text())
    data["grid"]["points_per_axis"] = 256
    data["steps"] = [4, 8]
    data["initial"]["wavenumber"] = wavenumber
    data["oracle"].update(points_per_axis=256, time_steps=100, boundary=boundary)
    path = write_config(tmp_path, data)
    out = tmp_path / "errors.csv"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == 0
    metadata, _, rows = read_csv(out)
    assert metadata["oracle"] == "crank_nicolson"
    assert [r[0] for r in rows] == ["4", "8"]

    config = load_config(path)
    u0 = config.grid
    mask = u0.interior_mask(config.plan(8).required_margin()).ravel() & (np.abs(u0.axes[0]) <= math.pi)
    points = u0.meshpoints()[mask]
    reference = config.oracle.values(config.initial, points)
    for n, row in zip((4, 8), rows):
        direct = float(np.max(np.abs(chernoff_solve(config.plan(n), u0).field.values.ravel()[mask] - reference)))
        assert float(row[1]) == pytest.approx(direct, abs=1e-15)


def test_missing_output_exits_2_naming_the_key(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, fast_verify_dict())
    assert main(["solve", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: output")
    assert list(tmp_path.iterdir()) == [path]


def test_verify_passes_and_is_byte_identical(tmp_path):
    path = write_config(tmp_path, fast_verify_dict())
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["verify", "--config", str(path), "--out", str(first)]) == 0
    assert main(["verify", "--config", str(path), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    metadata, header, rows = read_csv(first)
    assert header == ["name", "measured", "threshold", "pass"]
    assert len(rows) == 8
    assert all(r[3] == "true" for r in rows)
    # 17 significant digits: values round-trip through the text form
    for r in rows:
        assert float(r[1]) == float(format(float(r[1]), ".17g"))


def test_verify_negative_control_flags_contractivity(tmp_path):
    data = json.loads((CONFIG_DIR / "verify_negative_control.json").read_text())
    data["quadrature"]["samples"] = 50000
    path = write_config(tmp_path, data)
    out = tmp_path / "neg.csv"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 1
    _, _, rows = read_csv(out)
    by_name = {r[0]: r for r in rows}
    assert by_name["contractivity"][3] == "false"
    assert float(by_name["contractivity"][1]) == pytest.approx(math.exp(0.25) - 1.0, abs=1e-6)
    for name, row in by_name.items():
        if name != "contractivity":
            assert row[3] == "true", name


def test_seed_flag_overrides_the_config_seed(tmp_path):
    data = fast_verify_dict()
    data["steps"] = [4]
    data["quadrature"] = {"backend": "monte_carlo", "samples": 2000, "rng_seed": 0}
    path = write_config(tmp_path, data)
    outs = [tmp_path / name for name in ("s7a.csv", "s7b.csv", "s8.csv")]
    assert main(["solve", "--config", str(path), "--out", str(outs[0]), "--seed", "7"]) == 0
    assert main(["solve", "--config", str(path), "--out", str(outs[1]), "--seed", "7"]) == 0
    assert main(["solve", "--config", str(path), "--out", str(outs[2]), "--seed", "8"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() != outs[2].read_bytes()
    metadata, _, _ = read_csv(outs[0])
    assert metadata["seed"] == "7"


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    out = tmp_path / "field.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "gausspde.cli",
            "solve",
            "--config",
            str(CONFIG_DIR / "solve_constant.json"),
            "--out",
            str(out),
            "--threads",
            "2",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("threads", ["0", "-5", "two"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    out = tmp_path / "field.csv"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(CONFIG_DIR / "solve_constant.json"), "--out", str(out), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_solve_and_verify_never_load_superlu(tmp_path):
    # only the finite-difference oracles factor a matrix, so importing the package, a solve and
    # the verify battery leave scipy.sparse.linalg (SuperLU, about 8 MB of RSS) unloaded
    script = (
        "import sys, gausspde\n"
        "for command, config in [('solve', 'converge_variable_g'), ('verify', 'verify_default')]:\n"
        "    assert gausspde.main([command, '--config', f'{sys.argv[1]}/{config}.json', '--out', sys.argv[2]]) == 0\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(CONFIG_DIR), str(tmp_path / "out.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"


def test_package_runs_as_a_module_without_warnings(tmp_path):
    out = tmp_path / "field.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-W",
            "always",
            "-m",
            "gausspde",
            "solve",
            "--config",
            str(CONFIG_DIR / "solve_constant.json"),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert out.exists()
