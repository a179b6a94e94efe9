"""Experiment configuration: JSON schema, registries, strict validation.

A configuration is a single JSON object.  Unknown keys are rejected at every
nesting level and every diagnostic names the offending field or section, so a
typo fails fast instead of silently running a different experiment.

Parsing builds the library's own objects, and each value rule and default
belongs to the type that owns it: the initial section parses, in one branch
per kind, into u0's evaluator (m, dim) -> (m,), which the initial GridField
(section grid) samples; then Coefficients (coefficients), TraceClassOperator
and OperatorL (eigenvalues), QuadratureSpec (quadrature), a ChernoffPlan per
steps entry (t_final, steps, interpolation), and the oracle itself, an
FDProblem or an ExactConstant (oracle), built last on the validated rest; an
FDProblem also checks the initial function on its own grid by fd_solve's edge
rule.  Their ValueError is raised as a ConfigError naming the section, and
optional keys left out take the owning type's default.  This module adds only
structural rules (types, unknown and missing keys, list shapes, lo < hi per
axis, 1 to 4 grid axes, strictly increasing steps) and the exact_constant
oracle's cross-field rules.

Top-level keys::

    problem        str, free-form experiment name (reported in CSV metadata)
    eigenvalues    positive nonincreasing list, the diagonal of A
    coefficients   {"g": <coeff>, "C": <coeff>, "B": [<coeff>, ...]?,
                    "g_floor": float?, "contractive": bool?}
    initial        {"kind": "cosine"|"gaussian_bump"|"constant", ...}
    t_final        float > 0
    steps          strictly increasing list of positive step counts
    grid           {"bounds": [[lo, hi], ...], "points_per_axis": int,
                    "boundary_mode"?: "clamp"|"constant", "boundary_value"?: float}
    quadrature     {"backend": "gauss_hermite"|"monte_carlo", "nodes_per_dim"?,
                    "samples"?, "rng_seed"?}
    interpolation  "cubic"|"linear", optional
    oracle         optional; {"kind": "exact_constant"} (an ExactConstant) or
                   {"kind": "crank_nicolson", "bounds": ..., "points_per_axis": ...,
                    "time_steps": ..., "boundary"?} (an FDProblem)
    output         optional default output path (the --out flag overrides it)

Coefficient registry: {"kind": "constant", "value": v}, {"kind":
"one_plus_half_sin"} for 1 + sin(x_1)/2, and {"kind": "table", "x": [...],
"y": [...]} for piecewise-linear user tables (one axis only, clamped outside
the breakpoints).  The grid axis count fixes the spatial dimension.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Union

import numpy as np

from .cylinder import Coefficients, CylFunction, OperatorL
from .engine import ChernoffPlan, GridField
from .gauss import QuadratureSpec, TraceClassOperator
from .oracle import ExactConstant, FDProblem


class ConfigError(ValueError):
    """Malformed experiment configuration; the message names the offending field."""


_MISSING = object()


def _sub(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _build(path: str, ctor: Callable, *args, **kwargs):
    """ctor(*args, **kwargs); the ValueError of its own checks becomes a ConfigError on `path`."""
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return dict(value)


def _pop(section: dict, key: str, path: str, default=_MISSING):
    if key in section:
        return section.pop(key)
    if default is _MISSING:
        raise ConfigError(f"{_sub(path, key)}: required key is missing")
    return default


def _present(section: dict, path: str, **converters) -> dict:
    """The optional keys the section sets, converted; absent keys keep the owning type's default."""
    present = [key for key in converters if key in section]
    return {key: converters[key](section.pop(key), _sub(path, key)) for key in present}


def _no_extras(section: dict, path: str):
    if section:
        names = ", ".join(repr(k) for k in sorted(section))
        raise ConfigError(f"{path}: unknown key(s) {names}")


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: expected a finite number")
    return out


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false")
    return value


def _float_list(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of numbers")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


# ------------------------------------------------------------------ registries


def _build_scalar(raw, dim: int, path: str) -> tuple[CylFunction, float]:
    """Resolve one coefficient spec; returns (function, its known lower bound)."""
    sec = _mapping(raw, path)
    kind = _as_str(_pop(sec, "kind", path), _sub(path, "kind"))
    if kind == "constant":
        value = _as_float(_pop(sec, "value", path), _sub(path, "value"))
        _no_extras(sec, path)
        return CylFunction.constant(value, dim), value
    if kind == "one_plus_half_sin":
        _no_extras(sec, path)
        fn = CylFunction(dim=dim, eval=lambda x: 1.0 + 0.5 * np.sin(x[:, 0]), sup_bound=1.5)
        return fn, 0.5
    if kind == "table":
        xs = np.array(_float_list(_pop(sec, "x", path), _sub(path, "x")))
        ys = np.array(_float_list(_pop(sec, "y", path), _sub(path, "y")))
        _no_extras(sec, path)
        if dim != 1:
            raise ConfigError(f"{path}: table coefficients support a single axis only")
        if xs.size < 2 or ys.size != xs.size:
            raise ConfigError(f"{path}: x and y must have equal length >= 2")
        if not np.all(np.diff(xs) > 0.0):
            raise ConfigError(f"{_sub(path, 'x')}: breakpoints must be strictly increasing")
        fn = CylFunction(
            dim=1,
            eval=lambda pts: np.interp(pts[:, 0], xs, ys),
            sup_bound=float(np.max(np.abs(ys))),
        )
        return fn, float(np.min(ys))
    raise ConfigError(f"{_sub(path, 'kind')}: unknown coefficient kind {kind!r}")


def _build_coefficients(raw, dim: int, path: str) -> Coefficients:
    sec = _mapping(raw, path)
    g_raw = _pop(sec, "g", path)
    c_raw = _pop(sec, "C", path)
    b_raw = _pop(sec, "B", path, default=None)
    opts = _present(sec, path, g_floor=_as_float, contractive=_as_bool)
    _no_extras(sec, path)

    g_fn, g_min = _build_scalar(g_raw, dim, _sub(path, "g"))
    c_fn, _ = _build_scalar(c_raw, dim, _sub(path, "C"))
    drift = None
    if b_raw is not None:
        if not isinstance(b_raw, list):
            raise ConfigError(f"{_sub(path, 'B')}: expected a list of component specs or null")
        drift = tuple(
            _build_scalar(comp, dim, f"{_sub(path, 'B')}[{i}]")[0] for i, comp in enumerate(b_raw)
        )
    opts.setdefault("g_floor", g_min)
    return _build(path, Coefficients, g=g_fn, B=drift, C=c_fn, **opts)


def _build_initial(raw, dim: int, path: str) -> tuple[Callable[[np.ndarray], np.ndarray], Optional[float]]:
    """u0 as an evaluator (m, dim) -> (m,), and its wavenumber if it is a cosine (else None)."""
    sec = _mapping(raw, path)
    kind = _as_str(_pop(sec, "kind", path), _sub(path, "kind"))
    if kind == "cosine":
        k = _as_float(_pop(sec, "wavenumber", path, default=1.0), _sub(path, "wavenumber"))
        _no_extras(sec, path)
        return (lambda x: np.prod(np.cos(k * x), axis=1)), k
    if kind == "gaussian_bump":
        center = _pop(sec, "center", path, default=None)
        if center is not None:
            center = _float_list(center, _sub(path, "center"))
            if len(center) != dim:
                raise ConfigError(f"{_sub(path, 'center')}: expected {dim} coordinate(s)")
        w = _as_float(_pop(sec, "width", path, default=1.0), _sub(path, "width"))
        _no_extras(sec, path)
        if w <= 0.0:
            raise ConfigError(f"{_sub(path, 'width')}: must be positive")
        c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
        return (lambda x: np.exp(-np.sum((x - c) ** 2, axis=1) / (2.0 * w * w))), None
    if kind == "constant":
        value = _as_float(_pop(sec, "value", path), _sub(path, "value"))
        _no_extras(sec, path)
        return (lambda x: np.full(x.shape[0], value)), None
    raise ConfigError(f"{_sub(path, 'kind')}: unknown initial condition {kind!r}")


# ------------------------------------------------------------------ sections


def _parse_bounds(raw, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a nonempty list of [lo, hi] pairs")
    out = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}[{i}]: expected a [lo, hi] pair")
        lo = _as_float(pair[0], f"{path}[{i}][0]")
        hi = _as_float(pair[1], f"{path}[{i}][1]")
        if not lo < hi:
            raise ConfigError(f"{path}[{i}]: lower bound must be below upper bound")
        out.append((lo, hi))
    return tuple(out)


def _parse_grid(raw, path: str) -> dict:
    """GridField.from_function arguments of the grid section, all but the initial function."""
    sec = _mapping(raw, path)
    bounds = _parse_bounds(_pop(sec, "bounds", path), _sub(path, "bounds"))
    points = _as_int(_pop(sec, "points_per_axis", path), _sub(path, "points_per_axis"))
    opts = _present(sec, path, boundary_mode=_as_str, boundary_value=_as_float)
    _no_extras(sec, path)
    if not 1 <= len(bounds) <= 4:
        raise ConfigError(f"{_sub(path, 'bounds')}: expected between 1 and 4 axes")
    return dict(bounds=bounds, points_per_axis=points, **opts)


def _parse_quadrature(raw, path: str) -> QuadratureSpec:
    sec = _mapping(raw, path)
    backend = _as_str(_pop(sec, "backend", path), _sub(path, "backend"))
    opts = _present(sec, path, nodes_per_dim=_as_int, samples=_as_int, rng_seed=_as_int)
    _no_extras(sec, path)
    return _build(path, QuadratureSpec, backend=backend, **opts)


def _parse_steps(raw, path: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a nonempty list of step counts")
    steps = tuple(_as_int(v, f"{path}[{i}]") for i, v in enumerate(raw))
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ConfigError(f"{path}: step counts must be strictly increasing")
    return steps


# ------------------------------------------------------------------ top level


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: operator, initial field, iteration plan."""

    problem: str
    eigenvalues: tuple[float, ...]
    coefficients: Coefficients
    initial: Callable[[np.ndarray], np.ndarray]
    t_final: float
    steps: tuple[int, ...]
    grid: GridField
    quadrature: QuadratureSpec
    interpolation: str = ChernoffPlan.interpolation
    oracle: Optional[Union[ExactConstant, FDProblem]] = None
    output: Optional[str] = None

    @property
    def dim(self) -> int:
        return self.grid.dim

    def operator(self) -> OperatorL:
        return OperatorL(coeffs=self.coefficients, A=TraceClassOperator(self.eigenvalues))

    def plan(self, n: int) -> ChernoffPlan:
        return ChernoffPlan(
            t_final=self.t_final,
            steps=n,
            quad=self.quadrature,
            op=self.operator(),
            interpolation=self.interpolation,
        )

    def with_seed(self, seed: int) -> "ExperimentConfig":
        quad = _build("seed", dataclasses.replace, self.quadrature, rng_seed=seed)
        return dataclasses.replace(self, quadrature=quad)


def _parse_oracle(
    raw, path: str, config: ExperimentConfig, wavenumber: Optional[float]
) -> Optional[Union[ExactConstant, FDProblem]]:
    """The oracle section as the oracle it names, built last on the rest of the validated config;
    wavenumber is that of a cosine initial condition, None for the other kinds."""
    if raw is None:
        return None
    sec = _mapping(raw, path)
    kind = _as_str(_pop(sec, "kind", path), _sub(path, "kind"))
    co, dim = config.coefficients, config.dim
    if kind == "exact_constant":
        _no_extras(sec, path)
        if dim != 1:
            raise ConfigError("oracle.kind: exact_constant needs a single-axis grid")
        if not (co.g.is_constant and co.C.is_constant and co.drift_is_zero):
            raise ConfigError(
                "coefficients: exact_constant oracle requires constant g, constant C, and no drift"
            )
        if wavenumber is None:
            raise ConfigError("initial.kind: exact_constant oracle requires a cosine initial condition")
        closed_form = (co.g.constant_value, config.eigenvalues[0], co.C.constant_value, wavenumber)
        return _build("coefficients.C", ExactConstant, *closed_form, config.t_final)
    if kind == "crank_nicolson":
        bounds = _parse_bounds(_pop(sec, "bounds", path), _sub(path, "bounds"))
        points = _as_int(_pop(sec, "points_per_axis", path), _sub(path, "points_per_axis"))
        time_steps = _as_int(_pop(sec, "time_steps", path), _sub(path, "time_steps"))
        opts = _present(sec, path, boundary=_as_str)
        _no_extras(sec, path)
        problem = _build(
            path, FDProblem, dim=dim, coeffs=co, A=TraceClassOperator(config.eigenvalues), bounds=bounds,
            points_per_axis=points, t_final=config.t_final, time_steps=time_steps, **opts,
        )
        _build(path, problem.initial_field, config.initial)
        return problem
    raise ConfigError(f"{_sub(path, 'kind')}: unknown oracle kind {kind!r}")


def parse_config(data: Any) -> ExperimentConfig:
    """Validate a decoded JSON object and build the experiment it describes."""
    root = _mapping(data, "config")
    problem = _as_str(_pop(root, "problem", ""), "problem")
    grid_args = _parse_grid(_pop(root, "grid", ""), "grid")
    dim = len(grid_args["bounds"])
    eigenvalues = _float_list(_pop(root, "eigenvalues", ""), "eigenvalues")
    coefficients = _build_coefficients(_pop(root, "coefficients", ""), dim, "coefficients")
    initial, wavenumber = _build_initial(_pop(root, "initial", ""), dim, "initial")
    t_final = _as_float(_pop(root, "t_final", ""), "t_final")
    steps = _parse_steps(_pop(root, "steps", ""), "steps")
    quadrature = _parse_quadrature(_pop(root, "quadrature", ""), "quadrature")
    oracle_raw = _pop(root, "oracle", "", default=None)
    output_raw = _pop(root, "output", "", default=None)
    output = None if output_raw is None else _as_str(output_raw, "output")
    opts = _present(root, "", interpolation=_as_str)
    _no_extras(root, "config")

    config = ExperimentConfig(
        problem=problem,
        eigenvalues=eigenvalues,
        coefficients=coefficients,
        initial=initial,
        t_final=t_final,
        steps=steps,
        grid=_build("grid", GridField.from_function, fn=initial, **grid_args),
        quadrature=quadrature,
        output=output,
        **opts,
    )
    _build("eigenvalues", config.operator)
    for n in steps:
        _build("config", config.plan, n)
    return dataclasses.replace(config, oracle=_parse_oracle(oracle_raw, "oracle", config, wavenumber))


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    return parse_config(data)
