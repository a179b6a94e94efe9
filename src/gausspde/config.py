"""Experiment configuration: JSON schema, registries, strict validation.

A configuration is a single JSON object.  Unknown keys are rejected at every
nesting level and every diagnostic names the offending field, so a typo fails
fast instead of silently running a different experiment.

Top-level keys::

    problem        str, free-form experiment name (reported in CSV metadata)
    eigenvalues    positive nonincreasing list, the diagonal of A
    coefficients   {"g": <coeff>, "C": <coeff>, "B": [<coeff>, ...]?,
                    "g_floor": float?, "contractive": bool?}
    initial        {"kind": "cosine"|"gaussian_bump"|"constant", ...}
    t_final        float > 0
    steps          strictly increasing list of positive step counts
    grid           {"bounds": [[lo, hi], ...], "points_per_axis": int,
                    "boundary_mode"?: "clamp" (default)|"constant", "boundary_value": float?}
    quadrature     {"backend": "gauss_hermite"|"monte_carlo", "nodes_per_dim"?,
                    "samples"?, "rng_seed"?}
    interpolation  "cubic"|"linear", optional (default "cubic")
    oracle         optional; {"kind": "exact_constant"} or
                   {"kind": "crank_nicolson", "bounds": ..., "points_per_axis": ...,
                    "time_steps": ..., "boundary"?}
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
from typing import Any, Callable, Optional

import numpy as np

from .cylinder import Coefficients, CylFunction, OperatorL
from .engine import ChernoffPlan, GridField
from .gauss import QuadratureSpec, TraceClassOperator


class ConfigError(ValueError):
    """Malformed experiment configuration; the message names the offending field."""


_MISSING = object()


def _sub(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


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


def _build_scalar(raw, dim: int, path: str) -> tuple[CylFunction, Optional[float]]:
    """Resolve one coefficient spec; returns (function, known lower bound or None)."""
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
    floor_raw = _pop(sec, "g_floor", path, default=None)
    contractive = _as_bool(_pop(sec, "contractive", path, default=False), _sub(path, "contractive"))
    _no_extras(sec, path)

    g_fn, g_min = _build_scalar(g_raw, dim, _sub(path, "g"))
    c_fn, _ = _build_scalar(c_raw, dim, _sub(path, "C"))
    drift = None
    if b_raw is not None:
        if not isinstance(b_raw, list) or len(b_raw) != dim:
            raise ConfigError(f"{_sub(path, 'B')}: expected a list of {dim} component spec(s) or null")
        drift = tuple(
            _build_scalar(comp, dim, f"{_sub(path, 'B')}[{i}]")[0] for i, comp in enumerate(b_raw)
        )
    if floor_raw is None:
        g_floor = g_min
    else:
        g_floor = _as_float(floor_raw, _sub(path, "g_floor"))
    if g_floor is None or g_floor <= 0.0:
        raise ConfigError(f"{_sub(path, 'g_floor')}: g needs a positive lower bound")
    try:
        return Coefficients(g=g_fn, B=drift, C=c_fn, g_floor=g_floor, contractive=contractive)
    except (ValueError, AssertionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class InitialCondition:
    """Registry entry for u0: product cosine, gaussian bump, or constant."""

    kind: str
    wavenumber: float = 1.0
    value: float = 1.0
    width: float = 1.0
    center: Optional[tuple[float, ...]] = None

    def function(self, dim: int) -> Callable[[np.ndarray], np.ndarray]:
        if self.kind == "cosine":
            k = self.wavenumber
            return lambda x: np.prod(np.cos(k * x), axis=1)
        if self.kind == "gaussian_bump":
            c = np.zeros(dim) if self.center is None else np.asarray(self.center, dtype=float)
            w = self.width
            return lambda x: np.exp(-np.sum((x - c) ** 2, axis=1) / (2.0 * w * w))
        value = self.value
        return lambda x: np.full(x.shape[0], value)


def _build_initial(raw, dim: int, path: str) -> InitialCondition:
    sec = _mapping(raw, path)
    kind = _as_str(_pop(sec, "kind", path), _sub(path, "kind"))
    if kind == "cosine":
        k = _as_float(_pop(sec, "wavenumber", path, default=1.0), _sub(path, "wavenumber"))
        _no_extras(sec, path)
        return InitialCondition(kind=kind, wavenumber=k)
    if kind == "gaussian_bump":
        width = _as_float(_pop(sec, "width", path, default=1.0), _sub(path, "width"))
        center_raw = _pop(sec, "center", path, default=None)
        _no_extras(sec, path)
        if width <= 0.0:
            raise ConfigError(f"{_sub(path, 'width')}: must be positive")
        center = None
        if center_raw is not None:
            center = _float_list(center_raw, _sub(path, "center"))
            if len(center) != dim:
                raise ConfigError(f"{_sub(path, 'center')}: expected {dim} coordinate(s)")
        return InitialCondition(kind=kind, width=width, center=center)
    if kind == "constant":
        value = _as_float(_pop(sec, "value", path), _sub(path, "value"))
        _no_extras(sec, path)
        return InitialCondition(kind=kind, value=value)
    raise ConfigError(f"{_sub(path, 'kind')}: unknown initial condition {kind!r}")


# ------------------------------------------------------------------ sections


@dataclass(frozen=True)
class GridSpec:
    bounds: tuple[tuple[float, float], ...]
    points_per_axis: int
    boundary_mode: str = "clamp"
    boundary_value: float = 0.0


@dataclass(frozen=True)
class OracleSpec:
    kind: str
    bounds: Optional[tuple[tuple[float, float], ...]] = None
    points_per_axis: Optional[int] = None
    time_steps: Optional[int] = None
    boundary: str = "periodic"


def _parse_bounds(raw, path: str, dim: Optional[int] = None) -> tuple[tuple[float, float], ...]:
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
    if dim is not None and len(out) != dim:
        raise ConfigError(f"{path}: expected {dim} axis pair(s)")
    return tuple(out)


def _parse_grid(raw, path: str) -> GridSpec:
    sec = _mapping(raw, path)
    bounds = _parse_bounds(_pop(sec, "bounds", path), _sub(path, "bounds"))
    points = _as_int(_pop(sec, "points_per_axis", path), _sub(path, "points_per_axis"))
    mode = _as_str(_pop(sec, "boundary_mode", path, default="clamp"), _sub(path, "boundary_mode"))
    value = _as_float(_pop(sec, "boundary_value", path, default=0.0), _sub(path, "boundary_value"))
    _no_extras(sec, path)
    if not 1 <= len(bounds) <= 4:
        raise ConfigError(f"{_sub(path, 'bounds')}: expected between 1 and 4 axes")
    if points < 2:
        raise ConfigError(f"{_sub(path, 'points_per_axis')}: need at least 2 points per axis")
    if mode not in ("clamp", "constant"):
        raise ConfigError(f"{_sub(path, 'boundary_mode')}: expected 'clamp' or 'constant'")
    return GridSpec(bounds=bounds, points_per_axis=points, boundary_mode=mode, boundary_value=value)


def _parse_quadrature(raw, path: str) -> QuadratureSpec:
    sec = _mapping(raw, path)
    backend = _as_str(_pop(sec, "backend", path), _sub(path, "backend"))
    nodes = _as_int(_pop(sec, "nodes_per_dim", path, default=32), _sub(path, "nodes_per_dim"))
    samples = _as_int(_pop(sec, "samples", path, default=100_000), _sub(path, "samples"))
    seed = _as_int(_pop(sec, "rng_seed", path, default=0), _sub(path, "rng_seed"))
    _no_extras(sec, path)
    try:
        return QuadratureSpec(backend=backend, nodes_per_dim=nodes, samples=samples, rng_seed=seed)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_oracle(raw, dim: int, path: str) -> Optional[OracleSpec]:
    if raw is None:
        return None
    sec = _mapping(raw, path)
    kind = _as_str(_pop(sec, "kind", path), _sub(path, "kind"))
    if kind == "exact_constant":
        _no_extras(sec, path)
        return OracleSpec(kind=kind)
    if kind == "crank_nicolson":
        bounds = _parse_bounds(_pop(sec, "bounds", path), _sub(path, "bounds"), dim=dim)
        points = _as_int(_pop(sec, "points_per_axis", path), _sub(path, "points_per_axis"))
        time_steps = _as_int(_pop(sec, "time_steps", path), _sub(path, "time_steps"))
        boundary = _as_str(_pop(sec, "boundary", path, default="periodic"), _sub(path, "boundary"))
        _no_extras(sec, path)
        if dim > 2:
            raise ConfigError(f"{path}: crank_nicolson oracle supports 1 or 2 axes")
        if points < 8:
            raise ConfigError(f"{_sub(path, 'points_per_axis')}: need at least 8 points per axis")
        if time_steps < 1:
            raise ConfigError(f"{_sub(path, 'time_steps')}: need at least one time step")
        if boundary not in ("periodic", "dirichlet"):
            raise ConfigError(f"{_sub(path, 'boundary')}: expected 'periodic' or 'dirichlet'")
        return OracleSpec(
            kind=kind, bounds=bounds, points_per_axis=points, time_steps=time_steps, boundary=boundary
        )
    raise ConfigError(f"{_sub(path, 'kind')}: unknown oracle kind {kind!r}")


def _parse_steps(raw, path: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a nonempty list of step counts")
    steps = tuple(_as_int(v, f"{path}[{i}]") for i, v in enumerate(raw))
    if any(n < 1 for n in steps):
        raise ConfigError(f"{path}: step counts must be positive")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ConfigError(f"{path}: step counts must be strictly increasing")
    return steps


def _parse_eigenvalues(raw, path: str) -> tuple[float, ...]:
    values = _float_list(raw, path)
    try:
        TraceClassOperator(values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return values


# ------------------------------------------------------------------ top level


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: operator, initial field, iteration plan."""

    problem: str
    eigenvalues: tuple[float, ...]
    coefficients: Coefficients
    initial: InitialCondition
    t_final: float
    steps: tuple[int, ...]
    grid: GridSpec
    quadrature: QuadratureSpec
    interpolation: str = "cubic"
    oracle: Optional[OracleSpec] = None
    output: Optional[str] = None

    @property
    def dim(self) -> int:
        return len(self.grid.bounds)

    def operator(self) -> OperatorL:
        return OperatorL(coeffs=self.coefficients, A=TraceClassOperator(self.eigenvalues))

    def initial_field(self) -> GridField:
        return GridField.from_function(
            self.grid.bounds,
            self.grid.points_per_axis,
            self.initial.function(self.dim),
            boundary_mode=self.grid.boundary_mode,
            boundary_value=self.grid.boundary_value,
        )

    def plan(self, n: int) -> ChernoffPlan:
        return ChernoffPlan(
            t_final=self.t_final,
            steps=n,
            quad=self.quadrature,
            op=self.operator(),
            interpolation=self.interpolation,
        )

    def with_seed(self, seed: int) -> "ExperimentConfig":
        quad = dataclasses.replace(self.quadrature, rng_seed=seed)
        return dataclasses.replace(self, quadrature=quad)


def parse_config(data: Any) -> ExperimentConfig:
    """Validate a decoded JSON object and build the experiment it describes."""
    root = _mapping(data, "config")
    problem = _as_str(_pop(root, "problem", ""), "problem")
    grid = _parse_grid(_pop(root, "grid", ""), "grid")
    dim = len(grid.bounds)
    eigenvalues = _parse_eigenvalues(_pop(root, "eigenvalues", ""), "eigenvalues")
    coefficients = _build_coefficients(_pop(root, "coefficients", ""), dim, "coefficients")
    initial = _build_initial(_pop(root, "initial", ""), dim, "initial")
    t_final = _as_float(_pop(root, "t_final", ""), "t_final")
    steps = _parse_steps(_pop(root, "steps", ""), "steps")
    quadrature = _parse_quadrature(_pop(root, "quadrature", ""), "quadrature")
    interpolation = _as_str(_pop(root, "interpolation", "", default="cubic"), "interpolation")
    oracle = _parse_oracle(_pop(root, "oracle", "", default=None), dim, "oracle")
    output_raw = _pop(root, "output", "", default=None)
    output = None if output_raw is None else _as_str(output_raw, "output")
    _no_extras(root, "config")

    if t_final <= 0.0:
        raise ConfigError("t_final: must be positive")
    if interpolation not in ("cubic", "linear"):
        raise ConfigError("interpolation: expected 'cubic' or 'linear'")
    if oracle is not None and oracle.kind == "exact_constant":
        if dim != 1:
            raise ConfigError("oracle.kind: exact_constant needs a single-axis grid")
        ok = coefficients.g.is_constant and coefficients.C.is_constant and coefficients.drift_is_zero
        if not ok:
            raise ConfigError(
                "coefficients: exact_constant oracle requires constant g, constant C, and no drift"
            )
        if initial.kind != "cosine":
            raise ConfigError("initial.kind: exact_constant oracle requires a cosine initial condition")

    config = ExperimentConfig(
        problem=problem,
        eigenvalues=eigenvalues,
        coefficients=coefficients,
        initial=initial,
        t_final=t_final,
        steps=steps,
        grid=grid,
        quadrature=quadrature,
        interpolation=interpolation,
        oracle=oracle,
        output=output,
    )
    try:
        config.operator()
    except ValueError as exc:
        raise ConfigError(f"eigenvalues: {exc}") from exc
    return config


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
