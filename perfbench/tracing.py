"""Per-layer spans for the traced benchmark run, recorded from outside the package.

The tracer never edits gausspde's source.  While installed it replaces, through
module and class attributes, the public callables each layer is reached
through, and restores them on exit:

    engine    chernoff_solve (as bound in engine, battery, cli), apply_S
    ndimage   spline_filter, map_coordinates          (as the engine reaches them: engine.ndi)
    cylinder  Coefficients.g_at / c_at / b_at
    gauss     mc_estimate, integrate, philox_generator (as bound in engine and battery)
    oracle    fd_solve                                (as bound in oracle and cli)
    battery   every function in battery._CHECKS
    config    load_config                             (as bound in config and cli)
    cli       main

Spans stay in memory; `write_jsonl` dumps them when the run ends.  A span's self
time is its duration minus the durations of its direct children, which nest
inside it because everything runs on one thread.  Work counts are added per
unit (the set-up, or one op) at the same boundaries.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np
import scipy.ndimage

from gausspde import battery, cli, config, cylinder, engine, oracle

SETUP = "setup"

# Layer metrics that are paid in set-up on some workloads and per op on others
# (var1d and var2d load their config and run the oracle once, before the
# first op; verify_gh loads the config inside every op).
SETUP_SCOPED = ("config.load_s", "oracle.fd_solve_s", "oracle.unknowns", "oracle.time_steps")


class _Span:
    __slots__ = ("name", "metric", "unit", "start", "end", "parent", "child_s", "attrs")

    def __init__(self, name, metric, unit, parent):
        self.name = name
        self.metric = metric
        self.unit = unit
        self.parent = parent
        self.child_s = 0.0
        self.attrs = {}
        self.start = time.perf_counter()
        self.end = None


class _Namespace:
    """Stand-in for a module: the given overrides, everything else from the module."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _CountingGenerator:
    """numpy Generator that reports every variate it draws, whatever the method."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr) or name == "spawn":
            return attr

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._tracer.add("gauss.mc_samples", np.size(out))
            return out

        return draw


class Tracer:
    """Span stack, per-unit metric sums and the patch set that feeds them."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.unit = SETUP
        self.sums: dict = defaultdict(lambda: defaultdict(float))
        self.step_s: dict = defaultdict(list)
        self.recorded: set = set()
        self._stack: list[_Span] = []

    # ------------------------------------------------------------ recording

    def add(self, metric: str, amount: float) -> None:
        self.sums[self.unit][metric] += amount
        self.recorded.add(metric)

    @contextlib.contextmanager
    def span(self, name: str, metric: str):
        parent = self._stack[-1] if self._stack else None
        sp = _Span(name, metric, self.unit, parent)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            duration = sp.end - sp.start
            if parent is not None:
                parent.child_s += duration
            self.add(sp.metric, duration - sp.child_s)
            self.spans.append(sp)

    def _timed(self, name: str, metric: str, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name, metric) as sp:
                if before is not None:
                    before(sp, *args, **kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(sp, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ layer hooks

    def _solve_started(self, sp, plan, *args, **kwargs):
        sp.attrs["steps"] = plan.steps
        self.add("engine.solve_calls", 1)
        self.add("engine.steps", plan.steps)

    def _step_started(self, sp, *args, **kwargs):
        sp.attrs["steps"] = 1
        self.add("engine.steps", 1)

    def _engine_done(self, sp, result):
        self.step_s[self.unit].append((time.perf_counter() - sp.start) / sp.attrs["steps"])
        self.recorded.add("engine.step_s.p50")

    def _interp_started(self, sp, input, coordinates, *args, **kwargs):
        coords = np.asarray(coordinates)
        points = coords.size // coords.shape[0]
        sp.attrs["points"] = points
        self.add("engine.interp_calls", 1)
        self.add("engine.interp_points", points)
        # computed, not measured: spline coefficients read, coordinates read, values written
        self.add("engine.interp_bytes_computed", np.asarray(input).nbytes + coords.nbytes + 8 * points)

    def _prefilter_started(self, sp, *args, **kwargs):
        self.add("engine.prefilter_calls", 1)

    def _coef_started(self, sp, coeffs, x):
        sp.attrs["points"] = x.shape[0]
        self.add("cylinder.coef_eval_points", x.shape[0])

    def _mc_started(self, sp, f, spec, quad):
        self.add("gauss.mc_samples", quad.samples * spec.dim)

    def _integrate_started(self, sp, f, spec, quad):
        if quad.backend == "monte_carlo":
            self.add("gauss.mc_samples", quad.samples * spec.dim)

    def _fd_started(self, sp, problem, u0):
        closed = problem.points_per_axis - (1 if problem.boundary == "periodic" else 0)
        sp.attrs["unknowns"] = closed**problem.dim
        self.add("oracle.unknowns", closed**problem.dim)
        self.add("oracle.time_steps", problem.time_steps)

    def _row_done(self, sp, result):
        sp.metric = f"battery.{result.name}_s"
        self.add("battery.rows_passed", int(result.passed))

    def _philox(self, fn):
        def wrapper(*args, **kwargs):
            self.add("gauss.philox_calls", 1)
            return _CountingGenerator(fn(*args, **kwargs), self)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ patching

    def _patches(self):
        solve = self._timed(
            "engine.chernoff_solve", "engine.self_s", engine.chernoff_solve,
            self._solve_started, self._engine_done,
        )
        apply_s = self._timed(
            "engine.apply_S", "engine.self_s", engine.apply_S, self._step_started, self._engine_done
        )
        ndi = _Namespace(
            scipy.ndimage,
            map_coordinates=self._timed(
                "ndimage.map_coordinates", "engine.interp_s", scipy.ndimage.map_coordinates,
                self._interp_started,
            ),
            spline_filter=self._timed(
                "ndimage.spline_filter", "engine.prefilter_s", scipy.ndimage.spline_filter,
                self._prefilter_started,
            ),
        )
        patches = [
            (engine, "chernoff_solve", solve),
            (battery, "chernoff_solve", solve),
            (cli, "chernoff_solve", solve),
            (engine, "apply_S", apply_s),
            (engine, "ndi", ndi),
        ]
        for name in ("g_at", "c_at", "b_at"):
            fn = getattr(cylinder.Coefficients, name)
            patches.append((cylinder.Coefficients, name, self._timed(
                f"cylinder.{name}", "cylinder.coef_eval_s", fn, self._coef_started
            )))
        for module in (engine, battery):
            for name, metric, before in (
                ("mc_estimate", "gauss.mc_estimate_s", self._mc_started),
                ("integrate", "gauss.integrate_s", self._integrate_started),
            ):
                if hasattr(module, name):
                    fn = getattr(module, name)
                    patches.append((module, name, self._timed(f"gauss.{name}", metric, fn, before)))
            if hasattr(module, "philox_generator"):
                patches.append((module, "philox_generator", self._philox(module.philox_generator)))
        fd = self._timed("oracle.fd_solve", "oracle.fd_solve_s", oracle.fd_solve, self._fd_started)
        patches += [(oracle, "fd_solve", fd), (cli, "fd_solve", fd)]
        rows = tuple(
            self._timed(f"battery.{check.__name__}", "battery.row_s", check, after=self._row_done)
            for check in battery._CHECKS
        )
        patches.append((battery, "_CHECKS", rows))
        load = self._timed("config.load_config", "config.load_s", config.load_config)
        patches += [(config, "load_config", load), (cli, "load_config", load)]
        patches.append((cli, "main", self._timed("cli.main", "cli.self_s", cli.main)))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced callables for the duration of the block."""
        saved = []
        try:
            for owner, name, replacement in self._patches():
                saved.append((owner, name, getattr(owner, name)))
                setattr(owner, name, replacement)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # ------------------------------------------------------------ results

    def layer_metrics(self, op_units) -> dict:
        """Every metric a hook recorded: the median over the traced ops of its
        per-op sum, plus its set-up sum where it is set-up scoped."""
        out = {}
        for name in sorted(self.recorded):
            if name == "engine.step_s.p50":
                per_op = [statistics.median(self.step_s[u]) if self.step_s[u] else 0.0 for u in op_units]
            else:
                per_op = [self.sums[u].get(name, 0.0) for u in op_units]
            value = statistics.median(per_op) if per_op else 0.0
            if name in SETUP_SCOPED:
                value += self.sums[SETUP].get(name, 0.0)
            out[name] = value
        return out

    def write_jsonl(self, path) -> None:
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                record = {
                    "id": i,
                    "unit": sp.unit,
                    "name": sp.name,
                    "metric": sp.metric,
                    "start": sp.start,
                    "end": sp.end,
                    "parent": None if sp.parent is None else index.get(id(sp.parent)),
                    "self_s": (sp.end - sp.start) - sp.child_s,
                }
                record.update(sp.attrs)
                fh.write(json.dumps(record) + "\n")
