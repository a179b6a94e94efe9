"""The three benchmark workloads: set-up, one op, and the op's correctness check.

Every op goes through gausspde's public API via module attributes
(`engine.chernoff_solve`, `cli.main`, ...), so the traced run can wrap them.

var1d / var2d
    One op is `chernoff_solve` on a freshly built plan.  Set-up loads the
    config, builds PHASES initial fields u0 = cos(x1 + phi_j) [* cos(x2 + psi)]
    with phi_j = phi_0 + j pi / PHASES (phi_0 and psi drawn from the seed), and
    runs the Crank-Nicolson oracle.  Op i solves phase i mod PHASES.  The sup
    error moves by about 25% with the phase, so a run covers a full set of
    phases and reports the largest error; the set-up pays for the oracle twice
    (cos and sin parts) and combines them, since the CN march is linear.
    The solve is deterministic, so every op must also return, bit for bit,
    the field of the run's first op on the same phase.
verify_gh
    One op is the user's `verify` command, `cli.main(["verify", ...])`.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from gausspde import cli, config, engine, oracle
from gausspde.engine import GridField
from gausspde.gauss import TraceClassOperator

PHASES = 4
ACCURACY_ROW = "constant_coefficient_exactness"


class OpFailure(Exception):
    """An op returned, but its output failed the workload's correctness check."""

    def __init__(self, message: str, error: float = None):
        super().__init__(message)
        self.error = error


class VarWorkload:
    """chernoff_solve on a padded grid, checked against the CN oracle."""

    min_ops = PHASES

    def __init__(self, config_path: str, tolerance: float):
        self.config_path = config_path
        self.tolerance = tolerance

    def setup(self, seed: int, out_dir: Path) -> None:
        cfg = config.load_config(self.config_path)
        self.cfg = cfg
        self.n = cfg.steps[-1]
        margin = cfg.plan(self.n).required_margin()
        box = cfg.oracle.bounds
        for (lo, hi), (blo, bhi) in zip(cfg.grid.bounds, box):
            if lo > blo - margin + 1e-9 or hi < bhi + margin - 1e-9:
                raise ValueError(f"{self.config_path}: grid does not pad the oracle box by required_margin()")

        rng = np.random.default_rng(seed)
        phases = rng.uniform(0.0, math.pi) + np.arange(PHASES) * math.pi / PHASES
        psi = rng.uniform(0.0, 2.0 * math.pi)
        if cfg.dim == 1:
            rest = lambda x: 1.0
        else:
            rest = lambda x: np.cos(x[:, 1] + psi)
        g = cfg.grid
        self.inputs = [
            GridField.from_function(
                g.bounds, g.points_per_axis, lambda x, p=p: np.cos(x[:, 0] + p) * rest(x),
                boundary_mode=g.boundary_mode, boundary_value=g.boundary_value,
            )
            for p in phases
        ]

        # comparison points exactly as `converge` picks them
        mask = self.inputs[0].interior_mask(margin).ravel()
        points = self.inputs[0].meshpoints()
        for axis, (lo, hi) in enumerate(box):
            mask &= (points[:, axis] >= lo) & (points[:, axis] <= hi)
        self.mask = mask
        spec = cfg.oracle
        problem = oracle.FDProblem(
            dim=cfg.dim,
            coeffs=cfg.coefficients,
            A=TraceClassOperator(cfg.eigenvalues),
            bounds=box,
            points_per_axis=spec.points_per_axis,
            t_final=cfg.t_final,
            time_steps=spec.time_steps,
            boundary=spec.boundary,
        )

        def reference(f):
            u0 = GridField.from_function(box, spec.points_per_axis, f)
            return oracle.fd_solve(problem, u0).sample(points[mask])

        ref_cos = reference(lambda x: np.cos(x[:, 0]) * rest(x))
        ref_sin = reference(lambda x: np.sin(x[:, 0]) * rest(x))
        self.references = [math.cos(p) * ref_cos - math.sin(p) * ref_sin for p in phases]
        self.first = {}

    def op(self, i: int):
        return engine.chernoff_solve(self.cfg.plan(self.n), self.inputs[i % PHASES])

    def check(self, i: int, result) -> float:
        values = result.field.values
        if not np.all(np.isfinite(values)):
            raise OpFailure("non-finite value in the solution")
        first = self.first.setdefault(i % PHASES, values.copy())
        if not np.array_equal(values, first):
            raise OpFailure("solution differs from the run's first solve of this phase")
        error = float(np.max(np.abs(values.ravel()[self.mask] - self.references[i % PHASES])))
        if not error <= self.tolerance:
            raise OpFailure(f"sup error {error:.3e} above tolerance {self.tolerance:.1e}", error)
        return error

    def output_digest(self):
        """Digest of the first solve of every phase; equal seeds give equal digests."""
        if len(self.first) < PHASES:
            return None
        return hashlib.sha256(b"".join(self.first[j].tobytes() for j in range(PHASES))).hexdigest()


class VerifyWorkload:
    """The `verify` command; every op must write the same CSV as the first."""

    min_ops = 1

    def __init__(self, config_path: str, tolerance: float):
        self.config_path = config_path
        self.tolerance = tolerance

    def setup(self, seed: int, out_dir: Path) -> None:
        if not Path(self.config_path).is_file():
            raise FileNotFoundError(self.config_path)
        self.out = out_dir / f"{Path(self.config_path).stem}.csv"
        self.argv = ["verify", "--config", self.config_path, "--out", str(self.out), "--seed", str(seed)]
        self.first = None

    def op(self, i: int):
        return cli.main(self.argv)

    def check(self, i: int, exit_code) -> float:
        # verify exits 0 only when every battery row passes
        if exit_code != 0:
            raise OpFailure(f"verify exited {exit_code}, expected 0")
        text = self.out.read_text()
        if self.first is None:
            self.first = text
        elif text != self.first:
            raise OpFailure("verify output differs from the run's first op")
        rows = {}
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("name,"):
                continue
            name, measured, threshold, passed = line.split(",")
            rows[name] = (float(measured), passed == "true")
        error = rows[ACCURACY_ROW][0]
        if not (math.isfinite(error) and error <= self.tolerance):
            raise OpFailure(f"{ACCURACY_ROW} {error!r} above tolerance {self.tolerance:.1e}", error)
        self.rows_passed = sum(ok for _, ok in rows.values())
        return error

    def output_digest(self):
        """Digest of the first op's CSV; equal seeds give equal digests."""
        return None if self.first is None else hashlib.sha256(self.first.encode()).hexdigest()


WORKLOADS = {
    "var1d": lambda: VarWorkload("configs/converge_variable_g.json", tolerance=4.5e-4),
    "var2d": lambda: VarWorkload("perfbench/configs/var2d.json", tolerance=1.0e-2),
    "verify_gh": lambda: VerifyWorkload("configs/verify_default.json", tolerance=1e-5),
}
