"""Batch front-end: solve, converge, and verify commands over JSON experiment files.

Invocation::

    gausspde solve    --config exp.json --out field.csv  [--seed N] [--threads K]
    gausspde converge --config exp.json --out errors.csv [--seed N] [--threads K]
    gausspde verify   --config exp.json --out checks.csv [--seed N] [--threads K]

solve iterates the one-step operator with the largest entry of the steps list
and writes the final field as (x..., u) rows.  converge repeats the run for
every entry of the steps list and writes (n, sup_error_vs_oracle, runtime_ms)
rows against the configured oracle.  verify runs the property battery and
writes (name, measured, threshold, pass) rows.

Output is CSV with '#'-prefixed metadata lines before the header and all
numbers at 17 significant digits, so values round-trip exactly.  For a fixed
config and seed the solve and verify outputs are byte-identical between runs;
converge rows carry wall-clock timings and are identical except for the
runtime_ms column.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime/engine error.  --threads is accepted for compatibility and not used;
execution is vectorized and single-process; mc_estimates draws its stream on
one helper thread.  A --threads below 1 is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .battery import run_battery
from .config import ConfigError, ExperimentConfig, load_config
from .engine import GridField, chernoff_solve
from .oracle import fd_solve  # noqa: F401  perfbench's tracer patches cli.fd_solve


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path, metadata: Sequence[tuple[str, str]], header: Sequence[str], rows) -> None:
    lines = [f"# {key}: {value}" for key, value in metadata]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")


def _common_metadata(config: ExperimentConfig, command: str) -> list[tuple[str, str]]:
    return [
        ("command", command),
        ("problem", config.problem),
        ("backend", config.quadrature.backend),
        ("seed", str(config.quadrature.rng_seed)),
    ]


# ------------------------------------------------------------------ commands


def _cmd_solve(config: ExperimentConfig, out) -> None:
    n = config.steps[-1]
    u0 = config.grid
    result = chernoff_solve(config.plan(n), u0)
    metadata = _common_metadata(config, "solve")
    metadata.insert(2, ("t", _fmt(config.t_final)))
    metadata.insert(3, ("n", str(n)))
    metadata.append(("sup_norms", " ".join(_fmt(v) for v in result.sup_norms)))
    header = [f"x{i + 1}" for i in range(config.dim)] + ["u"]
    points = u0.meshpoints()
    values = result.field.values.ravel()
    rows = ([_fmt(c) for c in pt] + [_fmt(v)] for pt, v in zip(points, values))
    _write_csv(out, metadata, header, rows)


def _comparison_points(config: ExperimentConfig) -> tuple[GridField, np.ndarray, np.ndarray]:
    """Initial field, flat mask of comparable grid points, and those points."""
    u0 = config.grid
    margin = config.plan(config.steps[-1]).required_margin()
    mask = u0.interior_mask(margin).ravel()
    points = u0.meshpoints()
    for axis, (lo, hi) in enumerate(config.oracle.bounds or ()):
        mask &= (points[:, axis] >= lo) & (points[:, axis] <= hi)
    if not mask.any():
        raise ConfigError("oracle.bounds: no engine interior points fall inside the oracle domain")
    return u0, mask, points[mask]


def _cmd_converge(config: ExperimentConfig, out) -> None:
    if config.oracle is None:
        raise ConfigError("oracle: converge needs an oracle spec to measure errors against")
    u0, mask, points = _comparison_points(config)
    reference = config.oracle.values(config.initial, points)
    metadata = _common_metadata(config, "converge")
    metadata.insert(2, ("t", _fmt(config.t_final)))
    metadata.append(("oracle", config.oracle.kind))
    rows = []
    for n in config.steps:
        start = time.perf_counter()
        result = chernoff_solve(config.plan(n), u0)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        error = float(np.max(np.abs(result.field.values.ravel()[mask] - reference)))
        rows.append([str(n), _fmt(error), _fmt(elapsed_ms)])
    _write_csv(out, metadata, ["n", "sup_error_vs_oracle", "runtime_ms"], rows)


def _cmd_verify(config: ExperimentConfig, out) -> bool:
    results = run_battery(config)
    rows = [
        [r.name, _fmt(r.measured), _fmt(r.threshold), "true" if r.passed else "false"]
        for r in results
    ]
    _write_csv(out, _common_metadata(config, "verify"), ["name", "measured", "threshold", "pass"], rows)
    return all(r.passed for r in results)


# ------------------------------------------------------------------ entry point


def _positive_int(text: str) -> int:
    """argparse type for --threads: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausspde",
        description="Iterated Gaussian-integral solver for parabolic equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = (
        ("solve", "run the iteration and write the final field"),
        ("converge", "measure sup errors against the oracle over the steps list"),
        ("verify", "run the property battery and report pass/fail rows"),
    )
    for name, text in descriptions:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON experiment file")
        p.add_argument("--out", default=None, help="output CSV path (default: the config 'output' key)")
        p.add_argument("--seed", type=int, default=None, help="override the quadrature rng seed")
        p.add_argument(
            "--threads",
            type=_positive_int,
            default=None,
            help="accepted for compatibility and not used; execution is vectorized and single-process",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = config.with_seed(args.seed)
        out = args.out if args.out is not None else config.output
        if out is None:
            raise ConfigError("output: set the config 'output' key or pass --out")
        if args.command == "solve":
            _cmd_solve(config, out)
            return 0
        if args.command == "converge":
            _cmd_converge(config, out)
            return 0
        return 0 if _cmd_verify(config, out) else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the documented exit-code contract for engine failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
