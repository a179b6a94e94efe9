"""gausspde benchmark: run one workload and print its metrics.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload var1d --seed 1 --seconds 32 --trace 0

--trace 0 starts fresh worker processes one after another; each sets up the
workload, runs a cold op, then a closed loop of ops (one caller, the next op
starts when the previous returns) for its share of --seconds.  The end-to-end
metrics come from the processes (setup_s, cold_op_s, peak_rss_mb) or from the
ops of all processes pooled (op_s.tail).  --trace 1 runs one process
with the tracer of tracing.py on every other op and prints the per-layer
metrics; a metric the workload never records reads 0 and is listed.  The
last line of standard output is the JSON result; the exit code is 1 if any op
failed its correctness check.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Each process gives one set-up and one cold op; three give a median set-up
# time.  var2d's set-up takes about 4 s (two 2D oracle runs), so more
# processes would eat into the time measured.
WORKERS = 3
DEADLINE_S = 170.0
# one closed-loop caller: a single BLAS/OpenMP thread keeps the engine's
# numpy calls off the second core and the figures steadier
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
OUT_DIR = ".perfbench_out"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def tail(ops: list) -> float:
    """Mean of the slowest 10% of the ops, the boundary op weighted by its fraction.

    Its expected value does not depend on how many ops ran, so a faster program
    does not move it by running more ops, as a rank-based percentile would.
    """
    ordered = sorted(ops, reverse=True)
    k = 0.1 * len(ordered)
    whole = int(k)
    total = sum(ordered[:whole])
    if whole < len(ordered):
        total += (k - whole) * ordered[whole]
    return total / k


def run_worker(root: Path, args, seconds: float, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_VARS})
    cmd = [
        sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT_DIR,
    ]
    proc = subprocess.run(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(results: list) -> tuple:
    """End-to-end metric values and notes on how the tail was taken."""
    ops = [t for r in results for t in [r["cold_op_s"], *r["op_s"]]]
    errors = [r["sup_error"] for r in results if r["sup_error"] is not None]
    values = {
        "op_s.tail": tail(ops),
        "cold_op_s": statistics.fmean(r["cold_op_s"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "sup_error": max(errors) if errors else None,
    }
    notes = [
        f"{len(ops)} ops over {len(results)} processes; op_s.tail is the mean of the slowest 10%",
        f"op_s p10 {statistics.quantiles(ops, n=10, method='inclusive')[0]:.6g} s, "
        f"median {statistics.median(ops):.6g} s, mean {statistics.fmean(ops):.6g} s",
    ]
    return values, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    deadline = start + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "gausspde" / "__init__.py").is_file():
        return fail("run from the root of a gausspde checkout (src/gausspde not found)")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if not args.seconds > 0:
        return fail("--seconds must be positive")
    if not 0 <= args.seed < 2**63:
        return fail("--seed must be a nonnegative 64-bit integer")
    (root / OUT_DIR).mkdir(exist_ok=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workers = 1 if args.trace else WORKERS
    slices = [args.seconds / workers] * workers
    try:
        results = [run_worker(root, args, s, deadline) for s in slices]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    # a process whose outputs differ from the first process's fails one op
    digests = [r["output_digest"] for r in results if r.get("output_digest")]
    mismatched = sum(d != digests[0] for d in digests)
    if mismatched:
        failed += mismatched
        results[0]["failures"].append(f"{mismatched} process(es) computed other outputs than the first")
    if args.trace:
        # a layer this workload never reaches reads 0; list it, and any recorded
        # metric BENCHMARK.json does not name, so a hook that stops firing shows
        recorded = results[0]["layers"]
        spec_names = [m["name"] for m in wanted]
        values = {name: recorded.get(name, 0.0) for name in spec_names}
        notes = [
            f"spans written to {results[0]['trace_file']}",
            f"not recorded, reported as 0: {sorted(set(spec_names) - set(recorded))}",
            f"recorded but not in BENCHMARK.json: {sorted(set(recorded) - set(spec_names))}",
        ]
    else:
        values, notes = end_to_end(results)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"perfbench: {args.workload}: no value for {missing}", file=sys.stderr)
        for r in results:
            for line in r["failures"]:
                print(f"  {line}", file=sys.stderr)
        return 1

    versions = results[0]["versions"]
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(
        f"# machine: nproc {os.cpu_count()}, python {versions['python']}, numpy {versions['numpy']}, "
        f"scipy {versions['scipy']}, {len(THREAD_VARS)} BLAS/OpenMP thread variables set to 1"
    )
    for note in notes:
        print(f"# {note}")
    rows_passed = {r["rows_passed"] for r in results if r["rows_passed"] is not None}
    if rows_passed:
        print(f"# battery rows passed: {sorted(rows_passed)}")
    for r in results:
        for line in r["failures"]:
            print(f"# FAILED {line}")
    width = max(len(m["name"]) for m in wanted)
    for m in wanted:
        print(f"{m['name']:<{width}}  {values[m['name']]:.6g} {m['unit']}")
    if "cold_op_s" in values:
        print(f"{'cold_op_s':<{width}}  {values['cold_op_s']:.6g} s (not bounded, see README)")
    print(f"{'fail_ratio':<{width}}  {failed / attempted:.6g} ({failed} of {attempted} ops)")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
