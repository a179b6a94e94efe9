"""One workload process: set up, run a closed loop of ops, print a JSON summary.

Started by run.py from the root of a checkout, with PYTHONPATH=src.  Set-up
time counts from the start of this process's imports of numpy, scipy and
gausspde to the start of the first op.

Untraced (--trace 0): op 0 is the cold op; the loop continues until --seconds
have passed since the loop started and at least `min_ops` ops ran.  The
process also reports a digest of its first outputs, so run.py can check that
every process of a run computed the same ones.

Traced (--trace 1): the set-up and every odd op run with the tracer
installed; op 0 and the other even ops run bare.  The mean traced op minus the
mean bare warm op is the tracing overhead.  At least three ops run.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

import numpy as np
import scipy

from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    out_dir = Path(args.out_dir)

    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            workload.setup(args.seed, out_dir)
    else:
        workload.setup(args.seed, out_dir)
    setup_s = time.perf_counter() - _PROCESS_START

    min_ops = 3 if args.trace else workload.min_ops
    times, traced, traced_units, errors, failures = [], [], [], [], []
    loop_start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - loop_start < args.seconds:
        is_traced = tracer is not None and i % 2 == 1
        if is_traced:
            tracer.unit = i
            traced_units.append(i)
        start = time.perf_counter()
        try:
            if is_traced:
                with tracer.installed():
                    raw = workload.op(i)
            else:
                raw = workload.op(i)
            elapsed = time.perf_counter() - start
            errors.append(workload.check(i, raw))
        except Exception as exc:  # OpFailure or an error raised by the op: counted, and the loop goes on
            elapsed = time.perf_counter() - start
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            if getattr(exc, "error", None) is not None:
                errors.append(exc.error)
        (traced if is_traced else times).append(elapsed)
        i += 1

    result = {
        "setup_s": setup_s,
        "cold_op_s": times[0],
        "op_s": times[1:],
        "attempted": i,
        "failed": len(failures),
        "failures": failures[:5],
        "sup_error": max(errors) if errors else None,
        "rows_passed": getattr(workload, "rows_passed", None),
        "output_digest": workload.output_digest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        layers = tracer.layer_metrics(traced_units)
        layers["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(times[1:] or times)
        result["layers"] = layers
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        result["trace_file"] = str(trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
