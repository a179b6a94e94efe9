"""Run the benchmark over several seeds and report each metric's run-to-run spread.

    python3 perfbench/prove.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/prove.py --workloads var1d --seeds 5

For every workload it runs `run.py --trace 0` once per seed (1, 2, ...), then
prints, per end-to-end metric, the median of the runs and the spread: the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median.  A spread should stay below a third of the metric's
bound in BENCHMARK.json.  With --out it also writes the runs and a
description of the machine as JSON.  Run from the root of a checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def machine() -> dict:
    """nproc, CPU model, cache sizes and library versions of this machine."""
    info = {"nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        info["caches_per_cpu0"] = caches
    except OSError:
        pass
    probe = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    versions = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True).stdout.split()
    if len(versions) == 2:
        info["numpy"], info["scipy"] = versions
    return info


def spread(values: list) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w for w in args.workloads.split(",") if w] or [w["name"] for w in spec["workloads"]]
    report = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            wall = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{name} seed {seed}: no result, exit code {proc.returncode}", flush=True)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= proc.returncode == 0 and result["correct"]
            runs.append({"seed": seed, "wall_s": wall, "exit": proc.returncode, "report": lines[:-1], **result})
            print(f"{name} seed {seed}: {wall:.1f} s, correct {result['correct']}", flush=True)
        if not runs:
            continue
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else None,
                "bound": m["bound"],
            }
            s = summary[m["name"]]["spread"]
            flag = "" if s is None or s < m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {m['name']:<12} median {summary[m['name']]['median']:.6g} {m['unit']:<5} "
                  f"spread {s if s is None else round(s, 4)} (bound {m['bound']}){flag}", flush=True)
        report["workloads"][name] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
