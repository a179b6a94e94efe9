"""Self-test of the benchmark: metric names match BENCHMARK.json, every layer a
workload reaches records a nonzero figure, and traced counts repeat.

Run from the repository root (about two and a half minutes; not part of tier 1):

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = (
    "engine.steps",
    "engine.interp_points",
    "cylinder.coef_eval_points",
    "gauss.mc_samples",
    "oracle.unknowns",
    "oracle.time_steps",
)
# the layers each workload reaches, by metric-name prefix; every per-layer
# metric under these must be recorded and above 0 on the seed code
REACHED = {
    "var1d": ("engine.", "cylinder.", "oracle.", "config."),
    "var2d": ("engine.", "cylinder.", "oracle.", "config."),
    "verify_gh": ("engine.", "cylinder.", "gauss.", "battery.", "config.", "cli."),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(metrics) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_spec(workload):
    metrics = result_of(run(workload, 0))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_record_and_counts_repeat_exactly(workload):
    procs = [run(workload, 1) for _ in range(2)]
    first, second = (result_of(proc)["metrics"] for proc in procs)
    for proc, metrics in zip(procs, (first, second)):
        assert {name: m["unit"] for name, m in metrics.items()} == units(SPEC["per_layer"])
        assert "# recorded but not in BENCHMARK.json: []" in proc.stdout.splitlines()
        reached = [name for name in metrics if name.startswith(REACHED[workload])]
        assert reached
        assert {name: metrics[name]["value"] for name in reached if not metrics[name]["value"] > 0} == {}
    assert {n: first[n]["value"] for n in COUNTS} == {n: second[n]["value"] for n in COUNTS}


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
