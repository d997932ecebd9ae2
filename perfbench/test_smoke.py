"""Self-test of the benchmark on its ``--smoke`` pools.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_failures(workload):
    result = run(workload, 0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # fail_ratio 0
    assert result["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_across_runs(workload):
    first, second = run(workload, 1), run(workload, 1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["correct"] is True and first["failed"] == 0

    def counts(result):
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] in ("count", "bytes-computed")}

    assert counts(first) == counts(second)
    corner_calls = counts(first)["ideals._corner_space.calls"]
    if workload == "ideal":
        assert corner_calls == 0
    if workload == "decompose":
        assert corner_calls > 0
