"""The benchmark's own test: exact counters repeat, the run is refused
outside a source checkout, and the tail rule.

Run from the root of a checkout (it takes about a minute):

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402


def bench(workload, seed, trace, cwd=ROOT, seconds="0.5"):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_exact_counters_repeat_across_traced_runs(workload):
    results = []
    for _ in range(2):
        proc = bench(workload, seed=3, trace=1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
        assert "WARNING" not in proc.stdout
    first, second = results
    assert first["correct"] and second["correct"]
    for key in tracing.EXACT_COUNTERS:
        assert first["metrics"][key] == second["metrics"][key], key


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("certify", seed=0, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("n,pct,beyond", [(1, 95, 0), (40, 75, 10), (117, 90, 11),
                                          (200, 95, 10), (252, 95, 12)])
def test_tail_is_nearest_rank_percentile(n, pct, beyond):
    value, got = run._tail([float(i) for i in range(n, 0, -1)], pct)
    assert got == beyond
    assert value == n - beyond
