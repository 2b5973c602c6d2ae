"""Self-test of the benchmark harness at a tiny input size.

Runs every workload untraced and traced through the real command line,
then checks the result schema against BENCHMARK.json, that the counts
repeat exactly for the same seed, and that the harness refuses to run
without the package sources.

    python3 -m pytest bench/test_harness.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_the_same_seed(workload):
    counts = []
    for _ in range(2):
        metrics = result_of(run_bench(workload, 1))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["budget.nodes"] > 0 and counts[0]["canon.calls"] > 0


def test_spans_are_written_with_parents():
    result_of(run_bench("catalog", 1))
    lines = (ROOT / ".bench_work" / "spans-catalog.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert spans and all(-1 <= s["parent"] < s["id"] for s in spans)
    assert {s["layer"] for s in spans} >= {"classify", "canon", "recognition"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("contract", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
