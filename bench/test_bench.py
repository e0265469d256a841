"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/test_bench.py

The smoke test runs every workload for one op untraced and two ops traced,
about a minute and a half in all.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = run.load_benchmark()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--results", str(tmp_path / "r.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {s["name"]: s["unit"] for s in specs}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _fail_ratio(workload: str) -> float:
    """Run one op in this process and summarize it as ``run.py`` does."""
    rec = worker.run(workload, seed=0, seconds=0.001, trace=False)
    fake = {"record": rec, "maxrss_mb": 1.0, "cpu_s": 1.0, "wall_s": 1.0,
            "setup_wall_s": 1.0}
    probes = [{"setup_wall_s": 1.0, "setup_cpu_s": 1.0, "scale": 1.0}]
    summary = run.summarize(BENCH, fake, probes, {}, 0.001)
    assert summary["attempted"] == 1
    return summary["detail"]["fail_ratio"]


def test_lowered_ratio_counts_as_failed(monkeypatch):
    assert _fail_ratio("bound_sweep_dense") == 0.0
    real = workloads.peak_bound

    def lowered(query):
        result = real(query)
        return dataclasses.replace(result, peak_ratio=result.peak_ratio * (1 - 1e-9))

    monkeypatch.setattr(workloads, "peak_bound", lowered)
    assert _fail_ratio("bound_sweep_dense") == 1.0


def test_truncated_csv_counts_as_failed(monkeypatch):
    real = workloads.write_csv

    def truncated(traj, path):
        real(traj, path)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: data.rindex(b"\n", 0, len(data) - 1) + 1])

    monkeypatch.setattr(workloads, "write_csv", truncated)
    assert _fail_ratio("audit_n3_fine") == 1.0


def test_verdicts():
    base = [1.0, 1.01, 0.99, 1.0]
    assert run.verdict(base, [1.0, 1.02, 0.99, 1.01], "lower", 0.1) == "same"
    assert run.verdict(base, [1.2, 1.21, 1.19, 1.2], "lower", 0.1) == "worse"
    assert run.verdict(base, [0.8, 0.81, 0.79, 0.8], "lower", 0.1) == "better"
    assert run.verdict(base, [0.8, 0.81, 0.79, 0.8], "higher", 0.1) == "worse"
    assert run.verdict(base, [0.5, 1.5, 0.7, 1.3], "lower", 0.1) == "unresolved"
