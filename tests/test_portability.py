"""``epgtool simulate`` writes the same bytes whichever BLAS kernels numpy
runs.

numpy's OpenBLAS picks its kernels at load time by CPU, and
``OPENBLAS_CORETYPE`` overrides the pick for one process.  Prescott's SSE3
kernels run on any x86-64 CPU and round small dot products differently
from the AVX2 and AVX-512 ones.  No output is evaluated through BLAS, so
``trajectory.csv`` and ``certification.json`` must not change.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "example1.json"
SHORT = ["integrator.horizon=30", "integrator.output_stride=1"]
RUNS = {
    "example1": [],
    # the three-strategy audit scenario of the benchmark
    "audit_n3": [
        "strategies.betas=[0.12,0.15,0.19]", "strategies.costs=[0.45,0.25,0.05]",
        "policy.cstar=0.3", "policy.upsilon=6", "initial.x=[1,0,0]",
    ],
}

pytestmark = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE=Prescott names x86-64 kernels",
)


def _outputs(out: Path, overrides: list[str], coretype: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    args = [sys.executable, "-m", "epgtool.cli", "simulate", str(CONFIG), "--out", str(out)]
    for item in overrides + SHORT:
        args += ["--set", item]
    subprocess.run(args, env=env, check=True, capture_output=True)
    return {name: (out / name).read_bytes()
            for name in ("trajectory.csv", "certification.json")}


@pytest.mark.parametrize("overrides", RUNS.values(), ids=RUNS.keys())
def test_outputs_do_not_depend_on_the_blas_kernels(overrides, tmp_path):
    prescott = _outputs(tmp_path / "prescott", overrides, "Prescott")
    assert prescott == _outputs(tmp_path / "default", overrides, None)
