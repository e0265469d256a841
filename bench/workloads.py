"""The benchmark's workloads: set-up, per-op inputs drawn from a seed, the
op itself, and the checks on each op's output.

Seed 0 runs the exact inputs every workload is named after.  Any other seed
draws each op's input from a fixed lattice inside the stated range, so every
op of every seed has a value recorded from the reference RK4 run in
``reference.json`` (see ``record_reference.py``).

The epgtool names are imported into this module on purpose: the traced run
wraps them here, at the boundary between the benchmark and the library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from epgtool.bounds import BoundQuery, certify_trajectory, default_grid, peak_bound
from epgtool.cli import main
from epgtool.config import apply_overrides, load_config, resolve
from epgtool.dynamics import lyapunov_series, lyapunov_value, simulate, write_csv
from epgtool.equilibrium import optimal_allocation
from epgtool.params import ModelParams, PolicyConfig, StrategySpec, validate

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
CONFIG = "configs/example1.json"
DEFAULT_SEED = 0

# Room for an integrator that is not bit-identical to the reference RK4,
# e.g. dense output: values agree to 1e-9 relative (with an absolute floor
# for components that are exactly 0) and the peak time to one step.
REL_TOL = 1e-9
ABS_FLOOR = 1e-12
# The certified ratio may never drop below the reference (less rounding)
# and may rise by at most 1e-3 relative, room for a sound relaxation.
RATIO_BELOW = 1e-12
RATIO_ABOVE = 1e-3
SIMPLEX_TOL = 1e-9
# Sampled Lyapunov values may not increase by more than rounding.
LYAPUNOV_TOL = 1e-12


def _lattice(lo: float, hi: float, count: int) -> list[float]:
    return [round(lo + (hi - lo) * k / (count - 1), 10) for k in range(count)]


def load_reference() -> dict:
    """Recorded values per workload and input label; empty before the first
    recording, in which case every op fails its check."""
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def _close(value: float, ref: float) -> bool:
    return math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=ABS_FLOOR)


def check_invariants(csv_bytes: bytes, rows_expected: int, x, peak: float,
                     certified: float, violations: int) -> list[str]:
    """Checks that hold for every input of the two simulation workloads.

    ``x`` holds the strategy shares of every sample.
    """
    problems = []
    rows = csv_bytes.count(b"\n") - 1
    if rows != rows_expected:
        problems.append(f"CSV has {rows} rows, expected {rows_expected}")
    if np.any(x < -SIMPLEX_TOL) or np.any(np.abs(x.sum(axis=1) - 1.0) > SIMPLEX_TOL):
        problems.append("strategy shares left the simplex")
    if violations:
        problems.append(f"{violations} Lyapunov decrease violations")
    if not certified >= peak:
        problems.append(f"certified peak {certified!r} below observed {peak!r}")
    return problems


def compare_run(obs: dict, ref: dict, step: float) -> list[str]:
    """Compare a simulation's observed values with the reference run's."""
    problems = []
    if not _close(obs["peak"], ref["peak"]):
        problems.append(f"peak {obs['peak']!r} != reference {ref['peak']!r}")
    if abs(obs["peak_time"] - ref["peak_time"]) > step * (1.0 + 1e-9):
        problems.append(
            f"peak time {obs['peak_time']!r} != reference {ref['peak_time']!r}"
        )
    if len(obs["terminal"]) != len(ref["terminal"]) or not all(
        _close(v, r) for v, r in zip(obs["terminal"], ref["terminal"])
    ):
        problems.append(
            f"terminal state {obs['terminal']} != reference {ref['terminal']}"
        )
    return problems + check_ratio(obs["certified"], ref["certified"], "certified peak")


def check_ratio(value: float, ref: float, what: str) -> list[str]:
    if value < ref * (1.0 - RATIO_BELOW):
        return [f"{what} {value!r} below reference {ref!r}"]
    if value > ref * (1.0 + RATIO_ABOVE):
        return [f"{what} {value!r} more than {RATIO_ABOVE:g} above reference {ref!r}"]
    return []


class _Simulation:
    """Shared set-up, inputs and checks of the two simulation workloads."""

    name: str
    overrides: list[str]
    lattice: list[float]

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.reference = load_reference().get(self.name, {})

    def setup(self) -> None:
        self.cfg = apply_overrides(load_config(CONFIG), self.overrides)
        self.run = resolve(self.cfg)
        options = self.run.integrator
        self.rows_expected = int(round(
            self.run.horizon / (options.step * options.output_stride)
        )) + 1
        self.work_per_op = self.sim_days = self.run.horizon

    @staticmethod
    def lattice_input(B: float) -> tuple[str, list[str]]:
        return f"B={B!r}", ["initial.x=null", f"initial.B={B!r}"]

    def all_inputs(self) -> list[tuple[str, list[str]]]:
        """Every ``(label, overrides)`` any seed can draw."""
        return [("default", [])] + [self.lattice_input(B) for B in self.lattice]

    def inputs(self, seed: int):
        """Endless ``(label, overrides)`` per op."""
        if seed == DEFAULT_SEED:
            while True:
                yield "default", []
        rng = random.Random(seed)
        while True:
            yield self.lattice_input(rng.choice(self.lattice))

    def check(self, label: str, out) -> tuple[list[str], dict]:
        """Problems found (an op with any problem fails) and facts reported
        as metrics."""
        obs, problems, facts = self.observe(out)
        ref = self.reference.get(label)
        if ref is None:
            return problems + ["no reference value for this input"], facts
        problems += compare_run(obs, ref, self.run.integrator.step)
        facts["csv_identical"] = int(obs["csv_sha256"] == ref["csv_sha256"])
        return problems, facts


class SimExample1(_Simulation):
    """``epgtool simulate configs/example1.json``, in process."""

    name = "sim_example1"
    overrides: list[str] = []
    lattice = _lattice(0.15, 0.16, 9)

    def prepare(self, overrides):
        args = ["simulate", CONFIG, "--out", str(self.tmp)]
        for item in overrides:
            args += ["--set", item]
        return args

    def op(self, args):
        with contextlib.redirect_stdout(io.StringIO()):
            return main(args)

    def observe(self, code):
        if code != 0:
            raise RuntimeError(f"epgtool simulate exited with {code}")
        csv_bytes = (self.tmp / "trajectory.csv").read_bytes()
        cert = json.loads((self.tmp / "certification.json").read_text())
        data = np.loadtxt(io.BytesIO(csv_bytes), delimiter=",", skiprows=1, ndmin=2)
        n = self.run.bundle.strategies.n
        L = data[:, -1]
        violations = int(np.count_nonzero(
            np.diff(L) > LYAPUNOV_TOL * max(1.0, abs(L[0]))
        ))
        problems = check_invariants(
            csv_bytes, self.rows_expected, data[:, 3:3 + n],
            cert["observed_peak"], cert["certified_peak"], violations,
        )
        if not cert["passed"]:
            problems.append("certification did not pass")
        obs = {
            "peak": cert["observed_peak"],
            "peak_time": cert["peak_time_days"],
            "terminal": [float(v) for v in data[-1, 1:4 + n]],
            "certified": cert["certified_peak"],
            "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        }
        return obs, problems, {"csv_bytes": len(csv_bytes), "lyapunov_violations": violations}


class AuditN3Fine(_Simulation):
    """The library path of the README sketch on the three-strategy scenario,
    sampled at every step as ``lyapunov_series`` recommends for audits."""

    name = "audit_n3_fine"
    overrides = [
        "strategies.betas=[0.12,0.15,0.19]",
        "strategies.costs=[0.45,0.25,0.05]",
        "policy.cstar=0.3",
        "policy.upsilon=6",
        "integrator.horizon=600",
        "integrator.output_stride=1",
        "initial.x=[1,0,0]",
    ]
    lattice = _lattice(0.12, 0.13, 9)

    def prepare(self, overrides):
        return resolve(apply_overrides(self.cfg, overrides)) if overrides else self.run

    def op(self, run):
        traj = simulate(run.initial, run.horizon, run.mech, run.proto, run.integrator)
        series = lyapunov_series(traj)
        write_csv(traj, self.tmp / "trajectory.csv")
        alpha = lyapunov_value(run.initial, run.mech, run.proto)
        result = peak_bound(BoundQuery(
            alloc=run.alloc,
            params=run.bundle.params,
            upsilon=run.bundle.policy.upsilon,
            alpha=alpha,
            grid=default_grid(run.bundle.strategies, run.grid_size),
        ))
        return traj, series, certify_trajectory(traj, result)

    def observe(self, out):
        traj, series, report = out
        csv_bytes = (self.tmp / "trajectory.csv").read_bytes()
        violations = len(series.violations)
        problems = check_invariants(
            csv_bytes, self.rows_expected, traj.x,
            report.observed_peak, report.certified_peak, violations,
        )
        k = len(traj) - 1
        obs = {
            "peak": report.observed_peak,
            "peak_time": report.peak_time,
            "terminal": [float(v) for v in (traj.I[k], traj.R[k], *traj.x[k], traj.q[k])],
            "certified": report.certified_peak,
            "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        }
        return obs, problems, {"csv_bytes": len(csv_bytes), "lyapunov_violations": violations}


class BoundSweepDense:
    """One point of ``scripts/bound_sweep.py`` at grid size 3000."""

    name = "bound_sweep_dense"
    overrides = ["bounds.grid_size=3000"]
    # the sweep script's scenario
    BASE = {"gamma": 0.1, "zeta": 0.0, "theta": 0.0, "psi": 0.011}
    STRATEGIES = StrategySpec(betas=(0.15, 0.19), costs=(0.2, 0.0))
    B0 = 0.15
    VARIANTS = [(0.10, 0.005), (0.10, 0.002), (0.10, 0.008), (0.05, 0.005), (0.15, 0.005)]
    UPSILONS = [float(u) for u in np.linspace(0.25, 6.0, 24)]
    lattice = [float(u) for u in np.linspace(0.25, 6.0, 47)]

    def __init__(self, tmp: Path):
        self.reference = load_reference().get(self.name, {})

    def setup(self) -> None:
        self.run = resolve(apply_overrides(load_config(CONFIG), self.overrides))
        self.work_per_op = self.run.grid_size
        self.sim_days = 0.0

    @staticmethod
    def point_input(cstar: float, delta: float, ups: float):
        return f"{cstar!r}/{delta!r}/{ups!r}", (cstar, delta, ups)

    def all_inputs(self):
        points = {(c, d, u) for c, d in self.VARIANTS for u in self.UPSILONS + self.lattice}
        return [self.point_input(*p) for p in sorted(points)]

    def inputs(self, seed: int):
        """Endless ``(label, (cstar, delta, upsilon))`` per op."""
        if seed == DEFAULT_SEED:
            while True:
                for cstar, delta in self.VARIANTS:
                    for ups in self.UPSILONS:
                        yield self.point_input(cstar, delta, ups)
        rng = random.Random(seed)
        while True:
            yield self.point_input(*rng.choice(self.VARIANTS), rng.choice(self.lattice))

    def prepare(self, point):
        return point

    def op(self, point):
        cstar, delta, ups = point
        params = ModelParams(delta=delta, **self.BASE)
        policy = PolicyConfig(cstar=cstar, upsilon=ups)
        validate(params, self.STRATEGIES, policy)
        alloc = optimal_allocation(self.STRATEGIES, policy, params)
        return peak_bound(BoundQuery(
            alloc=alloc,
            params=params,
            upsilon=ups,
            alpha=0.5 * ups ** 2 * (self.B0 - alloc.betastar) ** 2,
            grid=default_grid(self.STRATEGIES, self.run.grid_size),
        ))

    def observe(self, result):
        return {"peak_ratio": result.peak_ratio}, [], {}

    def check(self, label, result):
        ref = self.reference.get(label)
        if ref is None:
            return ["no reference value for this input"], {}
        return check_ratio(result.peak_ratio, ref["peak_ratio"], "peak ratio"), {}


WORKLOADS = {w.name: w for w in (SimExample1, AuditN3Fine, BoundSweepDense)}
