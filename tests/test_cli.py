from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epgtool.cli
from epgtool import config as _config
from epgtool.bounds import BoundQuery, default_grid, peak_bound
from epgtool.cli import main
from epgtool.dynamics import lyapunov_value

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example1.json"

FAST = ["--set", "integrator.horizon=50", "--set", "integrator.output_stride=50"]


def test_validate_ok(capsys):
    assert main(["validate", str(CONFIG)]) == 0
    assert "configuration valid" in capsys.readouterr().out


def test_validate_reports_assumption_name(capsys):
    code = main(["validate", str(CONFIG), "--set", "params.delta=0.02"])
    assert code == 2
    assert "delta<omega" in capsys.readouterr().err


def test_validate_emits_machine_readable_errors(capsys):
    code = main(
        ["validate", str(CONFIG), "--set", "params.delta=0.02", "--json-errors"]
    )
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ValidationError"
    assert any(v["name"] == "delta<omega" for v in payload["violations"])


def test_missing_config_exits_with_validation_code(capsys):
    assert main(["validate", "no/such/file.json"]) == 2


def _config_file(text):
    def write(tmp_path):
        path = tmp_path / "config.json"
        path.write_text(text)
        return str(path)
    return write


@pytest.mark.parametrize("config, overrides, names", [
    (lambda tmp: str(CONFIG), ["foo"], ["foo"]),
    (lambda tmp: str(CONFIG), ["params.gamma.x=1"], ["params.gamma.x"]),
    (lambda tmp: str(CONFIG), ["foo", "params.gamma.x=1", "policy.upsilon=3"],
     ["foo", "params.gamma.x"]),
    (_config_file("{not json"), [], ["config"]),
    (_config_file("[" * 100_000), [], ["config"]),  # nested beyond the recursion limit
    (lambda tmp: str(tmp / "missing.json"), [], ["config"]),
    (lambda tmp: str(tmp), [], ["config"]),  # a directory
], ids=["no-equals", "through-a-value", "listed-together", "not-json", "too-deep",
        "missing", "directory"])
def test_unreadable_config_and_malformed_overrides_are_listed(
        config, overrides, names, tmp_path, capsys):
    args = ["validate", config(tmp_path), "--json-errors"]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out)
    assert payload["error"] == "ValidationError"
    assert [v["name"] for v in payload["violations"]] == names


def test_equilibrium_summary_and_sweep(tmp_path, capsys):
    code = main(["equilibrium", str(CONFIG), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "beta* = 0.17" in out
    assert "x* = [0.5, 0.5]" in out
    sweep = np.loadtxt(tmp_path / "equilibrium_sweep.csv", delimiter=",", skiprows=1)
    assert sweep.shape == (30, 7)
    assert np.all(np.diff(sweep[:, 1]) > 0)  # infectious share grows with B


def test_a_model_in_a_small_time_unit_is_valid(tmp_path, capsys):
    # example1 with every rate x 1e-7 (a time unit of 1e-7 d) is the same
    # model: its sensitivity determinant is about -1.9e-16, as small as the
    # rates squared, and the endemic pair is example1's
    scaled = ["--set", "params.gamma=1e-8", "--set", "params.delta=5e-10",
              "--set", "params.psi=1.1e-9", "--set", "strategies.betas=[1.5e-8,1.9e-8]"]
    assert main(["validate", str(CONFIG), *scaled]) == 0
    assert main(["equilibrium", str(CONFIG), "--out", str(tmp_path), *scaled]) == 0
    assert "I* = 0.0374167 (3.74%), R* = 0.346037" in capsys.readouterr().out


def test_simulate_outputs(tmp_path, capsys):
    code = main(["simulate", str(CONFIG), "--out", str(tmp_path), *FAST])
    assert code == 0
    out = capsys.readouterr().out
    assert "certified bound" in out
    csv_path = tmp_path / "trajectory.csv"
    assert csv_path.exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["integrator"]["horizon"] == 50
    assert "epgtool" in manifest["version"]
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["passed"] is True
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert data.shape[0] == 101


def test_simulate_names_the_time_of_the_last_sample(tmp_path, capsys):
    # at stride 7 the last of 1000 steps is not recorded: the state and the
    # average cost printed are those of the sample at t = 9.94, not 10
    stride7 = ["--set", "integrator.horizon=10", "--set", "integrator.output_stride=7"]
    assert main(["simulate", str(CONFIG), "--out", str(tmp_path), *stride7]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "simulated 10.0 days (1000 steps)"
    assert lines[1].startswith("state at t=9.94 d (last sample): I=")
    assert lines[2].startswith("running-average cost at t=9.94 d (last sample): ")
    assert "terminal" not in "\n".join(lines)


def test_simulate_manifest_holds_the_run_stats(tmp_path):
    assert main(["simulate", str(CONFIG), "--out", str(tmp_path), *FAST]) == 0
    stats = json.loads((tmp_path / "manifest.json").read_text())["run_stats"]
    assert set(stats) == {
        "steps", "renormalizations", "worst_renormalization",
        "x_clips", "i_floors", "r_clips",
    }
    assert stats["steps"] == 5000
    assert 0 < stats["renormalizations"] <= 5000
    assert 0.0 < stats["worst_renormalization"] <= 1e-15


def test_simulate_manifest_holds_the_phase_times_and_the_audit(tmp_path):
    assert main(["simulate", str(CONFIG), "--out", str(tmp_path), *FAST]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    phases = manifest["phases_s"]
    assert set(phases) == {"integrate", "write_csv", "audit", "bound"}
    assert all(t >= 0.0 for t in phases.values())
    audit = manifest["audit"]
    assert audit["violations"] == 0 and audit["fd_tol"] == 1e-6
    assert abs(audit["worst_excess"]) < audit["fd_tol"]
    # two samples have no interior slope to audit
    short = ["--set", "integrator.horizon=50", "--set", "integrator.output_stride=5000"]
    assert main(["simulate", str(CONFIG), "--out", str(tmp_path), *short]) == 0
    audit = json.loads((tmp_path / "manifest.json").read_text())["audit"]
    assert audit == {"worst_excess": None, "violations": 0, "fd_tol": 1e-6}


@pytest.mark.parametrize("strategies, header", [
    ([], "t,I,R,x1,x2,q,B,cost,avg_cost,L"),
    (["strategies.betas=[0.12,0.15,0.19]", "strategies.costs=[0.45,0.25,0.05]",
      "policy.cstar=0.3", "initial.x=[1.0,0.0,0.0]"],
     "t,I,R,x1,x2,x3,q,B,cost,avg_cost,L"),
])
def test_the_manifest_names_the_columns_of_the_csv(strategies, header, tmp_path):
    # the manifest used to say "x1..xn" for any n
    args = ["simulate", str(CONFIG), "--out", str(tmp_path), *FAST]
    for item in strategies:
        args += ["--set", item]
    assert main(args) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    first = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert manifest["csv_columns"] == first == header


def test_simulate_writes_a_negative_zero_start_as_zero(tmp_path):
    negative = ["--set", "initial.x=[1.0,-0.0]", "--set", "initial.q=-0.0"]
    assert main(["simulate", str(CONFIG), "--out", str(tmp_path), *FAST, *negative]) == 0
    first = (tmp_path / "trajectory.csv").read_text().splitlines()[1].split(",")
    assert (first[4], first[5]) == ("0", "0")
    assert "-0" not in first


def test_manifest_records_every_setting_of_a_minimal_config(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({
        "params": {"gamma": 0.1, "delta": 0.005, "psi": 0.011},
        "strategies": {"betas": [0.15, 0.19], "costs": [0.2, 0.0]},
        "policy": {"cstar": 0.1, "upsilon": 2.0},
        "initial": {"x": [1.0, 0.0]},
    }))
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out), *FAST]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert {section: set(keys) for section, keys in config.items()} == {
        section: set(keys) for section, keys in _config._SCHEMA.items()
    }
    assert config["params"]["zeta"] == 0.0 and config["params"]["theta"] == 0.0
    assert config["policy"]["offsupport_margin"] == 0.01
    assert config["initial"]["I"] is None


def test_simulate_is_deterministic(tmp_path):
    digests = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main(["simulate", str(CONFIG), "--out", str(out), *FAST]) == 0
        digests.append(
            hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
        )
    assert digests[0] == digests[1]


# example1's outputs with the default settings, by subcommand and file
PINNED_OUTPUTS = {
    ("equilibrium",): {
        "equilibrium_sweep.csv":
            "89c860e0ccd400c35c953ae721a943d44bb0525e9e99b804084d64aa6f6a9a4f",
    },
    ("bounds", "--upsilons", "0.5,1,2,6"): {
        "bounds_sweep.csv":
            "8b1630ef90ee1f3c30bb51f10705efab5088ee843d804e1a9063903b3bfd8c8b",
        "bounds_detail.json":
            "0c8543010310b0360b4a983afc1e8421e53178c83aa4d9cbd6291c28bec020df",
    },
    ("simulate",): {
        "trajectory.csv":
            "4cddf43cbdb0376305b9a12940901e4afbeef8371917c8825d26c3ec5dc8c595",
        "certification.json":
            "072e970897a0ee9da0fc92beea71717b4ad1f1e7400b4a474a42ab5fe081f867",
    },
}


@pytest.mark.parametrize("command", list(PINNED_OUTPUTS), ids=lambda c: c[0])
def test_example1_outputs_are_pinned(command, tmp_path, capsys):
    """The full sha256 of each output file of example1.

    A change that moves one of them changes the program's results, and has
    to say so.  ``manifest.json`` holds the git version and is not pinned.
    The bytes of ``trajectory.csv`` (and so of the level and the bound
    derived from its start) follow ``math.log``, which glibc implements in
    more than one variant, picked by the host's CPU features.  ROADMAP
    item 5 records a kernel fingerprint whose ``L`` column moves in 2 of
    4001 rows under glibc's non-FMA ``log``; on a host that selects it,
    these pins may move too while the program has not.
    """
    name, *options = command
    assert main([name, str(CONFIG), "--out", str(tmp_path), *options]) == 0
    digests = {file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
               for file in PINNED_OUTPUTS[command]}
    assert digests == PINNED_OUTPUTS[command]


def test_oversized_step_exits_with_runtime_code(tmp_path, capsys):
    code = main([
        "simulate", str(CONFIG), "--out", str(tmp_path),
        "--set", "integrator.step=50", "--set", "integrator.horizon=500",
        "--set", "initial.q=-80", "--set", "initial.x=[0.0,1.0]",
    ])
    assert code == 3
    assert "step rejected" in capsys.readouterr().err


def test_bounds_sweep_rows(tmp_path, capsys):
    code = main([
        "bounds", str(CONFIG), "--out", str(tmp_path), "--upsilons", "0.2,2,6",
    ])
    assert code == 0
    path = tmp_path / "bounds_sweep.csv"
    header = path.read_text().splitlines()[0]
    assert header == "upsilon,beta_star,delta,alpha,peak_ratio"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (3, 5)
    detail = json.loads((tmp_path / "bounds_detail.json").read_text())
    assert len(detail) == 3
    assert len(detail[1]["grid"]) == 30 and "ratios" not in detail[1]
    assert detail[1]["peak_ratio"] == pytest.approx(rows[1][4], rel=1e-12)
    by_ups = {row[0]: row for row in rows}
    assert by_ups[2.0][4] == pytest.approx(1.2876, abs=5e-3)
    # the level and the rate penalty both scale with the squared gain, so a
    # vanishing gain pins the ratio at the endemic range maximum, not at 1
    assert 1.0 < by_ups[0.2][4] < by_ups[2.0][4]
    assert by_ups[6.0][4] > by_ups[2.0][4]


def test_bounds_grid_refinement_stability(tmp_path):
    vals = {}
    for m in (30, 60):
        out = tmp_path / str(m)
        assert main([
            "bounds", str(CONFIG), "--out", str(out),
            "--upsilons", "1,2", "--set", f"bounds.grid_size={m}",
        ]) == 0
        vals[m] = np.loadtxt(out / "bounds_sweep.csv", delimiter=",", skiprows=1)
    assert np.all(np.abs(vals[30][:, 4] - vals[60][:, 4]) < 1e-3)


def test_initial_state_by_rate(tmp_path, capsys):
    code = main([
        "equilibrium", str(CONFIG), "--out", str(tmp_path),
        "--set", "initial.x=null", "--set", "initial.B=0.16",
    ])
    assert code == 0
    # giving both forms is ambiguous and must be rejected
    code = main([
        "simulate", str(CONFIG), "--out", str(tmp_path),
        "--set", "initial.B=0.16", *FAST,
    ])
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_start_at_the_target_is_certified(tmp_path, capsys):
    # level 0 and a target rate off the 30-point grid: this exited 3
    code = main(["simulate", str(CONFIG), "--out", str(tmp_path), *FAST,
                 "--set", "initial.x=[0.5,0.5]"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert (cert["alpha"], cert["peak_ratio"]) == (0.0, 1.0)
    assert (cert["margin"], cert["passed"]) == (0.0, True)


# by day 200 the peak at level 0 exceeds that level's bound
AT_LEVEL_0 = ["--set", "bounds.alpha=0", "--set", "integrator.horizon=200",
              "--set", "integrator.output_stride=50"]


@pytest.mark.parametrize("command", [
    ["certify", *AT_LEVEL_0],
    ["bounds", "--set", "bounds.alpha=1e-9", "--upsilons", "1,2"],
])
def test_levels_below_every_grid_penalty_are_bounded(command, tmp_path, capsys):
    code = main([command[0], str(CONFIG), "--out", str(tmp_path), *command[1:]])
    if command[0] == "certify":
        # level 0 is below the start's Lyapunov value: the bound exists but
        # the observed peak exceeds it
        assert code == 3
        assert "FAIL" in capsys.readouterr().out
        cert = json.loads((tmp_path / "certification.json").read_text())
        assert cert["passed"] is False and math.isfinite(cert["certified_peak"])
    else:
        assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("alpha, code, verdict", [
    ("0.0008", 0, "PASS"), ("0", 3, "FAIL"),
])
def test_certify_exit_code_is_the_verdict(alpha, code, verdict, tmp_path, capsys):
    args = ["--out", str(tmp_path), *AT_LEVEL_0, "--set", f"bounds.alpha={alpha}"]
    assert main(["certify", str(CONFIG), *args]) == code
    assert verdict in capsys.readouterr().out
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["passed"] is (code == 0)
    # simulate writes the same verdict and exits 0: its product is the run
    assert main(["simulate", str(CONFIG), *args]) == 0
    assert verdict in capsys.readouterr().out


@pytest.mark.parametrize("level, verdict, code", [([], "PASS", 0), (AT_LEVEL_0, "FAIL", 3)])
def test_certify_writes_what_simulate_writes(level, verdict, code, tmp_path, capsys):
    # one pipeline: the same files, the same bytes but for the manifest's
    # phase times, whichever the verdict; certify used to write only
    # certification.json
    runs = {}
    for command, exit_code in (("simulate", 0), ("certify", code)):
        out = tmp_path / command
        assert main([command, str(CONFIG), "--out", str(out), *FAST, *level]) == exit_code
        assert verdict in capsys.readouterr().out
        runs[command] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(runs["certify"]) == {"trajectory.csv", "certification.json", "manifest.json"}
    assert set(runs["certify"]) == set(runs["simulate"])
    for name in ("trajectory.csv", "certification.json"):
        assert runs["certify"][name] == runs["simulate"][name]
    manifests = [json.loads(runs[command]["manifest.json"]) for command in runs]
    assert manifests[0].keys() == manifests[1].keys()
    assert manifests[0]["phases_s"].keys() == manifests[1]["phases_s"].keys()
    for manifest in manifests:
        del manifest["phases_s"]
    assert manifests[0] == manifests[1]


def test_certify_reports_pass(tmp_path, capsys):
    code = main(["certify", str(CONFIG), "--out", str(tmp_path), *FAST])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["margin"] > 0


EXPLICIT = ["--set", "initial.I=0.08", "--set", "initial.R=0.3"]


def test_bounds_level_is_the_initial_lyapunov_value(tmp_path):
    code = main([
        "bounds", str(CONFIG), "--out", str(tmp_path), "--upsilons", "2",
        *EXPLICIT,
    ])
    assert code == 0
    ups, _, _, alpha, ratio = np.loadtxt(
        tmp_path / "bounds_sweep.csv", delimiter=",", skiprows=1
    )
    assert ups == 2.0
    assert alpha == pytest.approx(0.0225034, abs=5e-8)
    detail = json.loads((tmp_path / "bounds_detail.json").read_text())
    assert detail[0]["certified_peak"] >= 0.08  # at least I(0)


def test_configured_alpha_is_the_level_of_bounds_and_certify(tmp_path):
    level = ["--set", "bounds.alpha=0.0008"]
    assert main(["bounds", str(CONFIG), "--out", str(tmp_path), *level]) == 0
    _, _, _, alpha, ratio = np.loadtxt(
        tmp_path / "bounds_sweep.csv", delimiter=",", skiprows=1
    )
    assert alpha == 0.0008  # the initial Lyapunov value is 0.00079999999999999917
    assert ratio == 1.2876121586927654
    run = _config.resolve(_config.load_config(CONFIG))
    assert ratio == peak_bound(BoundQuery(
        alloc=run.alloc, params=run.bundle.params, upsilon=2.0, alpha=0.0008,
        grid=default_grid(run.bundle.strategies, 30),
    )).peak_ratio
    assert main(["certify", str(CONFIG), "--out", str(tmp_path), *level, *FAST]) == 0
    assert json.loads((tmp_path / "certification.json").read_text())["alpha"] == 0.0008


@pytest.mark.parametrize("command", ["validate", "simulate", "certify"])
def test_start_with_the_wrong_number_of_shares_is_listed(command, tmp_path, capsys):
    # used to pass validate and crash simulate and certify with a TypeError
    code = main([
        command, str(CONFIG), "--out", str(tmp_path), "--json-errors",
        *EXPLICIT, "--set", "initial.x=[0.5,0.25,0.25]",
    ])
    assert code == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert violations == [
        {"name": "initial.x", "detail": "has 3 shares for 2 strategies"},
    ]
    assert not (tmp_path / "trajectory.csv").exists()


# a three-strategy range whose top rate 1e308 overflows the endemic algebra
OVERFLOWING_TOP = ["strategies.betas=[0.15,0.19,1e308]", "strategies.costs=[0.2,0.1,0.0]",
                   "policy.cstar=0.15"]


@pytest.mark.parametrize("overrides, violation", [
    # the range's top 1e308 (and the optimal mix's rate 5e307): its
    # discriminant overflows to NaN
    (["strategies.betas=[0.15,1e308]"],
     {"name": "endemic_range", "detail": "disc=nan, B=1e+308"}),
    # a finite discriminant's square root overflows, and I_hat is NaN
    (["params.psi=1e308"],
     {"name": "endemic_range", "detail": "disc=inf, B=0.15"}),
    # a sound optimal mix, and a start at the rate 1e308
    ([*OVERFLOWING_TOP, "initial.x=[0.0,0.0,1.0]"],
     {"name": "endemic_range", "detail": "disc=nan, B=1e+308"}),
    # a sound optimal mix and start: bounds used to exit 3 at a grid rate,
    # simulate and certify at a NaN step
    ([*OVERFLOWING_TOP, "initial.x=[1.0,0.0,0.0]"],
     {"name": "endemic_range", "detail": "disc=nan, B=1e+308"}),
])
@pytest.mark.parametrize("command", ["validate", "simulate", "bounds", "certify"])
def test_an_overflowing_endemic_algebra_is_one_violation(
        command, overrides, violation, tmp_path, capsys):
    # the strategy range is checked once: every rate a run evaluates lies in it
    args = [command, str(CONFIG), "--out", str(tmp_path), "--json-errors", *FAST]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    assert json.loads(capsys.readouterr().out)["violations"] == [violation]


def test_start_rate_outside_the_strategies_is_listed(capsys):
    code = main([
        "validate", str(CONFIG), "--json-errors",
        "--set", "initial.x=null", "--set", "initial.B=0.5",
    ])
    assert code == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert violations == [
        {"name": "initial.B", "detail": "must be from 0.15 to 0.19, got 0.5"},
    ]


@pytest.mark.parametrize("overrides, violation", [
    # starts off the state space, listed with the message of their check
    (["initial.x=[0.5,0.6]"],
     ("initial", "population state array([0.5, 0.6]) does not sum to 1")),
    (["initial.x=[0.9,0.9]"],
     ("initial", "B=0.30600000000000005 outside strategy range [0.15, 0.19]")),
    (["initial.I=0.5", "initial.R=0.6"],
     ("initial", "(I, R)=(0.5, 0.6) not in the state space")),
    (["initial.I=0", "initial.R=0.3"], ("initial", "I=0.0 must be positive")),
    (["initial.I=0.08", "initial.R=0.3", "initial.x=[1.5,-0.5]"],
     ("initial", "population state array([ 1.5, -0.5]) has entries outside [0, 1]")),
    # a start given by I or R is explicit and takes all of I, R and x
    (["initial.I=0.08"], ("initial.R", "is required")),
    (["initial.I=0.08", "initial.R=0.3", "initial.B=0.16"],
     ("initial.B", "an explicit start takes initial.x, not initial.B")),
])
def test_start_errors_are_listed(overrides, violation, capsys):
    args = ["validate", str(CONFIG), "--json-errors"]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert [(v["name"], v["detail"]) for v in violations] == [violation]


def test_certified_level_is_the_first_lyapunov_value_of_the_csv(tmp_path):
    assert main(["simulate", str(CONFIG), "--out", str(tmp_path), *FAST,
                 "--set", "initial.x=[0.3,0.7]"]) == 0
    cert = json.loads((tmp_path / "certification.json").read_text())
    first_row = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
    assert cert["alpha"] == float(first_row.split(",")[-1])


def test_missing_sections_are_listed_together(tmp_path, capsys):
    path = tmp_path / "params_only.json"
    path.write_text(json.dumps({"params": {"gamma": 0.1, "delta": 0.005}}))
    assert main(["validate", str(path), "--json-errors"]) == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert [(v["name"], v["detail"]) for v in violations] == [
        ("strategies", "is required"), ("policy", "is required"),
        # the default start is endemic and names neither x nor B
        ("initial.x", "is required unless initial.B is given"),
    ]


def test_bad_upsilons_are_listed_together(tmp_path, capsys):
    # -1, 0 and inf used to exit 0 with a "certified" ratio (inf: 1/I*)
    code = main([
        "bounds", str(CONFIG), "--out", str(tmp_path), "--json-errors",
        "--upsilons=-1,2,0,inf,nan",
    ])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert [v["name"] for v in payload["violations"]] == [
        "--upsilons[0]", "--upsilons[2]", "--upsilons[3]", "--upsilons[4]",
    ]
    assert not (tmp_path / "bounds_sweep.csv").exists()


def test_an_empty_upsilons_is_one_violation(tmp_path, capsys):
    # used to run the configured gain and exit 0, while "--upsilons=," was
    # two violations
    code = main([
        "bounds", str(CONFIG), "--out", str(tmp_path), "--json-errors", "--upsilons=",
    ])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert [(v["name"], v["detail"]) for v in payload["violations"]] == [
        ("--upsilons[0]", "'' is not a finite positive number"),
    ]
    assert not (tmp_path / "bounds_sweep.csv").exists()


def test_upsilons_rows_equal_runs_at_the_configured_gain(tmp_path):
    assert main([
        "bounds", str(CONFIG), "--out", str(tmp_path / "all"), "--upsilons", "1,6",
    ]) == 0
    rows = (tmp_path / "all" / "bounds_sweep.csv").read_text().splitlines()
    for k, ups in enumerate(("1", "6")):
        out = tmp_path / ups
        assert main([
            "bounds", str(CONFIG), "--out", str(out), "--set", f"policy.upsilon={ups}",
        ]) == 0
        assert (out / "bounds_sweep.csv").read_text().splitlines()[1] == rows[1 + k]


@pytest.mark.parametrize("override", [
    "strategies.betas=0.2", "params.gama=0.1", 'params.gamma="x"',
    'protocol.kind="imitation"', 'initial.kind="random"', "initial.B=0.16",
    "initial.x=null", "initial.B=0.5", "initial.x=[0.5,0.25,0.25]",
    "integrator.step=0", "integrator.output_stride=0",
    "bounds.alpha=-1", "protocol.rate_gain=-1", "protocol.cap=0",
    "strategies.costs=[0.2]", "strategies.betas=[0.15]",
    # an integer beyond the float range
    pytest.param("params.gamma=1" + "0" * 400, id="params.gamma=10**400"),
])
def test_malformed_config_lists_violations_without_traceback(override, capsys):
    code = main(["validate", str(CONFIG), "--set", override])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert override.split("=")[0] in err


def test_malformed_entries_are_reported_together(capsys):
    code = main([
        "validate", str(CONFIG), "--json-errors",
        "--set", "strategies.betas=0.2", "--set", "params.gama=0.1",
        "--set", 'params.gamma="x"',
    ])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    names = {v["name"] for v in payload["violations"]}
    assert names == {"strategies.betas", "params.gama", "params.gamma"}


def test_removed_population_keys_are_unknown(capsys):
    code = main([
        "validate", str(CONFIG), "--json-errors",
        "--set", "integrator.track_population=false",
        "--set", "initial.population=1e6",
    ])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert [(v["name"], v["detail"]) for v in payload["violations"]] == [
        ("integrator.track_population", "unknown key"),
        ("initial.population", "unknown key"),
    ]


def test_validate_starts_no_subprocess(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    assert main(["validate", str(CONFIG)]) == 0


def test_the_library_never_loads_subprocess():
    # only _version_string imports it, for the manifest and --version
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, epgtool, epgtool.cli, epgtool.bounds; "
            "print('subprocess' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("outcome", [
    subprocess.CompletedProcess(["git"], 128, "", "not a git repository"),
    OSError("git not found"),
])
def test_version_without_git_describe_is_the_package_version(outcome, monkeypatch):
    def describe(*args, **kwargs):
        if isinstance(outcome, OSError):
            raise outcome
        return outcome

    monkeypatch.setattr(subprocess, "run", describe)
    assert epgtool.cli._version_string() == f"epgtool {epgtool.__version__}"


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not on PATH")
def test_an_installed_copy_inside_another_work_tree_has_the_package_version(tmp_path):
    # git describe from the package directory used to walk up into the
    # enclosing repository and name its commit
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q", str(tmp_path)], env=env, check=True)
    subprocess.run([*git, "-C", str(tmp_path), "commit", "-q", "--allow-empty", "-m", "other"],
                   env=env, check=True)
    site = tmp_path / ".venv" / "lib" / "site-packages"
    shutil.copytree(Path(epgtool.cli.__file__).parent, site / "epgtool",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env["PYTHONPATH"] = str(site)
    done = subprocess.run(
        [sys.executable, "-c", "import epgtool.cli as c; print(c._version_string())"],
        env=env, cwd=tmp_path, check=True, capture_output=True, text=True)
    assert done.stdout.strip() == f"epgtool {epgtool.__version__}"


def test_version_flag_prints_version(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("epgtool ")


def _refuse_runs(monkeypatch):
    """Make any simulation or rate grid the CLI builds fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a simulation or grid was built")

    monkeypatch.setattr(epgtool.cli, "simulate", refuse)
    monkeypatch.setattr(epgtool.cli, "default_grid", refuse)


@pytest.mark.parametrize("command", ["validate", "simulate", "bounds"])
def test_oversized_runs_are_rejected_before_anything_runs(
    command, monkeypatch, tmp_path, capsys
):
    _refuse_runs(monkeypatch)
    code = main([
        command, str(CONFIG), "--out", str(tmp_path), "--json-errors",
        "--set", "integrator.horizon=1e12", "--set", "bounds.grid_size=1000000000",
    ])
    assert code == 2
    names = {v["name"] for v in json.loads(capsys.readouterr().out)["violations"]}
    assert names == {"integrator.horizon", "integrator.output_stride",
                     "bounds.grid_size"}


def test_horizon_must_be_a_whole_number_of_steps(monkeypatch, capsys):
    _refuse_runs(monkeypatch)
    code = main(["validate", str(CONFIG), "--set", "integrator.horizon=1500.005"])
    assert code == 2
    err = capsys.readouterr().err
    assert "integrator.horizon" in err and "integer number of steps" in err
    assert "Traceback" not in err


def test_caps_admit_the_largest_runs_in_use(monkeypatch, capsys):
    _refuse_runs(monkeypatch)
    horizon_at_cap = _config.MAX_STEPS // 100  # days at the default 0.01 step
    stride_at_cap = _config.MAX_STEPS // (_config.MAX_SAMPLES - 1)
    largest = [
        # every-step audit sampling, and the dense bound grid
        ["integrator.horizon=600", "integrator.output_stride=1",
         "bounds.grid_size=3000"],
        # exactly MAX_STEPS steps, MAX_SAMPLES samples and MAX_GRID_SIZE rates
        [f"integrator.horizon={horizon_at_cap}",
         f"integrator.output_stride={stride_at_cap}",
         f"bounds.grid_size={_config.MAX_GRID_SIZE}"],
    ]
    for overrides in largest:
        args = ["validate", str(CONFIG)]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 0, capsys.readouterr().err
    one_step_more = f"integrator.horizon={horizon_at_cap + 0.01}"
    assert main(["validate", str(CONFIG), "--set", one_step_more]) == 2


_KEYS = [f"{section}.{key}" for section, keys in _config._SCHEMA.items()
         for key in keys]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**12, 10**12)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_OVERRIDE_KEYS = st.sampled_from(_KEYS) | st.text(
    alphabet="abcdeghiklmnoprstuxyBIRq._", min_size=1, max_size=20
)
# JSON text, or any text (taken as a string when it does not parse)
_VALUES = _JSON.map(json.dumps) | st.text(max_size=10)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_OVERRIDE_KEYS, _VALUES), min_size=1, max_size=3))
def test_fuzzed_overrides_fail_cleanly(overrides):
    # in process, an uncaught exception fails the test by itself
    args = ["validate", str(CONFIG)]
    args += [f"--set={key}={value}" for key, value in overrides]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


# the smallest gain whose square overflows, and the largest whose does not
_OVERFLOWING_GAIN = "1.3407807929942597e+154"
_LARGEST_GAIN = "1.3407807929942596e+154"


@pytest.mark.parametrize("command, name", [
    (["bounds", f"--upsilons=2,{_OVERFLOWING_GAIN}"], "--upsilons[1]"),
    (["simulate", "--set", f"policy.upsilon={_OVERFLOWING_GAIN}"], "upsilon>0"),
    (["validate", "--set", f"policy.upsilon={_OVERFLOWING_GAIN}"], "upsilon>0"),
])
def test_gain_whose_square_overflows_is_listed(command, name, tmp_path, capsys):
    # these used to exit 3 with a bare OverflowError (validate: exit 0)
    code = main([command[0], str(CONFIG), "--out", str(tmp_path), "--json-errors",
                 *command[1:]])
    assert code == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert [v["name"] for v in violations] == [name]
    assert not (tmp_path / "trajectory.csv").exists()


def test_largest_gain_with_a_finite_square_is_accepted(tmp_path):
    assert main(["bounds", str(CONFIG), "--out", str(tmp_path),
                 f"--upsilons={_LARGEST_GAIN}"]) == 0


# a gain as number text, or any text over the characters numbers are made of
_GAIN = (st.floats().map(repr) | st.integers(-10, 10).map(str)
         | st.text(alphabet="0123456789.-+eEinfaINF _x", max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.lists(_GAIN, min_size=1, max_size=4).map(",".join))
@example(_OVERFLOWING_GAIN)
def test_fuzzed_upsilons_fail_cleanly(upsilons):
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["bounds", str(CONFIG), "--out", tmp, "--json-errors",
                         "--set", "bounds.grid_size=2", f"--upsilons={upsilons}"])
    assert code in (0, 2)
    if code == 2:
        violations = json.loads(out.getvalue())["violations"]
        assert violations and all(v["name"].startswith("--upsilons[") for v in violations)


def test_upsilons_beyond_the_cap_are_one_violation_before_any_bound(
    monkeypatch, tmp_path, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("a bound was computed")

    monkeypatch.setattr(epgtool.cli, "peak_bound", refuse)
    at_cap = ",".join(["2"] * _config.MAX_GAINS)
    with pytest.raises(AssertionError, match="a bound was computed"):
        main(["bounds", str(CONFIG), "--out", str(tmp_path), f"--upsilons={at_cap}"])
    # one gain more, and a bad entry, give the one violation of the cap
    code = main(["bounds", str(CONFIG), "--out", str(tmp_path), "--json-errors",
                 f"--upsilons={at_cap},-1"])
    assert code == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert [(v["name"], v["detail"]) for v in violations] == [
        ("--upsilons", f"{_config.MAX_GAINS + 1} gains exceed the cap of "
                       f"{_config.MAX_GAINS}"),
    ]
    assert not (tmp_path / "bounds_sweep.csv").exists()


def test_unparsable_upsilons_are_listed(tmp_path, capsys):
    code = main(["bounds", str(CONFIG), "--out", str(tmp_path), "--json-errors",
                 "--upsilons=a,2,,-1"])
    assert code == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert [(v["name"], v["detail"]) for v in violations] == [
        ("--upsilons[0]", "'a' is not a finite positive number"),
        ("--upsilons[2]", "'' is not a finite positive number"),
        ("--upsilons[3]", "'-1' is not a finite positive number"),
    ]


@pytest.mark.parametrize("override", [
    "initial.q=NaN", "bounds.alpha=NaN", "params.gamma=Infinity",
    "strategies.betas=[0.15,-Infinity]",
])
def test_non_finite_numbers_are_rejected(override, monkeypatch, capsys):
    # a NaN level or start used to reach certify and report a PASS
    _refuse_runs(monkeypatch)
    assert main(["validate", str(CONFIG), "--set", override]) == 2
    err = capsys.readouterr().err
    assert override.split("=")[0] in err and "finite" in err


def test_certificate_records_the_start_level_and_warns_below_it(tmp_path, capsys):
    assert main(["certify", str(CONFIG), "--out", str(tmp_path), *FAST]) == 0
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["start_level"] == cert["alpha"] == 0.00079999999999999917
    assert "warning" not in capsys.readouterr().err
    code = main(["certify", str(CONFIG), "--out", str(tmp_path), *FAST,
                 "--set", "bounds.alpha=0"])
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["alpha"] == 0.0
    assert cert["start_level"] == 0.00079999999999999917
    # a warning, not a violation: the verdict alone sets the exit code
    assert code == (0 if cert["passed"] else 3)
    err = capsys.readouterr().err
    assert err.count("warning") == 1
    assert "bounds.alpha=0.0" in err and repr(cert["start_level"]) in err


def test_horizon_shorter_than_one_step_is_listed(tmp_path, capsys):
    code = main(["simulate", str(CONFIG), "--out", str(tmp_path), "--json-errors",
                 "--set", "integrator.horizon=1e-12"])
    assert code == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert [(v["name"], v["detail"]) for v in violations] == [
        ("integrator.horizon", "horizon 1e-12 is shorter than one step of 0.01")]
    assert not (tmp_path / "trajectory.csv").exists()


def test_bounds_warns_once_per_gain_below_the_start(tmp_path, capsys):
    code = main(["bounds", str(CONFIG), "--out", str(tmp_path),
                 "--set", "bounds.alpha=1e-9", "--upsilons", "1,2"])
    assert code == 0
    run = _config.resolve(_config.load_config(CONFIG))
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 2
    for line, ups in zip(warnings, (1.0, 2.0)):
        level = lyapunov_value(
            run.initial, dataclasses.replace(run.mech, upsilon=ups), run.proto)
        assert line.startswith("warning: bounds.alpha=1e-09 ")
        assert repr(level) in line and f"upsilon={ups!r}" in line
    assert [float(row.split(",")[3]) for row in
            (tmp_path / "bounds_sweep.csv").read_text().splitlines()[1:]] == [1e-9, 1e-9]


def test_bounds_and_simulate_take_the_same_start_level(tmp_path, capsys):
    assert main(["bounds", str(CONFIG), "--out", str(tmp_path), "--upsilons", "2"]) == 0
    assert main(["simulate", str(CONFIG), "--out", str(tmp_path), *FAST]) == 0
    assert "warning" not in capsys.readouterr().err
    detail = json.loads((tmp_path / "bounds_detail.json").read_text())
    sweep_row = (tmp_path / "bounds_sweep.csv").read_text().splitlines()[1]
    cert = json.loads((tmp_path / "certification.json").read_text())
    first_row = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
    alpha = detail[0]["alpha"]
    assert alpha == float(sweep_row.split(",")[3])
    assert alpha == cert["alpha"] == cert["start_level"] == float(first_row.split(",")[-1])


# sha256 of the help texts at 80 columns, as argparse of Python 3.11 lays
# them out; other versions may wrap or word them differently
_HELP_SHA256 = {
    (): "8edf9525562e381184a66d1737fcf1b6c66d9aae1819d658e6a108d292c62e69",
    ("validate",): "e3d9bbfa854f07718ba64fe4ebdba8a91e3a03bd716d170f1772767b3b9764bc",
    ("equilibrium",): "24570d029cb88792b0cfbb794a50abd5ca59cedfd83f39b16ca05a43a0d0e885",
    ("simulate",): "3b050f5a2ada1407a5dafacaf4e4aa50110e0791b16649432d337b1d1815cc08",
    ("bounds",): "bb26fc419a58bfd653d53e3d35de3d88c038d44054d0545b814421e71f66516a",
    ("certify",): "4b1d28105a28459d24f237ed2c5a4e9cc9d2439e226dde3f73bb86951e572a4c",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help texts pinned as laid out by Python 3.11's argparse")
@pytest.mark.parametrize("command", list(_HELP_SHA256),
                         ids=lambda command: "-".join(("epgtool", *command)))
def test_help_texts_are_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([*command, "-h"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == _HELP_SHA256[command], text
