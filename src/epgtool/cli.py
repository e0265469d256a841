"""Command-line entry points.

Subcommands: ``validate``, ``equilibrium``, ``simulate``, ``bounds``,
``certify``.  All take a JSON config file plus ``--set section.key=value``
overrides.  Exit codes: 0 success, 2 validation failure, 3 runtime failure
or, from ``certify``, a failed certificate.  Outputs are deterministic for a
fixed configuration, but for the manifest's version and phase times.

``simulate`` and ``certify`` run one pipeline, :func:`_simulate_and_certify`,
and write the same files; only their exit codes differ.  ``bounds``,
``simulate`` and ``certify`` all take their bound, and its level, from
:func:`_bound_for`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import BoundQuery, certify_trajectory, default_grid, peak_bound
from .config import MAX_GAINS, apply_overrides, load_config, resolve
from .dynamics import (
    StepRejected,
    lyapunov_series,
    lyapunov_value,
    simulate,
    write_csv,
    write_table,
)
from .equilibrium import endemic_state
from .params import AssumptionViolated, ValidationError, usable_gain

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _version_string() -> str:
    """Package version, refined with git describe when run from a checkout.

    ``subprocess`` is imported here, so the library never loads it.
    """
    import subprocess

    here = Path(__file__).resolve()
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here.parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if described.returncode == 0:
            return f"epgtool {__version__} ({described.stdout.strip()})"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"epgtool {__version__}"


class _VersionAction(argparse.Action):
    """``--version`` that runs ``git describe`` only when it is asked for."""

    def __init__(self, option_strings, dest=argparse.SUPPRESS, help=None):
        super().__init__(option_strings, dest, default=argparse.SUPPRESS,
                         nargs=0, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        print(_version_string())
        parser.exit()


def _load(args):
    cfg = load_config(args.config)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    return resolve(cfg)


def _emit_error(args, exc: Exception, code: int) -> int:
    if getattr(args, "json_errors", False):
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ValidationError):
            payload["violations"] = [
                {"name": v.name, "detail": v.detail} for v in exc.violations
            ]
        print(json.dumps(payload, indent=2))
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_validate(args) -> int:
    run = _load(args)
    print("configuration valid")
    print(f"  strategies: n={run.bundle.strategies.n}, "
          f"betas={list(run.bundle.strategies.betas)}")
    print(f"  budget c*={run.bundle.policy.cstar}, "
          f"upsilon={run.bundle.policy.upsilon}")
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    run = _load(args)
    alloc, params, strategies = run.alloc, run.bundle.params, run.bundle.strategies
    eq = alloc.endemic
    print(f"optimal mix x* = {list(alloc.xstar)} (adjacent pair at index {alloc.istar})")
    print(f"average transmission rate beta* = {alloc.betastar:.12g} /day")
    print(f"endemic equilibrium at beta*: I* = {eq.I_hat:.6g} ({100 * eq.I_hat:.2f}%), "
          f"R* = {eq.R_hat:.6g} ({100 * eq.R_hat:.2f}%)")
    out = _outdir(args)
    grid = default_grid(strategies, run.grid_size)
    curve = endemic_state(grid, params)
    columns = ["B", "I_hat", "R_hat", "a", "dI_dB", "dR_dB", "da_dB"]
    sweep_path = out / "equilibrium_sweep.csv"
    write_table(sweep_path, columns, [getattr(curve, name) for name in columns])
    print(f"wrote {sweep_path}")
    return EXIT_OK


def _bound_for(run, upsilon: float):
    """Peak bound of the run's start at gain ``upsilon`` on the run's rate
    grid, and the start's Lyapunov value under that gain.

    The bound's level is the configured ``bounds.alpha``, else the start's
    value.  A configured level below the start's is used, with a warning
    that names the gain: the bound at that level does not cover this start.
    """
    start_level = lyapunov_value(
        run.initial, dataclasses.replace(run.mech, upsilon=upsilon), run.proto)
    alpha = start_level if run.alpha is None else run.alpha
    if alpha < start_level:
        print(f"warning: bounds.alpha={alpha!r} is below the start's level "
              f"{start_level!r} at upsilon={upsilon!r}; the certificate does "
              "not cover this start", file=sys.stderr)
    grid = default_grid(run.bundle.strategies, run.grid_size)
    return peak_bound(BoundQuery(alloc=run.alloc, params=run.bundle.params,
                                 upsilon=upsilon, alpha=alpha, grid=grid)), start_level


def _simulate_and_certify(args):
    """``simulate``'s and ``certify``'s one pipeline: integrate, write
    ``trajectory.csv``, audit (:func:`lyapunov_series`), certify at the
    configured gain, write ``certification.json`` (with the start's
    Lyapunov value ``start_level`` next to the level ``alpha``) and
    ``manifest.json``, print the summary, and return the
    :class:`~epgtool.bounds.CertificationReport`."""
    run = _load(args)
    start = time.perf_counter()
    traj = simulate(run.initial, run.horizon, run.mech, run.proto, run.integrator)
    integrated = time.perf_counter()
    out = _outdir(args)
    csv_path = out / "trajectory.csv"
    csv_columns = write_csv(traj, csv_path)
    written = time.perf_counter()
    series = lyapunov_series(traj)
    audited = time.perf_counter()
    result, start_level = _bound_for(run, run.bundle.policy.upsilon)
    report = certify_trajectory(traj, result)
    fields = dict(observed_peak=report.observed_peak, peak_time_days=report.peak_time,
                  certified_peak=report.certified_peak, peak_ratio=report.peak_ratio,
                  alpha=report.alpha, start_level=start_level, margin=report.margin,
                  passed=report.passed)
    (out / "certification.json").write_text(json.dumps(fields, indent=2) + "\n")
    manifest = {
        "csv_columns": csv_columns,
        "run_stats": dataclasses.asdict(traj.stats),
        "phases_s": {"integrate": integrated - start, "write_csv": written - integrated,
                     "audit": audited - written, "bound": time.perf_counter() - audited},
        "audit": {"worst_excess": series.worst_excess,
                  "violations": len(series.violations), "fd_tol": series.fd_tol},
        "version": _version_string(),
        "config": run.config,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    # the last sample, which precedes the horizon unless the stride divides
    # the step count
    last = f"at t={traj.times[-1]:.6g} d (last sample)"
    print(f"simulated {run.horizon} days ({traj.stats.steps} steps)")
    print(f"state {last}: I={traj.I[-1]:.6g} R={traj.R[-1]:.6g} "
          f"x={[round(float(v), 6) for v in traj.x[-1]]} q={traj.q[-1]:.6g}")
    print(f"running-average cost {last}: {traj.avg_cost[-1]:.6g} "
          f"(budget {run.bundle.policy.cstar})")
    print(report.summary())
    print(f"wrote {csv_path}")
    return report


def cmd_simulate(args) -> int:
    _simulate_and_certify(args)
    return EXIT_OK


def _number(text: str) -> float:
    """``text`` as a float, NaN when it is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def cmd_bounds(args) -> int:
    run = _load(args)
    upsilons = [run.bundle.policy.upsilon]
    if args.upsilons is not None:  # every entry that is not a usable gain is listed
        entries = args.upsilons.split(",")
        if len(entries) > MAX_GAINS:
            raise ValidationError([AssumptionViolated(
                "--upsilons", f"{len(entries)} gains exceed the cap of {MAX_GAINS}")])
        upsilons = [_number(entry) for entry in entries]
        bad = [AssumptionViolated(
                   f"--upsilons[{k}]",
                   f"{e!r} has a square beyond the float range" if 0 < u < math.inf
                   else f"{e!r} is not a finite positive number")
               for k, (e, u) in enumerate(zip(entries, upsilons)) if not usable_gain(u)]
        if bad:
            raise ValidationError(bad)
    out = _outdir(args)
    path = out / "bounds_sweep.csv"
    rows = []
    details = []
    for ups in upsilons:
        result, _ = _bound_for(run, ups)
        rows.append((ups, run.alloc.betastar, run.bundle.params.delta,
                     result.alpha, result.peak_ratio))
        details.append(result.as_dict())
    write_table(path, ["upsilon", "beta_star", "delta", "alpha", "peak_ratio"],
                list(np.array(rows).T))
    (out / "bounds_detail.json").write_text(
        json.dumps(details, indent=2) + "\n"
    )
    for ups, _, _, alpha, ratio in rows:
        print(f"upsilon={ups:g}: alpha={alpha:.6g} peak ratio={ratio:.6g}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_certify(args) -> int:
    # simulate's product is the trajectory; certify's is the verdict
    return EXIT_OK if _simulate_and_certify(args).passed else EXIT_RUNTIME


# {subcommand: (handler, help)}, in the order of the help text
_COMMANDS = {
    "validate": (cmd_validate, "check every model assumption"),
    "equilibrium": (cmd_equilibrium,
                    "optimal mix, beta*, endemic pair, and an endemic sweep CSV"),
    "simulate": (cmd_simulate, "integrate the closed loop; write trajectory CSV + manifest"),
    "bounds": (cmd_bounds, "peak-bound sweep over upsilon values; write CSV"),
    "certify": (cmd_certify, "simulate and compare the peak against the bound"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epgtool",
        description="Simulate and certify epidemic population games "
                    "(rates per day, times in days).",
    )
    parser.add_argument(
        "--version", action=_VersionAction,
        help="show program's version number and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("config", help="JSON run configuration")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY.PATH=VALUE",
            help="override a config entry (JSON value), repeatable",
        )
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument(
            "--json-errors", action="store_true",
            help="print machine-readable error JSON to stdout",
        )
        p.set_defaults(func=func)
    sub.choices["bounds"].add_argument(
        "--upsilons", default=None,
        help="comma-separated upsilon values (default: the config value)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ValidationError
        return _emit_error(args, exc, EXIT_VALIDATION)
    except (StepRejected, ArithmeticError, OSError) as exc:
        return _emit_error(args, exc, EXIT_RUNTIME)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
