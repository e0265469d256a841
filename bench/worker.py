"""One benchmark worker: set up one workload, then run its ops back to back.

Usage (from the repository root; ``run.py`` starts it)::

    python3 bench/worker.py WORKLOAD --seed N --seconds S [--trace] [--setup-only]

The worker prints ``READY {...}`` once set-up is done and, unless
``--setup-only`` is given, one JSON line with every op's wall and CPU time
(and, untraced, its time at reference CPU speed; see ``speed.py``), its
problems and its checked facts.  The op loop is closed with one caller:
the next op starts when the previous one and its check have ended.  With
``--trace`` every other op runs traced (ops 0, 2, 4, ...), the rest run the
unmodified program, so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Per-op layer metrics: name -> (callee, field of Tracer.layer_totals).
OP_LAYERS = {
    "dynamics.simulate_s": ("epgtool.dynamics.simulate", "total_s"),
    "dynamics.simulate_self_s": ("epgtool.dynamics.simulate", "self_s"),
    "edm.storage_calls": ("epgtool.edm.storage", "calls"),
    "edm.storage_s": ("epgtool.edm.storage", "total_s"),
    "edm.dissipation_calls": ("epgtool.edm.dissipation", "calls"),
    "edm.dissipation_s": ("epgtool.edm.dissipation", "total_s"),
    "dynamics.lyapunov_series_s": ("epgtool.dynamics.lyapunov_series", "total_s"),
    "dynamics.write_csv_s": ("epgtool.dynamics.write_csv", "total_s"),
    "bounds.peak_bound_s": ("epgtool.bounds.peak_bound", "total_s"),
    "bounds.peak_ratio_at_calls": ("epgtool.bounds.peak_ratio_at", "calls"),
    "bounds.peak_ratio_at_s": ("epgtool.bounds.peak_ratio_at", "total_s"),
    "equilibrium.endemic_state_calls": ("epgtool.equilibrium.endemic_state", "calls"),
    "equilibrium.endemic_state_s": ("epgtool.equilibrium.endemic_state", "total_s"),
    "bounds.epidemic_storage_s": ("epgtool.bounds.epidemic_storage", "total_s"),
    "cli.main_self_s": ("epgtool.cli.main", "self_s"),
    "cli.version_string_s": ("epgtool.cli._version_string", "total_s"),
}
# Set-up layer metrics, from the traced worker's own set-up.
SETUP_LAYERS = {
    "config.resolve_s": "epgtool.config.resolve",
    "params.validate_s": "epgtool.params.validate",
    "equilibrium.optimal_allocation_s": "epgtool.equilibrium.optimal_allocation",
    "payoff.build_mechanism_s": "epgtool.payoff.build_mechanism",
}


def boundaries(workloads):
    """``(module, attribute[, outcome])`` for every call that crosses a
    module boundary, wrapped in the module that makes the call."""
    import epgtool.bounds
    import epgtool.cli
    import epgtool.config
    import epgtool.edm

    out = [
        (epgtool.cli, attr) for attr in (
            "load_config", "apply_overrides", "resolve", "simulate", "write_csv",
            "lyapunov_value", "peak_bound", "certify_trajectory", "_version_string",
        )
    ]
    out += [
        (epgtool.config, attr)
        for attr in ("validate", "optimal_allocation", "build_mechanism", "endemic_state")
    ]
    # dynamics calls these through the module objects edm and bounds
    out += [(epgtool.edm, "storage"), (epgtool.edm, "dissipation")]
    out += [(epgtool.bounds, "epidemic_storage"), (epgtool.bounds, "endemic_state")]
    # a feasible grid point is one whose ratio is not None
    out.append((epgtool.bounds, "peak_ratio_at", lambda r: r is not None))
    out += [
        (workloads, attr) for attr in (
            "main", "load_config", "apply_overrides", "resolve", "simulate",
            "lyapunov_series", "write_csv", "lyapunov_value", "peak_bound",
            "certify_trajectory", "validate", "optimal_allocation",
        )
    ]
    return out


def layer_metrics(tracer, traced_ops: list[int], sim_days: float) -> dict:
    per_op = tracer.layer_totals(traced_ops)
    setup = tracer.layer_totals([-1])
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0}
    n = len(traced_ops)
    out = {
        name: per_op.get(callee, empty)[field] / n
        for name, (callee, field) in OP_LAYERS.items()
    }
    out.update({
        name: setup.get(callee, empty)["total_s"] for name, callee in SETUP_LAYERS.items()
    })
    out["dynamics.self_us_per_day"] = (
        1e6 * out["dynamics.simulate_self_s"] / sim_days if sim_days else 0.0
    )
    ratio = per_op.get("epgtool.bounds.peak_ratio_at", empty)
    out["bounds.feasible_share"] = ratio["hits"] / ratio["calls"] if ratio["calls"] else 0.0
    out["trace.spans_per_op"] = sum(v["calls"] for v in per_op.values()) / n
    return out


def _one_op(wl, tracer, label, raw, k: int, traced: bool, tmp: Path) -> dict:
    """Run and check one op; an exception in either counts as a problem."""
    for f in tmp.iterdir():
        f.unlink()
    arg = wl.prepare(raw)
    out, problems, facts = None, [], {}
    c0 = time.process_time()
    start = time.perf_counter()
    try:
        if traced:
            with tracer.patched(k), tracer.span("op", "bench.op"):
                out = wl.op(arg)
        else:
            out = wl.op(arg)
    except Exception:
        problems = ["op raised: " + traceback.format_exc(limit=3)]
    end = time.perf_counter()
    cpu = time.process_time() - c0
    if not problems:
        try:
            problems, facts = wl.check(label, out)
        except Exception:
            problems = ["check raised: " + traceback.format_exc(limit=3)]
    return {"label": label, "start": start, "end": end, "cpu_s": cpu,
            "traced": traced, "problems": problems, "facts": facts}


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_only: bool = False) -> dict:
    """Set up and run one workload in this process; returns the record."""
    import workloads  # here, so that set-up includes importing epgtool

    tmp = OUT / f"tmp-{os.getpid()}"
    tracer = None
    wl = workloads.WORKLOADS[workload](tmp)
    if trace:
        from tracer import Tracer

        tracer = Tracer(boundaries(workloads))
        with tracer.patched(-1):
            wl.setup()
    else:
        wl.setup()
    ready = {"cpu_s": time.process_time()}
    print("READY " + json.dumps(ready), flush=True)
    if setup_only:
        return ready

    tmp.mkdir(parents=True, exist_ok=True)
    ops = []
    inputs = wl.inputs(seed)
    # a traced op would count the speed probe's kernel in its spans
    probe = SpeedProbe()
    began = time.perf_counter()
    try:
        with contextlib.nullcontext() if trace else probe:
            while True:
                ops.append(_one_op(wl, tracer, *next(inputs), k=len(ops),
                                   traced=trace and len(ops) % 2 == 0, tmp=tmp))
                elapsed = time.perf_counter() - began
                expected = statistics.median(o["end"] - o["start"] for o in ops)
                if len(ops) >= (2 if trace else 1) and elapsed + expected > seconds:
                    break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for o in ops:
        # take the probe's own time out of the op; scale to reference speed
        start, end = o.pop("start"), o.pop("end")
        inside = probe.inside(start, end)
        o["wall_s"] = end - start - inside
        o["cpu_s"] -= inside
        if not trace:
            o["ref_s"] = o["wall_s"] * probe.scale(start, end)

    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "work_per_op": wl.work_per_op, "ops": ops, "numpy": workloads.np.__version__}
    if trace:
        traced_ops = [k for k, o in enumerate(ops) if o["traced"]]
        record["layers"] = layer_metrics(tracer, traced_ops, wl.sim_days)
        record["spans"] = tracer.span_summary()
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"spans-{workload}.npz")
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not (SRC / "epgtool" / "__init__.py").is_file():
        print(f"error: no epgtool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run(args.workload, args.seed, args.seconds, args.trace, args.setup_only)
    if not args.setup_only:
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
