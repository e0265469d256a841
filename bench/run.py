#!/usr/bin/env python3
"""Benchmark of epgtool: closed-loop simulation, Lyapunov audit and dense
peak-bound certification.  Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S     # every workload, both modes
    python3 bench/run.py --compare BASE.jsonl NEW.jsonl

One run sets the workload up in several fresh interpreters (``setup_s`` is
their median), then starts one worker process that runs ops back to back
for S seconds.  The last line printed is the result as one JSON object;
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones.  Every run also appends a full record
(every op's wall and CPU time, checks, run context) to ``--results``.
See bench/NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim_example1", "audit_n3_fine", "bound_sweep_dense")
SETUP_PROBES = 7
# Large blocks always come from mmap, so the peak RSS is the largest live
# working set rather than heap growth that depends on the order of inputs.
# One BLAS thread: the ops do no BLAS work, and the speed scaling assumes a
# single busy thread.  `git describe`, which `epgtool simulate` runs, looks
# for a repository no further up than the checkout.
WORKER_ENV = {
    "MALLOC_MMAP_THRESHOLD_": "131072",
    "OPENBLAS_NUM_THREADS": "1",
    "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
}
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


class BenchError(RuntimeError):
    pass


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def loadavg() -> list[float]:
    return [float(v) for v in _read("/proc/loadavg").split()[:3]]


def run_context() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": loadavg(),
    }


def start_worker(workload: str, seed: int, seconds: float, trace: bool,
                 setup_only: bool = False) -> dict:
    """Run one worker process to its end.

    ``setup_wall_s`` runs from just before the process is started to its
    READY line; ``maxrss_mb``/``cpu_s`` are the worker's own resource usage.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **WORKER_ENV})
    ready = record = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY "):
                ready = json.loads(line[6:])
                ready["wall_s"] = time.perf_counter() - t0
            elif line.startswith("{"):
                record = json.loads(line)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None or (record is None and not setup_only):
        raise BenchError(f"worker for {workload} failed (exit code {proc.returncode})")
    return {
        "setup_wall_s": ready["wall_s"],
        "setup_cpu_s": ready["cpu_s"],
        "maxrss_mb": usage.ru_maxrss * 1024 / 1e6,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "wall_s": time.perf_counter() - t0,
        "record": record,
    }


def tail(walls: list[float]) -> dict | None:
    """The highest percentile with at least ten ops beyond it (nearest rank)."""
    n = len(walls)
    ranked = sorted(walls)
    for p in reversed(TAIL_PERCENTILES):
        if n * (1.0 - p / 100.0) >= 10.0:
            return {"percentile": p, "value_s": ranked[math.ceil(p / 100.0 * n) - 1], "n": n}
    return None


def measure(bench: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the record with its ``metrics``."""
    context = run_context()
    probes = []
    if not trace:
        start_worker(workload, seed, seconds, trace, setup_only=True)  # fills caches
        for _ in range(SETUP_PROBES):
            before = speed.kernel_median()
            probe = start_worker(workload, seed, seconds, trace, setup_only=True)
            probe["scale"] = speed.REF_S / statistics.fmean([before, speed.kernel_median()])
            probes.append(probe)
    worker = start_worker(workload, seed, seconds, trace)
    context["loadavg_end"] = loadavg()
    return summarize(bench, worker, probes, context, seconds)


def summarize(bench: dict, worker: dict, probes: list[dict], context: dict,
              seconds: float) -> dict:
    """The run's record from the worker's ops and the set-up probes."""
    rec = worker["record"]
    workload, trace = rec["workload"], bool(rec["trace"])
    context["numpy"] = rec["numpy"]
    ops = rec["ops"]
    failed = sum(1 for o in ops if o["problems"])
    plain = [o for o in ops if not o["traced"]]
    walls = [o["wall_s"] for o in plain]
    csv_ops = [o["facts"] for o in ops if "csv_identical" in o["facts"]]
    detail = {
        "ops": len(ops),
        "op_p50_wall_s": statistics.median(walls),
        "op_cpu_p50_s": statistics.median(o["cpu_s"] for o in plain),
        "op_tail_s": tail(walls),
        "fail_ratio": failed / len(ops),
        "csv_identical": min((f["csv_identical"] for f in csv_ops), default=0),
        "worker_setup_s": worker["setup_wall_s"],
        "worker_cpu_s": worker["cpu_s"],
        "worker_wall_s": worker["wall_s"],
    }
    if trace:
        traced = [o for o in ops if o["traced"]]
        traced_p50 = statistics.median(o["wall_s"] for o in traced)
        values = dict(rec["layers"])
        values.update({
            "dynamics.csv_bytes": statistics.fmean(
                [o["facts"].get("csv_bytes", 0) for o in traced]),
            "dynamics.lyapunov_violations": sum(
                o["facts"].get("lyapunov_violations", 0) for o in ops),
            "dynamics.csv_identical": detail["csv_identical"],
            "trace.op_p50_s": traced_p50,
            "trace.overhead_s": traced_p50 - statistics.median(walls),
        })
        specs = bench["per_layer"]
    else:
        refs = [o["ref_s"] for o in plain]
        detail["setup_wall_s"] = [p["setup_wall_s"] for p in probes]
        detail["setup_cpu_s"] = [p["setup_cpu_s"] for p in probes]
        detail["setup_ref_s"] = [p["setup_wall_s"] * p["scale"] for p in probes]
        detail["speed_scale_p50"] = statistics.median(o["ref_s"] / o["wall_s"] for o in plain)
        values = {
            "op_p50_s": statistics.median(refs),
            "work_per_s": rec["work_per_op"] * len(refs) / sum(refs),
            "peak_rss_mb": worker["maxrss_mb"],
            "setup_s": statistics.median(detail["setup_ref_s"]),
        }
        specs = bench["end_to_end"]
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    return {
        "workload": workload, "seed": rec["seed"], "trace": int(trace), "seconds": seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": metrics, "detail": detail, "context": context,
        "problems": [p for o in ops for p in o["problems"]][:10],
        "ops_list": ops, "spans": rec.get("spans", []),
    }


def print_record(rec: dict) -> None:
    mode = "traced" if rec["trace"] else "untraced"
    d = rec["detail"]
    print(f"== {rec['workload']} seed={rec['seed']} {mode}: {rec['attempted']} ops, "
          f"{rec['failed']} failed, fail_ratio={d['fail_ratio']:.4g}, "
          f"csv_identical={d['csv_identical']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'op_p50_wall_s':34s} {d['op_p50_wall_s']:>14.6g} s")
    print(f"  {'op_cpu_p50_s':34s} {d['op_cpu_p50_s']:>14.6g} s")
    if "speed_scale_p50" in d:
        print(f"  {'speed_scale_p50':34s} {d['speed_scale_p50']:>14.6g} "
              "(reference speed / measured speed)")
    if d["op_tail_s"]:
        t = d["op_tail_s"]
        print(f"  {'op_tail_s':34s} {t['value_s']:>14.6g} s (p{t['percentile']:g} of {t['n']} ops)")
    for s in rec["spans"][:12]:
        print(f"    span {s['name']:40s} calls={s['calls']:<8d} "
              f"total={s['total_s']:.4g}s self={s['self_s']:.4g}s")
    c = rec["context"]
    print(f"  context: python {c['python']}, numpy {c['numpy']}, nproc {c['nproc']}, "
          f"{c['cpu_model']}, load {c['loadavg_start']} -> {c['loadavg_end']}")
    for p in rec["problems"][:3]:
        print(f"  problem: {p.strip()}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """better / worse / same / unresolved for one metric on one workload.

    Worse: the new median is worse by more than ``bound``.  Better: it is
    better by more than the quartile spread of either side's runs.  When
    either spread exceeds ``bound`` the result is unresolved unless every
    new run beats (or loses to) every base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    change = sign * (nm - bm) / abs(bm)
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm))
    wins = all(sign * n < sign * b for n in new for b in base)
    losses = all(sign * n > sign * b for n in new for b in base)
    if spread > bound:
        return "better" if wins else "worse" if losses else "unresolved"
    if change > bound:
        return "worse"
    if -change > spread:
        return "better"
    return "same"


def read_records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(bench: dict, base_path: str, new_path: str) -> int:
    base, new = read_records(base_path), read_records(new_path)
    def cell(values):
        q1, q2, q3 = quartiles(values)
        return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"

    print(f"{'workload':18s} {'metric':12s} {'base median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s}  verdict")
    worse = 0
    for workload in WORKLOADS:
        a = [r for r in base if r["workload"] == workload and r["trace"] == 0]
        b = [r for r in new if r["workload"] == workload and r["trace"] == 0]
        if not a or not b:
            continue
        for spec in bench["end_to_end"]:
            name = spec["name"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            v = verdict(va, vb, spec["better"], spec["bound"])
            worse += v == "worse"
            print(f"{workload:18s} {name:12s} {cell(va):>36s} {cell(vb):>36s}  "
                  f"{v} (bound {spec['bound']:g}, runs {len(va)}/{len(vb)})")
        fa = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        if fa != fb:
            print(f"{workload:18s} FLAG fail_ratio changed: {fa:.4g} -> {fb:.4g}")
        ca = sorted({r["detail"]["csv_identical"] for r in a})
        cb = sorted({r["detail"]["csv_identical"] for r in b})
        if ca != cb:
            print(f"{workload:18s} FLAG fingerprint changed: csv_identical {ca} -> {cb}")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(HERE / "out" / "results.jsonl"),
                    help="JSON-lines file each run's full record is appended to")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two results files instead of running")
    args = ap.parse_args(argv)
    try:
        bench = load_benchmark()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(bench, *args.compare)
    if args.workload is None:
        ap.error("--workload or --compare is required")
    if not (ROOT / "src" / "epgtool" / "__init__.py").is_file():
        print("error: no epgtool sources under src/", file=sys.stderr)
        return 2
    seconds = args.seconds or bench["run_seconds"]
    runs = (
        [(w, t) for w in WORKLOADS for t in (False, True)]
        if args.workload == "all" else [(args.workload, bool(args.trace))]
    )
    Path(args.results).parent.mkdir(parents=True, exist_ok=True)
    records = []
    try:
        for workload, trace in runs:
            rec = measure(bench, workload, args.seed, seconds, trace)
            with open(args.results, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            print_record(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for w in WORKLOADS:
            traced = next(r for r in records if r["workload"] == w and r["trace"])
            over = traced["metrics"]["trace.overhead_s"]["value"]
            base = traced["detail"]["op_p50_wall_s"]
            print(f"tracing overhead on {w}: {over:+.4g} s per op "
                  f"({100 * over / base:+.2f}% of the untraced ops' median wall time)")
        return 0 if all(r["correct"] for r in records) else 1
    rec = records[0]
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
