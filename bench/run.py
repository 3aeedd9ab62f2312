"""Benchmark harness for gridpolicy: set-up time, run time, peak RSS and
digest-checked outputs, plus a traced per-layer split.

Usage (from the repository root)::

    python3 bench/run.py --workload min_time --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all                       # every workload
    python3 bench/run.py --workload min_time --trace 1        # per-layer split
    python3 bench/run.py --record                             # rewrite expected.json

Each repetition runs ``worker.py`` in a fresh process, single-threaded, so
its peak RSS and lazy state belong to that workload alone.  Repetitions
repeat while the next one is expected to end within ``--seconds`` (at least
two) and each end-to-end metric is the median over them.  A repetition fails when it
raises or when its outputs differ from ``expected.json``, which was
recorded from the seed commit's code.  ``--trace 1`` adds one traced
repetition first; its per-layer numbers are reported, and its spans are
written to ``bench/out/`` when the run ends.

The workloads are fixed by the shipped configs; ``--seed`` only names the
run (same seed, same inputs).  Output starts with a machine record; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``tracer.LAYER_METRICS`` lists
the per-layer metrics and which end-to-end metric each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer as tr  # noqa: E402

WORKLOADS = ("min_time", "compare_coarse", "sweep_avg_angle")
EXPECTED = BENCH / "expected.json"
OUT_DIR = BENCH / "out"
REQUIRED = (
    "src/gridpolicy/__init__.py",
    "configs/pendulum_min_time.cfg",
    "configs/pendulum_min_time_coarse.cfg",
    "configs/pendulum_avg_angle_sweep.cfg",
)

# Every run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_rate", "ratio"),
)


def machine() -> dict:
    """Where the numbers were taken."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "note": (
            "dp.engine_mb and dp.tables_mb are computed from array sizes, not "
            "measured traffic: the 90-117 MB stencils cannot be made 4x the shared L3"
        ),
    }


def repetition(workload: str, run_id: str, traced: bool, timeout: float) -> dict:
    """Run one repetition in a fresh process; ``{"error": ...}`` on failure."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, run_id, "1" if traced else "0"]
    t = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "wall_s": time.perf_counter() - t}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result["wall_s"] = time.perf_counter() - t
    return result


def mismatches(outputs: dict, expected: dict) -> list[str]:
    """Keys whose recorded and produced values differ."""
    return sorted(k for k in expected.keys() | outputs.keys() if outputs.get(k) != expected.get(k))


def failure(result: dict, expected: dict) -> str | None:
    """Why a repetition failed, or ``None`` when it passed."""
    if "error" in result:
        return result["error"].strip().splitlines()[-1]
    bad = mismatches(result["outputs"], expected)
    return f"outputs differ from expected.json: {', '.join(bad)}" if bad else None


def run_workload(workload: str, seed: int, seconds: float, traced: bool, expected: dict) -> dict:
    start = time.perf_counter()
    run_id = f"{workload}-seed{seed}"
    traced_rep = repetition(workload, f"{run_id}-traced", True, HARD_LIMIT_S) if traced else None
    # At least two untraced repetitions (one next to a traced one), then
    # more while the next one is expected to end within --seconds.
    reps = []
    while True:
        timeout = HARD_LIMIT_S - (time.perf_counter() - start)
        reps.append(repetition(workload, f"{run_id}-rep{len(reps)}", False, timeout))
        elapsed = time.perf_counter() - start
        walls = [r["wall_s"] for r in reps]
        if elapsed + max(walls) > HARD_LIMIT_S:
            break
        if len(reps) >= 2 - traced and elapsed + statistics.mean(walls) > seconds:
            break

    failed = 0
    for label, r in [("traced", traced_rep)] * traced + list(enumerate(reps)):
        why = failure(r, expected)
        if why is None and label == "traced" and r["layers"]["trace.coverage"] < tr.MIN_COVERAGE:
            why = f"layer self times cover {r['layers']['trace.coverage']:.3f} of run_s"
        if why:
            failed += 1
            print(f"{workload}: repetition {label} FAILED: {why}", file=sys.stderr)
    plain = [r for r in reps if "error" not in r]
    summary = {"workload": workload, "attempted": len(reps) + traced, "failed": failed, "reps": plain}
    if traced_rep and "layers" in traced_rep and plain:
        layers = traced_rep["layers"]
        layers["trace.overhead_frac"] = (
            traced_rep["run_s"] / statistics.median(r["run_s"] for r in plain) - 1.0
        )
        summary["traced"] = traced_rep
    return summary


def end_to_end(summary: dict) -> dict:
    reps = summary["reps"]
    values = {
        name: statistics.median(r[name] for r in reps) for name in ("setup_s", "run_s", "peak_rss_mb")
    }
    values["pass_rate"] = 1.0 - summary["failed"] / summary["attempted"]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(summary: dict) -> dict:
    layers = summary["traced"]["layers"]
    return {name: {"value": layers[name], "unit": unit} for name, unit, _, _ in tr.LAYER_METRICS}


def print_summary(summary: dict, metrics: dict) -> None:
    n = len(summary["reps"])
    print(f"{summary['workload']}: {summary['attempted']} repetitions, medians over {n} untraced")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for name in ("setup_s", "run_s"):
        print(f"  {name} per repetition: " + " ".join(f"{r[name]:.3f}" for r in summary["reps"]))
    rate = summary["failed"] / summary["attempted"]
    print(f"  {'fail_rate':<28} {rate:>14.6g} ratio ({summary['failed']} of {summary['attempted']})")


def write_trace(summary: dict, seed: int, info: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{summary['workload']}-seed{seed}.json"
    traced = summary["traced"]
    record = {
        "machine": info,
        "workload": summary["workload"],
        "seed": seed,
        "setup_s": traced["setup_s"],
        "run_s": traced["run_s"],
        "probe": traced["probe"],
        "layers": traced["layers"],
        "spans": traced["spans"],
    }
    path.write_text(json.dumps(record))
    return path


def record(workloads: list[str]) -> int:
    """Rewrite ``expected.json`` from one repetition of each workload."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for w in workloads:
        r = repetition(w, f"{w}-record", False, HARD_LIMIT_S)
        if "error" in r:
            print(f"{w}: {r['error']}", file=sys.stderr)
            return 1
        expected[w] = r["outputs"]
        print(f"{w}: recorded")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        return record(workloads)
    if not EXPECTED.is_file():
        print("cannot benchmark: no expected.json (run with --record)", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())

    info = machine()
    print("machine: " + json.dumps(info))
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        summary = run_workload(w, args.seed, args.seconds, bool(args.trace), expected[w])
        if not summary["reps"] or (args.trace and "traced" not in summary):
            print(f"{w}: no repetition completed", file=sys.stderr)
            return 1
        m = per_layer(summary) if args.trace else end_to_end(summary)
        print_summary(summary, m)
        if args.trace:
            print(f"  spans written to {write_trace(summary, args.seed, info).relative_to(ROOT)}")
        attempted += summary["attempted"]
        failed += summary["failed"]
        correct = correct and summary["failed"] == 0
        prefix = f"{w}." if len(workloads) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
