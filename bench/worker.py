"""One benchmark repetition in a fresh process.

Usage: ``python3 bench/worker.py <workload> <run_id> <trace 0|1>``

Runs set-up (config load, problem build, ``DpEngine`` construction) and the
workload's operation through the public ``gridpolicy`` API with
``threads=1``, then prints one JSON line: timings, this process's peak RSS,
and the output digests that ``run.py`` checks against ``expected.json``.
With tracing on it also prints the spans and per-layer numbers, and probes
the backward step at the usable CPU count (after the timed region).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gridpolicy as gp  # noqa: E402

import tracer as tr  # noqa: E402

CONFIGS = {
    "min_time": "configs/pendulum_min_time.cfg",
    "compare_coarse": "configs/pendulum_min_time_coarse.cfg",
    "sweep_avg_angle": "configs/pendulum_avg_angle_sweep.cfg",
}

# The sweep config asks for design horizons 5..160 over 1350 steps, minutes
# per repetition.  The benchmark keeps 5 (short-sighted) and 40 (settled)
# over 500 steps, a length at which the forward ensemble still dominates.
SWEEP_HORIZONS = (5, 40)
SWEEP_TRAJECTORY = 500

PROBE_STEPS = 5


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def solve_outputs(report) -> dict:
    """Everything of a solve the correctness gate compares, floats as repr."""
    table = report.first_stage_policy
    return {
        "status": report.status,
        "terminal_horizon": report.terminal_horizon,
        "policy_sha256": digest(table.policy),
        "cost_sha256": digest(table.cost),
        "metrics": [
            [
                m.horizon,
                [repr(float(v)) for v in m.delta_mu],
                [repr(float(v)) for v in m.delta_x],
                m.feasible_count,
            ]
            for m in report.metrics
        ],
        "achieved_average": repr(report.achieved_average),
    }


def run_min_time(cfg, problem, xg, ug, engine):
    report = gp.solve(problem, xg, ug, cfg.solver, engine=engine, progress=None)
    return report, solve_outputs(report)


def run_compare_coarse(cfg, problem, xg, ug, engine):
    """The ``gridpolicy compare`` sequence from x0 = 0."""
    report = gp.solve(problem, xg, ug, cfg.solver, engine=engine, progress=None)
    window = cfg.reference_multiplier * report.terminal_horizon
    x0 = np.zeros(xg.ndim)
    sol = gp.rollout_stationary(problem, xg, ug, report.first_stage_policy, x0, window)
    policies = gp.finite_horizon_policies(problem, xg, ug, window, engine=engine)
    ref = gp.rollout_time_varying(problem, xg, ug, policies, x0)
    rows = [
        ["mean_stage_cost", sol.stage_costs.mean(), ref.stage_costs.mean()],
        ["mean_relaxed_cost", sol.relaxed_costs.mean(), ref.relaxed_costs.mean()],
        ["sum_sq_control", (sol.controls**2).sum(), (ref.controls**2).sum()],
    ]
    out = solve_outputs(report)
    out["compare_rows"] = [[q, repr(float(a)), repr(float(b))] for q, a, b in rows]
    out["truncated"] = [sol.reason, ref.reason]
    return report, out


def run_sweep_avg_angle(cfg, problem, xg, ug, engine):
    results = gp.horizon_sweep(
        problem, xg, ug, list(SWEEP_HORIZONS), SWEEP_TRAJECTORY, engine=engine
    )
    return None, {f"mean_cost_sha256_{n}": digest(results[n]) for n in sorted(results)}


WORKLOADS = {
    "min_time": run_min_time,
    "compare_coarse": run_compare_coarse,
    "sweep_avg_angle": run_sweep_avg_angle,
}


def thread_probe(engine, cost: np.ndarray) -> dict:
    """Backward p50 at 1 thread and at the usable CPU count, interleaved."""
    usable = len(os.sched_getaffinity(0))
    times: dict[int, list[float]] = {1: [], usable: []}
    for _ in range(PROBE_STEPS):
        for n in times:
            engine.threads = n
            t = time.perf_counter()
            engine.backward(cost)
            times[n].append(time.perf_counter() - t)
    engine.threads = 1
    p50 = {n: float(np.median(v)) for n, v in times.items()}
    return {"dp.thread_speedup": p50[1] / p50[usable], "probe_threads": usable}


def repetition(workload: str, run_id: str, traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = tr.Tracer(run_id)
        tr.install(tracer, gp)

    t0 = time.perf_counter()
    cfg = gp.load_config(str(ROOT / CONFIGS[workload]))
    problem = cfg.build_problem()
    if tracer:
        problem = tr.wrap_problem(tracer, problem)
    xg, ug = cfg.state_grid(), cfg.control_grid()
    engine = gp.DpEngine(problem, xg, ug, threads=1)
    t1 = time.perf_counter()
    report, outputs = WORKLOADS[workload](cfg, problem, xg, ug, engine)
    t2 = time.perf_counter()

    result = {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": json.loads(json.dumps(outputs)),
    }
    if tracer:
        tracer.enabled = False
        layers = tr.layer_metrics(tracer, t1, t2, engine)
        layers["solver.horizons_tested"] = len(report.metrics) if report else 0
        layers["solver.terminal_horizon"] = report.terminal_horizon if report else 0
        probe = thread_probe(engine, tracer.last_cost)
        layers["dp.thread_speedup"] = probe.pop("dp.thread_speedup")
        result.update(layers=layers, probe=probe, spans=tracer.export())
    return result


def main() -> int:
    workload, run_id, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    try:
        result = repetition(workload, run_id, traced)
    except Exception:  # reported to run.py, which counts the repetition as failed
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
