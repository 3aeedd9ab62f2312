"""Self-test of the benchmark harness; exits non-zero on the first failure.

Usage: ``python3 bench/selftest.py`` from the repository root (a few seconds).

Checks that BENCHMARK.json names the metrics the harness reports, that the
coarse solve reproduces its recorded outputs, and that the correctness gate
flags a solve whose policy or cost array was perturbed by the smallest step.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

import run
import tracer as tr
import worker


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "BENCHMARK.json end_to_end matches the harness",
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        == [m[:3] for m in tr.LAYER_METRICS],
        "BENCHMARK.json per_layer matches tracer.LAYER_METRICS",
    )
    check(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(worker.WORKLOADS),
        "BENCHMARK.json workloads match the harness",
    )

    gp = worker.gp
    cfg = gp.load_config(str(run.ROOT / worker.CONFIGS["compare_coarse"]))
    problem, xg, ug = cfg.build_problem(), cfg.state_grid(), cfg.control_grid()
    report = gp.solve(problem, xg, ug, cfg.solver, progress=None)
    recorded = json.loads(run.EXPECTED.read_text())["compare_coarse"]

    def flagged(rep) -> list[str]:
        outputs = json.loads(json.dumps(worker.solve_outputs(rep)))
        return run.mismatches(outputs, {k: recorded[k] for k in outputs})

    check(flagged(report) == [], "coarse solve matches its recorded outputs")

    table = report.first_stage_policy
    i = int(np.flatnonzero(table.feasible_mask)[0])
    policy = table.policy.copy()
    policy[i] = (policy[i] + 1) % ug.size
    bad = dataclasses.replace(report, first_stage_policy=gp.StageTable(table.cost, policy))
    check(flagged(bad) == ["policy_sha256"], "a policy perturbed at one node is flagged")

    cost = table.cost.copy()
    cost[i] = np.nextafter(cost[i], np.inf)
    bad = dataclasses.replace(report, first_stage_policy=gp.StageTable(cost, table.policy))
    check(flagged(bad) == ["cost_sha256"], "a cost perturbed by one ulp is flagged")

    result = {"outputs": {**recorded, "policy_sha256": "0" * 64}}
    check(
        run.failure(result, recorded) == "outputs differ from expected.json: policy_sha256",
        "the gate counts the perturbed repetition as failed",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
