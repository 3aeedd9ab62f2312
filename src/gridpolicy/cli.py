"""Command-line interface.

Subcommands::

    gridpolicy solve       --config FILE [--out DIR] [--threads K] [--quiet]
    gridpolicy rollout     --config FILE [--x0 a,b] [--horizon N] ...
    gridpolicy compare     --config FILE [--x0 a,b] ...
    gridpolicy sweep       --config FILE [--horizons 5,40,80] [--trajectory-horizon T]
    gridpolicy equilibrium --config FILE [--tolerance TOL]

Exit codes: 0 success (solver converged), 1 usage or configuration error,
2 the solver stopped at its horizon cap without converging, 3 infeasibility
(infeasible problem, infeasible start state, truncated rollout, or no
gridded equilibrium).

All numeric output files render floats with ``repr``, which is the shortest
string that round-trips to the same double; runs are deterministic, so CSVs
are byte-identical across repetitions and ``--threads`` settings.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .dp import INFEASIBLE, DpEngine, StageTable
from .equilibrium import NoEquilibriumError, equilibrium_search
from .reference import (
    RolloutTrace,
    finite_horizon_policies,
    horizon_sweep,
    rollout_stationary,
    rollout_time_varying,
)
from .solver import (
    InfeasibleProblemError,
    InfeasibleRolloutError,
    SolveReport,
    solve,
)

_LOCK_MAGIC = "gridpolicy-lock 1"


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; ``inf``/``nan`` spelled bare."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_policy_csv(
    path: str, report: SolveReport, cfg: RunConfig
) -> None:
    """One row per state node (flat row-major order).

    Columns: state coordinates, policy control coordinates (``inf`` when the
    node is infeasible), feasibility flag, and cost-to-go divided by the
    terminal horizon (``inf`` when infeasible).
    """
    xg = cfg.state_grid()
    ug = cfg.control_grid()
    table = report.first_stage_policy
    n = xg.ndim
    m = ug.ndim
    header = (
        [f"x{i}" for i in range(n)]
        + [f"u{i}" for i in range(m)]
        + ["feasible", "avg_cost_to_go"]
    )
    ucoords = ug.node_coords()
    xcoords = xg.node_coords()
    horizon = float(report.terminal_horizon)
    lines = [",".join(header)]
    for i in range(xg.size):
        cells = [_fmt(c) for c in xcoords[i]]
        p = table.policy[i]
        if p == INFEASIBLE:
            cells += ["inf"] * m + ["0", "inf"]
        else:
            cells += [_fmt(c) for c in ucoords[p]]
            cells += ["1", _fmt(table.cost[i] / horizon)]
        lines.append(",".join(cells))
    _write(path, lines)


def write_metrics_csv(path: str, report: SolveReport, cfg: RunConfig) -> None:
    m = len(cfg.control_axes)
    n = len(cfg.state_axes)
    header = (
        ["horizon"]
        + [f"delta_mu_{i}" for i in range(m)]
        + [f"delta_x_{i}" for i in range(n)]
        + ["feasible_count"]
    )
    lines = [",".join(header)]
    for rec in report.metrics:
        cells = [str(rec.horizon)]
        cells += [_fmt(v) for v in rec.delta_mu]
        cells += [_fmt(v) for v in rec.delta_x]
        cells.append(str(rec.feasible_count))
        lines.append(",".join(cells))
    _write(path, lines)


def write_report_txt(path: str, report: SolveReport) -> None:
    lines = [
        f"status {report.status}",
        f"terminal_horizon {report.terminal_horizon}",
        f"achieved_average {_fmt(report.achieved_average)}",
        f"wall_time_s {report.wall_time:.3f}",
    ]
    for rec in report.metrics:
        lines.append(
            "horizon {} delta_mu {} delta_x {} feasible {}".format(
                rec.horizon,
                ",".join(_fmt(v) for v in rec.delta_mu),
                ",".join(_fmt(v) for v in rec.delta_x),
                rec.feasible_count,
            )
        )
    for note in report.notes:
        lines.append(f"note {note}")
    _write(path, lines)


def write_trajectory_csv(path: str, trace: RolloutTrace) -> None:
    """Per-step rows plus a terminal row holding only the final state."""
    n = trace.states.shape[1]
    m = trace.controls.shape[1]
    header = (
        ["step"]
        + [f"x{i}" for i in range(n)]
        + [f"u{i}" for i in range(m)]
        + ["stage_cost", "relaxed_cost", "average_value"]
    )
    lines = [",".join(header)]
    for k in range(trace.length):
        cells = [str(k)]
        cells += [_fmt(c) for c in trace.states[k]]
        cells += [_fmt(c) for c in trace.controls[k]]
        cells += [
            _fmt(trace.stage_costs[k]),
            _fmt(trace.relaxed_costs[k]),
            _fmt(trace.average_values[k]),
        ]
        lines.append(",".join(cells))
    terminal = [str(trace.length)]
    terminal += [_fmt(c) for c in trace.states[trace.length]]
    terminal += [""] * (m + 3)
    lines.append(",".join(terminal))
    _write(path, lines)


def write_compare_csv(path: str, rows: list[tuple[str, float, float]]) -> None:
    lines = ["metric,solver,reference,relative_deviation"]
    for name, a, b in rows:
        if b != 0.0:
            dev = abs(a - b) / abs(b)
        else:
            dev = 0.0 if a == b else float("inf")
        lines.append(f"{name},{_fmt(a)},{_fmt(b)},{_fmt(dev)}")
    _write(path, lines)


def write_sweep_csv(path: str, results: dict[int, np.ndarray]) -> None:
    lines = ["problem_horizon,min_avg_cost,max_avg_cost,mean_avg_cost,feasible_count"]
    for horizon in sorted(results):
        costs = results[horizon]
        ok = np.isfinite(costs)
        count = int(ok.sum())
        if count:
            mn, mx, mean = costs[ok].min(), costs[ok].max(), costs[ok].mean()
        else:
            mn = mx = mean = float("nan")
        lines.append(
            f"{horizon},{_fmt(mn)},{_fmt(mx)},{_fmt(mean)},{count}"
        )
    _write(path, lines)


# ---------------------------------------------------------------------------
# solve-artifact reuse
# ---------------------------------------------------------------------------


def _write_lock(path: str, report: SolveReport, cfg: RunConfig) -> None:
    lines = [
        _LOCK_MAGIC,
        f"status {report.status}",
        f"terminal_horizon {report.terminal_horizon}",
        f"achieved_average {_fmt(report.achieved_average)}",
        "",
        cfg.canonical(),
    ]
    _write(path, lines)


def _read_lock(out_dir: str, cfg: RunConfig) -> dict | None:
    """Header fields of a lock that matches ``cfg`` exactly, else None."""
    path = os.path.join(out_dir, "solve.lock")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        return None
    lines = text.splitlines()
    if not lines or lines[0] != _LOCK_MAGIC or "" not in lines:
        return None
    split = lines.index("")
    header: dict[str, str] = {}
    for line in lines[1:split]:
        key, _, val = line.partition(" ")
        header[key] = val
    if "\n".join(lines[split + 1 :]) != cfg.canonical():
        return None
    if "status" not in header or "terminal_horizon" not in header:
        return None
    return header


def _load_policy_csv(out_dir: str, cfg: RunConfig, terminal: int) -> StageTable | None:
    """Reconstruct the first-stage policy from a previously written CSV.

    Control coordinates round-trip exactly through ``repr``, so the policy
    indices recovered by rounding are identical to the solved ones.  The
    cost column is an average and only feasibility is trusted from it.
    """
    path = os.path.join(out_dir, "policy.csv")
    xg = cfg.state_grid()
    ug = cfg.control_grid()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    if len(lines) != xg.size + 1:
        return None
    n, m = xg.ndim, ug.ndim
    lo = ug.lows
    sp = ug.spacings
    strides = np.ones(m, dtype=np.int64)
    for a in range(m - 2, -1, -1):
        strides[a] = strides[a + 1] * ug.shape[a + 1]
    cost = np.empty(xg.size)
    policy = np.empty(xg.size, dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != n + m + 2:
            return None
        if cells[n + m] == "0":
            cost[i] = np.inf
            policy[i] = INFEASIBLE
            continue
        try:
            u = np.asarray([float(c) for c in cells[n : n + m]])
            avg = float(cells[n + m + 1])
        except ValueError:
            return None
        ui = np.rint((u - lo) / sp).astype(np.int64)
        if (ui < 0).any() or (ui >= np.asarray(ug.shape)).any():
            return None
        cost[i] = avg * terminal
        policy[i] = int(np.dot(ui, strides))
    return StageTable(cost=cost, policy=policy)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _out_dir(args: argparse.Namespace, cfg: RunConfig) -> str:
    out = args.out or cfg.output_dir or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _parse_x0(args: argparse.Namespace, cfg: RunConfig) -> np.ndarray:
    dim = len(cfg.state_axes)
    if args.x0 is None:
        return np.zeros(dim)
    try:
        vals = np.asarray([float(p) for p in args.x0.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"--x0 must be comma-separated numbers, got {args.x0!r}")
    if vals.shape != (dim,):
        raise ConfigError(f"--x0 needs {dim} components, got {vals.size}")
    return vals


def _progress(args: argparse.Namespace):
    return None if args.quiet else "stderr"


def _run_solve(args: argparse.Namespace, cfg: RunConfig, out: str) -> SolveReport:
    problem = cfg.build_problem()
    report = solve(
        problem,
        cfg.state_grid(),
        cfg.control_grid(),
        cfg.solver,
        threads=args.threads,
        progress=_progress(args),
    )
    write_policy_csv(os.path.join(out, "policy.csv"), report, cfg)
    write_metrics_csv(os.path.join(out, "metrics.csv"), report, cfg)
    write_report_txt(os.path.join(out, "report.txt"), report)
    _write_lock(os.path.join(out, "solve.lock"), report, cfg)
    return report


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    report = _run_solve(args, cfg, out)
    print(
        f"status={report.status} terminal_horizon={report.terminal_horizon} "
        f"achieved_average={_fmt(report.achieved_average)} out={out}"
    )
    return 0 if report.status == "converged" else 2


def cmd_rollout(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    x0 = _parse_x0(args, cfg)

    table = None
    lock = _read_lock(out, cfg)
    if lock is not None:
        table = _load_policy_csv(out, cfg, int(lock["terminal_horizon"]))
    if table is not None:
        status = lock["status"]
        terminal = int(lock["terminal_horizon"])
    else:
        report = _run_solve(args, cfg, out)
        table = report.first_stage_policy
        status = report.status
        terminal = report.terminal_horizon

    if args.horizon is not None and args.horizon < 0:
        raise ConfigError(f"--horizon must be nonnegative, got {args.horizon}")
    horizon = (
        args.horizon
        if args.horizon is not None
        else cfg.reference_multiplier * terminal
    )
    problem = cfg.build_problem()
    trace = rollout_stationary(
        problem, cfg.state_grid(), cfg.control_grid(), table, x0, horizon
    )
    write_trajectory_csv(os.path.join(out, "trajectory.csv"), trace)
    if trace.reason is not None:
        print(
            f"rollout truncated at step {trace.length} ({trace.reason}); "
            f"trajectory written to {out}",
            file=sys.stderr,
        )
        return 3
    print(f"rollout ok steps={trace.length} out={out}")
    return 0 if status == "converged" else 2


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    x0 = _parse_x0(args, cfg)
    problem = cfg.build_problem()
    xg = cfg.state_grid()
    ug = cfg.control_grid()
    engine = DpEngine(problem, xg, ug, threads=args.threads)
    report = solve(
        problem, xg, ug, cfg.solver, engine=engine, progress=_progress(args)
    )
    window = cfg.reference_multiplier * report.terminal_horizon

    trace_sol = rollout_stationary(
        problem, xg, ug, report.first_stage_policy, x0, window
    )
    policies = finite_horizon_policies(problem, xg, ug, window, engine=engine)
    trace_ref = rollout_time_varying(problem, xg, ug, policies, x0)
    if trace_sol.reason is not None or trace_ref.reason is not None:
        print(
            "comparison window truncated "
            f"(solver: {trace_sol.reason}, reference: {trace_ref.reason})",
            file=sys.stderr,
        )
        return 3

    rows = [
        (
            "mean_stage_cost",
            float(trace_sol.stage_costs.mean()),
            float(trace_ref.stage_costs.mean()),
        ),
        (
            "mean_relaxed_cost",
            float(trace_sol.relaxed_costs.mean()),
            float(trace_ref.relaxed_costs.mean()),
        ),
        (
            "sum_sq_control",
            float((trace_sol.controls**2).sum()),
            float((trace_ref.controls**2).sum()),
        ),
    ]
    write_compare_csv(os.path.join(out, "compare.csv"), rows)
    print(f"compare ok window={window} out={out}")
    return 0 if report.status == "converged" else 2


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    if args.horizons:
        try:
            horizons = [int(p) for p in args.horizons.split(",")]
        except ValueError:
            raise ConfigError(
                f"--horizons must be comma-separated integers, got {args.horizons!r}"
            )
    elif cfg.sweep_horizons:
        horizons = list(cfg.sweep_horizons)
    else:
        raise ConfigError("sweep needs --horizons or sweep.horizons in the config")
    trajectory = args.trajectory_horizon or cfg.sweep_trajectory_horizon

    results = horizon_sweep(
        cfg.build_problem(),
        cfg.state_grid(),
        cfg.control_grid(),
        horizons,
        trajectory,
        threads=args.threads,
    )
    write_sweep_csv(os.path.join(out, "sweep.csv"), results)
    print(f"sweep ok horizons={sorted(results)} out={out}")
    return 0


def cmd_equilibrium(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    tol = args.tolerance if args.tolerance is not None else cfg.equilibrium_tolerance
    if tol is not None and tol <= 0.0:
        raise ConfigError(f"--tolerance must be positive, got {tol!r}")
    eq = equilibrium_search(
        cfg.build_problem(), cfg.state_grid(), cfg.control_grid(), eq_tol=tol
    )
    n = eq.state.shape[0]
    m = eq.control.shape[0]
    header = [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
    header += ["cost", "residual"]
    cells = [_fmt(v) for v in eq.state] + [_fmt(v) for v in eq.control]
    cells += [_fmt(eq.cost), _fmt(eq.residual)]
    print(",".join(header))
    print(",".join(cells))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1, not argparse's default 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridpolicy",
        description="Grid policy solver for constrained infinite-horizon control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a key=value config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help=(
                "worker threads for the backward kernel (0 = all usable CPUs); "
                "never changes the results.  Default 1: on a 2-CPU host two "
                "threads ran a backward step at 0.56-1.35x the speed of one, "
                "since each block's short numpy calls pass the GIL back and forth"
            ),
        )
        p.add_argument(
            "--quiet", action="store_true", help="suppress per-horizon progress"
        )

    p = sub.add_parser("solve", help="solve and write policy/metrics/report")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("rollout", help="closed-loop rollout of a solved policy")
    common(p)
    p.add_argument("--x0", default=None, help="start state, comma-separated")
    p.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="steps to roll (default: reference multiplier x terminal horizon)",
    )
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("compare", help="stationary policy vs finite-horizon reference")
    common(p)
    p.add_argument("--x0", default=None, help="start state, comma-separated")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="mean rollout cost vs design horizon")
    common(p)
    p.add_argument("--horizons", default=None, help="comma-separated design horizons")
    p.add_argument(
        "--trajectory-horizon",
        type=int,
        default=None,
        help="rollout length used for every design horizon",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("equilibrium", help="best gridded stationary pair")
    p.add_argument("--config", required=True, help="path to a key=value config")
    p.add_argument(
        "--tolerance", type=float, default=None, help="stationarity tolerance"
    )
    p.set_defaults(func=cmd_equilibrium)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except InfeasibleRolloutError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except NoEquilibriumError as exc:
        print(f"no equilibrium: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
