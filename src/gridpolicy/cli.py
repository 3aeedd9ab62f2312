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
import dataclasses
import os
import sys
import zipfile

import numpy as np

from .config import ConfigError, RunConfig, _finite, _parse_value, load_config
from .dp import INFEASIBLE, DpEngine, StageTable
from .equilibrium import NoEquilibriumError, equilibrium_search
from .grid import CartesianGrid
from .problem import ProblemDef
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
    print_progress,
    solve,
)

_LOCK_MAGIC = "gridpolicy-lock 1"


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; ``inf``/``nan`` spelled bare."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def _write(path: str | None, lines: list[str]) -> None:
    """``lines`` to the file ``path``, or to stdout when ``path`` is None."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cell(value) -> str:
    """Text as is, integers in decimal, floats through :func:`_fmt`."""
    if isinstance(value, str):
        return value
    return str(value) if isinstance(value, (int, np.integer)) else _fmt(value)


def _write_csv(path: str | None, header: list[str], rows) -> None:
    _write(path, [",".join(header)] + [",".join(map(_cell, row)) for row in rows])


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(count)]


def _status_lines(report: SolveReport) -> list[str]:
    """The header that ``report.txt`` and ``solve.lock`` share."""
    return [
        f"status {report.status}",
        f"terminal_horizon {report.terminal_horizon}",
        f"achieved_average {_fmt(report.achieved_average)}",
    ]


def write_policy_csv(
    path: str, report: SolveReport, cfg: RunConfig
) -> None:
    """One row per state node (flat row-major order).

    Columns: state coordinates, policy control coordinates (``inf`` when the
    node is infeasible), feasibility flag, and cost-to-go divided by the
    terminal horizon (``inf`` when infeasible).
    """
    xg, ug = cfg.state_grid(), cfg.control_grid()
    table = report.first_stage_policy
    feasible = table.policy != INFEASIBLE
    controls = np.where(feasible[:, None], ug.node_coords()[table.policy], np.inf)
    avg = table.cost / float(report.terminal_horizon)  # inf stays inf
    header = _names("x", xg.ndim) + _names("u", ug.ndim)
    nodes = zip(xg.node_coords(), controls, feasible, avg)
    rows = ([*x, *u, int(f), a] for x, u, f, a in nodes)
    _write_csv(path, header + ["feasible", "avg_cost_to_go"], rows)


def write_metrics_csv(path: str, report: SolveReport, cfg: RunConfig) -> None:
    header = ["horizon", *_names("delta_mu_", len(cfg.control_axes))]
    header += [*_names("delta_x_", len(cfg.state_axes)), "feasible_count"]
    rows = (
        [rec.horizon, *rec.delta_mu, *rec.delta_x, rec.feasible_count]
        for rec in report.metrics
    )
    _write_csv(path, header, rows)


def write_report_txt(path: str, report: SolveReport) -> None:
    lines = _status_lines(report) + [f"wall_time_s {report.wall_time:.3f}"]
    for rec in report.metrics:
        lines.append(
            "horizon {} delta_mu {} delta_x {} feasible {}".format(
                rec.horizon,
                ",".join(_fmt(v) for v in rec.delta_mu),
                ",".join(_fmt(v) for v in rec.delta_x),
                rec.feasible_count,
            )
        )
    lines += [f"note {note}" for note in report.notes]
    _write(path, lines)


def write_trajectory_csv(path: str, trace: RolloutTrace) -> None:
    """Per-step rows plus a terminal row holding only the final state."""
    n, m = trace.states.shape[1], trace.controls.shape[1]
    header = ["step", *_names("x", n), *_names("u", m)]
    header += ["stage_cost", "relaxed_cost", "average_value"]
    steps = zip(
        trace.states,
        trace.controls,
        trace.stage_costs,
        trace.relaxed_costs,
        trace.average_values,
    )
    rows = [[k, *x, *u, c, r, a] for k, (x, u, c, r, a) in enumerate(steps)]
    rows.append([trace.length, *trace.states[trace.length]] + [""] * (m + 3))
    _write_csv(path, header, rows)


def write_compare_csv(path: str, rows: list[tuple[str, float, float]]) -> None:
    def deviation(a: float, b: float) -> float:
        if b != 0.0:
            return abs(a - b) / abs(b)
        return 0.0 if a == b else float("inf")

    header = ["metric", "solver", "reference", "relative_deviation"]
    _write_csv(path, header, [(name, a, b, deviation(a, b)) for name, a, b in rows])


def write_sweep_csv(path: str, results: dict[int, np.ndarray]) -> None:
    rows = []
    for horizon in sorted(results):
        ok = results[horizon][np.isfinite(results[horizon])]
        stats = (ok.min(), ok.max(), ok.mean()) if ok.size else (float("nan"),) * 3
        rows.append((horizon, *stats, ok.size))
    header = ["problem_horizon", "min_avg_cost", "max_avg_cost", "mean_avg_cost"]
    _write_csv(path, header + ["feasible_count"], rows)


# ---------------------------------------------------------------------------
# solve artifacts
# ---------------------------------------------------------------------------


def _write_lock(path: str, report: SolveReport, cfg: RunConfig) -> None:
    _write(path, [_LOCK_MAGIC, *_status_lines(report), "", cfg.canonical()])


def _write_artifact(path: str, report: SolveReport, cfg: RunConfig) -> None:
    """The first-stage table bitwise, keyed by the canonical config."""
    table = report.first_stage_policy
    np.savez(
        path,
        cost=table.cost,
        policy=table.policy,
        status=report.status,
        terminal_horizon=report.terminal_horizon,
        canonical=cfg.canonical(),
    )


def _read_artifact(out_dir: str, cfg: RunConfig) -> tuple[StageTable, str, int] | None:
    """``(table, status, terminal_horizon)`` that ``solve`` wrote for ``cfg``.

    None when ``policy.npz`` is missing, unreadable, malformed or keyed by
    another config; the caller then solves afresh.
    """
    try:
        # a plain .npy in its place loads as an array: no context manager
        with np.load(os.path.join(out_dir, "policy.npz"), allow_pickle=False) as npz:
            cost, policy, status, terminal, canonical = [
                npz[key]
                for key in ("cost", "policy", "status", "terminal_horizon", "canonical")
            ]
    except (OSError, EOFError, TypeError, zipfile.BadZipFile, ValueError, KeyError):
        return None
    nx, nu = cfg.state_grid().size, cfg.control_grid().size
    if (
        str(canonical) != cfg.canonical()
        or str(status) not in ("converged", "hit_n_max")
        or terminal.shape != ()
        or terminal.dtype != np.int64
        or terminal < 1
        or cost.shape != (nx,)
        or cost.dtype != np.float64
        or policy.shape != (nx,)
        or policy.dtype != np.int64
        or ((policy < INFEASIBLE) | (policy >= nu)).any()
    ):
        return None
    try:
        table = StageTable(cost=cost, policy=policy)
    except ValueError:  # infinite cost and policy marker -1 disagree
        return None
    return table, str(status), int(terminal)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file with each given flag whose dest is a config key.

    The flag's text is parsed and range-checked as that key's value.
    """
    cfg = load_config(args.config)
    given = {
        key.replace(".", "_"): _parse_value(key, raw)
        for key, raw in vars(args).items()
        if "." in key and raw is not None
    }
    return dataclasses.replace(cfg, **given)


def _out_dir(args: argparse.Namespace, cfg: RunConfig) -> str:
    out = args.out or cfg.output_dir or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _parse_x0(args: argparse.Namespace, cfg: RunConfig) -> np.ndarray:
    dim = len(cfg.state_axes)
    if args.x0 is None:
        return np.zeros(dim)
    try:
        vals = np.asarray([_finite(p) for p in args.x0.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"--x0 must be comma-separated finite numbers, got {args.x0!r}")
    if vals.shape != (dim,):
        raise ConfigError(f"--x0 needs {dim} components, got {vals.size}")
    return vals


def _progress(args: argparse.Namespace):
    return None if args.quiet else print_progress


def _problem_grids(cfg: RunConfig) -> tuple[ProblemDef, CartesianGrid, CartesianGrid]:
    return cfg.build_problem(), cfg.state_grid(), cfg.control_grid()


def _engine(args: argparse.Namespace, cfg: RunConfig) -> DpEngine:
    """The command's one engine: the config's problem and grids at ``--threads``."""
    return DpEngine(*_problem_grids(cfg), threads=args.threads)


def _run_solve(args: argparse.Namespace, cfg: RunConfig, out: str) -> SolveReport:
    engine, progress = _engine(args, cfg), _progress(args)
    report = solve(*_problem_grids(cfg), cfg.solver, engine=engine, progress=progress)
    write_policy_csv(os.path.join(out, "policy.csv"), report, cfg)
    write_metrics_csv(os.path.join(out, "metrics.csv"), report, cfg)
    write_report_txt(os.path.join(out, "report.txt"), report)
    _write_lock(os.path.join(out, "solve.lock"), report, cfg)
    _write_artifact(os.path.join(out, "policy.npz"), report, cfg)
    return report


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    report = _run_solve(args, cfg, out)
    print(
        f"status={report.status} terminal_horizon={report.terminal_horizon} "
        f"achieved_average={_fmt(report.achieved_average)} out={out}"
    )
    return 0 if report.status == "converged" else 2


def cmd_rollout(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    x0 = _parse_x0(args, cfg)

    if args.horizon is not None and args.horizon < 0:
        raise ConfigError(f"--horizon must be nonnegative, got {args.horizon}")

    solved = _read_artifact(out, cfg)
    if solved is None:
        report = _run_solve(args, cfg, out)
        solved = report.first_stage_policy, report.status, report.terminal_horizon
    table, status, terminal = solved
    horizon = (
        args.horizon
        if args.horizon is not None
        else cfg.reference_multiplier * terminal
    )
    trace = rollout_stationary(*_problem_grids(cfg), table, x0, horizon)
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
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    x0 = _parse_x0(args, cfg)
    problem, xg, ug = _problem_grids(cfg)
    engine = _engine(args, cfg)
    report = solve(
        problem, xg, ug, cfg.solver, engine=engine, progress=_progress(args)
    )
    window = cfg.reference_multiplier * report.terminal_horizon

    trace_sol = rollout_stationary(
        problem, xg, ug, report.first_stage_policy, x0, window
    )
    policies = finite_horizon_policies(
        problem, xg, ug, window, engine=engine, stages=report.stages
    )
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
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    if cfg.sweep_horizons is None:
        raise ConfigError("sweep needs --horizons or sweep.horizons in the config")
    results = horizon_sweep(
        *_problem_grids(cfg),
        cfg.sweep_horizons,
        cfg.sweep_trajectory_horizon,
        engine=_engine(args, cfg),
    )
    write_sweep_csv(os.path.join(out, "sweep.csv"), results)
    print(f"sweep ok horizons={sorted(results)} out={out}")
    return 0


def cmd_equilibrium(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    eq = equilibrium_search(*_problem_grids(cfg), eq_tol=cfg.equilibrium_tolerance)
    header = _names("x", eq.state.size) + _names("u", eq.control.size)
    row = [*eq.state, *eq.control, eq.cost, eq.residual]
    _write_csv(None, header + ["cost", "residual"], [row])
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1, not argparse's default 2
        raise _UsageError(message)


def _thread_count(raw: str) -> int:
    """``--threads``: a nonnegative integer."""
    if not raw.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {raw!r}")
    return int(raw)


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
            type=_thread_count,
            default=1,
            help=(
                "worker threads for the engine build and full backward steps; "
                "chain steps run on one (0 = all usable CPUs; default 1); "
                "never changes the results"
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
    p.add_argument(
        "--horizons",
        dest="sweep.horizons",
        help="comma-separated design horizons",
    )
    p.add_argument(
        "--trajectory-horizon",
        dest="sweep.trajectory_horizon",
        help="rollout length used for every design horizon",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("equilibrium", help="best gridded stationary pair")
    p.add_argument("--config", required=True, help="path to a key=value config")
    p.add_argument(
        "--tolerance",
        dest="equilibrium.tolerance",
        help="stationarity tolerance",
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
    except (InfeasibleProblemError, InfeasibleRolloutError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except NoEquilibriumError as exc:
        print(f"no equilibrium: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
