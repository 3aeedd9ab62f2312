"""End-to-end acceptance checks for the two pendulum benchmarks.

Each test prints a single PASS/FAIL verdict line (visible with ``-rA``) and
then asserts it, so the suite doubles as a readable acceptance report.  The
session-scoped benchmark fixtures in ``conftest.py`` are shared across tests;
the reference-trajectory tests are the slow part (a few minutes in total,
dominated by the backward recursion over the full comparison window).
Every test that solves or sweeps a paper-scale grid is marked ``slow``.
"""

import math
import pathlib
import time
from types import SimpleNamespace

import numpy as np
import pytest

import gridpolicy as gp
from gridpolicy import (
    DpEngine,
    equilibrium_search,
    finite_horizon_policies,
    horizon_sweep,
    load_config,
    pendulum_step,
    relaxed_cost,
    rollout_stationary,
    rollout_time_varying,
    solve,
)
from gridpolicy.cli import main as cli_main

from _toys import enumerate_optimal, grid_bounds, random_lattice_toy

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

EPS_MU = 0.02
EPS_X = np.array([0.1, 0.1])


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _quantized(values, spacing: float, tol: float = 1e-9) -> bool:
    q = np.asarray(values, dtype=float) / spacing
    return bool(np.all(np.abs(q - np.rint(q)) <= tol))


@pytest.mark.slow
def test_criterion_1_convergence_and_budget(min_time_run, tmp_path):
    report = min_time_run.report
    checks = {
        "terminal": report.status == "converged"
        and report.terminal_horizon in (45, 135),
        "budget": report.wall_time <= 900.0,
    }

    t0 = time.perf_counter()
    rc = cli_main(
        [
            "solve",
            "--config",
            str(CONFIGS / "pendulum_min_time_coarse.cfg"),
            "--out",
            str(tmp_path / "ci"),
            "--quiet",
        ]
    )
    ci_wall = time.perf_counter() - t0
    checks["ci_cli"] = rc == 0 and ci_wall <= 60.0

    checks["delta_mu_quantized"] = all(
        _quantized(m.delta_mu, 0.01) for m in report.metrics
    )
    lows, uppers = grid_bounds(min_time_run.xgrid)
    widths = uppers - lows
    checks["delta_x_in_box"] = all(
        (m.delta_x <= widths).all() for m in report.metrics
    )

    # at least one seeded node starts inside the eps_x box around the
    # terminal ensemble mean and stays there
    ens = min_time_run.report.final_ensemble
    survivors = np.flatnonzero(ens.feasible)
    mean = ens.states[survivors].mean(axis=0)
    starts = min_time_run.xgrid.node_coords()[survivors]
    ends = ens.states[survivors]
    inside = (np.abs(starts - mean) <= EPS_X).all(axis=1) & (
        np.abs(ends - mean) <= EPS_X
    ).all(axis=1)
    checks["seeded_entry_near_mean"] = bool(inside.any())

    ok = all(checks.values())
    detail = (
        f"terminal_horizon={report.terminal_horizon} "
        f"solve_wall={report.wall_time:.1f}s ci_cli_wall={ci_wall:.1f}s"
    )
    if not ok:
        detail += " failed=" + ",".join(k for k, v in checks.items() if not v)
    _verdict(1, ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_2_min_time_cost_parity(min_time_run):
    run = min_time_run
    window = 10 * run.report.terminal_horizon
    x0 = np.zeros(2)
    stat = rollout_stationary(
        run.problem, run.xgrid, run.ugrid, run.report.first_stage_policy, x0, window
    )
    policies = finite_horizon_policies(
        run.problem,
        run.xgrid,
        run.ugrid,
        window,
        engine=run.engine,
        stages=run.report.stages,
    )
    ref = rollout_time_varying(run.problem, run.xgrid, run.ugrid, policies, x0)

    complete = stat.reason is None and ref.reason is None
    a = float(stat.stage_costs.mean()) if complete else math.nan
    b = float(ref.stage_costs.mean()) if complete else math.nan
    dev = abs(a - b) / abs(b) if complete and b != 0.0 else math.inf
    ok = complete and dev <= 0.05
    detail = f"window={window} solver={a!r} reference={b!r} reldev={dev!r}"
    _verdict(2, ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_3_avg_angle_tracking(avg_angle_run):
    run = avg_angle_run
    window = 10 * run.report.terminal_horizon
    x0 = np.zeros(2)
    stat = rollout_stationary(
        run.problem, run.xgrid, run.ugrid, run.report.first_stage_policy, x0, window
    )
    policies = finite_horizon_policies(
        run.problem,
        run.xgrid,
        run.ugrid,
        window,
        engine=run.engine,
        stages=run.report.stages,
    )
    ref = rollout_time_varying(run.problem, run.xgrid, run.ugrid, policies, x0)

    complete = stat.reason is None and ref.reason is None
    checks = {"complete": complete}
    detail = f"window={window}"
    if complete:
        a = float((stat.controls**2).sum())
        b = float((ref.controls**2).sum())
        dev = abs(a - b) / abs(b)
        checks["sum_sq_control"] = dev <= 0.05

        tail = window // 4
        theta_tail = float(stat.states[-tail:, 0].mean())
        checks["tail_theta"] = abs(theta_tail - 0.5) <= 0.1

        u_tail = float(stat.controls[-tail:].mean())
        gap = abs(u_tail - math.sin(0.5))
        checks["stationary_control"] = gap <= 0.02
        detail += (
            f" sum_sq_dev={dev!r} tail_theta={theta_tail!r}"
            f" control_gap={gap!r}"
        )
    ok = all(checks.values())
    if not ok:
        detail += " failed=" + ",".join(k for k, v in checks.items() if not v)
    _verdict(3, ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_4_horizon_sweep_band():
    cfg = load_config(str(CONFIGS / "pendulum_avg_angle_sweep.cfg"))
    horizons = list(cfg.sweep_horizons)
    trajectory = cfg.sweep_trajectory_horizon
    assert trajectory >= 1000
    results = horizon_sweep(
        cfg.build_problem(),
        cfg.state_grid(),
        cfg.control_grid(),
        horizons,
        trajectory,
    )

    checks = {}
    spans = {}
    for n, costs in results.items():
        finite = costs[np.isfinite(costs)]
        checks[f"feasible_{n}"] = finite.size > 0
        spans[n] = (float(finite.min()), float(finite.max()))
        if n >= 40:
            checks[f"band_{n}"] = bool(
                (finite >= -0.042).all() and (finite <= -0.034).all()
            )
    mean5 = float(np.nanmean(results[5]))
    mean80 = float(np.nanmean(results[80]))
    checks["short_horizon_worse"] = mean5 > mean80

    ok = all(checks.values())
    detail = (
        f"trajectory={trajectory} spans={spans} mean5={mean5!r} mean80={mean80!r}"
    )
    if not ok:
        detail += " failed=" + ",".join(k for k, v in checks.items() if not v)
    _verdict(4, ok, detail)
    assert ok, detail


def test_criterion_5_backward_equals_enumeration():
    rng = np.random.default_rng(1234501)
    mismatches = []
    for case in range(50):
        toy = random_lattice_toy(rng)
        nu = toy.ugrid.size
        horizon = max(1, min(6, int(math.log(4096) / math.log(nu))))
        engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
        table = None
        for _ in range(horizon):
            table = engine.backward(None if table is None else table.cost)
        want_cost, want_first = enumerate_optimal(toy, horizon)
        if not (
            np.array_equal(table.cost, want_cost)
            and np.array_equal(table.policy, want_first)
        ):
            mismatches.append(case)
    ok = not mismatches
    detail = f"cases=50 mismatches={mismatches}"
    _verdict(5, ok, detail)
    assert ok, detail


def _cost_minimal_equilibria(run):
    """(state indices, control indices) of every gridded pair that ties for
    the cheapest cost under ``equilibrium_search``'s own rule: the default
    ``eq_tol``, admissibility and relaxed cost.  The search's min-|u|
    tie-break only picks one member of this set; it is not part of the
    objective, so a loop parked anywhere on the plateau is stationary."""
    xc = run.xgrid.node_coords()
    uc = run.ugrid.node_coords()
    x = np.repeat(xc, run.ugrid.size, axis=0)
    u = np.tile(uc, (run.xgrid.size, 1))
    eq_tol = float(run.xgrid.spacings.max()) / 10.0
    residual = np.abs(x - run.problem.dynamics(x, u)).max(axis=-1)
    admissible = ~(np.asarray(run.problem.inequality(x, u)) > 0.0).any(axis=-1)
    cost = np.where(
        (residual <= eq_tol) & admissible, relaxed_cost(run.problem, x, u), np.inf
    )
    return np.divmod(np.flatnonzero(cost == cost.min()), run.ugrid.size)


def _stationarity_gaps(run):
    """Terminal ensemble and its closed loop against the gridded equilibria.

    State: the componentwise mean of the surviving terminal ensemble against
    the pair ``equilibrium_search`` returns.  Control: a rollout of 10x the
    terminal horizon from that mean; over its last quarter, the mean state
    picks the nearest state node of the cost-minimal set, which must lie
    within the state bound of that mean, and the gap is the smallest
    distance from the mean control to that node's cost-minimal controls.
    Each bound is eps plus one grid spacing, componentwise.  Hold: the tail's
    mean pair (x, u) must itself be stationary, ``||f(x, u) - x||_inf``
    within ``equilibrium_search``'s default ``eq_tol``."""
    eq = equilibrium_search(run.problem, run.xgrid, run.ugrid)
    ens = run.report.final_ensemble
    mean = ens.states[ens.feasible].mean(axis=0)
    state_gap = np.abs(mean - eq.state)
    state_bound = EPS_X + run.xgrid.spacings

    horizon = 10 * run.report.terminal_horizon
    trace = rollout_stationary(
        run.problem, run.xgrid, run.ugrid, run.report.first_stage_policy, mean, horizon
    )
    tail = horizon // 4
    x_tail = trace.states[:-1][-tail:].mean(axis=0)
    u_tail = trace.controls[-tail:]
    control_bound = EPS_MU + run.ugrid.spacings

    ix, iu = _cost_minimal_equilibria(run)
    nodes = run.xgrid.node_coords()[ix]
    nearest = ix[np.abs(nodes - x_tail).max(axis=1).argmin()]
    x_ref = run.xgrid.node_coords()[int(nearest)]
    u_refs = run.ugrid.node_coords()[iu[ix == nearest]]
    gaps = np.abs(u_tail.mean(axis=0) - u_refs)
    best = gaps.max(axis=1).argmin()
    held = run.problem.dynamics(x_tail, u_tail.mean(axis=0))
    return SimpleNamespace(
        eq=eq,
        set_size=ix.size,
        set_has_pick=bool(((ix == eq.state_index) & (iu == eq.control_index)).any()),
        state_gap=state_gap,
        state_bound=state_bound,
        x_tail=x_tail,
        u_spread=np.ptp(u_tail, axis=0),
        x_ref=x_ref,
        u_ref=u_refs[best],
        ref_gap=np.abs(x_tail - x_ref),
        control_gap=gaps[best],
        control_bound=control_bound,
        hold_residual=float(np.abs(held - x_tail).max()),
        hold_bound=float(run.xgrid.spacings.max()) / 10.0,
        reason=trace.reason,
    )


@pytest.mark.slow
def test_criterion_6_equilibrium_consistency(min_time_run, avg_angle_run):
    checks = {}
    details = []
    for name, run in (("min_time", min_time_run), ("avg_angle", avg_angle_run)):
        g = _stationarity_gaps(run)
        checks[f"{name}_set_has_pick"] = g.set_has_pick
        checks[f"{name}_rollout"] = g.reason is None
        checks[f"{name}_state"] = bool((g.state_gap <= g.state_bound).all())
        checks[f"{name}_reference"] = bool((g.ref_gap <= g.state_bound).all())
        checks[f"{name}_control"] = bool((g.control_gap <= g.control_bound).all())
        checks[f"{name}_holds"] = g.hold_residual <= g.hold_bound
        details.append(
            f"{name}: x_eq={g.eq.state.tolist()} u_eq={g.eq.control.tolist()} "
            f"state_gap={g.state_gap.tolist()} (bound {g.state_bound.tolist()}) "
            f"tail_x={g.x_tail.tolist()} tail_u_spread={g.u_spread.tolist()} "
            f"cost_minimal_pairs={g.set_size} "
            f"reference=(x={g.x_ref.tolist()}, u={g.u_ref.tolist()}) "
            f"control_gap={g.control_gap.tolist()} "
            f"(bound {g.control_bound.tolist()}) "
            f"hold_residual={g.hold_residual!r} (bound {g.hold_bound!r})"
        )
    ok = all(checks.values())
    detail = "; ".join(details)
    if not ok:
        detail += " failed=" + ",".join(k for k, v in checks.items() if not v)
    _verdict(6, ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_7_thread_count_byte_identity(tmp_path):
    cfg = str(CONFIGS / "pendulum_min_time_coarse.cfg")
    outs = {}
    for label, threads in (("serial", "1"), ("auto", "0")):
        out = tmp_path / label
        rc = cli_main(
            ["solve", "--config", cfg, "--out", str(out), "--threads", threads,
             "--quiet"]
        )
        assert rc == 0
        rc = cli_main(
            ["rollout", "--config", cfg, "--out", str(out), "--threads", threads,
             "--horizon", "100", "--quiet"]
        )
        assert rc == 0
        outs[label] = out

    mismatched = [
        name
        for name in ("policy.csv", "metrics.csv", "solve.lock", "trajectory.csv")
        if (outs["serial"] / name).read_bytes() != (outs["auto"] / name).read_bytes()
    ]
    ok = not mismatched
    detail = f"compared policy/metrics/lock/trajectory, mismatched={mismatched}"
    _verdict(7, ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_8_property_bundle(min_time_run, avg_angle_run, rng):
    checks = {}

    # interpolation reproduces node values and affine fields
    xg = gp.CartesianGrid([gp.AxisSpec(-1.0, 2.0, 0.3), gp.AxisSpec(0.0, 1.0, 0.25)])
    field = rng.normal(size=xg.size)
    node_err = max(
        abs(xg.interpolate(field, xg.node_coords()[int(i)]) - field[int(i)])
        for i in rng.choice(xg.size, size=40, replace=False)
    )
    checks["node_exactness"] = node_err <= 1e-12

    coeffs = rng.normal(size=3)
    affine = lambda p: coeffs[0] + coeffs[1] * p[..., 0] + coeffs[2] * p[..., 1]
    afield = affine(xg.node_coords())
    pts = rng.uniform([-1.0, 0.0], [2.0, 1.0], size=(200, 2))
    aff_err = max(abs(xg.interpolate(afield, p) - affine(p)) for p in pts)
    checks["affine_reproduction"] = aff_err <= 1e-12

    # integrator: 4th-order step-halving ratio and long-run energy drift
    x = np.array([1.0, 0.0])
    u = np.array([0.3])
    steps = {
        s: pendulum_step(gp.PendulumParams(substeps=s), x, u) for s in (5, 10, 20, 160)
    }
    e5 = np.abs(steps[5] - steps[160]).max()
    e10 = np.abs(steps[10] - steps[160]).max()
    e20 = np.abs(steps[20] - steps[160]).max()
    checks["rk4_order"] = (
        abs(e5 / e10 / 16.0 - 1.0) <= 0.3 and abs(e10 / e20 / 16.0 - 1.0) <= 0.3
    )

    params = gp.PendulumParams()  # undamped
    energy = lambda s: 0.5 * s[..., 1] ** 2 + (1.0 - np.cos(s[..., 0]))
    s = np.array([1.0, 0.0])
    e0 = float(energy(s))
    drift = 0.0
    for _ in range(100):
        s = pendulum_step(params, s, np.array([0.0]))
        drift = max(drift, abs(float(energy(s)) - e0))
    checks["energy_conservation"] = drift / e0 <= 1e-7

    # growing the horizon in rounds is bit-identical to one uninterrupted
    # backward chain of the same length
    from _toys import lattice_problem

    toy = lattice_problem(
        xshape=(4,),
        ushape=(2,),
        next_index=[[1, 3], [1, 1], [2, 2], [2, 2]],
        cost=[[1.0, 1.0], [0.5, 0.5], [0.0, 0.0], [1.0, 1.0]],
        admissible=np.ones((4, 2), dtype=bool),
    )
    report = solve(
        toy.problem,
        toy.xgrid,
        toy.ugrid,
        gp.SolverConfig(eps_mu=1.0, eps_x=10.0, n_init=5, growth=3),
        progress=None,
    )
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    fresh = None
    for _ in range(report.terminal_horizon):
        fresh = engine.backward(None if fresh is None else fresh.cost)
    checks["resume_bit_identical"] = report.terminal_horizon == 15 and bool(
        np.array_equal(report.first_stage_policy.cost, fresh.cost)
        and np.array_equal(report.first_stage_policy.policy, fresh.policy)
    )

    # every recorded policy deviation is a whole number of control spacings
    checks["delta_mu_quantized"] = all(
        _quantized(m.delta_mu, 0.01)
        for run in (min_time_run, avg_angle_run)
        for m in run.report.metrics
    )

    # feasibility can only shrink as the horizon grows
    mono = True
    for _ in range(5):
        t = random_lattice_toy(rng)
        engine = DpEngine(t.problem, t.xgrid, t.ugrid)
        prev = None
        last_mask = None
        for _ in range(6):
            prev = engine.backward(None if prev is None else prev.cost)
            mask = prev.feasible_mask
            if last_mask is not None and not (last_mask | ~mask).all():
                mono = False
            last_mask = mask
    checks["feasibility_monotone"] = mono

    # termination is strict: the benchmark run that lands exactly on the
    # tolerance must take one more growth round
    aa = avg_angle_run.report
    checks["strict_inequality"] = (
        len(aa.metrics) >= 2
        and float(aa.metrics[-2].delta_mu[0]) >= EPS_MU
        and float(aa.metrics[-1].delta_mu[0]) < EPS_MU
        and aa.status == "converged"
    )

    # the built-in multiplier satisfies first-order stationarity at theta_ref
    gaps = []
    for theta_ref in (0.5, 0.2):
        lam = gp.builtin_avg_angle_pendulum(theta_ref).lam
        gaps.append(abs(math.sin(2.0 * theta_ref) + lam))
    checks["multiplier_stationarity"] = max(gaps) <= 1e-12

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    detail = f"{len(checks)} properties" + (f", failed={failed}" if failed else "")
    _verdict(8, ok, detail)
    assert ok, detail
