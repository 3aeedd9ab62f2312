import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridpolicy.reference
import gridpolicy.solver
from gridpolicy import (
    AxisSpec,
    CartesianGrid,
    DpEngine,
    InfeasibleProblemError,
    InfeasibleRolloutError,
    SolverConfig,
    SolverError,
    StageTable,
    achieved_average,
    builtin_avg_angle_pendulum,
    delta_mu,
    delta_x,
    finite_horizon_policies,
    horizon_sweep,
    load_config,
    solve,
)
from gridpolicy.dp import BackwardChain, ForwardEnsemble

from _toys import fixpoint_lattice_toy, lattice_problem, random_lattice_toy

COARSE = pathlib.Path(__file__).resolve().parents[1] / "configs" / (
    "pendulum_min_time_coarse.cfg"
)


def _ugrid3():
    return CartesianGrid([AxisSpec(0.0, 2.0, 1.0)])


def _table(policy):
    policy = np.asarray(policy, dtype=np.int64)
    cost = np.where(policy < 0, np.inf, 0.0)
    return StageTable(cost=cost, policy=policy)


def _forward(stages):
    """The policies of tables in recursion order, in forward order."""
    return [t.policy for t in reversed(stages)]


# -- config ------------------------------------------------------------------


def test_config_validation():
    SolverConfig()  # defaults are fine
    with pytest.raises(ValueError):
        SolverConfig(n_init=0)
    with pytest.raises(ValueError):
        SolverConfig(n_init=10, n_max=9)
    with pytest.raises(ValueError):
        SolverConfig(growth=1)


@pytest.mark.parametrize("key", ["n_init", "n_max", "growth"])
@pytest.mark.parametrize("bad", [2.5, 20.0, np.float64(20.0), "20"])
def test_config_rejects_settings_that_are_not_integers(key, bad):
    # growth 2.5 used to construct, and solve pulled 13 stages before
    # ``range`` raised; now the config itself raises, before any solve
    with pytest.raises(TypeError):
        SolverConfig(**{key: bad})
    SolverConfig(**{key: np.int64(20)})  # a NumPy integer is an integer


# -- termination metrics -----------------------------------------------------


def test_delta_mu_window_and_value():
    # four stages; the window is j in [ceil(4/2), 4] = stages 2..4
    stages = [
        _table([2, 0, 0]),  # stage 1: wild on purpose -- must be excluded
        _table([0, 1, 0]),
        _table([1, 1, 0]),
        _table([0, 2, 0]),  # candidate
    ]
    got = delta_mu(_forward(stages), survivors=[0, 1], ugrid=_ugrid3())
    # per stage vs candidate: stage2 max|.|=1, stage3 max=1, stage4 = 0
    np.testing.assert_array_equal(got, [1.0])


def test_delta_mu_single_stage_is_zero():
    got = delta_mu(_forward([_table([2, 1])]), survivors=[0, 1], ugrid=_ugrid3())
    np.testing.assert_array_equal(got, [0.0])


def test_delta_mu_rejects_undefined_survivor():
    stages = [_table([0, 1]), _table([0, -1])]
    with pytest.raises(SolverError):
        delta_mu(_forward(stages), survivors=[0, 1], ugrid=_ugrid3())


def test_delta_mu_empty_survivors():
    with pytest.raises(InfeasibleProblemError):
        delta_mu(_forward([_table([0, 1])]), survivors=[], ugrid=_ugrid3())


def _stacked_delta_mu(stages, survivors, ugrid):
    """The formula ``delta_mu`` replaced, kept as its oracle: every window
    policy at the survivors stacked, compared with the candidate's."""
    survivors = np.asarray(survivors, dtype=np.int64)
    if survivors.size == 0:
        raise InfeasibleProblemError("no survivors")
    n = len(stages)
    pol = np.stack([stages[j - 1].policy[survivors] for j in range((n + 1) // 2, n + 1)])
    if (pol < 0).any():
        raise SolverError("undefined survivor")
    coords = ugrid.node_coords()[pol]
    return np.abs(coords - coords[-1][None]).max(axis=(0, 1))


_CONTROL_GRIDS = {
    1: CartesianGrid([AxisSpec(-1.0, 1.0, 0.1)]),
    2: CartesianGrid([AxisSpec(-0.7, 0.9, 0.3), AxisSpec(0.1, 0.4, 0.05)]),
}


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([1, 2]),
    n=st.integers(1, 9),
    nx=st.integers(1, 12),
    undefined=st.sampled_from([0.0, 0.02, 0.3]),
    shared=st.sampled_from([0.0, 0.5, 1.0]),
    data=st.data(),
)
def test_delta_mu_equals_the_stacked_formula(seed, m, n, nx, undefined, shared, data):
    # random stage policies on control grids with fractional spacings, an
    # arbitrary survivor subset (empty included) and -1 markers: the same
    # bits, or the same exception, as the stacked formula; a list whose
    # consecutive entries share one array object, as PolicyRuns lists
    # them, gives what a list of copies gives
    rng = np.random.default_rng(seed)
    ug = _CONTROL_GRIDS[m]
    rows = rng.integers(0, ug.size, size=(n, nx))
    rows[rng.random((n, nx)) < undefined] = -1
    stages = [_table(rows[0])]
    for row in rows[1:]:
        stages.append(stages[-1] if rng.random() < shared else _table(row))
    runs = _forward(stages)
    copies = [p.copy() for p in runs]
    survivors = data.draw(st.lists(st.integers(0, nx - 1), unique=True))
    try:
        want = _stacked_delta_mu(stages, survivors, ug)
    except (InfeasibleProblemError, SolverError) as exc:
        for policies in (runs, copies):
            with pytest.raises(type(exc)):
                delta_mu(policies, survivors, ug)
        return
    for policies in (runs, copies):
        got = delta_mu(policies, survivors, ug)
        assert got.shape == (m,) and got.tobytes() == want.tobytes()


def _check_metrics_against_every_stage(toy, report):
    """Each tested horizon's delta_mu is the stacked formula over every
    stage up to it, at the survivors of the same forward test."""
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    stages = list(itertools.islice(engine.chain(), report.terminal_horizon))
    for m in report.metrics:
        table = stages[m.horizon - 1]
        ensemble = engine.seed_ensemble(table)
        for _ in range((m.horizon + 1) // 2):
            engine.forward(ensemble, table)
        survivors = np.flatnonzero(ensemble.feasible)
        assert m.feasible_count == survivors.size
        want = _stacked_delta_mu(stages[: m.horizon], survivors, toy.ugrid)
        assert m.delta_mu.tobytes() == want.tobytes(), m.horizon
        got = delta_mu(_forward(stages[: m.horizon]), survivors, toy.ugrid)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    growth=st.sampled_from([2, 3]),
    n_init=st.integers(1, 4),
)
def test_solve_metrics_equal_delta_mu_over_every_stage(seed, growth, n_init):
    # solve keeps one table and the policies as runs; every tested
    # horizon's delta_mu is still the formula over the whole stack
    toy = random_lattice_toy(np.random.default_rng(seed))
    cfg = SolverConfig(eps_mu=1e-9, eps_x=1e-9, n_init=n_init, n_max=40, growth=growth)
    try:
        report = solve(toy.problem, toy.xgrid, toy.ugrid, config=cfg, progress=None)
    except InfeasibleProblemError:
        return
    _check_metrics_against_every_stage(toy, report)


def test_growth_two_window_opens_at_the_previous_candidate():
    # horizons 3 and 6: the window of 6 is stages 3..6, and only stage 3
    # (the candidate of horizon 3) still sends node 0 to control 0
    toy = _late_switch_toy()
    cfg = SolverConfig(eps_mu=0.5, eps_x=0.1, n_init=3, n_max=6, growth=2)
    report = solve(toy.problem, toy.xgrid, toy.ugrid, config=cfg, progress=None)
    assert [m.horizon for m in report.metrics] == [3, 6]
    np.testing.assert_array_equal(report.metrics[1].delta_mu, [1.0])
    _check_metrics_against_every_stage(toy, report)


def test_solve_calls_delta_mu_once_per_horizon_on_its_record(monkeypatch):
    # the tested horizon's policies come from the report's own stage record
    calls = []

    def spy(policies, survivors, ugrid):
        calls.append((policies, len(survivors)))
        return real(policies, survivors, ugrid)

    real = gridpolicy.solver.delta_mu
    monkeypatch.setattr(gridpolicy.solver, "delta_mu", spy)
    toy = _late_switch_toy()
    cfg = SolverConfig(eps_mu=0.5, eps_x=0.1, n_init=2, n_max=12, growth=2)
    report = solve(toy.problem, toy.xgrid, toy.ugrid, config=cfg, progress=None)
    assert [m.horizon for m in report.metrics] == [2, 4, 8]
    assert len(calls) == len(report.metrics)
    for (policies, count), m in zip(calls, report.metrics):
        want = report.stages.policies(m.horizon)
        assert len(policies) == m.horizon
        assert all(a is b for a, b in zip(policies, want))
        assert count == m.feasible_count


def test_delta_x_spread():
    ens = ForwardEnsemble(
        states=np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [50.0, 50.0]]),
        feasible=np.array([True, True, True, False]),
    )
    np.testing.assert_array_equal(delta_x(ens), [1.0, 2.0])


def test_delta_x_empty():
    ens = ForwardEnsemble(
        states=np.zeros((2, 1)), feasible=np.array([False, False])
    )
    with pytest.raises(InfeasibleProblemError):
        delta_x(ens)


# -- solve loop --------------------------------------------------------------


def _funnel_toy(avg=None):
    # every node contracts to node 1 under the cheap control
    return lattice_problem(
        xshape=(3,),
        ushape=(2,),
        next_index=[[1, 0], [1, 2], [1, 2]],
        cost=[[0.0, 1.0]] * 3,
        admissible=np.ones((3, 2), dtype=bool),
        avg=avg,
    )


def test_solve_converges_on_contracting_toy():
    toy = _funnel_toy()
    report = solve(toy.problem, toy.xgrid, toy.ugrid, progress=None)
    assert report.status == "converged"
    assert report.terminal_horizon == 5  # default n_init
    assert len(report.metrics) == 1
    m = report.metrics[0]
    assert m.horizon == 5 and m.feasible_count == 3
    np.testing.assert_array_equal(m.delta_mu, [0.0])
    np.testing.assert_array_equal(m.delta_x, [0.0])
    np.testing.assert_array_equal(report.first_stage_policy.policy, [0, 0, 0])
    assert report.achieved_average == 0.0
    assert report.notes == []
    assert report.wall_time > 0.0


def test_solve_hit_n_max_schedule():
    # two attractors keep the state spread at 1.0 >= eps_x forever
    toy = lattice_problem(
        xshape=(3,),
        ushape=(2,),
        next_index=[[0, 0], [0, 2], [2, 2]],
        cost=np.zeros((3, 2)),
        admissible=np.ones((3, 2), dtype=bool),
    )
    cfg = SolverConfig(eps_mu=10.0, eps_x=0.5, n_init=2, n_max=50, growth=4)
    report = solve(toy.problem, toy.xgrid, toy.ugrid, config=cfg, progress=None)
    assert report.status == "hit_n_max"
    assert report.terminal_horizon == 32
    assert [m.horizon for m in report.metrics] == [2, 8, 32]


def test_solve_strict_delta_x_boundary():
    # survivors split between nodes 0 and 2 -> delta_x is exactly 1.0; node 1
    # is inadmissible so it never seeds
    toy = lattice_problem(
        xshape=(3,),
        ushape=(2,),
        next_index=[[0, 0], [1, 1], [2, 2]],
        cost=np.zeros((3, 2)),
        admissible=[[True, True], [False, False], [True, True]],
    )
    at_eq = SolverConfig(eps_mu=10.0, eps_x=1.0, n_init=2, n_max=8, growth=2)
    report = solve(toy.problem, toy.xgrid, toy.ugrid, config=at_eq, progress=None)
    assert report.status == "hit_n_max"
    assert all(float(m.delta_x[0]) == 1.0 for m in report.metrics)

    above = SolverConfig(eps_mu=10.0, eps_x=1.0000001, n_init=2, n_max=8, growth=2)
    report = solve(toy.problem, toy.xgrid, toy.ugrid, config=above, progress=None)
    assert report.status == "converged"
    assert report.terminal_horizon == 2


def _late_switch_toy():
    # node 0's optimal first move switches from u=0 to u=1 at horizon 4:
    #   u0 -> node 1 (self-loop at 0.5/step), u1 -> node 3 -> node 2 (free)
    return lattice_problem(
        xshape=(4,),
        ushape=(2,),
        next_index=[[1, 3], [1, 1], [2, 2], [2, 2]],
        cost=[[1.0, 1.0], [0.5, 0.5], [0.0, 0.0], [1.0, 1.0]],
        admissible=np.ones((4, 2), dtype=bool),
    )


def test_solve_strict_delta_mu_boundary():
    toy = _late_switch_toy()
    # at N=5 the comparison window [3, 5] still contains a stage-3 policy
    # that differs from the candidate by one control node
    at_eq = SolverConfig(eps_mu=1.0, eps_x=10.0, n_init=5, growth=3)
    report = solve(toy.problem, toy.xgrid, toy.ugrid, config=at_eq, progress=None)
    assert float(report.metrics[0].delta_mu[0]) == 1.0
    assert report.status == "converged"
    assert report.terminal_horizon == 15  # one extra growth round

    above = SolverConfig(eps_mu=1.0000001, eps_x=10.0, n_init=5, growth=3)
    report = solve(toy.problem, toy.xgrid, toy.ugrid, config=above, progress=None)
    assert report.status == "converged"
    assert report.terminal_horizon == 5


def test_solve_all_nodes_infeasible():
    toy = lattice_problem(
        xshape=(2,),
        ushape=(2,),
        next_index=[[0, 1], [0, 1]],
        cost=np.zeros((2, 2)),
        admissible=np.zeros((2, 2), dtype=bool),
    )
    with pytest.raises(InfeasibleProblemError):
        solve(toy.problem, toy.xgrid, toy.ugrid, progress=None)


def test_solve_no_forward_survivors():
    # a chain that is backward-feasible for exactly 3 steps from node 3; the
    # stationary forward test walks into the infeasible region and dies
    toy = lattice_problem(
        xshape=(4,),
        ushape=(2,),
        next_index=[[0, -1], [0, -1], [1, -1], [2, -1]],
        cost=np.ones((4, 2)),
        admissible=[[False, False], [True, True], [True, True], [True, True]],
    )
    cfg = SolverConfig(eps_mu=10.0, eps_x=10.0, n_init=3, n_max=3, growth=2)
    with pytest.raises(InfeasibleProblemError):
        solve(toy.problem, toy.xgrid, toy.ugrid, config=cfg, progress=None)


def test_solve_tolerance_validation():
    toy = _funnel_toy()
    with pytest.raises(ValueError):
        solve(
            toy.problem,
            toy.xgrid,
            toy.ugrid,
            config=SolverConfig(eps_x=(1.0, 1.0)),  # state grid is 1-d
            progress=None,
        )
    with pytest.raises(ValueError):
        solve(
            toy.problem,
            toy.xgrid,
            toy.ugrid,
            config=SolverConfig(eps_mu=0.0),
            progress=None,
        )


@pytest.mark.parametrize("key", ["eps_mu", "eps_x"])
@pytest.mark.parametrize("bad", [float("nan"), (float("nan"),), -1.0])
def test_solve_rejects_tolerances_that_are_not_positive(key, bad):
    # a NaN tolerance would pass a "<= 0" test, and no delta < NaN ever
    # holds: the solve would run on to n_max instead of failing fast
    toy = _funnel_toy()
    with pytest.raises(ValueError, match="tolerances must be positive"):
        solve(toy.problem, toy.xgrid, toy.ugrid, config=SolverConfig(**{key: bad}), progress=None)


def test_solve_progress_lines():
    toy = _funnel_toy()
    lines: list[str] = []
    solve(toy.problem, toy.xgrid, toy.ugrid, progress=lines.append)
    assert len(lines) == 1
    assert lines[0] == "horizon=5 delta_mu=0.0 delta_x=0.0 feasible=3"


def test_solve_thread_count_is_immaterial():
    toy = _late_switch_toy()
    cfg = SolverConfig(eps_mu=1.0, eps_x=10.0, n_init=5, growth=3)
    r1, r2 = (
        solve(
            toy.problem,
            toy.xgrid,
            toy.ugrid,
            config=cfg,
            engine=DpEngine(toy.problem, toy.xgrid, toy.ugrid, threads=threads),
            progress=None,
        )
        for threads in (1, 3)
    )
    assert r1.terminal_horizon == r2.terminal_horizon
    np.testing.assert_array_equal(
        r1.first_stage_policy.policy, r2.first_stage_policy.policy
    )
    np.testing.assert_array_equal(
        r1.first_stage_policy.cost, r2.first_stage_policy.cost
    )
    for a, b in zip(r1.metrics, r2.metrics):
        np.testing.assert_array_equal(a.delta_mu, b.delta_mu)
        np.testing.assert_array_equal(a.delta_x, b.delta_x)


# -- policy evaluation -------------------------------------------------------


def test_achieved_average_tail_mean():
    avg = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])  # value = start node
    toy = _funnel_toy(avg=avg)
    report = solve(toy.problem, toy.xgrid, toy.ugrid, progress=None)
    table = report.first_stage_policy
    got = achieved_average(
        toy.problem, toy.xgrid, toy.ugrid, table, [0.0], horizon=6, tail=3
    )
    assert got == 1.0  # states 0,1,1,1,1,1 -> last three averages are 1
    got = achieved_average(
        toy.problem, toy.xgrid, toy.ugrid, table, [0.0], horizon=6, tail=6
    )
    assert got == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_achieved_average_validation():
    toy = _funnel_toy()
    report = solve(toy.problem, toy.xgrid, toy.ugrid, progress=None)
    for bad_tail in (0, 7):
        with pytest.raises(ValueError):
            achieved_average(
                toy.problem,
                toy.xgrid,
                toy.ugrid,
                report.first_stage_policy,
                [0.0],
                horizon=6,
                tail=bad_tail,
            )


def test_achieved_average_rejects_settings_that_are_not_integers(monkeypatch):
    toy = _funnel_toy()
    report = solve(toy.problem, toy.xgrid, toy.ugrid, progress=None)
    args = toy.problem, toy.xgrid, toy.ugrid, report.first_stage_policy, [0.0]
    steps = []
    real = gridpolicy.reference.apply_policy

    def spy(*a):
        steps.append(a)
        return real(*a)

    monkeypatch.setattr(gridpolicy.reference, "apply_policy", spy)
    for horizon, tail in ((6.0, 3), (6, 3.0), (6.5, 3), (np.float64(6.0), 3)):
        with pytest.raises(TypeError):
            achieved_average(*args, horizon=horizon, tail=tail)
    assert not steps
    achieved_average(*args, horizon=np.int64(6), tail=np.int64(3))
    assert len(steps) == 6


def test_achieved_average_raises_on_dead_rollout():
    toy = lattice_problem(
        xshape=(2,),
        ushape=(2,),
        next_index=[[0, 1], [1, 1]],
        cost=np.zeros((2, 2)),
        admissible=[[True, True], [False, False]],
    )
    table = StageTable(cost=np.array([0.0, np.inf]), policy=np.array([0, -1]))
    with pytest.raises(InfeasibleRolloutError) as err:
        achieved_average(
            toy.problem, toy.xgrid, toy.ugrid, table, [1.0], horizon=4, tail=1
        )
    assert err.value.step == 0
    assert err.value.reason == "policy_undefined"


def test_solve_notes_when_average_rollout_fails():
    # chain 3 -> 2 -> 1 -> 0 where node 0 is a trap; with loose tolerances
    # the solve converges at horizon 1, but the 10x evaluation rollout
    # marches into the trap
    toy = lattice_problem(
        xshape=(4,),
        ushape=(2,),
        next_index=[[0, 0], [0, 0], [1, 1], [2, 2]],
        cost=np.ones((4, 2)),
        admissible=[[False, False], [True, True], [True, True], [True, True]],
    )
    cfg = SolverConfig(eps_mu=10.0, eps_x=10.0, n_init=1, n_max=1, growth=2)
    report = solve(toy.problem, toy.xgrid, toy.ugrid, config=cfg, progress=None)
    assert report.status == "converged"
    assert math.isnan(report.achieved_average)
    assert len(report.notes) == 1
    assert "rollout" in report.notes[0]


# -- engine check --------------------------------------------------------------


@pytest.fixture(scope="module")
def coarse():
    """The coarse min-time config's objects and its engine, built at 2 threads."""
    cfg = load_config(str(COARSE))
    problem, xg, ug = cfg.build_problem(), cfg.state_grid(), cfg.control_grid()
    engine = DpEngine(problem, xg, ug, threads=2)
    return cfg, problem, xg, ug, engine


_ENGINE_USERS = {
    "solve": lambda cfg, p, xg, ug, e: solve(
        p, xg, ug, cfg.solver, engine=e, progress=None
    ),
    "finite_horizon_policies": lambda cfg, p, xg, ug, e: finite_horizon_policies(
        p, xg, ug, 3, engine=e
    ),
    "horizon_sweep": lambda cfg, p, xg, ug, e: horizon_sweep(
        p, xg, ug, [3], 5, engine=e
    ),
}


@pytest.mark.parametrize("user", sorted(_ENGINE_USERS))
@pytest.mark.parametrize("other", ["problem", "xgrid", "ugrid"])
def test_engine_built_for_other_arguments_is_rejected(coarse, user, other):
    cfg, problem, xg, ug, engine = coarse
    args = {"problem": problem, "xgrid": xg, "ugrid": ug}
    args[other] = {
        # same state and control dimensions, so only the check can tell
        "problem": builtin_avg_angle_pendulum(0.5),
        "xgrid": CartesianGrid([AxisSpec(-2.0, 3.5, 0.1), AxisSpec(-1.5, 2.0, 0.125)]),
        "ugrid": CartesianGrid([AxisSpec(-2.0, 2.0, 0.04)]),
    }[other]
    with pytest.raises(ValueError, match=f"engine was built for another {other}"):
        _ENGINE_USERS[user](cfg, *args.values(), engine)


def test_engine_built_for_an_equal_problem_is_accepted(coarse):
    cfg = coarse[0]
    assert cfg.build_problem() == cfg.build_problem()
    assert hash(cfg.build_problem()) == hash(cfg.build_problem())
    xg, ug = cfg.state_grid(), cfg.control_grid()
    engine = DpEngine(cfg.build_problem(), xg, ug)
    report = solve(
        cfg.build_problem(), xg, ug, cfg.solver, engine=engine, progress=None
    )
    assert (report.status, report.terminal_horizon) == ("converged", 135)


@pytest.mark.parametrize("user", sorted(_ENGINE_USERS))
def test_engine_built_for_the_arguments_is_accepted(coarse, user):
    cfg, problem, xg, ug, engine = coarse
    out = _ENGINE_USERS[user](cfg, problem, xg, ug, engine)
    if user == "solve":
        assert (out.status, out.terminal_horizon) == ("converged", 135)
    else:
        assert len(out) == (3 if user == "finite_horizon_policies" else 1)


# -- the report's chain --------------------------------------------------------


@pytest.mark.parametrize("case", ["lattice", "coarse"])
def test_report_stages_is_the_solves_own_chain(case, request):
    # the solve's stages are one BackwardChain, pulled to the terminal
    # horizon, whose work counters read as a fresh chain's at that stage
    if case == "lattice":
        toy = fixpoint_lattice_toy(np.random.default_rng(7), (8,), 3, settles=False)
        problem, xg, ug = toy.problem, toy.xgrid, toy.ugrid
        config = SolverConfig(eps_mu=1e-9, eps_x=1e-9, n_init=2, n_max=16, growth=2)
        engine = DpEngine(problem, xg, ug)
    else:
        cfg, problem, xg, ug, engine = request.getfixturevalue("coarse")
        config = cfg.solver
    report = solve(problem, xg, ug, config, engine=engine, progress=None)
    stages = report.stages
    assert isinstance(stages, BackwardChain)
    assert stages.stage == report.terminal_horizon > 2
    fresh = engine.chain()
    for _ in range(stages.stage):
        next(fresh)
    for name in ("rows", "certified"):
        got, want = getattr(stages, name), getattr(fresh, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert stages.pairs == fresh.pairs
