import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpolicy import (
    STEP_REASONS,
    AxisSpec,
    CartesianGrid,
    DpEngine,
    InfeasibleRolloutError,
    PolicyRuns,
    SolverConfig,
    StageTable,
    apply_policy,
    builtin_avg_angle_pendulum,
    builtin_min_time_pendulum,
    finite_horizon_policies,
    horizon_sweep,
    relaxed_cost,
    rollout_stationary,
    rollout_time_varying,
    solve,
)
from gridpolicy.dp import BackwardChain

from _toys import fixpoint_lattice_toy, lattice_problem, random_lattice_toy


def _trap_chain(avg=None, lam=None):
    # 3 -> 2 -> 1 -> 0, where node 0 admits no control at all
    return lattice_problem(
        xshape=(4,),
        ushape=(2,),
        next_index=[[0, 0], [0, 0], [1, 1], [2, 2]],
        cost=np.ones((4, 2)),
        admissible=[[False, False], [True, True], [True, True], [True, True]],
        avg=avg,
        lam=lam,
    )


# -- policy sequences ----------------------------------------------------------


def test_finite_horizon_policies_order():
    toy = _trap_chain()
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    chain = []
    prev = None
    for _ in range(4):
        prev = engine.backward(None if prev is None else prev.cost)
        chain.append(prev)
    policies = finite_horizon_policies(toy.problem, toy.xgrid, toy.ugrid, 4)
    assert len(policies) == 4
    # entry k is applied at forward step k and is the policy of the stage
    # with 4 - k steps to go
    for k in range(4):
        assert policies[k].dtype == np.int64
        assert policies[k].tobytes() == chain[3 - k].policy.tobytes()


def test_finite_horizon_policies_validation():
    toy = _trap_chain()
    with pytest.raises(ValueError):
        finite_horizon_policies(toy.problem, toy.xgrid, toy.ugrid, 0)


_SEEDS = st.integers(0, 2**32 - 1)


def _fixpoint_engine(seed, settles):
    """An engine on a 1-D :func:`fixpoint_lattice_toy` of 2 to 9 nodes."""
    rng = np.random.default_rng(seed)
    nx, nu = int(rng.integers(2, 10)), int(rng.integers(2, 5))
    toy = fixpoint_lattice_toy(rng, (nx,), nu, settles)
    return DpEngine(toy.problem, toy.xgrid, toy.ugrid)


def _reference(engine, horizon, stages=None):
    return finite_horizon_policies(
        engine.problem, engine.xgrid, engine.ugrid, horizon, engine=engine, stages=stages
    )


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, settles=st.booleans(), horizon=st.integers(1, 8))
def test_reference_entry_k_is_the_policy_of_chain_stage_h_minus_k(seed, settles, horizon):
    engine = _fixpoint_engine(seed, settles)
    chain = list(itertools.islice(engine.chain(), horizon))
    policies = _reference(engine, horizon)
    assert len(policies) == horizon
    for k, policy in enumerate(policies):
        assert policy.dtype == np.int64 and policy.shape == (engine.nx,)
        assert policy.tobytes() == chain[horizon - k - 1].policy.tobytes(), k


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, settles=st.booleans())
def test_reference_shares_one_read_only_array_per_run(seed, settles):
    engine = _fixpoint_engine(seed, settles)
    policies = _reference(engine, 3 * (engine.nx + 1))
    for a, b in zip(policies, policies[1:]):
        assert (a is b) == (a.tobytes() == b.tobytes())
    for policy in policies:
        assert not policy.flags.writeable
        with pytest.raises(ValueError):
            policy[0] = 0


def _solved_engine(seed, horizon):
    """An engine on a random lattice where every pair is admissible and
    stays on the grid, and a solve on it whose terminal horizon is
    ``horizon`` (every node stays feasible, and the tolerances exceed any
    deviation)."""
    rng = np.random.default_rng(seed)
    nx, nu = int(rng.integers(2, 10)), int(rng.integers(2, 5))
    toy = lattice_problem(
        (nx,),
        (nu,),
        next_index=rng.integers(0, nx, (nx, nu)),
        cost=rng.uniform(-1.0, 2.0, (nx, nu)),
        admissible=np.ones((nx, nu), dtype=bool),
    )
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    config = SolverConfig(eps_mu=100.0, eps_x=100.0, n_init=horizon, n_max=horizon)
    report = solve(toy.problem, toy.xgrid, toy.ugrid, config, engine=engine, progress=None)
    assert report.terminal_horizon == horizon == report.stages.stage
    return engine, report


@settings(max_examples=40, deadline=None)
@given(
    seed=_SEEDS,
    horizon=st.integers(1, 6),
    window=st.sampled_from(["W < N", "W = N", "W > N"]),
)
def test_reference_continued_from_a_solve_equals_a_fresh_one(seed, horizon, window):
    engine, report = _solved_engine(seed, horizon)
    w = {"W < N": max(1, horizon - 1), "W = N": horizon, "W > N": horizon + 5}[window]
    continued = _reference(engine, w, stages=report.stages)
    fresh = _reference(engine, w)
    assert len(continued) == len(fresh) == w
    for k, (a, b) in enumerate(zip(continued, fresh)):
        assert a.tobytes() == b.tobytes(), k
    # the same runs share arrays on both sides
    for a, b in zip(zip(continued, continued[1:]), zip(fresh, fresh[1:])):
        assert (a[0] is a[1]) == (b[0] is b[1])
    assert report.stages.stage == max(horizon, w)


@settings(max_examples=30, deadline=None)
@given(seed=_SEEDS, horizon=st.integers(1, 6))
def test_reusing_a_solve_hand_off_gives_equal_lists(seed, horizon):
    engine, report = _solved_engine(seed, horizon)
    for w in (horizon, horizon + 4, horizon, horizon + 2, horizon + 4):
        first = _reference(engine, w, stages=report.stages)
        again = _reference(engine, w, stages=report.stages)
        assert len(first) == len(again) == w
        assert all(a is b for a, b in zip(first, again))
    assert report.stages.stage == horizon + 4


def test_a_hand_off_with_a_foreign_engine_is_rejected():
    toy = _trap_chain()
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    stages = PolicyRuns(engine)
    next(stages)
    other = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    with pytest.raises(ValueError, match="another engine"):
        finite_horizon_policies(
            toy.problem, toy.xgrid, toy.ugrid, 3, engine=other, stages=stages
        )
    assert stages.stage == 1
    # without an engine the record's own must fit the arguments: a toy built
    # again has callables of its own
    twin = _trap_chain()
    with pytest.raises(ValueError, match="engine was built for another problem"):
        finite_horizon_policies(twin.problem, toy.xgrid, toy.ugrid, 3, stages=stages)
    policies = finite_horizon_policies(toy.problem, toy.xgrid, toy.ugrid, 3, stages=stages)
    assert [p.tobytes() for p in policies] == [
        p.tobytes() for p in finite_horizon_policies(toy.problem, toy.xgrid, toy.ugrid, 3)
    ]


# -- rollouts ------------------------------------------------------------------


def test_time_varying_rollout_reproduces_optimal_cost(rng):
    # on a lattice the rollout is exact, so the accumulated relaxed cost must
    # reproduce the backward table entry bit for bit (same float association)
    for _ in range(8):
        toy = random_lattice_toy(rng)
        horizon = 4
        engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
        policies = finite_horizon_policies(
            toy.problem, toy.xgrid, toy.ugrid, horizon, engine=engine
        )
        top = next(itertools.islice(engine.chain(), horizon - 1, None))
        assert policies[0].tobytes() == top.policy.tobytes()
        feas = np.flatnonzero(top.feasible_mask)
        if feas.size == 0:
            continue
        node = int(feas[rng.integers(feas.size)])
        trace = rollout_time_varying(
            toy.problem, toy.xgrid, toy.ugrid, policies, toy.xgrid.node_coords()[node]
        )
        assert trace.reason is None and trace.length == horizon
        total = 0.0
        for c in trace.relaxed_costs[::-1]:
            total = float(c) + total
        assert total == top.cost[node]
        np.testing.assert_array_equal(
            trace.controls[0], toy.ugrid.node_coords()[int(top.policy[node])]
        )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _assert_rollout_matches_apply_policy_chain(problem, xg, ug, table, start, horizon):
    trace = rollout_stationary(problem, xg, ug, table, start, horizon=horizon)
    x = np.asarray(start, dtype=float)
    for k in range(trace.length):
        reason, u, xn = apply_policy(problem, xg, ug, table.policy, x)
        assert STEP_REASONS[reason] == "ok"
        np.testing.assert_array_equal(trace.controls[k], u)
        np.testing.assert_array_equal(trace.states[k + 1], xn)
        x = xn
    if trace.reason is not None:
        reason = apply_policy(problem, xg, ug, table.policy, x)[0]
        assert STEP_REASONS[reason] == trace.reason
    # the batched cost bookkeeping equals one (n,) evaluation per step, bitwise
    steps = [(trace.states[k], trace.controls[k]) for k in range(trace.length)]
    for name, fn in (
        ("stage_costs", problem.stage_cost),
        ("relaxed_costs", lambda xk, uk: relaxed_cost(problem, xk, uk)),
        ("average_values", problem.average_fn),
    ):
        got = getattr(trace, name)
        assert got.shape == (trace.length,)
        assert _bits(got) == _bits([fn(xk, uk) for xk, uk in steps]), name
    return trace


def test_rollout_matches_apply_policy_chain():
    pendulums = (
        (
            builtin_min_time_pendulum(),
            CartesianGrid([AxisSpec(-2.0, 3.5, 0.5), AxisSpec(-1.5, 2.0, 0.5)]),
            CartesianGrid([AxisSpec(-1.0, 1.0, 0.5)]),
        ),
        (
            builtin_avg_angle_pendulum(0.5),
            CartesianGrid([AxisSpec(-1.0, 1.0, 0.2), AxisSpec(-1.0, 1.0, 0.2)]),
            CartesianGrid([AxisSpec(-1.0, 1.0, 0.2)]),
        ),
    )
    for problem, xg, ug in pendulums:
        engine = DpEngine(problem, xg, ug)
        table = None
        for _ in range(5):
            table = engine.backward(None if table is None else table.cost)
        feasible = np.flatnonzero(table.feasible_mask)
        for node in (feasible[0], feasible[feasible.size // 2]):
            start = xg.node_coords()[int(node)]
            for horizon in (0, 6, 40):
                trace = _assert_rollout_matches_apply_policy_chain(
                    problem, xg, ug, table, start, horizon
                )
                assert trace.length == horizon or trace.reason is not None

    # a truncated trace: the trap chain dies after three steps
    toy = _trap_chain(avg=np.arange(8.0).reshape(4, 2), lam=-0.5)
    table = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(None)
    trace = _assert_rollout_matches_apply_policy_chain(
        toy.problem, toy.xgrid, toy.ugrid, table, [3.0], 10
    )
    assert trace.reason == "policy_undefined" and trace.length == 3
    assert not np.array_equal(trace.relaxed_costs, trace.stage_costs)


def test_stationary_equals_repeated_time_varying():
    toy = _trap_chain()
    table = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(None)
    a = rollout_stationary(toy.problem, toy.xgrid, toy.ugrid, table, [3.0], 2)
    policies = [table.policy, table.policy]
    b = rollout_time_varying(toy.problem, toy.xgrid, toy.ugrid, policies, [3.0])
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.controls, b.controls)
    np.testing.assert_array_equal(a.relaxed_costs, b.relaxed_costs)
    assert a.reason == b.reason


def test_rollout_truncation_policy_undefined():
    toy = _trap_chain()
    table = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(None)
    trace = rollout_stationary(toy.problem, toy.xgrid, toy.ugrid, table, [3.0], 10)
    assert trace.reason == "policy_undefined"
    assert trace.length == 3  # 3 -> 2 -> 1 -> 0, then the trap
    np.testing.assert_array_equal(trace.states[:, 0], [3.0, 2.0, 1.0, 0.0])
    assert trace.controls.shape == (3, 1)
    assert trace.stage_costs.shape == (3,)


def test_rollout_truncation_left_domain():
    toy = lattice_problem(
        xshape=(2,),
        ushape=(2,),
        next_index=[[1, 1], [-1, -1]],
        cost=np.zeros((2, 2)),
        admissible=np.ones((2, 2), dtype=bool),
    )
    table = StageTable(cost=np.zeros(2), policy=np.zeros(2, dtype=int))
    trace = rollout_stationary(toy.problem, toy.xgrid, toy.ugrid, table, [0.0], 5)
    assert trace.reason == "left_domain"
    assert trace.length == 1
    np.testing.assert_array_equal(trace.states[:, 0], [0.0, 1.0])


def test_rollout_truncation_constraint_violated():
    toy = lattice_problem(
        xshape=(2,),
        ushape=(2,),
        next_index=[[1, 1], [1, 1]],
        cost=np.zeros((2, 2)),
        admissible=[[True, True], [True, False]],
    )
    table = StageTable(cost=np.zeros(2), policy=np.ones(2, dtype=int))
    trace = rollout_stationary(toy.problem, toy.xgrid, toy.ugrid, table, [0.0], 5)
    assert trace.reason == "constraint_violated"
    assert trace.length == 1


def test_rollout_infeasible_start_raises():
    toy = _trap_chain()
    table = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(None)
    with pytest.raises(InfeasibleRolloutError) as err:
        rollout_stationary(toy.problem, toy.xgrid, toy.ugrid, table, [0.0], 5)
    assert err.value.step == 0


def test_rollout_zero_horizon():
    toy = _trap_chain()
    table = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(None)
    trace = rollout_stationary(toy.problem, toy.xgrid, toy.ugrid, table, [3.0], 0)
    assert trace.length == 0
    assert trace.reason is None
    np.testing.assert_array_equal(trace.states, [[3.0]])
    assert trace.controls.shape == (0, 1)
    with pytest.raises(ValueError):
        rollout_stationary(toy.problem, toy.xgrid, toy.ugrid, table, [3.0], -1)


# -- horizon sweeps --------------------------------------------------------------


def test_horizon_sweep_matches_scalar_rollouts():
    avg = np.arange(8, dtype=float).reshape(4, 2) // 2  # value = start node
    toy = _trap_chain(avg=avg, lam=0.7)
    traj = 2
    sweep = horizon_sweep(toy.problem, toy.xgrid, toy.ugrid, [1], traj)
    assert set(sweep) == {1}
    costs = sweep[1]

    table = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(None)
    for node in range(4):
        if not table.feasible_mask[node]:
            assert np.isnan(costs[node])
            continue
        trace = rollout_stationary(
            toy.problem, toy.xgrid, toy.ugrid, table, toy.xgrid.node_coords()[node], traj
        )
        if trace.length < traj:
            assert np.isnan(costs[node])
        else:
            total = 0.0
            for c in trace.relaxed_costs:
                total += float(c)
            assert costs[node] == total / traj
    # the chain dies within two steps only when it starts at node 1
    assert np.isnan(costs[0]) and np.isnan(costs[1])
    assert np.isfinite(costs[2]) and np.isfinite(costs[3])


def test_horizon_sweep_multiple_horizons():
    toy = lattice_problem(
        xshape=(4,),
        ushape=(2,),
        next_index=[[1, 3], [1, 1], [2, 2], [2, 2]],
        cost=[[1.0, 1.0], [0.5, 0.5], [0.0, 0.0], [1.0, 1.0]],
        admissible=np.ones((4, 2), dtype=bool),
    )
    traj = 4
    sweep = horizon_sweep(toy.problem, toy.xgrid, toy.ugrid, [5, 1, 5], traj)
    assert sorted(sweep) == [1, 5]
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    stages = list(itertools.islice(engine.chain(), 5))
    for n, table in ((5, stages[4]), (1, stages[0])):
        for node in range(4):
            trace = rollout_stationary(
                toy.problem,
                toy.xgrid,
                toy.ugrid,
                table,
                toy.xgrid.node_coords()[node],
                traj,
            )
            assert trace.length == traj
            total = 0.0
            for c in trace.relaxed_costs:
                total += float(c)
            assert sweep[n][node] == total / traj
    # the longer design horizon routes node 0 through the free attractor
    assert sweep[5][0] < sweep[1][0]


def test_horizon_sweep_validation():
    toy = _trap_chain()
    with pytest.raises(ValueError):
        horizon_sweep(toy.problem, toy.xgrid, toy.ugrid, [], 5)
    with pytest.raises(ValueError):
        horizon_sweep(toy.problem, toy.xgrid, toy.ugrid, [0, 3], 5)
    with pytest.raises(ValueError):
        horizon_sweep(toy.problem, toy.xgrid, toy.ugrid, [3], 0)


def test_horizon_sweep_rejects_non_integral_design_horizons():
    # 1.7 used to run silently as horizon 1
    toy = _trap_chain()
    args = toy.problem, toy.xgrid, toy.ugrid
    for bad in ([1.7], [2, 3.0], [np.float64(2.0)]):
        with pytest.raises(TypeError):
            horizon_sweep(*args, bad, 5)
    sweep = horizon_sweep(*args, [np.int64(3), 1], 5)
    assert list(sweep) == [1, 3] and all(type(n) is int for n in sweep)


def _record_chains(monkeypatch):
    """Every :class:`BackwardChain` constructed from now on, a
    :class:`PolicyRuns` included, in a list."""
    chains = []
    init = BackwardChain.__init__

    def recording(self, engine):
        init(self, engine)
        chains.append(self)

    monkeypatch.setattr(BackwardChain, "__init__", recording)
    return chains


def test_non_integral_horizons_are_rejected_before_any_stage(monkeypatch):
    # 2.5 used to pull stages first: the sweep all 40 of them
    toy = _trap_chain()
    args = toy.problem, toy.xgrid, toy.ugrid
    engine = DpEngine(*args)
    chains = _record_chains(monkeypatch)
    for bad in (2.5, 3.0, np.float64(3.0)):
        with pytest.raises(TypeError):
            horizon_sweep(*args, [5, 40], bad, engine=engine)
        with pytest.raises(TypeError):
            finite_horizon_policies(*args, bad, engine=engine)
        with pytest.raises(TypeError):
            finite_horizon_policies(*args, bad)
    assert not chains
    assert len(finite_horizon_policies(*args, np.int64(3), engine=engine)) == 3
    assert [c.stage for c in chains] == [3]


def test_sweep_and_policies_run_one_backward_step_per_stage(rng, monkeypatch):
    # a toy whose cost never settles runs the kernel at every stage: the
    # longest horizon, 7, takes 7 steps, and no stage past it is pulled
    toy = fixpoint_lattice_toy(rng, (6,), 3, settles=False)
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    chains = _record_chains(monkeypatch)
    horizon_sweep(toy.problem, toy.xgrid, toy.ugrid, [3, 7], 4, engine=engine)
    assert [c.stage for c in chains] == [7]
    chains.clear()
    finite_horizon_policies(toy.problem, toy.xgrid, toy.ugrid, 7, engine=engine)
    assert [c.stage for c in chains] == [7]
    # continued from a record of N = 4 stages, the reference runs only the
    # W - N stages past it, and none when W <= N
    for window in (2, 4, 7):
        stages = PolicyRuns(engine)
        for _ in range(4):
            next(stages)
        chains.clear()
        finite_horizon_policies(
            toy.problem, toy.xgrid, toy.ugrid, window, engine=engine, stages=stages
        )
        assert not chains and stages.stage - 4 == max(window - 4, 0), window


def _unparked_sweep(engine, horizons, steps):
    """The horizon sweep as a plain loop of batched ``apply_policy`` steps."""
    problem, xg, ug = engine.problem, engine.xgrid, engine.ugrid
    out = {}
    for n, table in zip(range(1, max(horizons) + 1), engine.chain()):
        if n not in horizons:
            continue
        x, alive = xg.node_coords().copy(), table.feasible_mask.copy()
        acc = np.zeros(xg.size)
        for _ in range(steps):
            live = np.flatnonzero(alive)
            reason, u, xn = apply_policy(problem, xg, ug, table.policy, x[live])
            ok = reason == 0
            alive[live[~ok]] = False
            if not alive.any():
                break
            moved = live[ok]
            acc[moved] += relaxed_cost(problem, x[moved], u[ok])
            x[moved] = xn[ok]
        out[n] = np.where(alive, acc / float(steps), np.nan)
    return out


def test_horizon_sweep_parks_and_equals_unparked_loop(monkeypatch):
    # on the damped pendulum entries reach exact closed-loop fixpoints
    # within 600 steps and are parked there; which ones do depends on the
    # rounding of sin and RK4, but the entry that starts at the origin parks
    # at once, and the means equal the unparked loop's bit for bit
    xg = CartesianGrid([AxisSpec(-1.0, 1.0, 0.2), AxisSpec(-1.0, 1.0, 0.2)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.1)])
    problem = builtin_avg_angle_pendulum(0.2)
    engine = DpEngine(problem, xg, ug)
    ensembles = []
    forward = DpEngine.forward

    def recording(self, ensemble, table):
        ensembles.append(ensemble)
        return forward(self, ensemble, table)

    monkeypatch.setattr(DpEngine, "forward", recording)
    sweep = horizon_sweep(problem, xg, ug, [5, 40], 600, engine=engine)
    monkeypatch.undo()
    want = _unparked_sweep(engine, (5, 40), 600)

    assert sorted(sweep) == [5, 40]
    for n in (5, 40):
        assert sweep[n].tobytes() == want[n].tobytes(), n
        assert np.isfinite(sweep[n]).sum() > 80
    short, long = ensembles[0], ensembles[-1]
    assert short is not long and short.step == long.step == 600
    origin = xg.size // 2
    assert short.parked[origin] and not short.states[origin].any()
    assert long.parked.any()
