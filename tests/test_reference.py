import numpy as np
import pytest

from gridpolicy import (
    STEP_REASONS,
    AxisSpec,
    CartesianGrid,
    DpEngine,
    InfeasibleRolloutError,
    StageTable,
    apply_policy,
    builtin_min_time_pendulum,
    finite_horizon_policies,
    horizon_sweep,
    rollout_stationary,
    rollout_time_varying,
)

from _toys import lattice_problem, random_lattice_toy


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
    # entry k is applied at forward step k and has 4 - k steps to go
    for k in range(4):
        np.testing.assert_array_equal(policies[k].cost, chain[3 - k].cost)
        np.testing.assert_array_equal(policies[k].policy, chain[3 - k].policy)


def test_finite_horizon_policies_validation():
    toy = _trap_chain()
    with pytest.raises(ValueError):
        finite_horizon_policies(toy.problem, toy.xgrid, toy.ugrid, 0)


# -- rollouts ------------------------------------------------------------------


def test_time_varying_rollout_reproduces_optimal_cost(rng):
    # on a lattice the rollout is exact, so the accumulated relaxed cost must
    # reproduce the backward table entry bit for bit (same float association)
    for _ in range(8):
        toy = random_lattice_toy(rng)
        horizon = 4
        policies = finite_horizon_policies(toy.problem, toy.xgrid, toy.ugrid, horizon)
        top = policies[0]
        feas = np.flatnonzero(top.feasible_mask)
        if feas.size == 0:
            continue
        node = int(feas[rng.integers(feas.size)])
        trace = rollout_time_varying(
            toy.problem, toy.xgrid, toy.ugrid, policies, toy.xgrid.node_coord(node)
        )
        assert trace.reason is None and trace.length == horizon
        total = 0.0
        for c in trace.relaxed_costs[::-1]:
            total = float(c) + total
        assert total == top.cost[node]
        np.testing.assert_array_equal(
            trace.controls[0], toy.ugrid.node_coord(int(top.policy[node]))
        )


def test_rollout_matches_apply_policy_chain():
    problem = builtin_min_time_pendulum()
    xg = CartesianGrid([AxisSpec(-2.0, 3.5, 0.5), AxisSpec(-1.5, 2.0, 0.5)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.5)])
    engine = DpEngine(problem, xg, ug)
    table = None
    for _ in range(5):
        table = engine.backward(None if table is None else table.cost)
    start = xg.node_coord(int(np.flatnonzero(table.feasible_mask)[0]))
    trace = rollout_stationary(problem, xg, ug, table, start, horizon=6)

    x = start
    for k in range(trace.length):
        reason, u, xn = apply_policy(problem, xg, ug, table, x)
        assert STEP_REASONS[reason] == "ok"
        np.testing.assert_array_equal(trace.controls[k], u)
        np.testing.assert_array_equal(trace.states[k + 1], xn)
        x = xn
    if trace.reason is not None:
        reason = apply_policy(problem, xg, ug, table, x)[0]
        assert STEP_REASONS[reason] == trace.reason


def test_stationary_equals_repeated_time_varying():
    toy = _trap_chain()
    table = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(None)
    a = rollout_stationary(toy.problem, toy.xgrid, toy.ugrid, table, [3.0], 2)
    b = rollout_time_varying(toy.problem, toy.xgrid, toy.ugrid, [table, table], [3.0])
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
            toy.problem, toy.xgrid, toy.ugrid, table, toy.xgrid.node_coord(node), traj
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
    policies = finite_horizon_policies(toy.problem, toy.xgrid, toy.ugrid, 5)
    for n, table in ((5, policies[0]), (1, policies[4])):
        for node in range(4):
            trace = rollout_stationary(
                toy.problem,
                toy.xgrid,
                toy.ugrid,
                table,
                toy.xgrid.node_coord(node),
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
