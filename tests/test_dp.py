import math
import os

import numpy as np
import pytest

import gridpolicy as gp
from gridpolicy import (
    STEP_REASONS,
    AxisSpec,
    CartesianGrid,
    DpEngine,
    ForwardEnsemble,
    StageTable,
    apply_policy,
    feasible_indices,
)

from _toys import enumerate_optimal, lattice_problem, random_lattice_toy


# -- stage tables ------------------------------------------------------------


def test_stage_table_invariant():
    StageTable(cost=np.array([1.0, np.inf]), policy=np.array([0, -1]))
    with pytest.raises(ValueError):
        StageTable(cost=np.array([1.0, np.inf]), policy=np.array([0, 0]))
    with pytest.raises(ValueError):
        StageTable(cost=np.array([np.inf, 1.0]), policy=np.array([0, -1]))


def test_control_coords_marks_infeasible():
    ug = CartesianGrid([AxisSpec(0.0, 2.0, 1.0)])
    t = StageTable(cost=np.array([0.5, np.inf]), policy=np.array([2, -1]))
    coords = t.control_coords(ug)
    assert coords[0, 0] == 2.0
    assert np.isnan(coords[1, 0])


# -- backward recursion ------------------------------------------------------


def test_backward_step_hand_computed():
    # two states, two controls: state 0 loops cheaply, state 1 must pay
    toy = lattice_problem(
        xshape=(2,),
        ushape=(2,),
        next_index=[[0, 1], [0, -1]],
        cost=[[1.0, 5.0], [2.0, 0.5]],
        admissible=[[True, True], [True, True]],
    )
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    t1 = engine.backward(None)
    # state 1's cheap control (cost 0.5) leaves the box, so only u=0 counts
    np.testing.assert_array_equal(t1.cost, [1.0, 2.0])
    np.testing.assert_array_equal(t1.policy, [0, 0])

    t2 = engine.backward(t1.cost)
    # C2(0) = min(1 + C1(0), 5 + C1(1)) = 2 ; C2(1) = 2 + C1(0) = 3
    np.testing.assert_array_equal(t2.cost, [2.0, 3.0])
    np.testing.assert_array_equal(t2.policy, [0, 0])


def test_backward_step_tie_breaks_to_smaller_control_index():
    toy = lattice_problem(
        xshape=(2,),
        ushape=(3,),
        next_index=[[0, 0, 0], [1, 1, 1]],
        cost=[[2.0, 2.0, 1.0], [3.0, 3.0, 3.0]],
        admissible=np.ones((2, 3), dtype=bool),
    )
    t1 = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(None)
    assert t1.policy[0] == 2  # unique minimum
    assert t1.policy[1] == 0  # three-way tie -> smallest index


def test_backward_marks_infeasible_nodes():
    toy = lattice_problem(
        xshape=(3,),
        ushape=(2,),
        next_index=[[0, 1], [-1, -1], [2, 0]],
        cost=np.ones((3, 2)),
        admissible=[[True, True], [True, True], [False, False]],
    )
    t1 = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(None)
    assert t1.policy[0] == 0
    assert t1.policy[1] == -1  # every successor leaves the box
    assert t1.policy[2] == -1  # every control inadmissible
    assert t1.cost[1] == math.inf and t1.cost[2] == math.inf


def test_backward_equals_literal_enumeration(rng):
    # bitwise Bellman check on small instances with short horizons
    for _ in range(10):
        toy = random_lattice_toy(rng)
        nu = toy.ugrid.size
        horizon = min(3, int(math.log(300) / math.log(nu)))
        engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
        tables = []
        prev = None
        for _ in range(horizon):
            prev = engine.backward(None if prev is None else prev.cost)
            tables.append(prev)
        want_cost, want_first = enumerate_optimal(toy, horizon)
        got = tables[-1]
        np.testing.assert_array_equal(got.cost, want_cost)
        np.testing.assert_array_equal(got.policy, want_first)


def test_feasibility_monotone(rng):
    for _ in range(10):
        toy = random_lattice_toy(rng)
        engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
        prev = None
        masks = []
        for _ in range(6):
            prev = engine.backward(None if prev is None else prev.cost)
            masks.append(prev.feasible_mask)
        for a, b in zip(masks, masks[1:]):
            assert (a | ~b).all(), "a node regained feasibility at a longer horizon"


def test_cost_monotone_for_nonnegative_stage_costs(rng):
    toy = lattice_problem(
        xshape=(5,),
        ushape=(3,),
        next_index=rng.integers(0, 5, size=(5, 3)),
        cost=rng.uniform(0.0, 1.0, size=(5, 3)),
        admissible=np.ones((5, 3), dtype=bool),
    )
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    prev = None
    last = np.zeros(5)
    for _ in range(8):
        prev = engine.backward(None if prev is None else prev.cost)
        assert (prev.cost >= last - 1e-15).all()
        last = prev.cost


def test_backward_interpolation_cross_check(rng):
    # continuous (non-lattice) dynamics: engine totals must match the scalar
    # interpolation path exactly
    xg = CartesianGrid([AxisSpec(-1.0, 1.0, 0.25), AxisSpec(-1.0, 1.0, 0.5)])
    ug = CartesianGrid([AxisSpec(-0.5, 0.5, 0.25)])

    def dynamics(x, u):
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        a = x[..., 0] + 0.3 * u[..., 0] - 0.05 * np.sin(x[..., 1])
        b = 0.9 * x[..., 1] + 0.2 * u[..., 0]
        return np.stack([a, b], axis=-1)

    problem = gp.ProblemDef(
        state_dim=2,
        control_dim=1,
        dynamics=dynamics,
        stage_cost=lambda x, u: np.asarray(x, float)[..., 0] ** 2
        + np.asarray(u, float)[..., 0] ** 2,
        inequality=lambda x, u: np.abs(np.asarray(u, float)) - 0.5,
        average_fn=lambda x, u: np.zeros(np.asarray(x, float).shape[:-1]),
    )
    engine = DpEngine(problem, xg, ug)
    prev = engine.backward(None)
    for _ in range(2):
        prev = engine.backward(prev.cost)
    table = engine.backward(prev.cost)

    ucoords = ug.node_coords()
    for flat in rng.choice(xg.size, size=12, replace=False):
        x = xg.node_coord(int(flat))
        best = math.inf
        arg = -1
        for iu in range(ug.size):
            u = ucoords[iu]
            if (np.asarray(problem.inequality(x, u)) > 0.0).any():
                continue
            xn = np.asarray(problem.dynamics(x, u), float)
            val = xg.interpolate(prev.cost, xn)
            total = float(problem.stage_cost(x, u)) + val
            if total < best:
                best, arg = total, iu
        if math.isinf(best):
            assert table.policy[flat] == -1
        else:
            assert table.cost[flat] == best
            assert table.policy[flat] == arg


def test_backward_never_produces_nan(rng):
    for _ in range(5):
        toy = random_lattice_toy(rng)
        engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
        prev = None
        for _ in range(5):
            prev = engine.backward(None if prev is None else prev.cost)
            assert not np.isnan(prev.cost).any()


def test_engine_thread_count_is_immaterial(rng):
    toy = random_lattice_toy(rng)
    e1 = DpEngine(toy.problem, toy.xgrid, toy.ugrid, threads=1)
    e3 = DpEngine(toy.problem, toy.xgrid, toy.ugrid, threads=3)
    prev1 = prev3 = None
    for _ in range(4):
        t1 = e1.backward(None if prev1 is None else prev1.cost)
        t3 = e3.backward(None if prev3 is None else prev3.cost)
        np.testing.assert_array_equal(t1.cost, t3.cost)
        np.testing.assert_array_equal(t1.policy, t3.policy)
        prev1, prev3 = t1, t3


def test_resolve_threads_caps_at_usable_cpus(monkeypatch):
    usable = len(os.sched_getaffinity(0))
    assert DpEngine._resolve_threads(0) == usable
    assert DpEngine._resolve_threads(10**6) == usable
    assert DpEngine._resolve_threads(1) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert DpEngine._resolve_threads(10**6) == 3
    assert DpEngine._resolve_threads(0) == 3
    assert DpEngine._resolve_threads(2) == 2
    with pytest.raises(ValueError):
        DpEngine._resolve_threads(-1)


def test_row_chunks_never_exceed_the_cap(rng):
    # a huge request is capped before the build starts any worker thread
    cap = len(os.sched_getaffinity(0))
    toy = lattice_problem(
        xshape=(12,),
        ushape=(2,),
        next_index=rng.integers(0, 12, size=(12, 2)),
        cost=np.ones((12, 2)),
        admissible=np.ones((12, 2), dtype=bool),
    )
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid, threads=10**6)
    assert engine.threads == cap
    chunks = engine._row_chunks()
    assert 1 <= len(chunks) <= cap
    assert chunks[0][0] == 0 and chunks[-1][1] == engine.nx
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))


# -- forward propagation -----------------------------------------------------


def _absorbing_toy():
    # nodes 0..3 on a line; control 0 stays, control 1 moves right (off the
    # end from node 3); node 2 is a trap with no admissible control
    return lattice_problem(
        xshape=(4,),
        ushape=(2,),
        next_index=[[0, 1], [1, 2], [2, 3], [3, -1]],
        cost=[[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]],
        admissible=[[True, True], [True, True], [False, False], [True, True]],
    )


def test_forward_step_deaths_and_freeze():
    toy = _absorbing_toy()
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    table = engine.backward(None)
    # node 2 infeasible; others have controls
    np.testing.assert_array_equal(table.feasible_mask, [True, True, False, True])

    ens = engine.seed_ensemble(table)
    np.testing.assert_array_equal(feasible_indices(ens), [0, 1, 3])

    controls = engine.forward(ens, table)
    assert ens.step == 1
    # node 0 stays at 0; node 1's policy (u=0, stay) keeps it alive at 1;
    # node 3 stays; node 2 was never active
    assert ens.feasible[0] and ens.feasible[1] and ens.feasible[3]
    assert not ens.feasible[2]
    assert np.isnan(controls[2]).all()
    np.testing.assert_array_equal(ens.states[2], [2.0])  # frozen


def test_forward_step_policy_interpolation_death():
    toy = _absorbing_toy()
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    table = engine.backward(None)
    # an off-node state between feasible node 1 and infeasible node 2 dies,
    # a state exactly on node 1 (zero weight on node 2) survives
    ens = ForwardEnsemble(
        states=np.array([[1.5], [1.0]]), feasible=np.array([True, True])
    )
    engine.forward(ens, table)
    assert not ens.feasible[0]
    np.testing.assert_array_equal(ens.states[0], [1.5])
    assert ens.feasible[1]


def test_forward_step_out_of_box_freezes_last_state():
    toy = lattice_problem(
        xshape=(2,),
        ushape=(2,),
        next_index=[[1, 1], [-1, -1]],
        cost=np.zeros((2, 2)),
        admissible=np.ones((2, 2), dtype=bool),
    )
    # horizon-1 table: node 1's only control exits -> infeasible at N=1
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    t1 = engine.backward(None)
    np.testing.assert_array_equal(t1.feasible_mask, [True, False])
    # drive node 0 forward under a hand-built all-feasible table: it steps to
    # node 1, then the next step leaves the box and freezes
    t_hand = StageTable(cost=np.zeros(2), policy=np.zeros(2, dtype=int))
    ens = ForwardEnsemble(states=np.array([[0.0]]), feasible=np.array([True]))
    engine.forward(ens, t_hand)
    assert ens.feasible[0]
    np.testing.assert_array_equal(ens.states[0], [1.0])
    engine.forward(ens, t_hand)
    assert not ens.feasible[0]
    np.testing.assert_array_equal(ens.states[0], [1.0])
    assert ens.step == 2


def test_forward_matches_apply_policy(rng):
    # vectorized ensemble stepping agrees with the scalar single-state path
    xg = CartesianGrid([AxisSpec(-1.0, 1.0, 0.5), AxisSpec(-1.0, 1.0, 0.5)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.5)])
    prob = gp.builtin_avg_angle_pendulum(0.3)
    engine = DpEngine(prob, xg, ug)
    t = engine.backward(engine.backward(None).cost)
    ens = engine.seed_ensemble(t)
    starts = ens.states.copy()
    controls = engine.forward(ens, t)
    for i in range(0, xg.size, 7):
        reason, u, xn = apply_policy(prob, xg, ug, t, starts[i])
        if reason == 0:
            assert ens.feasible[i]
            np.testing.assert_array_equal(controls[i], u)
            np.testing.assert_array_equal(ens.states[i], xn)
        else:
            assert not ens.feasible[i]


def test_apply_policy_statuses():
    toy = _absorbing_toy()
    table = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(None)

    def step(problem, xgrid, ugrid, table, x):
        reason, u, xn = apply_policy(problem, xgrid, ugrid, table, x)
        assert reason.shape == () and u.shape == (1,) and xn.shape == (1,)
        return STEP_REASONS[reason], u, xn

    st, u, xn = step(toy.problem, toy.xgrid, toy.ugrid, table, [0.0])
    assert st == "ok" and not np.isnan(u).any() and not np.isnan(xn).any()
    st, u, xn = step(toy.problem, toy.xgrid, toy.ugrid, table, [1.5])
    assert st == "policy_undefined" and np.isnan(u).all()
    st, u, xn = step(toy.problem, toy.xgrid, toy.ugrid, table, [9.0])
    assert st == "policy_undefined"

    # constraint violation: a table that commands an inadmissible control
    t_bad = StageTable(cost=np.zeros(4), policy=np.full(4, 1, dtype=int))
    toy2 = lattice_problem(
        xshape=(4,),
        ushape=(2,),
        next_index=[[0, 1], [1, 2], [2, 3], [3, 3]],
        cost=np.zeros((4, 2)),
        admissible=[[True, False]] * 4,
    )
    st, u, xn = step(toy2.problem, toy2.xgrid, toy2.ugrid, t_bad, [0.0])
    assert st == "constraint_violated" and np.isnan(xn).all()

    # next state out of the box
    toy3 = lattice_problem(
        xshape=(4,),
        ushape=(2,),
        next_index=[[-1, -1]] * 4,
        cost=np.zeros((4, 2)),
        admissible=np.ones((4, 2), dtype=bool),
    )
    t_zero = StageTable(cost=np.zeros(4), policy=np.zeros(4, dtype=int))
    st, u, xn = step(toy3.problem, toy3.xgrid, toy3.ugrid, t_zero, [1.0])
    assert st == "left_domain" and not np.isnan(u).any() and np.isnan(xn).all()


def test_apply_policy_batch_equals_single_states(rng):
    # a (k, n) batch gives bitwise the same reasons, controls and successors
    # as k separate (n,) calls; the torque and angle bounds are tighter than
    # the grids and the policy is random, so every failure kind occurs
    xg = CartesianGrid([AxisSpec(-2.0, 3.5, 0.25), AxisSpec(-1.5, 2.0, 0.25)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.1)])
    prob = gp.builtin_min_time_pendulum(
        theta_bounds=(-1.5, 3.0), omega_bounds=(-1.5, 2.0), torque_limit=0.8
    )
    policy = rng.integers(0, ug.size, size=xg.size)
    policy[rng.random(xg.size) < 0.1] = -1
    table = StageTable(cost=np.where(policy < 0, np.inf, 0.0), policy=policy)
    x = rng.uniform([-2.2, -1.7], [3.7, 2.2], size=(400, 2))

    reason, u, xn = apply_policy(prob, xg, ug, table, x)
    assert reason.dtype == np.int8 and reason.shape == (400,)
    assert u.shape == (400, 1) and xn.shape == (400, 2)
    assert set(np.unique(reason)) == {0, 1, 2, 3}
    for i in range(x.shape[0]):
        r, ui, xi = apply_policy(prob, xg, ug, table, x[i])
        assert r == reason[i]
        if r != 1:
            np.testing.assert_array_equal(ui, u[i])
        else:
            assert np.isnan(u[i]).all()
        if r == 0:
            np.testing.assert_array_equal(xi, xn[i])
        else:
            assert np.isnan(xn[i]).all()

    # any batch shape: a (4, 100, n) stack gives the same numbers
    r3, u3, x3 = apply_policy(prob, xg, ug, table, x.reshape(4, 100, 2))
    np.testing.assert_array_equal(r3.reshape(-1), reason)
    np.testing.assert_array_equal(u3.reshape(-1, 1), u)
    np.testing.assert_array_equal(x3.reshape(-1, 2), xn)
