import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gridpolicy import (
    AxisSpec,
    CartesianGrid,
    NoEquilibriumError,
    builtin_avg_angle_pendulum,
    builtin_min_time_pendulum,
    equilibrium_search,
)
from gridpolicy import dp

from _toys import lattice_problem


def _self_loop_toy(cost, admissible=None, avg=None, lam=None):
    # every control keeps the state in place -> every admissible pair is an
    # exact equilibrium and the ranking alone decides
    cost = np.asarray(cost, dtype=float)
    nx, nu = cost.shape
    next_index = np.tile(np.arange(nx)[:, None], (1, nu))
    if admissible is None:
        admissible = np.ones((nx, nu), dtype=bool)
    return lattice_problem(
        xshape=(nx,),
        ushape=(nu,),
        next_index=next_index,
        cost=cost,
        admissible=admissible,
        avg=avg,
        lam=lam,
    )


def test_picks_cheapest_pair():
    toy = _self_loop_toy([[3.0, 1.0], [2.0, 5.0]])
    eq = equilibrium_search(toy.problem, toy.xgrid, toy.ugrid)
    assert (eq.state_index, eq.control_index) == (0, 1)
    assert eq.cost == 1.0
    assert eq.residual == 0.0
    np.testing.assert_array_equal(eq.state, [0.0])
    np.testing.assert_array_equal(eq.control, [1.0])


def test_cost_tie_breaks_on_control_magnitude():
    # node 1 ties node 0 on cost but reaches it with the smaller |u|;
    # control coordinates are 0, 1, 2, so u=0 wins over u=2
    toy = _self_loop_toy([[1.0, 9.0, 1.0], [9.0, 1.0, 9.0]])
    eq = equilibrium_search(toy.problem, toy.xgrid, toy.ugrid)
    assert (eq.state_index, eq.control_index) == (0, 0)


def test_remaining_tie_breaks_on_pair_index():
    toy = _self_loop_toy([[9.0, 1.0], [9.0, 1.0]])
    # pairs (0,1) and (1,1) tie on cost, |u| and residual -> smaller flat
    # pair index wins
    eq = equilibrium_search(toy.problem, toy.xgrid, toy.ugrid)
    assert (eq.state_index, eq.control_index) == (0, 1)


def test_control_magnitude_outranks_residual():
    # (0, u0) drifts (residual 1) while (0, u1) holds exactly; both cost 1.
    # the smaller control still wins, residual only breaks later ties
    toy = lattice_problem(
        xshape=(3,),
        ushape=(2,),
        next_index=[[1, 0], [1, 1], [2, 2]],
        cost=[[1.0, 1.0], [9.0, 9.0], [9.0, 9.0]],
        admissible=np.ones((3, 2), dtype=bool),
    )
    eq = equilibrium_search(toy.problem, toy.xgrid, toy.ugrid, eq_tol=2.0)
    assert (eq.state_index, eq.control_index) == (0, 0)
    assert eq.residual == 1.0


def test_residual_outranks_pair_index():
    # pairs (0, u0) and (1, u0) tie on cost and |u|; node 0 drifts by 0.4,
    # node 1 holds exactly -> the tighter pair wins despite its larger index
    toy = _self_loop_toy([[1.0, 9.0], [1.0, 9.0]])

    def drifting(x, u):
        base = np.asarray(toy.problem.dynamics(x, u), dtype=float)
        return base + 0.4 * (np.asarray(x, dtype=float) == 0.0)

    problem = dataclasses.replace(toy.problem, dynamics=drifting)
    eq = equilibrium_search(problem, toy.xgrid, toy.ugrid, eq_tol=0.5)
    assert (eq.state_index, eq.control_index) == (1, 0)
    assert eq.residual == 0.0


def test_inadmissible_pairs_are_excluded():
    toy = _self_loop_toy(
        [[0.0, 5.0], [5.0, 1.0]],
        admissible=[[False, True], [True, True]],
    )
    eq = equilibrium_search(toy.problem, toy.xgrid, toy.ugrid)
    assert (eq.state_index, eq.control_index) == (1, 1)


def test_relaxed_cost_ranks_when_multiplier_present():
    # raw costs favor pair (0, u0); the relaxation term flips the ranking
    avg = np.array([[5.0, 0.0], [0.0, 0.0]])
    toy = _self_loop_toy([[0.0, 2.0], [3.0, 3.0]], avg=avg, lam=1.0)
    eq = equilibrium_search(toy.problem, toy.xgrid, toy.ugrid)
    # relaxed costs: (0,u0)=5, (0,u1)=2, (1,*)=3 -> (0, u1) wins
    assert (eq.state_index, eq.control_index) == (0, 1)
    assert eq.cost == 2.0


def test_average_filter_without_multiplier():
    # nominal_average prescribed, no multiplier: candidates must match the
    # average output and are ranked by the raw stage cost
    avg = np.array([[0.0, 1.0], [1.0, 0.0]])
    toy = _self_loop_toy([[0.1, 5.0], [1.0, 0.2]], avg=avg)
    problem = dataclasses.replace(toy.problem, lam=None, nominal_average=1.0)
    eq = equilibrium_search(problem, toy.xgrid, toy.ugrid, avg_tol=0.25)
    # pairs with average 1: (0,u1) cost 5 and (1,u0) cost 1 -> the latter
    assert (eq.state_index, eq.control_index) == (1, 0)
    assert eq.cost == 1.0


def test_no_equilibrium_raises_with_hint():
    toy = lattice_problem(
        xshape=(2,),
        ushape=(2,),
        next_index=[[1, 1], [0, 0]],  # everything swaps -> nothing holds
        cost=np.ones((2, 2)),
        admissible=np.ones((2, 2), dtype=bool),
    )
    with pytest.raises(NoEquilibriumError, match="tolerance"):
        equilibrium_search(toy.problem, toy.xgrid, toy.ugrid)


def test_eq_tol_validation():
    toy = _self_loop_toy([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        equilibrium_search(toy.problem, toy.xgrid, toy.ugrid, eq_tol=0.0)


def test_nan_tolerances_are_rejected_not_searched():
    # a NaN tolerance used to pass no pair and blame the tolerance's size
    toy = _self_loop_toy([[1.0, 1.0], [1.0, 1.0]])
    args = toy.problem, toy.xgrid, toy.ugrid
    for kwargs in ({"eq_tol": math.nan}, {"avg_tol": math.nan}, {"avg_tol": -1.0}):
        with pytest.raises(ValueError, match="must be positive"):
            equilibrium_search(*args, **kwargs)


def test_default_tolerance_scales_with_grid():
    # residual 0.05 passes the default tol on a coarse grid (1.0 spacing
    # -> tol 0.1) but needs an explicit tol on the same problem when the
    # search is told to be stricter
    toy = lattice_problem(
        xshape=(2,),
        ushape=(2,),
        next_index=[[0, 1], [1, 1]],
        cost=np.ones((2, 2)),
        admissible=np.ones((2, 2), dtype=bool),
    )

    def drifting(x, u):
        base = np.asarray(toy.problem.dynamics(x, u), dtype=float)
        return base + 0.05

    problem = dataclasses.replace(toy.problem, dynamics=drifting)
    eq = equilibrium_search(problem, toy.xgrid, toy.ugrid)
    assert eq.residual == pytest.approx(0.05)
    with pytest.raises(NoEquilibriumError):
        equilibrium_search(problem, toy.xgrid, toy.ugrid, eq_tol=0.01)


def _point_bytes(eq):
    return (
        eq.state.tobytes(),
        eq.control.tobytes(),
        eq.state_index,
        eq.control_index,
        repr(eq.cost),
        repr(eq.residual),
    )


def test_block_seams_are_immaterial(monkeypatch):
    # blocks of one, two and seven rows (a ragged last one) find the point
    # a single block finds, on both rankings; the all-tied toy is
    # decided by the flat pair index alone, across block seams
    xg = CartesianGrid([AxisSpec(-2.0, 3.5, 0.25), AxisSpec(-1.5, 2.0, 0.25)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.1)])
    avg = builtin_avg_angle_pendulum(0.3, theta_bounds=(-2.0, 3.5), omega_bounds=(-1.5, 2.0))
    tied = _self_loop_toy(np.ones((5, 3)))
    cases = [
        (builtin_min_time_pendulum(), xg, ug, {}),
        (avg, xg, ug, {}),
        (dataclasses.replace(avg, lam=None, nominal_average=0.3), xg, ug, {"avg_tol": 0.2}),
        (tied.problem, tied.xgrid, tied.ugrid, {}),
    ]
    for problem, xgrid, ugrid, kwargs in cases:
        monkeypatch.setattr(dp, "_BUILD_BLOCK_PAIRS", 10**9)
        want = _point_bytes(equilibrium_search(problem, xgrid, ugrid, **kwargs))
        nu = ugrid.size
        for block in (1, 2 * nu, 7 * nu + 5):
            monkeypatch.setattr(dp, "_BUILD_BLOCK_PAIRS", block)
            got = _point_bytes(equilibrium_search(problem, xgrid, ugrid, **kwargs))
            assert got == want, block
    assert want[2:4] == (0, 0)


def test_search_temporaries_stay_within_one_block():
    # as for the engine build, at most 512 B per pair of one build block
    # are live
    xg = CartesianGrid([AxisSpec(-2.0, 3.5, 0.1), AxisSpec(-1.5, 2.0, 0.1)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.04)])
    problem = builtin_min_time_pendulum()
    tracemalloc.start()
    try:
        eq = equilibrium_search(problem, xg, ug)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_pairs = (dp._BUILD_BLOCK_PAIRS // ug.size) * ug.size
    assert peak <= 512 * block_pairs, peak / block_pairs
    assert eq.residual <= 0.01 and eq.cost == 0.0
