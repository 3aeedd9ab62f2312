import concurrent.futures
import contextlib
import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridpolicy as gp
from gridpolicy import dp
from gridpolicy import (
    STEP_REASONS,
    AxisSpec,
    CartesianGrid,
    DpEngine,
    ForwardEnsemble,
    StageTable,
    apply_policy,
)

from _toys import (
    enumerate_optimal,
    fixpoint_lattice_toy,
    grid_bounds,
    lattice_problem,
    lattice_toy_3d,
    random_lattice_toy,
)


# -- stage tables ------------------------------------------------------------


def test_stage_table_invariant():
    StageTable(cost=np.array([1.0, np.inf]), policy=np.array([0, -1]))
    with pytest.raises(ValueError):
        StageTable(cost=np.array([1.0, np.inf]), policy=np.array([0, 0]))
    with pytest.raises(ValueError):
        StageTable(cost=np.array([np.inf, 1.0]), policy=np.array([0, -1]))
    for cost, policy in ((np.zeros(3), np.zeros(2)), (np.zeros((2, 1)), np.zeros((2, 1)))):
        with pytest.raises(ValueError, match="flat arrays of equal length"):
            StageTable(cost=cost, policy=policy)


def test_forward_ensemble_rejects_a_mismatched_mask():
    for states, feasible in (
        (np.zeros((3, 2)), np.ones(2, bool)),
        (np.zeros((3, 2)), np.ones((3, 1), bool)),
        (np.zeros(3), np.ones(3, bool)),
    ):
        with pytest.raises(ValueError, match=re.escape("states must be (k, n)")):
            ForwardEnsemble(states=states, feasible=feasible)


def test_engine_rejects_grids_with_another_axis_count():
    problem = gp.builtin_min_time_pendulum()
    axis = AxisSpec(-1.0, 1.0, 0.5)
    xg, ug = CartesianGrid([axis, axis]), CartesianGrid([axis])
    with pytest.raises(ValueError, match="state grid has 1 axes, problem has 2"):
        DpEngine(problem, ug, ug)
    with pytest.raises(ValueError, match="control grid has 2 axes, problem has 1"):
        DpEngine(problem, xg, xg)


def test_backward_rejects_a_prev_cost_of_another_shape():
    toy = random_lattice_toy(np.random.default_rng(3))
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    nx = engine.nx
    for bad in (np.zeros(nx + 1), np.zeros(nx - 1), np.zeros((nx, 1))):
        with pytest.raises(ValueError, match=re.escape(f"prev_cost must have shape ({nx},)")):
            engine.backward(bad)


def test_backward_rejects_a_nan_or_negative_infinite_prev_cost():
    # either would leave NaN or -inf costs where a table holds +inf and
    # policy -1; +inf marks an infeasible node and is accepted
    toy = random_lattice_toy(np.random.default_rng(3))
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    prev = engine.backward(None).cost
    for bad in (np.nan, -np.inf):
        cost = prev.copy()
        cost[engine.nx // 2] = bad
        with pytest.raises(ValueError, match="not NaN or -inf"):
            engine.backward(cost)
    cost = prev.copy()
    cost[engine.nx // 2] = np.inf
    table = engine.backward(cost)
    assert not np.isnan(table.cost).any() and (table.cost > -np.inf).all()


# -- backward recursion ------------------------------------------------------


def _chain(engine, steps):
    """A hand chain of ``steps`` full ``backward`` steps."""
    tables, prev = [], None
    for _ in range(steps):
        prev = engine.backward(None if prev is None else prev.cost)
        tables.append(prev)
    return tables


_SEEDS = st.integers(0, 2**32 - 1)


def _random_prev_cost(rng, nx):
    """A cost-to-go field with ``+inf`` at a random share of the nodes."""
    prev = rng.uniform(-2.0, 5.0, nx)
    prev[rng.random(nx) < rng.uniform(0.0, 0.6)] = np.inf
    return prev


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


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS)
def test_feasibility_monotone(seed):
    toy = random_lattice_toy(np.random.default_rng(seed))
    tables = _chain(DpEngine(toy.problem, toy.xgrid, toy.ugrid), 6)
    for a, b in zip(tables, tables[1:]):
        assert (a.feasible_mask | ~b.feasible_mask).all(), (
            "a node regained feasibility at a longer horizon"
        )


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
        x = xg.node_coords()[int(flat)]
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


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS)
def test_backward_never_produces_nan(seed):
    rng = np.random.default_rng(seed)
    toy = random_lattice_toy(rng)
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    tables = _chain(engine, 5) + [engine.backward(_random_prev_cost(rng, engine.nx))]
    for table in tables:
        assert not np.isnan(table.cost).any()


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS)
def test_engine_thread_count_is_immaterial(seed):
    # one thread and every usable CPU give the same bytes
    rng = np.random.default_rng(seed)
    toy = random_lattice_toy(rng)
    e1 = DpEngine(toy.problem, toy.xgrid, toy.ugrid, threads=1)
    e0 = DpEngine(toy.problem, toy.xgrid, toy.ugrid, threads=0)
    prev = _random_prev_cost(rng, toy.xgrid.size)
    for _ in range(4):
        t1, t0 = e1.backward(prev), e0.backward(prev)
        assert t1.cost.tobytes() == t0.cost.tobytes()
        assert t1.policy.tobytes() == t0.policy.tobytes()
        prev = t1.cost


def _seam_blocks(nx, nu):
    """Block sizes around the row length, a ragged prime and one block."""
    primes = (7, 11, 13, 101, 1009, 10007)
    prime = next(q for q in primes if q > nu + 1 and (nx * nu) % q)
    return [1, nu - 1, nu, nu + 1, prime, 10**9]


def _blocks_of(pairs):
    """Build blocks and backward blocks of about ``pairs`` pairs each."""
    return mock.patch.multiple(dp, BLOCK_PAIRS=pairs, _BUILD_BLOCK_PAIRS=pairs)


def _interpolating_pendulum():
    # off-node successors, bounds tighter than the grid: many infeasible nodes
    xg = CartesianGrid([AxisSpec(-2.0, 3.5, 0.25), AxisSpec(-1.5, 2.0, 0.25)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.1)])
    prob = gp.builtin_min_time_pendulum(
        theta_bounds=(-1.5, 3.0), omega_bounds=(-1.2, 1.8), torque_limit=0.8
    )
    return prob, xg, ug


def test_backward_block_seams_are_immaterial(rng, monkeypatch):
    # the row-block loop, its ragged last block and one-row blocks give the
    # same bytes as a single block, at one and two threads
    toy = random_lattice_toy(rng)
    cases = [(toy.problem, toy.xgrid, toy.ugrid), _interpolating_pendulum()]
    for problem, xg, ug in cases:
        ref = None
        for threads in (1, 2):
            engine = DpEngine(problem, xg, ug, threads=threads)
            for block in _seam_blocks(xg.size, ug.size):
                monkeypatch.setattr(dp, "BLOCK_PAIRS", block)
                got = _chain(engine, 4)
                if ref is None:
                    ref = got
                for a, b in zip(got, ref):
                    assert a.cost.tobytes() == b.cost.tobytes(), (threads, block)
                    assert a.policy.tobytes() == b.policy.tobytes(), (threads, block)
        if problem is toy.problem:
            want_cost, want_first = enumerate_optimal(toy, 4)
            np.testing.assert_array_equal(ref[-1].cost, want_cost)
            np.testing.assert_array_equal(ref[-1].policy, want_first)
        else:
            assert (ref[-1].policy == -1).any() and (ref[-1].policy != -1).any()


def _engine_arrays(engine):
    arrays = (engine._base, engine._w, engine._sc, engine._row_nodes, engine._row_starts)
    return tuple(a.tobytes() for a in arrays)


def _zero_weight_pairs(engine):
    """The admissible pairs of ``engine`` with a zero-weight corner."""
    return np.count_nonzero((engine._base != engine.nx) & (engine._w == 0.0).any(axis=0))


def test_build_block_seams_are_immaterial(rng, monkeypatch):
    # engines built in one-row blocks, blocks around the row length, a
    # ragged prime and threads 1 and 2 hold the same bytes as a single-block
    # build and step the same; the backward kernel keeps its own blocks
    toy = random_lattice_toy(rng)
    cases = [(toy.problem, toy.xgrid, toy.ugrid), _interpolating_pendulum()]
    for problem, xg, ug in cases:
        monkeypatch.setattr(dp, "_BUILD_BLOCK_PAIRS", 10**9)
        single = DpEngine(problem, xg, ug, threads=1)
        want, want_chain = _engine_arrays(single), _chain(single, 4)
        for threads in (1, 2):
            for block in _seam_blocks(xg.size, ug.size):
                monkeypatch.setattr(dp, "_BUILD_BLOCK_PAIRS", block)
                engine = DpEngine(problem, xg, ug, threads=threads)
                assert _engine_arrays(engine) == want, (threads, block)
                for a, b in zip(_chain(engine, 4), want_chain):
                    assert a.cost.tobytes() == b.cost.tobytes(), (threads, block)
                    assert a.policy.tobytes() == b.policy.tobytes(), (threads, block)


def test_build_temporaries_stay_within_one_block():
    # numpy reports its buffers to tracemalloc: beyond the engine's own
    # arrays the build holds at most 512 B per pair of one build block, a
    # block of 160 rows of the coarse config's 2016, far below BLOCK_PAIRS
    xg = CartesianGrid([AxisSpec(-2.0, 3.5, 0.1), AxisSpec(-1.5, 2.0, 0.1)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.04)])
    assert (xg.shape, ug.size) == ((56, 36), 51)
    tracemalloc.start()
    try:
        engine = DpEngine(gp.builtin_min_time_pendulum(), xg, ug, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = engine._base.nbytes + engine._w.nbytes + engine._sc.nbytes
    block_pairs = (dp._BUILD_BLOCK_PAIRS // ug.size) * ug.size
    assert 8 * block_pairs <= dp.BLOCK_PAIRS
    assert peak - arrays <= 512 * block_pairs, (peak - arrays) / block_pairs


def test_engine_bytes_bounds_a_three_dimensional_build():
    # eight corners per pair: the estimate still bounds the build's traced
    # peak, and beyond the engine's arrays and row map the build holds at
    # most BUILD_BYTES_PER_BLOCK_PAIR per pair of one build block (of 199
    # rows here, under a third of the grid)
    problem, xg, ug = _three_axis_problem(u_spacing=0.05)
    assert (xg.size, ug.size) == (729, 41)
    tracemalloc.start()
    try:
        engine = DpEngine(problem, xg, ug, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dp.engine_bytes(xg.size, ug.size, 3, threads=1)
    arrays = sum(
        a.nbytes
        for a in (engine._base, engine._w, engine._sc, engine._row_nodes, engine._row_starts)
    )
    block_pairs = (dp._BUILD_BLOCK_PAIRS // ug.size) * ug.size
    assert 3 * block_pairs < xg.size * ug.size
    assert peak - arrays <= dp.BUILD_BYTES_PER_BLOCK_PAIR * block_pairs, (
        (peak - arrays) / block_pairs
    )


def test_engine_bytes_bounds_a_build_of_side_pairs_only(rng, monkeypatch):
    # lattice successors give every admissible pair a zero-weight corner:
    # the estimate still bounds the traced peak
    monkeypatch.setattr(dp, "_BUILD_BLOCK_PAIRS", 1024)
    nx, nu = 900, 8
    toy = lattice_problem(
        (30, 30),
        (nu,),
        rng.integers(0, nx, (nx, nu)),
        rng.uniform(0.0, 1.0, (nx, nu)),
        np.ones((nx, nu), dtype=bool),
    )
    tracemalloc.start()
    try:
        engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _zero_weight_pairs(engine) == nx * nu
    assert peak <= dp.engine_bytes(nx, nu, 2, threads=1)


def _recording_problem(problem):
    """``problem`` with each callable wrapped to append its name to a list
    on every call; returns the problem and that list."""
    calls = []

    def recording(name, fn):
        def wrapped(x, u):
            calls.append(name)
            return fn(x, u)

        return wrapped

    fields = ("dynamics", "stage_cost", "inequality", "average_fn")
    problem = dataclasses.replace(
        problem, **{f: recording(f, getattr(problem, f)) for f in fields}
    )
    return problem, calls


def test_memory_estimate_fails_before_any_callable(rng, monkeypatch):
    toy = random_lattice_toy(rng)
    problem, calls = _recording_problem(toy.problem)
    nx, nu = toy.xgrid.size, toy.ugrid.size
    need = dp.engine_bytes(nx, nu, toy.xgrid.ndim)
    monkeypatch.setattr(dp, "_available_bytes", lambda: need - 1)
    with pytest.raises(MemoryError) as err:
        DpEngine(problem, toy.xgrid, toy.ugrid, threads=1)
    for part in (f"nx={nx}", f"nu={nu}", str(need), str(need - 1)):
        assert part in str(err.value)
    assert calls == []

    monkeypatch.setattr(dp, "_available_bytes", lambda: 100 * need)
    engine = DpEngine(problem, toy.xgrid, toy.ugrid, threads=1)
    assert calls
    arrays = (
        engine._base,
        engine._w,
        engine._sc,
        engine._row_nodes,
        engine._row_starts,
    )
    assert need >= sum(a.nbytes for a in arrays)
    assert dp.engine_bytes(nx, nu, toy.xgrid.ndim, threads=2) > need


def test_available_bytes_reads_meminfo_and_cgroup_v2(tmp_path):
    proc, cgroup = tmp_path / "proc", tmp_path / "cgroup"
    (proc / "self").mkdir(parents=True)
    (cgroup / "jobs" / "a").mkdir(parents=True)
    assert dp._available_bytes(str(proc), str(cgroup)) is None
    (proc / "meminfo").write_text("MemTotal: 9000 kB\nMemAvailable: 2000 kB\n")
    assert dp._available_bytes(str(proc), str(cgroup)) == 2000 * 1024
    (proc / "self" / "cgroup").write_text("0::/jobs/a\n")
    (cgroup / "jobs" / "a" / "memory.max").write_text("max\n")
    assert dp._available_bytes(str(proc), str(cgroup)) == 2000 * 1024
    (cgroup / "jobs" / "a" / "memory.max").write_text("1000000\n")
    (cgroup / "jobs" / "a" / "memory.current").write_text("400000\n")
    assert dp._available_bytes(str(proc), str(cgroup)) == 600000
    (proc / "meminfo").unlink()
    assert dp._available_bytes(str(proc), str(cgroup)) == 600000


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS)
def test_backward_inf_exactly_without_a_finite_successor(seed):
    # lattice successors carry weight 1 on one node: a node is +inf exactly
    # when no admissible control leads to a node of finite cost-to-go
    rng = np.random.default_rng(seed)
    toy = random_lattice_toy(rng)
    prev = _random_prev_cost(rng, toy.xgrid.size)
    table = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(prev)
    assert not np.isnan(table.cost).any()
    nxt = toy.next_index
    reach = toy.admissible & (nxt >= 0) & np.isfinite(prev[np.where(nxt >= 0, nxt, 0)])
    np.testing.assert_array_equal(np.isinf(table.cost), ~reach.any(axis=1))


@settings(max_examples=30, deadline=None)
@given(seed=_SEEDS)
def test_backward_inf_propagates_through_positive_weight_corners(seed):
    # off-node successors: a pair is finite exactly when it is admissible,
    # its successor is inside the grid and every corner of positive weight
    # holds a finite cost-to-go
    rng = np.random.default_rng(seed)
    prob, xg, ug = _interpolating_pendulum()
    prev = _random_prev_cost(rng, xg.size)
    table = DpEngine(prob, xg, ug).backward(prev)
    assert not np.isnan(table.cost).any()
    x = np.repeat(xg.node_coords(), ug.size, axis=0)
    u = np.tile(ug.node_coords(), (xg.size, 1))
    ok = (np.asarray(prob.inequality(x, u)) <= 0.0).all(axis=-1)
    idx, w, inside = xg.locate_cells(prob.dynamics(x, u))
    ok &= inside & ((w == 0.0) | np.isfinite(prev[idx])).all(axis=1)
    reach = ok.reshape(xg.size, ug.size).any(axis=1)
    np.testing.assert_array_equal(np.isinf(table.cost), ~reach)


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


# -- backward chain with the cost-fixpoint short-circuit ---------------------


def _fixpoint_toy(rng, settles):
    """A 1-D :func:`fixpoint_lattice_toy` of 2 to 12 nodes and 2 to 4 controls."""
    nx, nu = int(rng.integers(2, 13)), int(rng.integers(2, 5))
    return fixpoint_lattice_toy(rng, (nx,), nu, settles)


def _same_tables(a, b):
    return len(a) == len(b) and all(
        s.cost.tobytes() == t.cost.tobytes() and s.policy.tobytes() == t.policy.tobytes()
        for s, t in zip(a, b)
    )


def _chain_work(engine, steps, chain=None):
    """The first ``steps`` stages of ``chain`` (a fresh ``engine.chain()`` by
    default) and, per stage, the record of its backward step read from the
    chain after each ``next()`` (None when no step ran): the rows the row
    skip did not copy, those evaluated at their policy control alone, the
    pairs evaluated, and the margin test's inputs."""
    chain = engine.chain() if chain is None else chain
    stages, work = [], []
    for _ in range(steps):
        before = chain.rows
        stages.append(next(chain))
        if chain.rows is before:  # past the fixpoint
            work.append(None)
            continue
        prev = chain._source
        scale = np.max(np.abs(prev), where=np.isfinite(prev), initial=0.0)
        work.append(
            SimpleNamespace(
                rows=chain.rows.copy(),
                certified=chain.certified.copy(),
                pairs=chain.pairs,
                margin=chain._margin.copy(),
                prev=prev.copy(),
                bound=engine._slack[2] * scale + engine._slack[3],
            )
        )
    return stages, work


def _chain_counting(engine, steps):
    """The first ``steps`` stages of ``engine.chain()`` and the kernel calls
    they made."""
    stages, work = _chain_work(engine, steps)
    return stages, sum(w is not None for w in work)


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS, settles=st.booleans())
def test_chain_equals_step_chain_and_stops_at_the_fixpoint(seed, settles):
    toy = _fixpoint_toy(np.random.default_rng(seed), settles)
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    plain = _chain(engine, 3 * (engine.nx + 1))
    costs = [np.zeros(engine.nx)] + [t.cost for t in plain]
    fixpoint = next(
        (k for k in range(1, len(costs)) if costs[k].tobytes() == costs[k - 1].tobytes()),
        None,
    )
    assert (fixpoint is not None) == settles
    steps = 3 * fixpoint if settles else len(plain)

    stages, calls = _chain_counting(engine, steps)
    assert _same_tables(stages, plain[:steps])
    assert calls == (fixpoint if settles else steps)
    if settles:
        assert all(t is stages[fixpoint - 1] for t in stages[fixpoint:])


def _signed_zero_toy(length=6):
    """1-D chain whose cost fields differ from stage 1 on only in zero signs.

    Nodes 0 and 1 pay the smallest negative subnormal and step to 0.5, so
    their cost stays at it, and half of it rounds to ``-0.0``.  Node
    ``i >= 2`` pays ``-0.0`` and steps to ``i - 1.5``, midway between two
    nodes, so it turns ``-0.0`` at stage ``i``, once both corners have.
    """
    tiny = -np.nextafter(0.0, 1.0)
    problem = gp.ProblemDef(
        state_dim=1,
        control_dim=1,
        dynamics=lambda x, u: np.where(x <= 1.0, 0.5, x - 1.5),
        stage_cost=lambda x, u: np.where(x[..., 0] <= 1.0, tiny, -0.0),
        inequality=lambda x, u: np.full(x.shape[:-1] + (1,), -1.0),
        average_fn=lambda x, u: np.zeros(x.shape[:-1]),
    )
    xg = CartesianGrid([AxisSpec(0.0, float(length), 1.0)])
    ug = CartesianGrid([AxisSpec(0.0, 1.0, 1.0)])
    return DpEngine(problem, xg, ug)


def test_chain_fixpoint_is_bitwise_not_numeric(monkeypatch):
    engine = _signed_zero_toy()
    plain = _chain(engine, 12)
    # stage k is plain[k - 1]; stages 1..12 are equal by value
    assert all(np.array_equal(a.cost, b.cost) for a, b in zip(plain, plain[1:]))
    assert np.signbit(plain[4].cost).sum() == 6 and np.signbit(plain[5].cost).all()

    stages, calls = _chain_counting(engine, 12)
    assert _same_tables(stages, plain)
    assert calls == 7  # stage 7 repeats stage 6 bit for bit

    # a fixpoint test by value takes stage 2 for the fixpoint
    monkeypatch.setattr(dp, "_same_bits", np.array_equal)
    stages, calls = _chain_counting(engine, 12)
    assert calls == 2
    assert not _same_tables(stages, plain)


def test_chain_tables_are_read_only():
    toy = _absorbing_toy()
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    stages = list(itertools.islice(engine.chain(), 4))
    assert stages[-1] is stages[-2]  # past the fixpoint
    for table in stages:
        with pytest.raises(ValueError):
            table.cost[0] = 1.0
        with pytest.raises(ValueError):
            table.policy[0] = 1
    for policy in gp.finite_horizon_policies(
        toy.problem, toy.xgrid, toy.ugrid, 3, engine=engine
    ):
        with pytest.raises(ValueError):
            policy[0] = 1


@pytest.mark.parametrize("threads", [1, 2])
def test_chain_stage_one_is_the_full_step(rng, threads):
    # stage 1 is the plain full step on the zero terminal field: its bits,
    # a record of every row read, none certified and every pair formed, and
    # no margin yet
    toy = random_lattice_toy(rng)
    for problem, xg, ug in ((toy.problem, toy.xgrid, toy.ugrid), _small_pendulum()):
        engine = DpEngine(problem, xg, ug, threads=threads)
        chain = engine.chain()
        assert chain.stage == 0 and chain.rows is None
        first = next(chain)
        assert _same_tables([first], [engine.backward(None)])
        assert chain.stage == 1
        assert chain.rows.tolist() == list(range(engine.nx))
        assert chain.certified.size == 0 and chain.pairs == engine.nx * engine.nu
        assert (chain._margin == -np.inf).all()


def test_chain_of_zero_stage_costs_settles_at_stage_one(rng):
    # every pair admissible at stage cost +0.0: stage 1's cost is the zero
    # terminal field bit for bit, so stage 1 is the fixpoint, every later
    # stage is its table object, and the kernel runs once
    nx, nu = 7, 3
    toy = lattice_problem(
        xshape=(nx,),
        ushape=(nu,),
        next_index=rng.integers(0, nx, size=(nx, nu)),
        cost=np.zeros((nx, nu)),
        admissible=np.ones((nx, nu), dtype=bool),
    )
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    stages, calls = _chain_counting(engine, 6)
    assert stages[0].cost.tobytes() == np.zeros(nx).tobytes()
    assert calls == 1 and all(t is stages[0] for t in stages)


# -- row skips: only rows whose stencil inputs changed are recomputed --------


def _brute_stencils(engine):
    """Per state row, the sorted nodes its admissible pairs read with positive
    weight, plus the sentinel ``nx``, from the problem's own callables."""
    problem, xg, ug = engine.problem, engine.xgrid, engine.ugrid
    x = np.repeat(xg.node_coords(), ug.size, axis=0)
    u = np.tile(ug.node_coords(), (xg.size, 1))
    ok = (np.asarray(problem.inequality(x, u)) <= 0.0).all(axis=-1)
    idx, w, inside = xg.locate_cells(np.asarray(problem.dynamics(x, u), dtype=float))
    read = (ok & inside)[:, None] & (w > 0.0)
    nu = ug.size
    return [
        sorted(set(idx[r * nu : (r + 1) * nu][read[r * nu : (r + 1) * nu]].tolist()) | {xg.size})
        for r in range(xg.size)
    ]


def _row_map(engine):
    ends = np.append(engine._row_starts[1:], engine._row_nodes.size)
    return [engine._row_nodes[a:b].tolist() for a, b in zip(engine._row_starts, ends)]


def _assert_chain_equals_full_chain(engine, steps):
    """``engine.chain()`` equals the full-step chain bitwise at every stage,
    and each kernel call recomputes the rows that :func:`_assert_rows_skipped`
    allows.

    Returns:
        The number of row evaluations the chain skipped.
    """
    full = _chain(engine, steps)
    assert _row_map(engine) == _brute_stencils(engine)
    stages, work = _chain_work(engine, steps)
    assert _same_tables(stages, full)
    return _assert_rows_skipped(engine, full, work)


def _assert_rows_skipped(engine, full, work):
    """Each kernel call of a chain, ``work[k - 1]`` at stage ``k``, recomputed
    every changed row: every row whose stencil holds a node whose cost bits
    changed between the two stages of ``full`` before it (every row at stage
    1).  Within each of the chain's row blocks it recomputed either exactly
    the block's changed rows or the whole block, and the latter only when at
    least half of the block's rows changed.  Returns the rows skipped."""
    stencils = _brute_stencils(engine)
    costs = [np.zeros(engine.nx)] + [t.cost for t in full]
    blocks = dp._row_blocks(0, engine.nx, engine.nu, dp.BLOCK_PAIRS)
    skipped = 0
    for k, w in enumerate(work, start=1):
        if w is None:  # past the fixpoint
            assert costs[k - 1].tobytes() == costs[k - 2].tobytes()
            continue
        got = w.rows.tolist()
        assert got == sorted(set(got)), k
        want = np.ones(engine.nx, dtype=bool)
        if k > 1:
            changed = costs[k - 1].view(np.uint64) != costs[k - 2].view(np.uint64)
            changed = np.append(changed, False)  # the sentinel
            want = np.array([changed[stencils[r]].any() for r in range(engine.nx)])
        recomputed = np.zeros(engine.nx, dtype=bool)
        recomputed[got] = True
        for b0, b1 in blocks:
            done, need = recomputed[b0:b1], want[b0:b1]
            if not np.array_equal(done, need):
                assert done.all() and 2 * need.sum() >= b1 - b0, (k, b0, b1)
        skipped += engine.nx - len(got)
    return skipped


@settings(max_examples=60, deadline=None)
@given(
    seed=_SEEDS,
    settles=st.booleans(),
    threads=st.sampled_from([1, 2]),
    seam=st.integers(0, 5),
)
def test_chain_skips_exactly_the_rows_whose_stencil_is_unchanged(
    seed, settles, threads, seam
):
    # lattice toys that settle and toys that never do, at one and two
    # threads and at every block seam of _seam_blocks
    toy = _fixpoint_toy(np.random.default_rng(seed), settles)
    nx, nu = toy.xgrid.size, toy.ugrid.size
    with _blocks_of(_seam_blocks(nx, nu)[seam]):
        engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid, threads=threads)
        _assert_chain_equals_full_chain(engine, 3 * (nx + 1))


def _small_pendulum():
    """Minimum-time swing-up on 11 x 11 states around the target, 21
    controls: fractional weights on four corners, and a cost field that
    settles region by region (its fixpoint comes at stage 293)."""
    xg = CartesianGrid(
        [AxisSpec(math.pi - 1.2, math.pi + 1.2, 0.24), AxisSpec(-1.0, 1.0, 0.2)]
    )
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.1)])
    problem = gp.builtin_min_time_pendulum(
        target_halfwidth=(0.3, 0.3),
        params=gp.PendulumParams(sample_time=0.3),
        theta_bounds=(math.pi - 1.21, math.pi + 1.21),
        omega_bounds=(-1.01, 1.01),
    )
    return problem, xg, ug


@pytest.mark.parametrize("threads", [1, 2])
def test_chain_skips_rows_on_an_interpolating_pendulum(threads):
    problem, xg, ug = _small_pendulum()
    engine = DpEngine(problem, xg, ug, threads=threads)
    assert xg.shape == (11, 11) and (engine._w[1:] > 0.0).any()  # off-node successors
    skipped = _assert_chain_equals_full_chain(engine, 300)
    assert skipped > 0.5 * 300 * xg.size, skipped


def test_alternating_stage_lists_on_one_engine(rng):
    # two chains pulled in a random interleaving on one engine, with direct
    # backward calls on the last yielded table in between, follow the
    # full-step chain bit for bit, and each skips rows on its own
    problem, xg, ug = _small_pendulum()
    engine = DpEngine(problem, xg, ug)
    full = _chain(engine, 61)
    chains = (engine.chain(), engine.chain())
    pulled = (([], []), ([], []))
    for pick in rng.integers(0, 2, size=100):
        stages, work = pulled[pick]
        if len(stages) < 60:
            got, record = _chain_work(engine, 1, chains[pick])
            stages += got
            work += record
        if rng.random() < 0.2:
            table = engine.backward(stages[-1].cost)
            assert _same_tables([table], [full[len(stages)]])
    for stages, work in pulled:
        assert len(stages) > 20
        assert _same_tables(stages, full[: len(stages)])
        assert _assert_rows_skipped(engine, full, work) > 0


def test_tables_changed_in_place_do_not_leak_into_later_stages():
    # a caller who turns yielded tables writeable again and changes them
    # (policy, cost, and the cost the last one came from) does not change
    # the chain's later stages: it steps on private copies
    problem, xg, ug = _small_pendulum()
    engine = DpEngine(problem, xg, ug)
    full = _chain(engine, 210)
    chain = engine.chain()
    stages = list(itertools.islice(chain, 200))  # most rows are clean, not all
    last, source = stages[-1], stages[-2]
    assert last.cost.tobytes() != source.cost.tobytes()
    for array in (last.cost, last.policy, source.cost):
        array.flags.writeable = True
    source.cost[:] = last.cost  # as if nothing had changed
    for k in range(200, 210):
        feasible = last.feasible_mask
        last.policy[feasible] = (last.policy[feasible] + 1) % ug.size
        last.cost[feasible] -= 0.5
        last = next(chain)
        assert _same_tables([last], [full[k]]), k
        last.cost.flags.writeable = last.policy.flags.writeable = True


def _three_axis_problem(u_spacing=0.5):
    """A 3-D minimum-time problem with off-node successors (eight corners),
    an omega-like bound tighter than the grid, and a zero-cost target box,
    so the cost field settles region by region."""
    xg = CartesianGrid([AxisSpec(-1.0, 1.0, 0.25)] * 3)
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, u_spacing)])

    def dynamics(x, u):
        a = 0.9 * x[..., 0] + 0.3 * x[..., 1]
        b = 0.8 * x[..., 1] + 0.3 * u[..., 0] - 0.1 * np.sin(x[..., 2])
        c = 0.7 * x[..., 2] + 0.2 * x[..., 0]
        return np.stack([a, b, c], axis=-1)

    problem = gp.ProblemDef(
        state_dim=3,
        control_dim=1,
        dynamics=dynamics,
        stage_cost=lambda x, u: (np.abs(x).max(axis=-1) > 0.3).astype(float),
        inequality=lambda x, u: np.abs(x[..., 1:2]) - 0.9,
        average_fn=lambda x, u: np.zeros(x.shape[:-1]),
    )
    return problem, xg, ug


def test_row_map_is_every_positive_weight_node(rng):
    # the CSR row map holds exactly the nodes each row reads with positive
    # weight (and the sentinel), on lattice, 2-D and 3-D interpolating grids
    toy = random_lattice_toy(rng)
    cases = [
        (toy.problem, toy.xgrid, toy.ugrid),
        _interpolating_pendulum(),
        _small_pendulum(),
        _three_axis_problem(),
    ]
    for problem, xg, ug in cases:
        engine = DpEngine(problem, xg, ug)
        assert engine._row_nodes.dtype == np.int32
        assert _row_map(engine) == _brute_stencils(engine)


@settings(max_examples=30, deadline=None)
@given(seed=_SEEDS, settles=st.booleans())
def test_three_dimensional_chain_equals_enumeration(seed, settles):
    # 3-D lattice toys: the chain, skips included, equals brute-force
    # enumeration up to horizon 6 and the full-step chain past its fixpoint
    toy = lattice_toy_3d(np.random.default_rng(seed), settles)
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    for h, table in zip(range(1, 7), engine.chain()):
        want_cost, want_first = enumerate_optimal(toy, h)
        np.testing.assert_array_equal(table.cost, want_cost)
        np.testing.assert_array_equal(table.policy, want_first)
    _assert_chain_equals_full_chain(engine, 3 * (engine.nx + 1))


@pytest.mark.parametrize("threads", [1, 2])
def test_three_dimensional_chain_skips_rows(threads):
    problem, xg, ug = _three_axis_problem()
    engine = DpEngine(problem, xg, ug, threads=threads)
    assert (engine._w[1:] > 0.0).any() and (engine._sc == np.inf).any()
    assert _assert_chain_equals_full_chain(engine, 60) > 0


def test_three_dimensional_block_seams_and_threads(rng):
    # 3-D builds and backward chains in one-row blocks, blocks around the
    # row length, a ragged prime and threads 1 and 2 give the bytes of a
    # single block; on the lattice toy every admissible pair has a
    # zero-weight corner
    toy = lattice_toy_3d(rng, settles=False)
    cases = [(toy.problem, toy.xgrid, toy.ugrid), _three_axis_problem()]
    for problem, xg, ug in cases:
        with _blocks_of(10**9):
            single = DpEngine(problem, xg, ug, threads=1)
            want, want_chain = _engine_arrays(single), _chain(single, 6)
        admissible = np.count_nonzero(single._base != single.nx)
        if problem is toy.problem:
            assert _zero_weight_pairs(single) == admissible > 0
        else:
            assert 0 < _zero_weight_pairs(single) < admissible
        for threads in (1, 2):
            for block in _seam_blocks(xg.size, ug.size):
                with _blocks_of(block):
                    engine = DpEngine(problem, xg, ug, threads=threads)
                    assert _engine_arrays(engine) == want, (threads, block)
                    got = _chain(engine, 6)
                for a, b in zip(got, want_chain):
                    assert a.cost.tobytes() == b.cost.tobytes(), (threads, block)
                    assert a.policy.tobytes() == b.policy.tobytes(), (threads, block)


@settings(max_examples=30, deadline=None)
@given(seed=_SEEDS, parks=st.booleans())
def test_three_dimensional_parked_forward_equals_unparked_chain(seed, parks):
    # 3-D lattice toys: a parking forward chain gives bitwise the states,
    # controls and feasibility of per-entry apply_policy calls
    rng = np.random.default_rng(seed)
    toy, table = _parking_toy(rng, parks, lambda r: lattice_toy_3d(r, settles=False))
    xg = toy.xgrid
    k = int(rng.integers(1, 30))
    lows, uppers = grid_bounds(xg)
    starts = rng.uniform(lows - 0.5, uppers + 0.5, size=(k, xg.ndim))
    on_node = rng.random(k) < 0.6
    starts[on_node] = xg.node_coords()[rng.integers(0, xg.size, on_node.sum())]
    alive = rng.random(k) >= 0.2
    starts[0], alive[0] = xg.node_coords()[0], True  # parks at step 1 if ``parks``
    assert _forward_chain(toy, [table] * 25, starts, alive)[1] == parks


def test_three_dimensional_forward_on_chain_tables_equals_the_chain(rng):
    # the 3-D interpolating problem under two tables the chain yielded, from
    # nodes and off-node starts: the forward chain equals per-entry
    # apply_policy calls to the end
    problem, xg, ug = _three_axis_problem()
    engine = DpEngine(problem, xg, ug)
    stages = list(itertools.islice(engine.chain(), 40))
    starts = np.concatenate([xg.node_coords()[::5], rng.uniform(-1.0, 1.0, (30, 3))])
    alive = np.ones(len(starts), dtype=bool)
    case = SimpleNamespace(problem=problem, xgrid=xg, ugrid=ug)
    tables = [stages[-2]] * 5 + [stages[-1]] * 15
    kinds, _ = _forward_chain(case, tables, starts, alive)
    assert kinds[-1][3] > 0  # entries still stepping at the last call


# -- certified action elimination: rows evaluated at their policy alone ------


def _certified_pairs(work):
    return sum(w.certified.size for w in work if w is not None)


@settings(max_examples=60, deadline=None)
@given(
    seed=_SEEDS,
    settles=st.booleans(),
    threads=st.sampled_from([1, 2]),
    seam=st.integers(0, 5),
)
def test_eliminating_chain_equals_step_chain_and_enumeration(seed, settles, threads, seam):
    # lattice toys chained six times past their row count, long enough for
    # rows to be certified: every stage equals the full-step chain, and
    # the first six the brute-force optimum, at every block seam
    rng = np.random.default_rng(seed)
    toy = fixpoint_lattice_toy(rng, (int(rng.integers(2, 13)),), int(rng.integers(2, 5)), settles)
    nx, nu = toy.xgrid.size, toy.ugrid.size
    steps = 6 * (nx + 1)
    full = _chain(DpEngine(toy.problem, toy.xgrid, toy.ugrid), steps)
    with _blocks_of(_seam_blocks(nx, nu)[seam]):
        engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid, threads=threads)
        stages, work = _chain_work(engine, steps)
    assert _same_tables(stages, full)
    for h, table in zip(range(1, 7), stages):
        want_cost, want_first = enumerate_optimal(toy, h)
        np.testing.assert_array_equal(table.cost, want_cost)
        np.testing.assert_array_equal(table.policy, want_first)
    for w in filter(None, work):
        assert set(w.certified.tolist()) <= set(w.rows.tolist())
        assert w.pairs == (w.rows.size - w.certified.size) * nu + w.certified.size or (
            w.pairs < w.rows.size * nu  # certified rows without a finite value
        )


def test_elimination_spends_a_margin_when_the_argmin_switches_late():
    # node 3 may step to node 0, whose cost grows by 1 per stage, or to node
    # 2, which pays 10 once: control 0 wins until stage 10, ties at 11 and
    # loses from 12.  The gap of 9 formed at stage 2 shrinks by the span 1
    # per stage, so the row runs at its policy alone over stages 3..10 and
    # reruns the full kernel at 11, when its margin is spent (and again
    # whenever the growing gap it then gets is spent).
    toy = lattice_problem(
        xshape=(4,),
        ushape=(2,),
        next_index=[[0, -1], [1, -1], [1, -1], [0, 2]],
        cost=[[1.0, 0.0], [0.0, 0.0], [10.0, 0.0], [0.0, 0.0]],
        admissible=[[True, False], [True, False], [True, False], [True, True]],
    )
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    stages, work = _chain_work(engine, 30)
    assert _same_tables(stages, _chain(engine, 30))
    assert [int(t.policy[3]) for t in stages] == [0] * 11 + [1] * 19
    alone = [k for k, w in enumerate(work, start=1) if 3 in w.certified]
    assert alone[:9] == list(range(3, 11)) + [14]  # 11 tied: no margin at 12
    assert 3 in work[10].rows and work[10].pairs == 1 + 2  # node 0 alone, row 3 in full


def test_elimination_reruns_the_kernel_when_a_node_turns_infinite():
    # node 10 steps to node 0 (pay 5, then 2**-10 per stage) or into the
    # chain 1 -> 2 -> ... -> 8 -> trap 9 (free, but infeasible past 9
    # steps).  The free control is certified with margin about 5 at stage 2
    # (stage 1, the full step, forms no margins) while the span is 2**-10
    # per stage, so the row runs alone from stage 3; at stage 10 node 1
    # turns infinite, the span is +inf and the row reruns the full kernel
    # and switches.
    n = 8
    nxt = [[0, -1]] + [[i + 1, -1] for i in range(1, n + 1)] + [[-1, -1], [0, 1]]
    cost = [[2.0**-10, 0.0]] + [[0.0, 0.0]] * n + [[0.0, 0.0], [5.0, 0.0]]
    admissible = [[True, False]] * (n + 1) + [[False, False], [True, True]]
    toy = lattice_problem((n + 3,), (2,), nxt, cost, admissible)
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    d = n + 2
    stages, work = _chain_work(engine, 40)
    assert _same_tables(stages, _chain(engine, 40))
    for h in range(1, n + 4):
        want_cost, want_first = enumerate_optimal(toy, h)
        np.testing.assert_array_equal(stages[h - 1].cost, want_cost)
        np.testing.assert_array_equal(stages[h - 1].policy, want_first)
    assert [int(t.policy[d]) for t in stages[: n + 3]] == [1] * (n + 1) + [0] * 2
    alone = [k for k, w in enumerate(work, start=1) if w is not None and d in w.certified]
    assert alone[: n - 1] == list(range(3, n + 2))
    assert d in work[n + 1].rows and d not in work[n + 1].certified  # stage n + 2


def _drifting_weights_engine(delta):
    """Node 0 pays 1 per stage; node 1 steps to node 0 through control 0,
    or through control 1 at stage cost 2**-14 with its weight set to
    ``1 - delta``.  For ``delta = 2**-20`` control 1 catches up by
    ``delta`` per stage, ties at stage 65 and wins from stage 66, while the
    span of node 1's stencil stays 0 up to rounding."""
    toy = lattice_problem(
        xshape=(2,),
        ushape=(2,),
        next_index=[[0, -1], [0, 0]],
        cost=[[1.0, 0.0], [0.0, 2.0**-14]],
        admissible=[[True, False], [True, True]],
    )
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    assert engine._w[:, 3].tolist() == [1.0, 0.0]
    engine._w[0, 3] = 1.0 - delta
    engine._build_row_index()  # measures the weight sums again
    return engine


def test_elimination_allows_for_weights_that_do_not_sum_to_one(monkeypatch):
    delta = 2.0**-20
    engine = _drifting_weights_engine(delta)
    assert engine._weight_error >= delta
    full = _chain(engine, 80)
    assert [int(t.policy[1]) for t in full[63:67]] == [0, 0, 1, 1]
    stages, work = _chain_work(engine, 80)
    assert _same_tables(stages, full)
    assert _certified_pairs(work) > 0
    # the same bound without its weight-sum term keeps control 0 too long
    monkeypatch.setattr(engine, "_slack", dp._rounding_slack(2, 0.0))
    stages, _ = _chain_work(engine, 80)
    assert not _same_tables(stages, full)
    assert int(stages[70].policy[1]) == 0


def test_weight_error_bounds_exact_weight_sums(rng):
    # the exact sum of each admissible pair's stored weights (as fractions)
    # lies within _weight_error of 1, on 2-D and 3-D interpolating grids
    for problem, xg, ug in (_small_pendulum(), _interpolating_pendulum(), _three_axis_problem()):
        engine = DpEngine(problem, xg, ug)
        pairs = np.flatnonzero(engine._base != engine.nx)
        for p in rng.choice(pairs, size=min(400, pairs.size), replace=False):
            exact = sum(Fraction(float(w)) for w in engine._w[:, p])
            assert abs(exact - 1) <= Fraction(engine._weight_error)
        assert engine._weight_error < 2.0**-40


@pytest.mark.parametrize("threads", [1, 2])
def test_certified_rows_keep_every_other_control_above_their_margin(threads):
    # at every stage of a 300-stage interpolating chain, each row evaluated
    # at its policy alone has a strict argmin at its policy among its full
    # values, by at least what its margin above the stage's bound certifies
    problem, xg, ug = _small_pendulum()
    engine = DpEngine(problem, xg, ug, threads=threads)
    stages, work = _chain_work(engine, 300)
    assert _same_tables(stages, _chain(engine, 300))
    checked = 0
    scratch = engine._pooled_scratch()
    for k, w in enumerate(work, start=1):
        if w is None or not w.certified.size:
            continue
        caug = np.zeros(engine.nx + 1 + int(xg._corner_offsets[-1]))
        caug[: engine.nx] = w.prev
        v = engine._values(caug, w.certified, scratch).copy()
        at = np.arange(w.certified.size)
        s = stages[k - 1].policy[w.certified]
        mine = v[at, s]
        v[at, s] = np.inf
        gap = v.min(axis=1) - mine
        certified = w.margin[w.certified] - w.bound
        assert (certified > 0).all(), k
        assert (gap >= certified * (1 - 1e-9)).all(), k
        checked += w.certified.size
    assert checked > 10 * xg.size, checked


@pytest.mark.parametrize("threads", [1, 2])
def test_elimination_block_seams_and_threads(threads):
    # a chain long enough for most rows to be certified gives the
    # full-step chain's bytes at every block seam, gathering full rows,
    # running dense blocks whole and evaluating certified rows alone; on
    # the 3-D proof bed as well
    for problem, xg, ug, steps in (
        _small_pendulum() + (120,),
        _three_axis_problem() + (30,),
    ):
        full = _chain(DpEngine(problem, xg, ug), steps)
        for block in _seam_blocks(xg.size, ug.size):
            with _blocks_of(block):
                engine = DpEngine(problem, xg, ug, threads=threads)
                stages, work = _chain_work(engine, steps)
            assert _same_tables(stages, full), block
            assert _certified_pairs(work) > 0, block


def test_elimination_with_more_threads_than_cores(monkeypatch):
    # four threads on at most two CPUs, switching every microsecond: stage
    # 1's row chunks are neither lost nor mixed, and the chain steps after
    # it keep the full-step chain's bytes
    problem, xg, ug = _small_pendulum()
    full = _chain(DpEngine(problem, xg, ug), 120)
    engine = DpEngine(problem, xg, ug)
    # past the CPUs the process may really run on, which cap the count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    engine.threads = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stages, work = _chain_work(engine, 120)
    finally:
        sys.setswitchinterval(interval)
    assert len(engine._row_chunks()) == 4
    assert _same_tables(stages, full)
    assert _certified_pairs(work) > 0


def test_assigned_threads_follow_the_constructors_rules(monkeypatch):
    # 0 picks every usable CPU, a larger count is capped, a negative one
    # raises and keeps the setting; a chain whose thread count changes
    # between stages keeps its one set of kernel buffers and the full-step
    # chain's bytes
    problem, xg, ug = _small_pendulum()
    full = _chain(DpEngine(problem, xg, ug), 80)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    engine = DpEngine(problem, xg, ug)
    chain = engine.chain()
    stages = list(itertools.islice(chain, 20))
    assert len(engine._scratch_pool) == 1
    pooled = engine._scratch_pool[0]
    engine.threads = 0
    assert engine.threads == 3
    stages += itertools.islice(chain, 20)
    assert len(engine._row_chunks()) == 3
    engine.threads = 10**6
    assert engine.threads == 3
    engine.threads = 2
    with pytest.raises(ValueError, match="threads must be >= 0"):
        engine.threads = -1
    assert engine.threads == 2
    stages += itertools.islice(chain, 40)
    assert len(engine._row_chunks()) == 2
    assert len(engine._scratch_pool) == 1 and engine._scratch_pool[0] is pooled
    assert _same_tables(stages, full)


def test_non_integer_thread_counts_raise_before_any_work(rng):
    # the constructor raises before any problem callable runs; the setter
    # raises and keeps the previous setting; a NumPy integer is a count
    toy = random_lattice_toy(rng)
    problem, calls = _recording_problem(toy.problem)
    for bad in (1.5, 2.0, "2"):
        with pytest.raises(TypeError):
            DpEngine(problem, toy.xgrid, toy.ugrid, threads=bad)
    assert calls == []
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid, threads=1)
    for bad in (1.5, 2.0, None):
        with pytest.raises(TypeError):
            engine.threads = bad
        assert engine.threads == 1
    engine.threads = np.int64(2)
    assert engine.threads == min(2, len(os.sched_getaffinity(0)))
    assert type(engine.threads) is int


def test_chain_steps_start_no_thread_pool(monkeypatch):
    # two threads, whatever the host's CPUs: past stage 1 no chain step
    # starts a pool, and every stage and its counters equal those of a
    # one-thread chain
    problem, xg, ug = _small_pendulum()
    one = DpEngine(problem, xg, ug, threads=1)
    stages_one, work_one = _chain_work(one, 60)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    engine = DpEngine(problem, xg, ug, threads=2)
    assert len(engine._row_chunks()) == 2
    chain = engine.chain()
    first = next(chain)

    def no_pool(*args, **kwargs):
        raise AssertionError("a chain step started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    stages, work = _chain_work(engine, 59, chain)
    stages.insert(0, first)
    assert _same_tables(stages, stages_one)
    work_one = work_one[1:]
    assert sum(w is not None for w in work) >= 40
    for a, b in zip(work, work_one):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.rows.tolist() == b.rows.tolist()
            assert a.certified.tolist() == b.certified.tolist()
            assert a.pairs == b.pairs
    assert _certified_pairs(work) > 0


def test_one_thread_engines_import_no_thread_pool():
    # in a fresh process: building a one-thread engine and taking full
    # backward steps leaves concurrent.futures unimported
    code = (
        "import sys\n"
        "import gridpolicy as gp\n"
        "axis = gp.AxisSpec(-1.0, 1.0, 0.25)\n"
        "xg, ug = gp.CartesianGrid([axis, axis]), gp.CartesianGrid([axis])\n"
        "engine = gp.DpEngine(gp.builtin_min_time_pendulum(), xg, ug, threads=1)\n"
        "engine.backward(engine.backward(None).cost)\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_chain_steps_after_the_first_reuse_the_kernel_buffers():
    # the coarse config's grid, two blocks of BLOCK_PAIRS: stage 1 allocates
    # the kernel's buffers, and no later stage allocates as much as one of
    # them, nor does the first chain step of a second chain stepped in turn
    # with it
    xg = CartesianGrid([AxisSpec(-2.0, 3.5, 0.1), AxisSpec(-1.5, 2.0, 0.1)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.04)])
    engine = DpEngine(gp.builtin_min_time_pendulum(), xg, ug, threads=1)
    buffer = dp._block_rows(ug.size, dp.BLOCK_PAIRS) * ug.size * 8
    assert engine.nx * engine.nu > buffer // 8
    chain, other = engine.chain(), engine.chain()
    next(chain), next(chain), next(other)  # stage 1 is a full backward step
    peaks, pairs = [], 0
    tracemalloc.start()
    try:
        for c in [chain] * 30 + [other, chain] * 10:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            next(c)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            pairs += c.pairs
    finally:
        tracemalloc.stop()
    assert pairs > 50 * engine.nu
    assert max(peaks) < buffer, max(peaks)
    assert len(engine._scratch_pool) == 1


def test_a_second_chain_takes_its_first_stage_buffers_from_the_pool():
    # one thread, the coarse config's grid: the full backward step of a
    # second chain's stage 1 takes the kernel buffers the first chain gave
    # back, so it allocates less than one of them, and the pool keeps one set
    xg = CartesianGrid([AxisSpec(-2.0, 3.5, 0.1), AxisSpec(-1.5, 2.0, 0.1)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.04)])
    engine = DpEngine(gp.builtin_min_time_pendulum(), xg, ug, threads=1)
    buffer = dp._block_rows(ug.size, dp.BLOCK_PAIRS) * ug.size * 8
    first = list(itertools.islice(engine.chain(), 5))
    assert len(engine._scratch_pool) == 1
    other = engine.chain()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = next(other)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < buffer, peak
    assert len(engine._scratch_pool) == 1
    assert _same_tables([table], first[:1])


def test_chain_stages_read_the_row_map_in_bounded_cuts():
    # the sweep config's grid, whose row map as intp is over six kernel
    # buffers: no chain stage past stage 2 allocates as much as one buffer,
    # neither stages 3 and 4, which read the row map for their dirty rows,
    # nor the later ones, which reuse the last dirty mask (no row is
    # certified this early on this grid)
    cfg = gp.load_config(
        os.path.join(os.path.dirname(__file__), "..", "configs", "pendulum_avg_angle_sweep.cfg")
    )
    engine = DpEngine(cfg.build_problem(), cfg.state_grid(), cfg.control_grid(), threads=1)
    buffer = dp._block_rows(engine.nu, dp.BLOCK_PAIRS) * engine.nu * 8
    assert engine._row_nodes.size * 8 > 6 * buffer
    chain = engine.chain()
    next(chain), next(chain)
    peaks = []
    with mock.patch.object(engine, "_dirty_rows", wraps=engine._dirty_rows) as reads:
        tracemalloc.start()
        try:
            for _ in range(8):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                next(chain)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    assert reads.call_count == 2
    assert max(peaks) < buffer, peaks


def test_dirty_row_memo_equals_the_row_map_read():
    # a stage whose changed nodes are those of the stage before reuses the
    # last dirty mask without reading the row map, and that mask is exactly
    # the row map's (and the brute-force stencils'); a stage that changes
    # other nodes after such a stage reads the row map again
    problem, xg, ug = _small_pendulum()
    engine = DpEngine(problem, xg, ug)
    full = _chain(engine, 280)
    stencils = _brute_stencils(engine)
    chain = engine.chain()
    stages, hits, misses_after_hits, last = [next(chain)], 0, 0, None
    with mock.patch.object(engine, "_dirty_rows", wraps=engine._dirty_rows) as reads:
        for _ in range(279):
            changed = np.append(chain._cost.view(np.uint64) != chain._source.view(np.uint64), False)
            hit = last is not None and np.array_equal(changed, last)
            calls = reads.call_count
            stages.append(next(chain))
            assert reads.call_count == calls + (not hit)
            read = np.empty(engine.nx, dtype=bool)
            dp.DpEngine._dirty_rows(engine, changed, read, engine._pooled_scratch())
            assert chain._dirty.tobytes() == read.tobytes()
            assert read.tolist() == [bool(changed[s].any()) for s in stencils]
            misses_after_hits += bool(hits) and not hit
            hits += hit
            last = changed
    assert _same_tables(stages, full)
    assert hits > 200 and misses_after_hits > 0, (hits, misses_after_hits)


def test_margins_spend_the_global_span_first_then_the_rows_own(monkeypatch):
    # on one chain, the span of D over all nodes keeps some live margins
    # above the stage's bound, and the rows whose margin it would spend fall
    # back to the span over their own stencil; every stage keeps the
    # full-step chain's bytes and skips rows
    problem, xg, ug = _small_pendulum()
    engine = DpEngine(problem, xg, ug)
    spend, spans = engine._spend_margins, engine._spans
    fallback, kept = [], []

    def own_spans(d, rows, scratch):
        fallback.extend(rows.tolist())
        return spans(d, rows, scratch)

    def spend_margins(chain, prev, changed, dirty, scale, scratch):
        before, calls = chain._margin.copy(), len(fallback)
        out = spend(chain, prev, changed, dirty, scale, scratch)
        bound = dp._up(dp._up(engine._slack[2] * scale) + engine._slack[3])
        live = dirty & (before > bound)
        live[fallback[calls:]] = False
        # live rows with a finite margin that no row span and no first/last
        # test lowered
        lowered = live & np.isfinite(before) & (chain._margin > bound)
        assert (chain._margin[lowered] < before[lowered]).all()
        kept.append(np.count_nonzero(lowered))
        return out

    monkeypatch.setattr(engine, "_spans", own_spans)
    monkeypatch.setattr(engine, "_spend_margins", spend_margins)
    assert _assert_chain_equals_full_chain(engine, 300) > 0
    assert sum(kept) > 0 and len(fallback) > 0, (sum(kept), len(fallback))


@pytest.fixture(scope="module")
def coarse_config_engine():
    cfg = gp.load_config(
        os.path.join(os.path.dirname(__file__), "..", "configs", "pendulum_min_time_coarse.cfg")
    )
    return cfg.build_problem(), cfg.state_grid(), cfg.control_grid()


@pytest.mark.parametrize("threads", [1, 2])
def test_long_coarse_chain_evaluates_few_pairs_once_its_policy_settles(
    coarse_config_engine, threads
):
    # the coarse pendulum config to its fixpoint (stage 294): bitwise the
    # full-step chain, and once the policy has stopped changing the chain
    # evaluates under 2% of the pairs of a full step per stage, and under
    # 0.5% over the rest of the chain (not a fallback to full steps)
    problem, xg, ug = coarse_config_engine
    engine = DpEngine(problem, xg, ug, threads=threads)
    full = _chain(engine, 300)
    stages, work = _chain_work(engine, 300)
    assert _same_tables(stages, full)
    fixpoint = next(k for k in range(1, 300) if full[k].cost.tobytes() == full[k - 1].cost.tobytes())
    settled = 1 + max(
        k for k in range(1, 300) if full[k].policy.tobytes() != full[k - 1].policy.tobytes()
    )
    assert settled < 60 and fixpoint > 250
    pairs = engine.nx * engine.nu
    tail = [w.pairs for w in work[settled + 10 : fixpoint] if w is not None]
    assert max(tail) < 0.02 * pairs
    assert sum(tail) < 0.005 * pairs * len(tail)


def _snap_problem():
    """4 x 4 unit states, controls 0..3; state row ``(k, .)`` admits only
    control ``k``, whose successor lies on grid line 1 or 3 of axis 0 with
    the neighbouring line 2 at zero weight (a zero-weight corner on every
    admissible pair)."""
    xg = CartesianGrid([AxisSpec(0.0, 3.0, 1.0)] * 2)
    ug = CartesianGrid([AxisSpec(0.0, 3.0, 1.0)])
    succ = np.array([[1.0, 1.5], [3.0, 0.25], [1.0, 1.0], [0.0, 1.0]])
    stage = np.array([1.0, 3.0, -0.0, -0.0])

    def control(u):
        return np.rint(u[..., 0]).astype(np.int64)

    problem = gp.ProblemDef(
        state_dim=2,
        control_dim=1,
        dynamics=lambda x, u: np.broadcast_to(succ[control(u)], x.shape).copy(),
        stage_cost=lambda x, u: stage[control(u)],
        inequality=lambda x, u: np.abs(x[..., :1] - u) - 0.5,
        average_fn=lambda x, u: np.zeros(x.shape[:-1]),
    )
    return problem, xg, ug


@pytest.mark.parametrize("threads", [1, 2])
def test_side_pairs_snapped_next_to_infinite_nodes_stay_finite(threads):
    # successors exactly on a grid line whose neighbour line is +inf, and
    # zero-weight corners holding negative costs: each such corner adds an
    # exact 0 * 0, so no NaN, no inf and no -0.0 reaches a value, and no
    # warning is raised
    problem, xg, ug = _snap_problem()
    prev = np.zeros((4, 4))
    prev[2] = np.inf
    prev[1, 1], prev[1, 2], prev[3, 0], prev[3, 1], prev[0, 1] = -0.0, -3.0, 4.0, 8.0, -0.0
    # rows 0: 1 + (0.5 * -0.0 + 0.5 * -3.0); 1: 3 + (0.75 * 4 + 0.25 * 8);
    # rows 2 and 3: -0.0 + 0 + 0 + 0, then + (-0.0), is +0.0
    want = np.repeat([-0.5, 8.0, 0.0, 0.0], 4)
    for block in _seam_blocks(xg.size, ug.size):
        with _blocks_of(block), warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = DpEngine(problem, xg, ug, threads=threads)
            table = engine.backward(prev.reshape(-1))
        assert _zero_weight_pairs(engine) == 16
        assert table.cost.tobytes() == want.tobytes(), (block, table.cost)
        np.testing.assert_array_equal(table.policy, np.repeat([0, 1, 2, 3], 4))


@contextlib.contextmanager
def _kernel_pair_values():
    """The sizes of the ``_pair_values`` calls made from ``_values`` while
    the block runs, on one thread."""
    calls, inside = [], []
    values, pair_values = DpEngine._values, DpEngine._pair_values

    def in_values(self, *args):
        inside.append(True)
        try:
            return values(self, *args)
        finally:
            inside.pop()

    def counted(self, caug, pairs):
        if inside:
            calls.append(pairs.size)
        return pair_values(self, caug, pairs)

    with mock.patch.object(DpEngine, "_values", in_values):
        with mock.patch.object(DpEngine, "_pair_values", counted):
            yield calls


def test_kernel_forms_again_only_its_nan_and_negative_zero_values(coarse_config_engine):
    # the snapped problem's zero-weight corners reading +inf make NaN kernel
    # values, which are formed again; on the coarse config no kernel value
    # of a full step or of a 40-stage chain is NaN or -0.0, so none is,
    # though many pairs have a zero-weight corner or a +0.0 value (the
    # chain's certified rows, evaluated by _pair_values alone, not counted)
    problem, xg, ug = _snap_problem()
    prev = np.zeros((4, 4))
    prev[2] = np.inf
    engine = DpEngine(problem, xg, ug)
    with _kernel_pair_values() as calls:
        engine.backward(prev.reshape(-1))
    assert 0 < sum(calls) <= _zero_weight_pairs(engine)

    engine = DpEngine(*coarse_config_engine, threads=1)
    assert _zero_weight_pairs(engine) > 0
    with _kernel_pair_values() as calls:
        stages, work = _chain_work(engine, 40)
        table = engine.backward(stages[-1].cost)
    assert calls == []
    assert _certified_pairs(work) > 0
    assert (table.cost == 0.0).any()


def test_stencil_is_the_cell_search_of_the_admissible_pairs(rng):
    # from the problem's own callables: an admissible pair's base and
    # weights are those of its successor's cell, and an inadmissible one's
    # base is the sentinel with all weights 0
    toy = random_lattice_toy(rng)
    cases = [
        (toy.problem, toy.xgrid, toy.ugrid),
        _interpolating_pendulum(),
        _three_axis_problem(),
        _snap_problem(),
    ]
    for problem, xg, ug in cases:
        engine = DpEngine(problem, xg, ug)
        x = np.repeat(xg.node_coords(), ug.size, axis=0)
        u = np.tile(ug.node_coords(), (xg.size, 1))
        ok = (np.asarray(problem.inequality(x, u)) <= 0.0).all(axis=-1)
        idx, w, inside = xg.locate_cells(np.asarray(problem.dynamics(x, u), dtype=float))
        ok &= inside
        np.testing.assert_array_equal(engine._base, np.where(ok, idx[:, 0], xg.size))
        np.testing.assert_array_equal(engine._w, np.where(ok[:, None], w, 0.0).T)


# -- forward propagation -----------------------------------------------------


@contextlib.contextmanager
def _policy_calls():
    """Inside the block, a list of the states of every :func:`apply_policy`
    call :mod:`dp` makes (one copy per call)."""
    calls = []
    step = dp.apply_policy

    def spy(problem, xgrid, ugrid, policy, x):
        calls.append(np.array(x, dtype=float))
        return step(problem, xgrid, ugrid, policy, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp, "apply_policy", spy)
        yield calls


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
    np.testing.assert_array_equal(np.flatnonzero(ens.feasible), [0, 1, 3])

    with _policy_calls() as calls:
        controls = engine.forward(ens, table)
    # one step, of the three feasible nodes
    assert [x.tolist() for x in calls] == [[[0.0], [1.0], [3.0]]]
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
    with _policy_calls() as calls:
        engine.forward(ens, t_hand)
        assert ens.feasible[0]
        np.testing.assert_array_equal(ens.states[0], [1.0])
        engine.forward(ens, t_hand)
    assert not ens.feasible[0]
    np.testing.assert_array_equal(ens.states[0], [1.0])
    # two steps, the second from the state the first reached
    assert [x.tolist() for x in calls] == [[[0.0]], [[1.0]]]


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
        reason, u, xn = apply_policy(prob, xg, ug, t.policy, starts[i])
        if reason == 0:
            assert ens.feasible[i]
            np.testing.assert_array_equal(controls[i], u)
            np.testing.assert_array_equal(ens.states[i], xn)
        else:
            assert not ens.feasible[i]


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS)
def test_forward_equals_single_state_steps(seed):
    # one ensemble step equals a separate (n,) apply_policy call per live
    # entry; entries already dead, or failing now, keep their state bytes
    rng = np.random.default_rng(seed)
    toy = random_lattice_toy(rng)
    xg, ug = toy.xgrid, toy.ugrid
    engine = DpEngine(toy.problem, xg, ug)
    policy = rng.integers(0, ug.size, size=xg.size)
    policy[rng.random(xg.size) < 0.2] = -1
    table = StageTable(cost=np.where(policy < 0, np.inf, 0.0), policy=policy)
    k = int(rng.integers(1, 40))
    lows, uppers = grid_bounds(xg)
    starts = rng.uniform(lows - 0.5, uppers + 0.5, size=(k, xg.ndim))
    on_node = rng.random(k) < 0.5
    starts[on_node] = xg.node_coords()[rng.integers(0, xg.size, on_node.sum())]
    alive = rng.random(k) >= 0.25

    ens = ForwardEnsemble(states=starts.copy(), feasible=alive.copy())
    with _policy_calls() as calls:
        controls = engine.forward(ens, table)
    # one step, of exactly the live entries
    assert len(calls) == int(alive.any()) and controls.shape == (k, ug.ndim)
    if calls:
        assert calls[0].tobytes() == starts[alive].tobytes()
    for i in range(k):
        ok = False
        if alive[i]:
            reason, u, xn = apply_policy(toy.problem, xg, ug, table.policy, starts[i])
            ok = reason == 0
        assert ens.feasible[i] == ok
        if ok:
            assert controls[i].tobytes() == u.tobytes()
            assert ens.states[i].tobytes() == xn.tobytes()
        else:
            assert np.isnan(controls[i]).all()
            assert ens.states[i].tobytes() == starts[i].tobytes()


@pytest.fixture(scope="module")
def coarse_min_time():
    """The coarse min-time pendulum and its 30-stage table.

    Off-node states weight up to four corners, so unlike on the lattice
    toys the order in which a step sums the corners shows in the last bit.
    """
    xg = CartesianGrid([AxisSpec(-2.0, 3.5, 0.1), AxisSpec(-1.5, 2.0, 0.1)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.04)])
    problem = gp.builtin_min_time_pendulum()
    engine = DpEngine(problem, xg, ug)
    table = next(itertools.islice(engine.chain(), 29, None))
    return problem, xg, ug, table


@pytest.mark.parametrize("k", [1, 7, 96])
def test_batches_equal_single_states_when_interpolating(coarse_min_time, k):
    # k off-node states that all step: one apply_policy call on the batch,
    # and forward chains of it, equal per-state calls bit for bit
    problem, xg, ug, table = coarse_min_time
    rng = np.random.default_rng(k)
    feasible = np.flatnonzero(table.feasible_mask)
    starts = []
    while len(starts) < k:
        x = xg.node_coords()[rng.choice(feasible)] + rng.uniform(0.05, 0.95, 2) * xg.spacings
        if apply_policy(problem, xg, ug, table.policy, x)[0] == 0:
            starts.append(x)
    starts = np.array(starts)

    reason, u, xn = apply_policy(problem, xg, ug, table.policy, starts)
    assert not reason.any()
    for i in range(k):
        _, ui, xi = apply_policy(problem, xg, ug, table.policy, starts[i])
        assert ui.tobytes() == u[i].tobytes(), i
        assert xi.tobytes() == xn[i].tobytes(), i

    engine = DpEngine(problem, xg, ug)
    ens = ForwardEnsemble(states=starts.copy(), feasible=np.ones(k, bool))
    x, ok = starts.copy(), np.ones(k, bool)
    for step in range(4):
        with _policy_calls() as calls:
            controls = engine.forward(ens, table)
        if step == 0:  # every entry stepped, in one batch
            assert len(calls) == 1 and calls[0].tobytes() == starts.tobytes()
        for i in np.flatnonzero(ok):
            r, ui, xi = apply_policy(problem, xg, ug, table.policy, x[i])
            ok[i] = r == 0
            if ok[i]:
                assert controls[i].tobytes() == ui.tobytes(), (step, i)
                x[i] = xi
        assert ens.states.tobytes() == x.tobytes(), step
        np.testing.assert_array_equal(ens.feasible, ok)


def test_apply_policy_temporaries_stay_within_a_few_arrays_per_entry(coarse_min_time):
    # numpy reports its buffers to tracemalloc: beyond its results a batch
    # step holds at most 140 B per entry, since the corner stencil (73 B per
    # entry) is freed before the problem's callables run; held through
    # them, it took the step to about 175 B
    problem, xg, ug, table = coarse_min_time
    k = 20_000
    x = np.random.default_rng(0).uniform([-2.0, -1.5], [3.5, 2.0], (k, 2))
    tracemalloc.start()
    try:
        reason, u, xn = apply_policy(problem, xg, ug, table.policy, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < np.count_nonzero(reason) < k  # failing entries are gathered too
    held = peak - reason.nbytes - u.nbytes - xn.nbytes
    assert held <= 140 * k, held / k


def _parking_toy(rng, parks, make=random_lattice_toy):
    """A random lattice toy (``make(rng)``) whose node 0 parks under its
    table, or where no entry can ever park.

    Without ``parks`` no pair steps to its own node, and every successor is
    a node, so no state maps onto itself.  With ``parks`` about a third of
    the pairs stay put, node 0's policy among them.

    Returns:
        ``(toy, table)``: the toy and a random policy table over it.
    """
    toy = make(rng)
    nx, nu = toy.next_index.shape
    rows = np.broadcast_to(np.arange(nx)[:, None], (nx, nu))
    nxt = toy.next_index.copy()
    nxt[nxt == rows] = (rows[nxt == rows] + 1) % nx
    admissible = toy.admissible.copy()
    policy = _random_policy(rng, nx, nu)
    if parks:
        stay = rng.random((nx, nu)) < 0.3
        nxt[stay] = rows[stay]
        policy[0] = rng.integers(0, nu)
        nxt[0, policy[0]], admissible[0, policy[0]] = 0, True
    toy = lattice_problem(toy.xgrid.shape, toy.ugrid.shape, nxt, toy.relaxed, admissible)
    return toy, _policy_table(policy)


def _random_policy(rng, nx, nu):
    policy = rng.integers(0, nu, size=nx)
    policy[rng.random(nx) < 0.2] = -1
    return policy


def _policy_table(policy, writeable=False):
    """A table over ``policy``, read-only as :meth:`DpEngine.chain` yields it
    unless ``writeable``."""
    table = StageTable(cost=np.where(policy < 0, np.inf, 0.0), policy=policy.copy())
    table.policy.flags.writeable = writeable
    return table


def _forward_chain(toy, tables, starts, alive):
    """Run ``forward`` under ``tables[j]`` at step ``j`` and check every step
    against a chain of per-entry ``apply_policy`` calls, bit for bit: states,
    controls, feasibility, parks and the states ``forward`` passes to
    :func:`apply_policy` (every live entry not parked, none parked).

    Returns:
        ``(kinds, ever_parked)``: per call, how many entries were dead,
        parked, failing and stepping; whether any entry was parked after a
        call.
    """
    xg, ug = toy.xgrid, toy.ugrid
    engine = DpEngine(toy.problem, xg, ug)
    ens = ForwardEnsemble(states=starts.copy(), feasible=alive.copy())
    x, ok = starts.copy(), alive.copy()
    still = np.zeros(len(ok), dtype=bool)  # stepped onto its own bits since a switch
    kinds, ever_parked = [], False
    for step, table in enumerate(tables):
        if step and table is not tables[step - 1]:
            still[:] = False
        stepping, before, was_ok = ok & ~still, x.copy(), ok.copy()
        with _policy_calls() as calls:
            controls = engine.forward(ens, table)
        for i in np.flatnonzero(ok):
            reason, u, xn = apply_policy(toy.problem, xg, ug, table.policy, x[i])
            if reason != 0:
                ok[i] = False
                assert np.isnan(controls[i]).all()
                continue
            assert controls[i].tobytes() == u.tobytes(), (step, i)
            still[i] |= xn.tobytes() == x[i].tobytes()
            x[i] = xn
        assert np.isnan(controls[~ok]).all()
        assert ens.states.tobytes() == x.tobytes(), step
        np.testing.assert_array_equal(ens.feasible, ok)
        np.testing.assert_array_equal(ens.parked, still)
        assert len(calls) == int(stepping.any())
        if calls:
            assert calls[0].tobytes() == before[stepping].tobytes(), step
        assert ens.parked_under is table
        kinds.append(
            tuple(
                int(n.sum())
                for n in (~was_ok, was_ok & ~stepping, stepping & ~ok, stepping & ok)
            )
        )
        ever_parked |= bool(ens.parked.any())
    return kinds, ever_parked


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, parks=st.booleans(), switch=st.booleans())
def test_parked_forward_equals_unparked_chain(seed, parks, switch):
    # a forward chain that parks entries gives bitwise the states, controls
    # and feasibility of a chain of per-entry apply_policy calls; a table
    # switch mid-run clears every park
    rng = np.random.default_rng(seed)
    toy, t1 = _parking_toy(rng, parks)
    xg, ug = toy.xgrid, toy.ugrid
    t2 = _policy_table(_random_policy(rng, xg.size, ug.size)) if switch else t1
    steps = 25
    change = int(rng.integers(2, steps)) if switch else steps
    k = int(rng.integers(1, 30))
    lows, uppers = grid_bounds(xg)
    starts = rng.uniform(lows - 0.5, uppers + 0.5, size=(k, xg.ndim))
    on_node = rng.random(k) < 0.6
    starts[on_node] = xg.node_coords()[rng.integers(0, xg.size, on_node.sum())]
    alive = rng.random(k) >= 0.2
    starts[0], alive[0] = xg.node_coords()[0], True  # parks at step 1 if ``parks``

    tables = [t1] * change + [t2] * (steps - change)
    assert _forward_chain(toy, tables, starts, alive)[1] == parks


def test_forward_calls_with_every_kind_of_entry_equal_the_chain():
    # one forward call holds dead, parked, failing and stepping entries at
    # once; another steps every entry, the whole-array path; both end as
    # the per-entry apply_policy chain does
    mixed = whole = False
    for seed in range(100):
        rng = np.random.default_rng(seed)
        toy, table = _parking_toy(rng, parks=True)
        xg, ug = toy.xgrid, toy.ugrid
        nodes = xg.node_coords()
        starts = nodes[rng.integers(0, xg.size, 16)]
        starts[0] = nodes[0]  # parks at step 1
        alive = rng.random(16) >= 0.2
        alive[0] = True
        kinds, _ = _forward_chain(toy, [table] * 6, starts, alive)
        mixed |= any(min(kind) > 0 for kind in kinds)

        steps_ok = [
            i
            for i in range(xg.size)
            if apply_policy(toy.problem, xg, ug, table.policy, nodes[i])[0] == 0
        ]
        if len(steps_ok) > 1:
            starts = nodes[steps_ok]
            kinds, _ = _forward_chain(toy, [table] * 3, starts, np.ones(len(starts), bool))
            whole |= kinds[0] == (0, 0, 0, len(starts))
        if mixed and whole:
            break
    assert mixed and whole


def test_forward_never_parks_under_a_writeable_policy(seed=7):
    # a writeable table may change in place between calls: forward parks no
    # entry under it and follows each in-place change as an unparked chain
    # does; the same policy made read-only parks node 0
    rng = np.random.default_rng(seed)
    while True:
        toy, fixed = _parking_toy(rng, parks=True)
        if (fixed.policy > 0).any():  # the change below is a change
            break
    xg, ug = toy.xgrid, toy.ugrid
    table = _policy_table(fixed.policy, writeable=True)
    engine = DpEngine(toy.problem, xg, ug)
    starts = xg.node_coords().copy()
    ens = ForwardEnsemble(states=starts.copy(), feasible=fixed.feasible_mask.copy())
    x, ok = starts.copy(), fixed.feasible_mask.copy()
    for step in range(12):
        if step == 3:
            table.policy[:] = np.where(table.policy < 0, -1, 0)  # in place
        controls = engine.forward(ens, table)
        for i in np.flatnonzero(ok):
            reason, u, xn = apply_policy(toy.problem, xg, ug, table.policy, x[i])
            ok[i] = reason == 0
            if ok[i]:
                assert controls[i].tobytes() == u.tobytes(), (step, i)
                x[i] = xn
        assert ens.states.tobytes() == x.tobytes(), step
        np.testing.assert_array_equal(ens.feasible, ok)
        assert not ens.parked.any() and ens.parked_under is None

    ens = ForwardEnsemble(states=starts[:1].copy(), feasible=np.ones(1, bool))
    engine.forward(ens, fixed)
    assert ens.parked.tolist() == [True] and ens.parked_under is fixed


def test_forward_state_is_not_a_constructor_argument():
    ens = ForwardEnsemble(np.zeros((2, 1)), np.ones(2, bool))
    assert [f.name for f in dataclasses.fields(ens)] == [
        "states",
        "feasible",
        "parked",
        "held",
        "parked_under",
    ]
    assert [f.name for f in dataclasses.fields(ens) if f.init] == ["states", "feasible"]
    assert not ens.parked.any() and ens.held is None and ens.parked_under is None
    with pytest.raises(TypeError):
        ForwardEnsemble(np.zeros((2, 1)), np.ones(2, bool), parked=np.ones(2, bool))


def test_forward_parks_on_bits_not_values(monkeypatch):
    # x -> -x: the entry at 0.0 steps to -0.0 and back, equal by value but
    # never by bits, so it never parks and alternates as an unparked chain
    # does; a park test by value freezes it at -0.0
    problem = gp.ProblemDef(
        state_dim=1,
        control_dim=1,
        dynamics=lambda x, u: -x,
        stage_cost=lambda x, u: np.zeros(x.shape[:-1]),
        inequality=lambda x, u: np.full(x.shape[:-1] + (1,), -1.0),
        average_fn=lambda x, u: np.zeros(x.shape[:-1]),
    )
    xg = CartesianGrid([AxisSpec(-1.0, 1.0, 1.0)])
    ug = CartesianGrid([AxisSpec(0.0, 1.0, 1.0)])
    engine = DpEngine(problem, xg, ug)
    table = _policy_table(np.zeros(3, dtype=np.int64))

    def chain():
        ens = ForwardEnsemble(states=np.array([[0.0], [1.0]]), feasible=np.ones(2, bool))
        states = []
        for _ in range(6):
            engine.forward(ens, table)
            states.append(ens.states.copy())
        return ens, np.array(states)

    x, unparked = np.array([[0.0], [1.0]]), []
    for _ in range(6):
        x = np.array([apply_policy(problem, xg, ug, table.policy, xi)[2] for xi in x])
        unparked.append(x)
    unparked = np.array(unparked)
    assert np.signbit(unparked[:, 0, 0]).tolist() == [True, False] * 3

    ens, states = chain()
    assert states.tobytes() == unparked.tobytes()
    assert not ens.parked.any() and ens.feasible.all()

    monkeypatch.setattr(dp, "_same_rows", lambda a, b: (a == b).all(axis=1))
    ens, states = chain()
    assert ens.parked.tolist() == [True, False]
    assert np.signbit(states[:, 0, 0]).all()
    assert states.tobytes() != unparked.tobytes()


def test_apply_policy_statuses():
    toy = _absorbing_toy()
    table = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(None)

    def step(problem, xgrid, ugrid, table, x):
        reason, u, xn = apply_policy(problem, xgrid, ugrid, table.policy, x)
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


def test_apply_policy_rejects_a_policy_of_another_shape_or_dtype():
    toy = _absorbing_toy()
    policy = DpEngine(toy.problem, toy.xgrid, toy.ugrid).backward(None).policy
    args = toy.problem, toy.xgrid, toy.ugrid
    assert apply_policy(*args, policy, [0.0])[0] == 0
    for bad in (
        np.append(policy, 0),  # one entry too many would be read silently
        policy[:-1],
        policy.reshape(1, -1),
        policy.astype(float),
        policy.astype(bool),
    ):
        with pytest.raises(ValueError, match="policy must be an integer array"):
            apply_policy(*args, bad, [0.0])
    with pytest.raises(ValueError, match="policy must be"):
        apply_policy(*args, StageTable(np.zeros(4), np.zeros(4, dtype=int)), [0.0])


def test_apply_policy_rejects_states_of_another_last_axis(coarse_config_engine):
    # a clear error instead of a late reshape error in the cell search
    problem, xg, ug = coarse_config_engine
    policy = np.zeros(xg.size, dtype=np.int64)
    for shape in ((2, 3), (4,), (5, 1)):
        with pytest.raises(ValueError, match=re.escape(f"(..., 2), got shape {shape}")):
            apply_policy(problem, xg, ug, policy, np.zeros(shape))


@pytest.mark.parametrize("hand_back", ["x", "u"])
def test_apply_policy_successors_never_alias_the_states(hand_back):
    # dynamics that hand back an input: when every state steps, the
    # successors must still be a new array, not a view of the caller's x
    # or of the returned controls
    problem = gp.ProblemDef(
        state_dim=1,
        control_dim=1,
        dynamics=(lambda x, u: x) if hand_back == "x" else (lambda x, u: u),
        stage_cost=lambda x, u: np.zeros(np.shape(x)[:-1]),
        inequality=lambda x, u: np.full(np.shape(x)[:-1] + (1,), -1.0),
        average_fn=lambda x, u: np.zeros(np.shape(x)[:-1]),
    )
    xg = CartesianGrid([AxisSpec(0.0, 2.0, 1.0)])
    ug = CartesianGrid([AxisSpec(0.0, 1.0, 1.0)])
    table = _policy_table(np.zeros(3, dtype=np.int64))
    for x in (np.array([[0.5], [2.0]]), np.array([1.0])):
        reason, u, xn = apply_policy(problem, xg, ug, table.policy, x)
        want = x if hand_back == "x" else u
        assert not reason.any() and xn.tobytes() == want.tobytes()
        assert not np.shares_memory(xn, x) and not np.shares_memory(xn, u)


def _tight_bounds_case(rng):
    """The min-time pendulum with torque and angle bounds tighter than the
    grids, and a random policy with some -1 nodes: every failure kind of
    :func:`apply_policy` occurs.

    Returns:
        ``(problem, xgrid, ugrid, table)``.
    """
    xg = CartesianGrid([AxisSpec(-2.0, 3.5, 0.25), AxisSpec(-1.5, 2.0, 0.25)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.1)])
    prob = gp.builtin_min_time_pendulum(
        theta_bounds=(-1.5, 3.0), omega_bounds=(-1.5, 2.0), torque_limit=0.8
    )
    policy = rng.integers(0, ug.size, size=xg.size)
    policy[rng.random(xg.size) < 0.1] = -1
    table = StageTable(cost=np.where(policy < 0, np.inf, 0.0), policy=policy)
    return prob, xg, ug, table


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS)
def test_apply_policy_reasons_match_the_reduction_formulas(seed):
    # reason codes 1, 2 and 3 as the .any(axis=-1) / .all(axis=-1)
    # reductions over corners, constraint components and state axes give
    # them
    rng = np.random.default_rng(seed)
    prob, xg, ug, table = _tight_bounds_case(rng)
    x = rng.uniform([-2.2, -1.7], [3.7, 2.2], size=(int(rng.integers(1, 200)), 2))

    reason, u, _ = apply_policy(prob, xg, ug, table.policy, x)
    idx, w, inside = xg.locate_cells(x)
    undefined = ~inside | ((table.policy[idx] == -1) & (w > 0.0)).any(axis=-1)
    u_ok = np.where(undefined[:, None], 0.0, u)
    violated = (prob.inequality(x, u_ok) > 0.0).any(axis=-1)
    lows, uppers = grid_bounds(xg)
    slack = xg.spacings * 1e-9
    xn = prob.dynamics(x, u_ok)
    left = ~((xn >= lows - slack) & (xn <= uppers + slack)).all(axis=-1)
    want = np.select([undefined, violated, left], [1, 2, 3], 0)
    np.testing.assert_array_equal(reason, want)


def test_apply_policy_batch_equals_single_states(rng):
    # a (k, n) batch gives bitwise the same reasons, controls and successors
    # as k separate (n,) calls (bytes, so -0.0 differs from 0.0), with every
    # failure kind and every branch of the cell search: interior, on-node,
    # snapped to a node (+-1e-12 h), just off one, on-face, outside, NaN and
    # infinite states
    prob, xg, ug, table = _tight_bounds_case(rng)
    (lo, hi), h = grid_bounds(xg), xg.spacings
    nodes = xg.node_coords()[rng.integers(0, xg.size, 80)]
    jitter = rng.choice([0.0, 1e-12, -1e-12, 1e-7, -1e-7], size=nodes.shape)
    faces = rng.uniform(lo, hi, size=(40, 2))
    axis = rng.integers(0, 2, 40)
    faces[np.arange(40), axis] = np.where(rng.random(40) < 0.5, lo[axis], hi[axis])
    special = rng.uniform(lo, hi, size=(12, 2))
    special[np.arange(12), rng.integers(0, 2, 12)] = rng.choice(
        [np.nan, np.inf, -np.inf, 1e300], 12
    )
    x = np.vstack(
        [
            rng.uniform([-2.2, -1.7], [3.7, 2.2], size=(400, 2)),
            nodes + jitter * h,
            faces,
            special,
        ]
    )
    k = x.shape[0]

    reason, u, xn = apply_policy(prob, xg, ug, table.policy, x)
    assert reason.dtype == np.int8 and reason.shape == (k,)
    assert u.shape == (k, 1) and xn.shape == (k, 2)
    assert set(np.unique(reason)) == {0, 1, 2, 3}
    assert set(np.unique(reason[400:480])) >= {0, 1}  # the node states step too
    for i in range(k):
        r, ui, xi = apply_policy(prob, xg, ug, table.policy, x[i])
        assert r.shape == () and r == reason[i]
        assert ui.tobytes() == u[i].tobytes() and xi.tobytes() == xn[i].tobytes()

    # any batch shape: a (4, 100, n) stack gives the same bytes
    r3, u3, x3 = apply_policy(prob, xg, ug, table.policy, x[:400].reshape(4, 100, 2))
    assert r3.shape == (4, 100) and u3.shape == (4, 100, 1) and x3.shape == (4, 100, 2)
    for got, want in ((r3, reason), (u3, u), (x3, xn)):
        assert got.tobytes() == want[:400].tobytes()


def test_apply_policy_is_silent_on_nan_infinite_and_far_states(rng):
    # such states leave the policy's grid: reason 1, NaN control and
    # successor, and no RuntimeWarning from the cell search, batched or not
    prob, xg, ug, table = _tight_bounds_case(rng)
    bad = [np.nan, np.inf, -np.inf, 1e300, -1e300, 1.7e308]
    x = np.array([[b, 0.5] for b in bad] + [[0.5, b] for b in bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for states in (x, *x):
            reason, u, xn = apply_policy(prob, xg, ug, table.policy, states)
            assert (reason == 1).all() and np.isnan(u).all() and np.isnan(xn).all()
