import dataclasses
import math
import os
import tracemalloc
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


def _chain(engine, steps):
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
    return engine._idx.tobytes(), engine._w.tobytes(), engine._sc.tobytes()


def test_build_block_seams_are_immaterial(rng, monkeypatch):
    # engines built in one-row blocks, blocks around the row length, a
    # ragged prime and threads 1 and 2 hold the same bytes as a single-block
    # build and step the same
    toy = random_lattice_toy(rng)
    cases = [(toy.problem, toy.xgrid, toy.ugrid), _interpolating_pendulum()]
    for problem, xg, ug in cases:
        monkeypatch.setattr(dp, "BLOCK_PAIRS", 10**9)
        single = DpEngine(problem, xg, ug, threads=1)
        want, want_chain = _engine_arrays(single), _chain(single, 4)
        for threads in (1, 2):
            for block in _seam_blocks(xg.size, ug.size):
                monkeypatch.setattr(dp, "BLOCK_PAIRS", block)
                engine = DpEngine(problem, xg, ug, threads=threads)
                assert _engine_arrays(engine) == want, (threads, block)
                monkeypatch.setattr(dp, "BLOCK_PAIRS", 10**9)
                for a, b in zip(_chain(engine, 4), want_chain):
                    assert a.cost.tobytes() == b.cost.tobytes(), (threads, block)
                    assert a.policy.tobytes() == b.policy.tobytes(), (threads, block)


def test_build_temporaries_stay_within_one_block(monkeypatch):
    # numpy reports its buffers to tracemalloc: beyond the engine's own
    # arrays the build holds at most 512 B per pair of one block
    monkeypatch.setattr(dp, "BLOCK_PAIRS", 4096)
    xg = CartesianGrid([AxisSpec(-2.0, 3.5, 0.1), AxisSpec(-1.5, 2.0, 0.1)])
    ug = CartesianGrid([AxisSpec(-1.0, 1.0, 0.04)])
    assert (xg.shape, ug.size) == ((56, 36), 51)
    tracemalloc.start()
    try:
        engine = DpEngine(gp.builtin_min_time_pendulum(), xg, ug, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = engine._idx.nbytes + engine._w.nbytes + engine._sc.nbytes
    block_pairs = (4096 // ug.size) * ug.size
    assert peak - arrays <= 512 * block_pairs, (peak - arrays) / block_pairs


def test_memory_estimate_fails_before_any_callable(rng, monkeypatch):
    toy = random_lattice_toy(rng)
    calls = []

    def recording(name, fn):
        def wrapped(x, u):
            calls.append(name)
            return fn(x, u)

        return wrapped

    fields = ("dynamics", "stage_cost", "inequality", "average_fn")
    problem = dataclasses.replace(
        toy.problem, **{f: recording(f, getattr(toy.problem, f)) for f in fields}
    )
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
    assert need >= engine._idx.nbytes + engine._w.nbytes + engine._sc.nbytes
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
    """A lattice toy whose cost field reaches a bitwise fixpoint, or never.

    A settling toy only steps to a lower node or stays put at zero cost, so
    from stage ``nx`` on a stage's cheapest paths are the last stage's with
    one more zero-cost stay.  The other kind pays at least 0.5 per step and
    can always stay at node 0, so node 0's cost grows without end.
    """
    nx, nu = int(rng.integers(2, 13)), int(rng.integers(2, 5))
    rows = np.arange(nx)[:, None]
    if settles:
        nxt = (rng.random((nx, nu)) * (rows + 1)).astype(np.int64)
        cost = np.where(nxt == rows, 0.0, rng.uniform(-1.0, 2.0, (nx, nu)))
    else:
        nxt = rng.integers(0, nx, (nx, nu))
        cost = rng.uniform(0.5, 2.0, (nx, nu))
    nxt[rng.random((nx, nu)) < 0.15] = -1
    admissible = rng.random((nx, nu)) >= 0.12
    if not settles:
        nxt[0, 0], admissible[0, 0] = 0, True
    return lattice_problem((nx,), (nu,), nxt, cost, admissible)


def _same_tables(a, b):
    return len(a) == len(b) and all(
        s.cost.tobytes() == t.cost.tobytes() and s.policy.tobytes() == t.policy.tobytes()
        for s, t in zip(a, b)
    )


def _extend_counting(engine, steps):
    """``steps`` calls of ``engine.extend`` and the kernel calls they made."""
    calls = []
    backward = DpEngine.backward

    def counting(self, prev_cost):
        calls.append(prev_cost)
        return backward(self, prev_cost)

    stages = []
    with mock.patch.object(DpEngine, "backward", counting):
        for _ in range(steps):
            engine.extend(stages)
    return stages, len(calls)


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS, settles=st.booleans())
def test_extend_equals_step_chain_and_stops_at_the_fixpoint(seed, settles):
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

    stages, calls = _extend_counting(engine, steps)
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


def test_extend_fixpoint_is_bitwise_not_numeric(monkeypatch):
    engine = _signed_zero_toy()
    plain = _chain(engine, 12)
    # stage k is plain[k - 1]; stages 1..12 are equal by value
    assert all(np.array_equal(a.cost, b.cost) for a, b in zip(plain, plain[1:]))
    assert np.signbit(plain[4].cost).sum() == 6 and np.signbit(plain[5].cost).all()

    stages, calls = _extend_counting(engine, 12)
    assert _same_tables(stages, plain)
    assert calls == 7  # stage 7 repeats stage 6 bit for bit

    # a fixpoint test by value takes stage 2 for the fixpoint
    monkeypatch.setattr(dp, "_same_bits", np.array_equal)
    stages, calls = _extend_counting(engine, 12)
    assert calls == 2
    assert not _same_tables(stages, plain)


def test_extended_tables_are_read_only():
    toy = _absorbing_toy()
    engine = DpEngine(toy.problem, toy.xgrid, toy.ugrid)
    stages = []
    for _ in range(4):
        engine.extend(stages)
    assert stages[-1] is stages[-2]  # past the fixpoint
    tables = stages + gp.finite_horizon_policies(
        toy.problem, toy.xgrid, toy.ugrid, 3, engine=engine
    )
    for table in tables:
        with pytest.raises(ValueError):
            table.cost[0] = 1.0
        with pytest.raises(ValueError):
            table.policy[0] = 1


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
    starts = rng.uniform(xg.lows - 0.5, xg.uppers + 0.5, size=(k, xg.ndim))
    on_node = rng.random(k) < 0.5
    starts[on_node] = xg.node_coords()[rng.integers(0, xg.size, on_node.sum())]
    alive = rng.random(k) >= 0.25

    ens = ForwardEnsemble(states=starts.copy(), feasible=alive.copy())
    controls = engine.forward(ens, table)
    assert ens.step == 1 and controls.shape == (k, ug.ndim)
    for i in range(k):
        ok = False
        if alive[i]:
            reason, u, xn = apply_policy(toy.problem, xg, ug, table, starts[i])
            ok = reason == 0
        assert ens.feasible[i] == ok
        if ok:
            assert controls[i].tobytes() == u.tobytes()
            assert ens.states[i].tobytes() == xn.tobytes()
        else:
            assert np.isnan(controls[i]).all()
            assert ens.states[i].tobytes() == starts[i].tobytes()


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
