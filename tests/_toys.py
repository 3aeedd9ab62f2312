"""Lattice toy problems for exact DP testing.

The dynamics of these toys map grid nodes either onto other grid nodes or
strictly out of the box, so multilinear interpolation of the cost-to-go is
exact (weight 1 on a single node) and backward recursion results can be
compared *bitwise* against brute-force enumeration over control sequences.
Costs, constraints, and successors are lookup tables indexed by the flat
(state, control) pair; grids are unit-spaced starting at 0 so node
coordinates are exact small integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from gridpolicy import AxisSpec, CartesianGrid, ProblemDef


@dataclass
class LatticeToy:
    problem: ProblemDef
    xgrid: CartesianGrid
    ugrid: CartesianGrid
    next_index: np.ndarray  # (nx, nu) int64; -1 = successor leaves the box
    relaxed: np.ndarray  # (nx, nu) float relaxed stage cost
    admissible: np.ndarray  # (nx, nu) bool


def grid_bounds(grid: CartesianGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis first and last node coordinates, each of shape ``(ndim,)``."""
    lows = np.array([ax.lo for ax in grid.axes])
    uppers = np.array([ax.upper for ax in grid.axes])
    return lows, uppers


def _flat_index(grid: CartesianGrid, coords: np.ndarray) -> np.ndarray:
    """Flat node index of exact lattice coordinates, batched."""
    coords = np.asarray(coords, dtype=float)
    idx = np.zeros(coords.shape[:-1], dtype=np.int64)
    for a, ax in enumerate(grid.axes):
        ia = np.rint((coords[..., a] - ax.lo) / ax.spacing)
        idx = idx * grid.shape[a] + ia.astype(np.int64)
    return idx


def lattice_problem(
    xshape: tuple[int, ...],
    ushape: tuple[int, ...],
    next_index: np.ndarray,
    cost: np.ndarray,
    admissible: np.ndarray,
    avg: np.ndarray | None = None,
    lam: float | None = None,
) -> LatticeToy:
    """Build a table-driven problem on unit grids.

    ``next_index``, ``cost``, ``admissible`` (and optional ``avg``) are
    ``(nx, nu)`` tables over flat row-major node pairs.
    """
    xgrid = CartesianGrid([AxisSpec(0.0, n - 1.0, 1.0) for n in xshape])
    ugrid = CartesianGrid([AxisSpec(0.0, n - 1.0, 1.0) for n in ushape])
    nx, nu = xgrid.size, ugrid.size
    next_index = np.asarray(next_index, dtype=np.int64).reshape(nx, nu)
    cost = np.asarray(cost, dtype=float).reshape(nx, nu)
    admissible = np.asarray(admissible, dtype=bool).reshape(nx, nu)
    avg = (
        np.zeros((nx, nu))
        if avg is None
        else np.asarray(avg, dtype=float).reshape(nx, nu)
    )

    xcoords = xgrid.node_coords()
    out_coords = grid_bounds(xgrid)[1] + 1.0  # strictly outside on every axis

    def _pair(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _flat_index(xgrid, x) * nu + _flat_index(ugrid, u)

    def dynamics(x, u):
        p = _pair(x, u)
        ni = next_index.reshape(-1)[p]
        dest = xcoords[np.where(ni < 0, 0, ni)]
        return np.where((ni < 0)[..., None], out_coords, dest)

    def stage_cost(x, u):
        return cost.reshape(-1)[_pair(x, u)]

    def inequality(x, u):
        ok = admissible.reshape(-1)[_pair(x, u)]
        return np.where(ok, -0.5, 0.5)[..., None]

    def average_fn(x, u):
        return avg.reshape(-1)[_pair(x, u)]

    problem = ProblemDef(
        state_dim=xgrid.ndim,
        control_dim=ugrid.ndim,
        dynamics=dynamics,
        stage_cost=stage_cost,
        inequality=inequality,
        average_fn=average_fn,
        lam=lam,
    )
    relaxed = cost if lam is None else cost + lam * avg
    return LatticeToy(
        problem=problem,
        xgrid=xgrid,
        ugrid=ugrid,
        next_index=next_index,
        relaxed=relaxed,
        admissible=admissible,
    )


def random_lattice_toy(rng: np.random.Generator) -> LatticeToy:
    """Random toy with at most 100 node pairs, occasional relaxation."""
    if rng.random() < 0.5:
        xshape = (int(rng.integers(3, 13)),)
    else:
        xshape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    nx = int(np.prod(xshape))
    if rng.random() < 0.2:
        ushape = (2, 2)
    else:
        ushape = (int(rng.integers(2, 7)),)
    nu = int(np.prod(ushape))
    while nx * nu > 100:
        xshape = xshape[:1]
        nx = xshape[0]

    next_index = rng.integers(0, nx, size=(nx, nu))
    next_index[rng.random((nx, nu)) < 0.15] = -1
    cost = rng.uniform(-1.0, 2.0, size=(nx, nu))
    admissible = rng.random((nx, nu)) >= 0.12
    lam = rng.choice([None, 0.0, 0.7, -0.3])
    avg = rng.uniform(-1.0, 1.0, size=(nx, nu))
    return lattice_problem(
        xshape,
        ushape,
        next_index,
        cost,
        admissible,
        avg=avg,
        lam=None if lam is None else float(lam),
    )


def fixpoint_lattice_toy(
    rng: np.random.Generator, xshape: tuple[int, ...], nu: int, settles: bool
) -> LatticeToy:
    """A lattice toy whose cost field reaches a bitwise fixpoint, or never.

    A settling toy only steps to a node of lower flat index or stays put at
    zero cost, so from stage ``nx`` on a stage's cheapest paths are the last
    stage's with one more zero-cost stay.  The other kind pays at least 0.5
    per step and can always stay at node 0, so node 0's cost grows without
    end.
    """
    nx = int(np.prod(xshape))
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
    return lattice_problem(xshape, (nu,), nxt, cost, admissible)


def lattice_toy_3d(rng: np.random.Generator, settles: bool) -> LatticeToy:
    """A :func:`fixpoint_lattice_toy` on a 3-D state grid of 8 to 27 nodes
    with 2 or 3 controls, small enough for :func:`enumerate_optimal` to
    reach horizon 6."""
    xshape = tuple(int(n) for n in rng.integers(2, 4, size=3))
    return fixpoint_lattice_toy(rng, xshape, int(rng.integers(2, 4)), settles)


def enumerate_optimal(
    toy: LatticeToy, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force optimum over every control-node sequence of ``horizon``.

    For every start node, all ``nu**horizon`` sequences are simulated; a
    sequence is feasible if every step is admissible and stays on the grid.
    Costs accumulate suffix-first (``f_0 + (f_1 + (f_2 + ...))``), the same
    association the backward recursion uses, so feasible optima agree with
    chained backward steps bit for bit.

    Returns:
        ``(cost, first_control)``: per-node optimal total cost (``+inf``
        when no sequence is feasible) and the first control of the
        lexicographically smallest optimal sequence (``-1`` when none).
    """
    nx, nu = toy.relaxed.shape
    seqs = np.asarray(
        list(itertools.product(range(nu), repeat=horizon)), dtype=np.int64
    )
    s = seqs.shape[0]
    best_cost = np.full(nx, np.inf)
    best_first = np.full(nx, -1, dtype=np.int64)
    for start in range(nx):
        state = np.full(s, start, dtype=np.int64)
        ok = np.ones(s, dtype=bool)
        fs = np.zeros((horizon, s))
        for t in range(horizon):
            u = seqs[:, t]
            adm = toy.admissible[state, u] & ok
            fs[t, adm] = toy.relaxed[state[adm], u[adm]]
            nxt = toy.next_index[state, u]
            ok = adm & (nxt >= 0)
            state = np.where(ok, nxt, 0)
        total = np.zeros(s)
        for t in range(horizon - 1, -1, -1):
            total = fs[t] + total
        if ok.any():
            total[~ok] = np.inf
            arg = int(np.argmin(total))  # first occurrence = lex smallest
            best_cost[start] = total[arg]
            best_first[start] = seqs[arg, 0]
    return best_cost, best_first
