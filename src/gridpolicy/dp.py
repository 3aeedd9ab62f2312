"""Backward value recursion and forward policy rollout on Cartesian grids.

The backward step computes, for every state node ``x`` and control node ``u``,

    T(x, u) = f_cR(x, u) + interp(C, f_d(x, u))

subject to admissibility: every inequality component ``g(x, u) <= 0``, the
successor state inside the grid box, and the interpolated cost-to-go finite.
Inadmissible pairs evaluate to ``+inf``.  The new table stores
``C'(x) = min_u T(x, u)`` and the argmin control node; ties resolve to the
smallest flat control index.  Infeasible nodes carry cost ``+inf`` and the
policy marker ``-1``, and infeasibility is monotone: once a node is
infeasible at some horizon it stays infeasible at every longer horizon.

:class:`DpEngine` precomputes the expensive geometry once per
(problem, state grid, control grid): successor states, stage costs and the
interpolation stencil of every state/control pair.  The stencil is stored
corner-major, one contiguous row of ``nx * nu`` indices and weights per
corner, so each corner of a backward step is one sequential pass.
Stencil corners with zero weight (and every corner of an inadmissible
pair) are redirected to a sentinel row whose cost is 0, so the weighted sum
never multiplies 0 by inf.  Inadmissible pairs carry ``+inf`` in the stage
cost itself: their corners sum to exactly 0, and adding the stage cost last
gives ``+inf``.

The build and the backward step walk the same blocks of whole state rows of
about :data:`BLOCK_PAIRS` pairs.  The build evaluates constraints, dynamics,
``locate_cells`` and stage costs one block at a time and writes straight
into the engine arrays, so its peak memory is the engine plus one block's
temporaries per thread (:func:`engine_bytes` estimates it, and the build
raises :class:`MemoryError` up front when that exceeds what the process can
still get).  The backward step streams each corner row once per block into
two reused work buffers that stay in cache.  Every pair is evaluated
element by element in row-major order, summed corner by corner in the same
order with the stage cost last, and the argmin is taken per state row, so
results are bit-identical for every block size.  Work is split over
contiguous state-row chunks; each chunk writes a disjoint output slice, so
results are bit-identical for every thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import CartesianGrid
from .problem import ProblemDef, relaxed_cost

INFEASIBLE = -1  # policy marker for nodes with no admissible control

# Pairs per backward block, rounded down to whole state rows (at least one).
# The two float work buffers (1 MiB) stay in a 2 MiB L2; much smaller blocks
# run so many short numpy calls that row-chunk threads stall on the GIL.
BLOCK_PAIRS = 65536

# Bound on the build's temporaries per pair of one block (inputs, successors,
# the integrator's and locate_cells' arrays); tracemalloc measures 180-205 B
# on the 2-D pendulums.
BUILD_BYTES_PER_BLOCK_PAIR = 512

# Closed-loop step outcomes, also used as rollout truncation reasons.
# :func:`apply_policy` reports them as indices into ``STEP_REASONS``.
STEP_OK = "ok"
STEP_POLICY = "policy_undefined"
STEP_CONSTRAINT = "constraint_violated"
STEP_DOMAIN = "left_domain"
STEP_REASONS = (STEP_OK, STEP_POLICY, STEP_CONSTRAINT, STEP_DOMAIN)


@dataclass
class StageTable:
    """Cost-to-go field and greedy policy for one backward stage.

    Attributes:
        cost: flat node field, ``+inf`` at infeasible nodes.
        policy: flat control-node index per state node, ``-1`` where the cost
            is infinite.
    """

    cost: np.ndarray
    policy: np.ndarray

    def __post_init__(self) -> None:
        self.cost = np.asarray(self.cost, dtype=float)
        self.policy = np.asarray(self.policy, dtype=np.int64)
        if self.cost.shape != self.policy.shape or self.cost.ndim != 1:
            raise ValueError("cost and policy must be flat arrays of equal length")
        infinite = ~np.isfinite(self.cost)
        marked = self.policy == INFEASIBLE
        if not np.array_equal(infinite, marked):
            raise ValueError("infinite cost and policy marker -1 must coincide")

    @property
    def feasible_mask(self) -> np.ndarray:
        return self.policy != INFEASIBLE

    def control_coords(self, ugrid: CartesianGrid) -> np.ndarray:
        """Policy in control coordinates, NaN rows at infeasible nodes."""
        out = np.full((self.policy.shape[0], ugrid.ndim), np.nan)
        ok = self.feasible_mask
        if ok.any():
            out[ok] = ugrid.node_coords()[self.policy[ok]]
        return out


@dataclass
class ForwardEnsemble:
    """A batch of closed-loop states advanced in lockstep.

    Entries that fail a feasibility check keep their last feasible state and
    are excluded from all later statistics.
    """

    states: np.ndarray
    feasible: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=float)
        self.feasible = np.asarray(self.feasible, dtype=bool)
        if self.states.ndim != 2 or self.feasible.shape != (self.states.shape[0],):
            raise ValueError("states must be (k, n) with a (k,) feasibility mask")


def feasible_indices(ensemble: ForwardEnsemble) -> np.ndarray:
    """Flat indices of the entries still feasible, in ensemble order."""
    return np.flatnonzero(ensemble.feasible)


def engine_bytes(nx: int, nu: int, ndim: int, threads: int = 1) -> int:
    """Bytes a :class:`DpEngine` build needs: its arrays plus live temporaries.

    Each of the ``nx * nu`` pairs stores ``2**ndim`` int32 corner indices and
    float64 weights and one float64 stage cost; each of ``threads`` row
    chunks holds the temporaries of one block of :data:`BLOCK_PAIRS`.
    """
    pairs = nx * nu
    block_pairs = min(max(1, BLOCK_PAIRS // nu), nx) * nu
    temps = min(threads, nx) * block_pairs * BUILD_BYTES_PER_BLOCK_PAIR
    return pairs * (12 * 2**ndim + 8) + temps


def _available_bytes(proc: str = "/proc", cgroup: str = "/sys/fs/cgroup") -> int | None:
    """Memory this process can still get, or None when it cannot be read.

    The smaller of ``MemAvailable`` in ``/proc/meminfo`` and, under a cgroup
    v2 memory limit, ``memory.max - memory.current``.
    """
    limits = []
    try:
        with open(os.path.join(proc, "meminfo")) as f:
            line = next(ln for ln in f if ln.startswith("MemAvailable:"))
        limits.append(int(line.split()[1]) * 1024)  # reported in kB
    except (OSError, ValueError, IndexError, StopIteration):
        pass
    try:
        with open(os.path.join(proc, "self", "cgroup")) as f:
            path = next(ln[3:].strip() for ln in f if ln.startswith("0::"))
        base = os.path.join(cgroup, path.lstrip("/"))
        with open(os.path.join(base, "memory.max")) as f:
            cap = f.read().strip()
        if cap != "max":
            with open(os.path.join(base, "memory.current")) as f:
                limits.append(int(cap) - int(f.read()))
    except (OSError, ValueError, StopIteration):
        pass
    return min(limits) if limits else None


class DpEngine:
    """Precomputed vectorized kernels for one (problem, grids) triple.

    Args:
        problem: the control problem.
        xgrid: state grid.
        ugrid: control grid.
        threads: worker threads for chunked evaluation, capped at the CPUs
            this process may run on; 0 picks all of them.  The chunks write
            disjoint slices, so the numerical output is independent of this
            setting.
    """

    def __init__(
        self,
        problem: ProblemDef,
        xgrid: CartesianGrid,
        ugrid: CartesianGrid,
        threads: int = 1,
    ):
        if problem.state_dim != xgrid.ndim:
            raise ValueError(
                f"state grid has {xgrid.ndim} axes, problem has {problem.state_dim}"
            )
        if problem.control_dim != ugrid.ndim:
            raise ValueError(
                f"control grid has {ugrid.ndim} axes, problem has {problem.control_dim}"
            )
        self.problem = problem
        self.xgrid = xgrid
        self.ugrid = ugrid
        self.threads = self._resolve_threads(threads)
        self.nx = xgrid.size
        self.nu = ugrid.size
        self._xcoords = xgrid.node_coords()
        self._ucoords = ugrid.node_coords()
        self._ncorners = 1 << xgrid.ndim
        self._build()

    @staticmethod
    def _resolve_threads(threads: int) -> int:
        """``threads`` capped at the CPUs this process may run on (0 = all)."""
        if threads < 0:
            raise ValueError("threads must be >= 0")
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without CPU affinity
            usable = os.cpu_count() or 1
        return min(threads, usable) if threads else usable

    def _row_chunks(self) -> list[tuple[int, int]]:
        bounds = np.linspace(0, self.nx, self.threads + 1).astype(int)
        return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]

    def _row_blocks(self, r0: int, r1: int) -> list[tuple[int, int]]:
        """Rows ``[r0, r1)`` cut into blocks of about :data:`BLOCK_PAIRS` pairs."""
        rows = max(1, BLOCK_PAIRS // self.nu)
        return [(b0, min(b0 + rows, r1)) for b0 in range(r0, r1, rows)]

    def _run_chunks(self, fn) -> None:
        chunks = self._row_chunks()
        if len(chunks) == 1:
            fn(*chunks[0])
            return
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            list(pool.map(lambda ab: fn(*ab), chunks))

    # -- precomputation --------------------------------------------------------

    def _build(self) -> None:
        nx, nu, nc = self.nx, self.nu, self._ncorners
        need = engine_bytes(nx, nu, self.xgrid.ndim, self.threads)
        avail = _available_bytes()
        if avail is not None and need > avail:
            raise MemoryError(
                f"engine for nx={nx} states x nu={nu} controls needs about "
                f"{need} bytes; {avail} bytes are available"
            )
        p = nx * nu
        self._sc = np.empty(p, dtype=float)
        self._idx = np.empty((nc, p), dtype=np.int32)
        self._w = np.empty((nc, p), dtype=float)

        # Pair p = ix * nu + iu, row-major over (state node, control node).
        def build_rows(r0: int, r1: int) -> None:
            for b0, b1 in self._row_blocks(r0, r1):
                x = np.repeat(self._xcoords[b0:b1], nu, axis=0)
                u = np.tile(self._ucoords, (b1 - b0, 1))
                s = slice(b0 * nu, b1 * nu)
                g = np.asarray(self.problem.inequality(x, u), dtype=float)
                bad = (g > 0.0).any(axis=-1)
                del g  # off the integrator's peak
                xn = np.asarray(self.problem.dynamics(x, u), dtype=float)
                idx, w, inside = self.xgrid.locate_cells(xn)
                bad |= ~inside
                w[bad] = 0.0
                # Sentinel row nx holds cost 0; redirect every zero-weight
                # corner there so that inf-valued corners never meet a zero
                # weight.
                idx[w == 0.0] = nx
                self._idx[:, s] = idx.T
                self._w[:, s] = w.T
                self._sc[s] = relaxed_cost(self.problem, x, u)
                self._sc[s][bad] = np.inf
                # Free this block's temporaries before the next one allocates.
                del x, u, bad, xn, idx, w, inside

        self._run_chunks(build_rows)

    # -- backward value step ---------------------------------------------------

    def backward(self, prev_cost: np.ndarray | None) -> StageTable:
        """One backward recursion step on top of cost-to-go ``prev_cost``.

        ``None`` stands for the all-zero terminal field.
        """
        nx, nu = self.nx, self.nu
        caug = np.empty(nx + 1, dtype=float)
        if prev_cost is None:
            caug[:nx] = 0.0
        else:
            prev_cost = np.asarray(prev_cost, dtype=float)
            if prev_cost.shape != (nx,):
                raise ValueError(f"prev_cost must have shape ({nx},)")
            caug[:nx] = prev_cost
        caug[nx] = 0.0

        cost = np.empty(nx, dtype=float)
        policy = np.empty(nx, dtype=np.int64)
        idx, w, sc = self._idx, self._w, self._sc

        def step_rows(r0: int, r1: int) -> None:
            blocks = self._row_blocks(r0, r1)
            size = (blocks[0][1] - blocks[0][0]) * nu  # the first is the largest
            val_buf = np.empty(size, dtype=float)
            tmp_buf = np.empty(size, dtype=float)
            for b0, b1 in blocks:
                s = slice(b0 * nu, b1 * nu)
                val = val_buf[: (b1 - b0) * nu]
                tmp = tmp_buf[: val.size]
                # Every index lies in [0, nx] by construction; mode="clip"
                # only spares np.take a buffered copy of ``out``.
                np.take(caug, idx[0, s], out=val, mode="clip")
                np.multiply(w[0, s], val, out=val)
                for c in range(1, self._ncorners):
                    np.take(caug, idx[c, s], out=tmp, mode="clip")
                    np.multiply(w[c, s], tmp, out=tmp)
                    np.add(val, tmp, out=val)
                np.add(val, sc[s], out=val)
                arg = val.reshape(b1 - b0, nu).argmin(axis=1)
                best = val[np.arange(0, val.size, nu) + arg]
                arg[~np.isfinite(best)] = INFEASIBLE
                cost[b0:b1] = best
                policy[b0:b1] = arg

        self._run_chunks(step_rows)
        return StageTable(cost=cost, policy=policy)

    def extend(self, stages: list[StageTable]) -> StageTable:
        """Append the next backward stage to ``stages`` and return it.

        ``stages`` is a backward stack in recursion order (``stages[j-1]``
        holds the ``j``-step table), empty at first and grown only by this
        method; a caller may drop all but its last two entries.  Once a
        stage's cost is bitwise equal to the one before it (the zero
        terminal field before stage 1), the cost field has reached its
        fixpoint: every later stage is that same table object, and the
        backward kernel is not run again.  The cost and policy arrays of
        every appended table are read-only.
        """
        if stages:
            before = stages[-2].cost if len(stages) > 1 else np.zeros(self.nx)
            if _same_bits(stages[-1].cost, before):
                stages.append(stages[-1])
                return stages[-1]
        table = self.backward(stages[-1].cost if stages else None)
        table.cost.flags.writeable = False
        table.policy.flags.writeable = False
        stages.append(table)
        return table

    # -- forward ensemble step ---------------------------------------------------

    def seed_ensemble(self, table: StageTable) -> ForwardEnsemble:
        """Fresh ensemble holding every node where ``table`` has a control."""
        return ForwardEnsemble(
            states=self._xcoords.copy(),
            feasible=table.feasible_mask.copy(),
            step=0,
        )

    def forward(self, ensemble: ForwardEnsemble, table: StageTable) -> np.ndarray:
        """Advance every feasible entry one closed-loop step under ``table``.

        An entry that fails a check of :func:`apply_policy` becomes
        infeasible and keeps its last state.

        Returns:
            Applied controls, shape ``(k, control_dim)``; NaN rows for entries
            that were already infeasible or failed during this step.
        """
        u_out = np.full((ensemble.states.shape[0], self.ugrid.ndim), np.nan)
        active = np.flatnonzero(ensemble.feasible)
        reason, u, xn = apply_policy(
            self.problem, self.xgrid, self.ugrid, table, ensemble.states[active]
        )
        ok = reason == 0
        moved = active[ok]
        ensemble.states[moved] = xn[ok]
        u_out[moved] = u[ok]
        ensemble.feasible[active[~ok]] = False
        ensemble.step += 1
        return u_out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two float64 fields (``-0.0`` differs from ``0.0``)."""
    return a is b or np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _on_rows(fn, x: np.ndarray, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``fn(x, u)`` on the flat ``rows`` of the batch, shape ``(rows, -1)``.

    When every row is selected the callable sees the caller's own batch
    shape, so a single ``(n,)`` state is evaluated with scalar arithmetic.
    """
    if rows.size == u.shape[0]:
        out = fn(x, u.reshape(x.shape[:-1] + u.shape[-1:]))
    else:
        out = fn(x.reshape(u.shape[0], -1)[rows], u[rows])
    return np.asarray(out, dtype=float).reshape(rows.size, -1)


def apply_policy(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    table: StageTable,
    x: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One closed-loop step under ``table`` from every state in ``x``.

    ``x`` has shape ``(..., state_dim)``; pass a single state as
    ``(state_dim,)``.  A state fails at the first of these checks: its
    policy interpolation stencil leaves the grid or touches an infeasible
    node with positive weight, the interpolated control violates an
    inequality component, or the successor state leaves the grid box.

    Returns:
        ``(reason, u, x_next)``.  ``reason`` is an int8 array of the batch
        shape indexing :data:`STEP_REASONS` (0 is ``STEP_OK``, else the
        failed check).  ``u`` has shape ``(..., control_dim)``, NaN where the
        policy is undefined; ``x_next`` has the shape of ``x``, NaN wherever
        the step failed.
    """
    x = np.asarray(x, dtype=float)
    batch = x.shape[:-1]
    idx, w, inside = xgrid.locate_cells(x.reshape(-1, xgrid.ndim))
    pol = table.policy[idx]
    undefined = ~inside | ((pol == INFEASIBLE) & (w > 0.0)).any(axis=1)
    reason = undefined.astype(np.int8)  # codes index STEP_REASONS
    # Zero-weight corners may carry the -1 marker; their contribution is
    # exactly 0 * coordinate.
    u = np.einsum("kc,kcm->km", w, ugrid.node_coords()[pol])
    u[undefined] = np.nan
    xn = np.full((reason.size, xgrid.ndim), np.nan)

    live = np.flatnonzero(~undefined)
    if live.size:
        g = _on_rows(problem.inequality, x, u, live)
        violated = (g > 0.0).any(axis=-1)
        reason[live[violated]] = 2
        live = live[~violated]
    if live.size:
        step = _on_rows(problem.dynamics, x, u, live)
        kept = xgrid.in_domain(step)
        reason[live[~kept]] = 3
        xn[live[kept]] = step[kept]
    return reason.reshape(batch), u.reshape(batch + u.shape[-1:]), xn.reshape(x.shape)
