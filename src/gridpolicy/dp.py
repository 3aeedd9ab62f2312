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
interpolation stencil of every state/control pair.  The stencil stores one
int32 base index per pair, the flat index of the node at the low corner of
its successor's cell, and its weights corner-major, one contiguous row of
``nx * nu`` weights per corner.  Corner ``c`` of a pair is node ``base +
off_c`` (``off_c`` the corner's fixed flat offset), so each corner of a
backward step is one sequential gather from the cost vector shifted by
``off_c``.  That vector is padded with zeros past the last node: the
sentinel ``nx`` and the ``max off_c`` entries after it.  An inadmissible
pair has all weights 0 and its base at the sentinel, so its corners read the
pad; it carries ``+inf`` in the stage cost itself, and its corners sum to
exactly 0 before the stage cost is added last.

An admissible pair whose successor lies on a cell face has a zero-weight
corner, and that corner's node may hold ``+inf`` (``0 * inf`` is NaN) or a
negative cost (``0 * negative`` is ``-0.0``).  Such a pair's value is the
one formed with the same operations in the same order but each zero-weight
corner reading the sentinel (cost 0), so that it adds an exact ``0 * 0``.
The backward step forms again, that way, every kernel value that comes out
NaN or ``-0.0``, and only those: a zero-weight corner's product changes
the sum at most by the sign of a zero, and the sentinel's ``+0.0`` term
never leaves a ``-0.0``, so every other kernel value already has those
bits.

The build and the backward step walk blocks of whole state rows.  The
build evaluates constraints, dynamics, the cell search and stage costs one
block of about ``_BUILD_BLOCK_PAIRS`` pairs at a time and writes straight
into the engine arrays, so its peak memory is the engine plus one block's
temporaries per thread (:func:`engine_bytes` estimates it, and the build
raises :class:`MemoryError` up front when that exceeds what the process can
still get); those temporaries stay in L2 and are reused from the heap,
block after block.  The backward step streams each corner row once per
block of about :data:`BLOCK_PAIRS` pairs into two work buffers that stay in
cache; backward steps, full or in a :class:`BackwardChain`, take their
kernel buffers from a pool kept on the engine instead of allocating them
at every stage.  Every pair is evaluated element by element in row-major
order, summed corner by corner in the same order with the stage cost last,
and the argmin is taken per state row, so results are bit-identical for
every block size.  The build and the full backward step split their rows
into one contiguous chunk per thread, each writing a disjoint output
slice, so results are bit-identical for every thread count; a chain step
runs on the thread that pulls it.

The build also records each state row's stencil nodes: the sorted distinct
nodes its pairs read with positive weight (``base + off_c`` where
``w_c > 0``), plus the sentinel.  A :class:`BackwardChain` uses them to skip
work whose result is known (rows whose stencil nodes kept their cost bits,
controls that a proven margin rules out, every stage past the cost
fixpoint), so each of its stages has the bits of a full
:meth:`DpEngine.backward` step; it states the rules and their rounding
bound.  A chain step reads the row map in runs of rows whose nodes fit
one pooled kernel buffer, converted there to intp, so its temporaries do
not grow with the row map.

The forward step advances an ensemble of closed-loop states.  It parks an
entry at an exact closed-loop fixpoint and no longer steps it while the
table stays the same read-only one, yet returns the same states and
controls as stepping it (see :meth:`DpEngine.forward`).
"""

from __future__ import annotations

import contextlib
import functools
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .grid import CartesianGrid
from .problem import ProblemDef, relaxed_cost

INFEASIBLE = -1  # policy marker for nodes with no admissible control

# Pairs per backward block, rounded down to whole state rows (at least one).
# The two float work buffers (1 MiB) stay in a 2 MiB L2; much smaller blocks
# run so many short numpy calls that row-chunk threads stall on the GIL.
BLOCK_PAIRS = 65536

# Pairs per block of the engine build and of the equilibrium search, rounded
# down to whole state rows (at least one).  One block's temporaries (about
# 1.1 MiB) stay in L2, and with two state axes each of their arrays (at most
# 128 KiB) stays below glibc's default mmap threshold, so it is reused from
# the heap instead of being mapped and faulted in afresh for every block.
_BUILD_BLOCK_PAIRS = 8192

# Bound on the build's temporaries per pair of one block (inputs, successors,
# the integrator's and the cell search's arrays); tracemalloc measures
# 135 B on the coarse min-time pendulum in its 8160-pair build blocks (131 B
# on a repeated build in the same process).
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


@dataclass
class ForwardEnsemble:
    """A batch of closed-loop states advanced in lockstep.

    Entries that fail a feasibility check keep their last feasible state and
    are excluded from all later statistics.

    The other fields are kept by :meth:`DpEngine.forward` and are not
    constructor arguments.  An entry whose step under ``parked_under``
    returned its own state bit for bit is *parked*: ``parked`` marks it and
    ``held`` keeps the control of that step, NaN elsewhere.  A parked
    entry's state must not be changed from outside.
    """

    states: np.ndarray
    feasible: np.ndarray
    parked: np.ndarray = field(init=False, repr=False)
    held: np.ndarray | None = field(default=None, init=False, repr=False)
    parked_under: StageTable | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=float)
        self.feasible = np.asarray(self.feasible, dtype=bool)
        if self.states.ndim != 2 or self.feasible.shape != (self.states.shape[0],):
            raise ValueError("states must be (k, n) with a (k,) feasibility mask")
        self.parked = np.zeros(self.feasible.shape, dtype=bool)


def engine_bytes(nx: int, nu: int, ndim: int, threads: int = 1) -> int:
    """Bytes a :class:`DpEngine` build needs: its arrays plus live temporaries.

    Each of the ``nx * nu`` pairs stores one int32 base index, ``2**ndim``
    float64 weights and one float64 stage cost; the row map stores at most
    ``2**ndim * nu + 1`` int32 nodes per state row and one intp offset per
    row and one past the last; each of ``threads`` row chunks holds the
    temporaries of one build block of about ``_BUILD_BLOCK_PAIRS`` pairs, at
    most :data:`BUILD_BYTES_PER_BLOCK_PAIR` each.
    """
    pairs = nx * nu
    row_map = nx * (2**ndim * nu + 1) * 4 + (nx + 1) * 8
    block_pairs = min(_block_rows(nu, _BUILD_BLOCK_PAIRS), nx) * nu
    temps = min(threads, nx) * block_pairs * BUILD_BYTES_PER_BLOCK_PAIR
    return pairs * (8 * 2**ndim + 12) + row_map + temps


def _block_rows(nu: int, pairs: int) -> int:
    """State rows of ``nu`` pairs per block of about ``pairs`` pairs (at
    least one)."""
    return max(1, pairs // nu)


def _row_blocks(r0: int, r1: int, nu: int, pairs: int) -> list[tuple[int, int]]:
    """State rows ``[r0, r1)`` of ``nu`` pairs each, cut into blocks of
    ``_block_rows(nu, pairs)`` rows."""
    rows = _block_rows(nu, pairs)
    return [(b0, min(b0 + rows, r1)) for b0 in range(r0, r1, rows)]


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
        threads: worker threads of the build and of the full
            :meth:`backward` step, capped at the CPUs this process may run
            on; 0 picks all of them, a negative count raises
            :class:`ValueError` and a non-integer one :class:`TypeError`.
            Chain steps run on one thread.  The threads write disjoint row
            chunks, so the numerical output is independent of this setting.
            The attribute of that name may be assigned later under the same
            rules.
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
        self.threads = threads
        self.nx = xgrid.size
        self.nu = ugrid.size
        self._xcoords = xgrid.node_coords()
        self._ucoords = ugrid.node_coords()
        self._ncorners = 1 << xgrid.ndim
        # sets of kernel buffers that no chain step holds now
        self._scratch_pool: list[tuple[np.ndarray, ...]] = []
        self._build()

    @property
    def threads(self) -> int:
        """The threads of the build and the full backward step: the
        assigned count capped at the CPUs this process may run on (0 = all
        of them)."""
        return self._threads

    @threads.setter
    def threads(self, threads: int) -> None:
        self._threads = self._resolve_threads(threads)

    @staticmethod
    def _resolve_threads(threads: int) -> int:
        """``threads`` capped at the CPUs this process may run on (0 = all)."""
        threads = operator.index(threads)
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

    def _run_chunks(self, fn) -> None:
        chunks = self._row_chunks()
        if len(chunks) == 1:
            fn(*chunks[0])
            return
        from concurrent.futures import ThreadPoolExecutor  # only threaded steps pay for it

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
        self._base = np.empty(p, dtype=np.int32)
        self._w = np.empty((nc, p), dtype=float)

        # Pair p = ix * nu + iu, row-major over (state node, control node).
        def build_rows(r0: int, r1: int) -> None:
            for b0, b1 in _row_blocks(r0, r1, nu, _BUILD_BLOCK_PAIRS):
                x = np.repeat(self._xcoords[b0:b1], nu, axis=0)
                u = np.tile(self._ucoords, (b1 - b0, 1))
                s = slice(b0 * nu, b1 * nu)
                g = np.asarray(self.problem.inequality(x, u), dtype=float)
                bad = _any_rows(g > 0.0)
                del g  # off the integrator's peak
                xn = np.asarray(self.problem.dynamics(x, u), dtype=float)
                # The cell search writes corner-major weight rows, the
                # stencil's own layout, straight into the engine array
                # (through their transposed, point-major view).
                w = self._w[:, s]
                base, inside = self.xgrid._corner_cells(xn, w.T)
                bad |= ~inside
                del xn
                np.copyto(w, 0.0, where=bad)
                # An inadmissible pair reads the zero pad from the sentinel on.
                np.copyto(base, nx, where=bad)
                self._base[s] = base
                del base
                self._sc[s] = relaxed_cost(self.problem, x, u)
                self._sc[s][bad] = np.inf
                # Free this block's temporaries before the next one allocates.
                del x, u, bad

        self._run_chunks(build_rows)
        self._build_row_index()

    def _build_row_index(self) -> None:
        """Each state row's stencil nodes, as CSR.

        Row ``r`` reads ``_row_nodes[_row_starts[r]:_row_ends[r]]``: the
        sorted distinct nodes that its pairs read with positive weight, plus
        the sentinel ``nx``, so no row is empty.  Two passes over the
        build's row blocks (counts, then entries) keep the peak at the map
        plus one block's sort per thread.  The first pass also bounds how
        far an admissible pair's weights may sum from 1 (``_weight_error``,
        the ``eps`` of :class:`BackwardChain`'s rounding bound).
        """
        nx, nu, nc = self.nx, self.nu, self._ncorners
        offsets = self.xgrid._corner_offsets.tolist()

        def scan(b0: int, b1: int) -> tuple[np.ndarray, np.ndarray]:
            rows, s = b1 - b0, slice(b0 * nu, b1 * nu)
            base = self._base[s]
            zero = self._w[:, s] == 0.0
            nodes = np.empty((rows, nc * nu + 1), dtype=np.int32)
            for c, off in enumerate(offsets):
                corner = nodes[:, c * nu : (c + 1) * nu]
                np.add(base.reshape(rows, nu), off, out=corner)
                np.copyto(corner, nx, where=zero[c].reshape(rows, nu))
            nodes[:, -1] = nx
            nodes.sort(axis=1)
            first = np.empty(nodes.shape, dtype=bool)
            first[:, 0] = True
            np.not_equal(nodes[:, 1:], nodes[:, :-1], out=first[:, 1:])
            return nodes, first

        starts = np.zeros(nx + 1, dtype=np.intp)

        sum_errors = [0.0]

        def count_rows(r0: int, r1: int) -> None:
            for b0, b1 in _row_blocks(r0, r1, nu, _BUILD_BLOCK_PAIRS):
                _, first = scan(b0, b1)
                starts[b0 + 1 : b1 + 1] = np.count_nonzero(first, axis=1)
                s = slice(b0 * nu, b1 * nu)
                total = np.add.reduce(self._w[:, s], axis=0)
                # |total - 1| is exact: total lies in [1/2, 2] (Sterbenz)
                error = np.abs(np.subtract(total, 1.0, out=total), out=total)
                sum_errors.append(float(error.max(where=self._base[s] != nx, initial=0.0)))

        def fill_rows(r0: int, r1: int) -> None:
            for b0, b1 in _row_blocks(r0, r1, nu, _BUILD_BLOCK_PAIRS):
                nodes, first = scan(b0, b1)
                self._row_nodes[starts[b0] : starts[b1]] = nodes[first]

        self._run_chunks(count_rows)
        np.cumsum(starts, out=starts)
        self._row_nodes = np.empty(starts[-1], dtype=np.int32)
        self._run_chunks(fill_rows)
        self._row_starts = starts[:-1]
        self._row_ends = starts[1:]
        # The computed sum of nc weights is within gamma_{nc-1} * W of their
        # exact sum W, so |W - 1| <= (e + g) / (1 - g) <= 2 * (e + g).
        g = _gamma(nc - 1)
        self._weight_error = float(_up(2.0 * _up(max(sum_errors) + g)))
        self._slack = _rounding_slack(nc, self._weight_error)

    # -- backward value step ---------------------------------------------------

    def backward(self, prev_cost: np.ndarray | None) -> StageTable:
        """One full backward recursion step on top of cost-to-go
        ``prev_cost``, every pair evaluated; ``None`` stands for the
        all-zero terminal field.

        ``prev_cost`` holds one cost per state node, finite or ``+inf``
        (infeasible); another shape, a NaN or a ``-inf`` raises
        :class:`ValueError`.
        """
        nx = self.nx
        caug = self._augmented(prev_cost)
        if not (caug > -np.inf).all():  # False at NaN and -inf
            raise ValueError("prev_cost must hold finite costs or +inf, not NaN or -inf")
        cost = np.empty(nx, dtype=float)
        policy = np.empty(nx, dtype=np.int64)

        def step_rows(r0: int, r1: int) -> None:
            scratch = self._pooled_scratch()
            for b0, b1 in _row_blocks(r0, r1, self.nu, BLOCK_PAIRS):
                v = self._values(caug, slice(b0, b1), scratch)
                arg = v.argmin(axis=1)
                best = v[np.arange(b1 - b0), arg]
                arg[~np.isfinite(best)] = INFEASIBLE
                cost[b0:b1] = best
                policy[b0:b1] = arg
            self._scratch_pool.append(scratch)

        self._run_chunks(step_rows)
        return StageTable(cost=cost, policy=policy)

    def _augmented(self, prev_cost: np.ndarray | None) -> np.ndarray:
        """``prev_cost`` (None: all zeros) followed by the sentinel ``nx``
        and the pad up to the largest corner offset, which hold 0."""
        nx = self.nx
        caug = np.zeros(nx + 1 + int(self.xgrid._corner_offsets[-1]))
        if prev_cost is not None:
            prev_cost = np.asarray(prev_cost, dtype=float)
            if prev_cost.shape != (nx,):
                raise ValueError(f"prev_cost must have shape ({nx},)")
            caug[:nx] = prev_cost
        return caug

    def _values(
        self, caug: np.ndarray, rows: slice | np.ndarray, scratch: tuple[np.ndarray, ...]
    ) -> np.ndarray:
        """The values ``T(x, .)`` of state rows ``rows``, shape ``(rows, nu)``.

        ``rows`` is a slice of rows, whose stencil is read as slices, or a
        sorted array of rows, whose stencil rows are gathered first.  Either
        way every pair gets the same operations in the same order: corner 0's
        product, the other corners added in turn, the stage cost last.  A
        value that comes out NaN or ``-0.0`` is formed again by
        :meth:`_pair_values` (see the module docstring).  The values are
        formed in the first buffer of ``scratch`` (see
        :meth:`_pooled_scratch`); the others are overwritten.
        """
        nu, nc = self.nu, self._ncorners
        val_buf, tmp_buf, base_buf, gathered_buf = scratch
        corners = [caug[off:] for off in self.xgrid._corner_offsets.tolist()]
        # Every index below stays inside its array by construction;
        # mode="clip" only spares np.take a buffered copy of ``out``.
        if isinstance(rows, slice):
            n = rows.stop - rows.start
            s = slice(rows.start * nu, rows.stop * nu)
            base = self._base[s]

            def stencil(a: np.ndarray) -> np.ndarray:
                return a[s]

        else:
            n = rows.size
            # np.take gathers only into its input's dtype: the rows' int32
            # bases go to the gather buffer, until the stencil rows need it.
            base = gathered_buf.view(np.int32)[: n * nu]
            np.take(self._base.reshape(-1, nu), rows, 0, base.reshape(n, nu), "clip")
            gathered = gathered_buf[: n * nu].reshape(n, nu)

            def stencil(a: np.ndarray) -> np.ndarray:
                np.take(a.reshape(-1, nu), rows, axis=0, out=gathered, mode="clip")
                return gathered.reshape(-1)

        val, tmp, idx = val_buf[: n * nu], tmp_buf[: n * nu], base_buf[: n * nu]
        np.copyto(idx, base)  # np.take would convert int32 indices per corner
        # A zero-weight corner may read +inf here; that value is formed again
        # below.
        with np.errstate(invalid="ignore"):
            np.take(corners[0], idx, out=val, mode="clip")
            np.multiply(stencil(self._w[0]), val, out=val)
            for c in range(1, nc):
                np.take(corners[c], idx, out=tmp, mode="clip")
                np.multiply(stencil(self._w[c]), tmp, out=tmp)
                np.add(val, tmp, out=val)
            np.add(val, stencil(self._sc), out=val)
        # |v| > 0 fails exactly at NaN and at both zeros; of those, +0.0
        # (bits all clear) has the right bits already.
        nonzero = idx.view(bool)[: n * nu]
        np.greater(np.abs(val, out=tmp), 0.0, out=nonzero)
        if not nonzero.all():
            at = np.flatnonzero(np.logical_not(nonzero, out=nonzero))
            at = at[val[at].view(np.uint64) != 0]
            if at.size:
                row, col = np.divmod(at, nu)
                row = row + rows.start if isinstance(rows, slice) else rows[row]
                val[at] = self._pair_values(caug, row * nu + col)
        return val.reshape(n, nu)

    def _pair_values(self, caug: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        """``T`` of the flat ``pairs``, formed with the operations of
        :meth:`_values` in its order, but with each zero-weight corner
        reading the sentinel: it adds an exact ``0 * 0``, never ``0 * inf``
        (NaN) or ``0 * negative`` (``-0.0``).  That is the value of a pair
        with a zero-weight corner, and bitwise the kernel's value of any
        other pair."""
        w = self._w[:, pairs]
        nodes = self._base[pairs] + self.xgrid._corner_offsets[:, None]
        np.copyto(nodes, self.nx, where=w == 0.0)
        val = w[0] * caug[nodes[0]]
        for c in range(1, self._ncorners):
            val += w[c] * caug[nodes[c]]
        val += self._sc[pairs]
        return val

    def _chain_step(self, caug: np.ndarray, chain: BackwardChain) -> None:
        """Stage 2 or later of ``chain`` on top of its cost field ``caug``:
        updates the chain's cost and policy in place and records the step
        (see :class:`BackwardChain`)."""
        nx, nu = self.nx, self.nu
        prev = caug[:nx]
        scale = float(np.max(np.abs(prev), where=np.isfinite(prev), initial=0.0))
        changed = np.zeros(nx + 1, dtype=bool)  # the sentinel never changes
        np.not_equal(prev.view(np.uint64), chain._source.view(np.uint64), out=changed[:nx])
        scratch = self._pooled_scratch()
        if not np.array_equal(changed, chain._changed):
            self._dirty_rows(changed, chain._dirty, scratch)
            chain._changed = changed
        dirty = chain._dirty.copy()
        certified = self._spend_margins(chain, prev, changed, dirty, scale, scratch)
        full_rows = np.flatnonzero(dirty & ~certified)
        gathered = [full_rows[:0]]  # never empty, for np.concatenate
        for b0, b1 in _row_blocks(0, nx, nu, BLOCK_PAIRS):
            rows = _within(full_rows, b0, b1)
            if 2 * rows.size < b1 - b0:
                gathered.append(rows)
                continue
            # At least half of the block's rows need the full kernel, so it
            # runs over the whole block as slices: gathering stencil rows
            # costs about twice as much per row.  The block's other rows get
            # their own bits again, and a fresh margin.
            v = self._values(caug, slice(b0, b1), scratch)
            self._certify(v, slice(b0, b1), chain, scale)
            dirty[b0:b1] = True  # dirty: the rows not copied
            certified[b0:b1] = False  # certified: the rows run alone
        rows = np.concatenate(gathered)
        step = _block_rows(nu, BLOCK_PAIRS)
        for i in range(0, rows.size, step):
            part = rows[i : i + step]
            v = self._values(caug, part, scratch)
            self._certify(v, part, chain, scale)
        self._scratch_pool.append(scratch)
        chain.rows = np.flatnonzero(dirty)
        chain.certified = self._certified_values(caug, np.flatnonzero(certified), chain)
        chain.pairs = (chain.rows.size - np.count_nonzero(certified)) * nu + chain.certified.size
        chain._source = prev

    def _pooled_scratch(self) -> tuple[np.ndarray, ...]:
        """Kernel buffers, taken from the engine's pool, to which the caller
        gives them back: backward steps taken one after another reuse one
        set, and steps taken at once from several threads get one set each.
        A set is two float work buffers, the intp base indices and the
        gathered stencil rows of :meth:`_values`, sized for its largest
        block and for the widest row of :meth:`_stencils`; a pooled set
        made for smaller blocks is dropped."""
        nu = self.nu
        size = min(_block_rows(nu, BLOCK_PAIRS), self.nx) * nu
        size = max(size, min(self._ncorners * nu, self.nx) + 1)
        with contextlib.suppress(IndexError):
            scratch = self._scratch_pool.pop()  # atomic: no set goes to two steps
            if scratch[0].size >= size:
                return scratch
        return tuple(np.empty(size, dtype=t) for t in (float, float, np.intp, float))

    def _row_runs(self, scratch: tuple[np.ndarray, ...]):
        """Runs ``(r0, r1)`` of consecutive state rows, in order, whose
        stencils fit one buffer of ``scratch`` together, or one row (which
        always fits; see :meth:`_stencils`)."""
        r0 = 0
        while r0 < self.nx:
            end = self._row_starts[r0] + scratch[2].size
            r1 = int(np.searchsorted(self._row_ends, end, "right"))
            r1 = max(r1, r0 + 1)
            yield r0, r1
            r0 = r1

    def _stencils(
        self, rows: np.ndarray, scratch: tuple[np.ndarray, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The stencil nodes of the sorted ``rows``, all in one run of
        :meth:`_row_runs`, as intp in the base-index buffer of ``scratch``
        (its last buffer is overwritten), and each row's offset in them."""
        starts = self._row_starts[rows]
        sizes = self._row_ends[rows] - starts
        offs = np.cumsum(sizes) - sizes
        nodes = scratch[2][: offs[-1] + sizes[-1]]
        if rows[-1] - rows[0] + 1 == rows.size:  # consecutive rows
            np.copyto(nodes, self._row_nodes[starts[0] : starts[0] + nodes.size])
            return nodes, offs
        # the entries' positions in the row map, as a running sum of steps:
        # 1 within a row, a jump to the start of each row
        nodes.fill(1)
        nodes[offs] = starts
        nodes[offs[1:]] -= starts[:-1] + sizes[:-1] - 1
        np.cumsum(nodes, out=nodes)
        picked = scratch[3].view(np.int32)[: nodes.size]  # np.take keeps the dtype
        np.take(self._row_nodes, nodes, out=picked, mode="clip")
        np.copyto(nodes, picked)
        return nodes, offs

    def _dirty_rows(
        self, changed: np.ndarray, out: np.ndarray, scratch: tuple[np.ndarray, ...]
    ) -> None:
        """Write to ``out`` whether each state row's stencil holds a node
        that ``changed`` marks."""
        read = scratch[1].view(bool)
        for r0, r1 in self._row_runs(scratch):
            nodes, offs = self._stencils(np.arange(r0, r1), scratch)
            part = np.take(changed, nodes, out=read[: nodes.size], mode="clip")
            np.logical_or.reduceat(part, offs, out=out[r0:r1])

    def _spend_margins(
        self,
        chain: BackwardChain,
        prev: np.ndarray,
        changed: np.ndarray,
        dirty: np.ndarray,
        scale: float,
        scratch: tuple[np.ndarray, ...],
    ) -> np.ndarray:
        """Lower the margin of every dirty row of ``chain`` that holds one by
        the span of ``D = prev - source`` over all nodes, or, where that
        spends it, over the row's stencil nodes, and return the mask of the
        rows whose margin still certifies their policy control."""
        margin = chain._margin
        _, _, c3, tau = self._slack
        bound = _up(_up(c3 * scale) + tau)
        live = dirty & (margin > bound)  # spans are >= 0
        if not live.any():
            return live
        d = np.zeros(self.nx + 1)
        d[-1] = np.nan  # the sentinel, read by no finite pair
        with np.errstate(invalid="ignore"):
            np.subtract(prev, chain._source, out=d[:-1], where=changed[:-1])
        d[:-1][np.isinf(prev) & ~changed[:-1]] = np.nan  # infinite at both
        d[changed & ~np.isfinite(d)] = np.inf  # a node turned (in)finite
        with np.errstate(invalid="ignore"):  # inf - inf when both are inf
            # MacQueen's bound: no row's span exceeds the span over all nodes
            span = _up(_up(np.fmax.reduce(d)) - _down(np.fmin.reduce(d)))
            lowered = _down(margin - span)
            kept = live & (lowered > bound)
            np.copyto(margin, lowered, where=kept)
            live ^= kept  # the rows left to their own span
            for r0, r1 in self._row_runs(scratch):
                rows = np.flatnonzero(live[r0:r1])
                if not rows.size:
                    continue
                rows += r0
                # The change between a row's first and last stencil nodes
                # (the sentinel sorts after them) is at most its span: a row
                # whose margin that spends goes to the full kernel without
                # reading the rest of its stencil.
                first = np.take(d, self._row_nodes[self._row_starts[rows]])
                last = np.take(d, self._row_nodes[self._row_ends[rows] - 2])
                spent = margin[rows] - np.abs(first - last) <= bound
                margin[rows[spent]] = -np.inf
                rows = rows[~spent]
                if rows.size:
                    margin[rows] = _down(margin[rows] - self._spans(d, rows, scratch))
        return dirty & (margin > bound)

    def _spans(
        self, d: np.ndarray, rows: np.ndarray, scratch: tuple[np.ndarray, ...]
    ) -> np.ndarray:
        """Upper bounds on ``max - min`` of ``d`` over the stencil nodes of
        each of ``rows`` (sorted rows of one run of :meth:`_row_runs`), NaN
        entries left out (every dirty row reads a number)."""
        nodes, offs = self._stencils(rows, scratch)
        vals = np.take(d, nodes, out=scratch[0][: nodes.size], mode="clip")
        hi = _up(np.fmax.reduceat(vals, offs))
        lo = _down(np.fmin.reduceat(vals, offs))
        return _up(hi - lo)

    def _gap_bound(self, best: np.ndarray, second: np.ndarray, scale: float) -> np.ndarray:
        """A fresh margin: a lower bound on ``(second - best) - c1 * (|second|
        + |best|) - c2 * scale``, +inf where ``second`` is."""
        c1, c2, _, _ = self._slack
        with np.errstate(invalid="ignore"):
            g = _down(second - best)
            g = _down(g - _up(c1 * _up(np.abs(second) + np.abs(best))))
            g = _down(g - _up(c2 * scale))
        return np.where(second == np.inf, np.inf, g)

    def _certify(
        self, v: np.ndarray, rows: slice | np.ndarray, chain: BackwardChain, scale: float
    ) -> None:
        """Minimum, argmin and fresh margin of the full values ``v`` of
        ``rows``, written to ``chain``'s cost, policy and margins; ``scale``
        is the stage's ``B``.  ``v`` is overwritten.

        A row whose minimum is attained once gets the fresh margin of its
        second smallest value; a row without a finite value gets +inf (it
        stays infeasible until a node turns finite); a tied or NaN minimum
        gets none (-inf).
        """
        nu = v.shape[1]
        arg = v.argmin(axis=1)
        at = np.arange(0, v.size, nu) + arg
        flat = v.reshape(-1)
        best = flat[at]
        flat[at] = np.inf
        second = v.min(axis=1)
        arg[~np.isfinite(best)] = INFEASIBLE
        chain._cost[rows] = best
        chain._policy[rows] = arg
        fresh = np.where(best == np.inf, np.inf, -np.inf)
        unique = np.isfinite(best) & (second > best)
        fresh[unique] = self._gap_bound(best[unique], second[unique], scale)
        chain._margin[rows] = fresh

    def _certified_values(
        self, caug: np.ndarray, rows: np.ndarray, chain: BackwardChain
    ) -> np.ndarray:
        """Evaluate certified ``rows`` at ``chain``'s policy control only,
        into its cost; the policy stands.  A row without a finite value (policy
        -1) keeps its +inf and is not evaluated.  Returns the rows
        evaluated."""
        cost, policy = chain._cost, chain._policy
        rows = rows[policy[rows] != INFEASIBLE]
        # _pair_values holds about six float64 temporaries per pair: a
        # quarter block of pairs keeps them within the kernel's buffers.
        step = max(1, BLOCK_PAIRS // 4)
        for i in range(0, rows.size, step):
            r = rows[i : i + step]
            cost[r] = self._pair_values(caug, r * self.nu + policy[r])
        return rows

    def chain(self) -> BackwardChain:
        """A fresh :class:`BackwardChain` on this engine: its stages 1, 2,
        ... without end."""
        return BackwardChain(self)

    # -- forward ensemble step ---------------------------------------------------

    def seed_ensemble(self, table: StageTable) -> ForwardEnsemble:
        """Fresh ensemble holding every node where ``table`` has a control."""
        return ForwardEnsemble(
            states=self._xcoords.copy(),
            feasible=table.feasible_mask.copy(),
        )

    def forward(self, ensemble: ForwardEnsemble, table: StageTable) -> np.ndarray:
        """Advance every feasible entry one closed-loop step under ``table``.

        An entry that fails a check of :func:`apply_policy` becomes
        infeasible and keeps its last state.

        An entry whose successor equals its state bit for bit (``uint64``
        views: ``-0.0`` is not ``0.0``) is parked at that closed-loop
        fixpoint.  While ``table`` stays the same object and its ``policy``
        array stays read-only (as in every table :meth:`chain` yields), a
        parked entry is not stepped again: it keeps its state bytes and gets
        its held control, which is exactly what stepping it would give,
        because the problem's callables are pure and time-invariant (see
        :class:`~gridpolicy.problem.ProblemDef`).  A call with any other
        table object, or with a writeable policy, first clears every park;
        under a writeable policy no entry parks, as the policy may change
        in place between calls.

        Returns:
            Applied controls, shape ``(k, control_dim)``: a parked entry's
            held control, NaN rows for entries that were already infeasible
            or failed during this step.
        """
        fixed = not table.policy.flags.writeable
        if ensemble.parked_under is not table or not fixed:
            ensemble.parked[:] = False
            ensemble.held = np.full((ensemble.states.shape[0], self.ugrid.ndim), np.nan)
            ensemble.parked_under = table if fixed else None
        parked = ensemble.parked & ensemble.feasible
        u_out = np.where(parked[:, None], ensemble.held, np.nan)
        active = np.flatnonzero(ensemble.feasible & ~parked)
        x = np.take(ensemble.states, active, axis=0)
        if active.size:
            reason, u, xn = apply_policy(self.problem, self.xgrid, self.ugrid, table.policy, x)
            ok = reason == 0
            if not ok.all():
                ensemble.feasible[active[~ok]] = False
                active = active[ok]
                x, u, xn = (np.compress(ok, a, axis=0) for a in (x, u, xn))
            _put_rows(ensemble.states, active, xn)
            _put_rows(u_out, active, u)
            if fixed:
                still = _same_rows(xn, x)
                if still.any():
                    ensemble.parked[active[still]] = True
                    ensemble.held[active[still]] = u[still]
        return u_out


class BackwardChain:
    """The backward stages 1, 2, ... of one engine without end, as read-only
    tables; :meth:`DpEngine.chain` makes one.

    Stage 1 is the full step :meth:`DpEngine.backward` on the zero terminal
    field.  Three exact skips keep later stages off work whose result is known:

    * Rows (prioritized sweeping, made exact).  A row's values ``T(x, .)``
      read only the engine's fixed weights and stage costs and the cost
      bits at the row's stencil nodes (the nodes its pairs read with
      positive weight).  The chain keeps its own cost and policy of the
      last stage, which a step updates in place, and the cost field they
      were computed from; a step copies every row none of whose stencil
      nodes changed bit for bit between those two fields (cost and argmin,
      tie-break included).  Each yielded table is a copy, so the kept
      arrays cannot be changed from outside and the rule is exact whatever
      the caller does with the tables; each chain keeps its own.  The rows
      to run are a function of the changed nodes alone, so a stage whose
      changed nodes are bit for bit those of the stage before reuses its
      rows without reading the row map.
    * Controls (action elimination: MacQueen 1967, Hastings 1976).  A row
      evaluated in full whose minimum ``m`` is attained by one control keeps
      that control as its survivor and a *margin*, the fresh margin of its
      second smallest value ``m2`` (below).  Every margin starts at -inf
      (none), so the full kernel runs of stage 2 form the first ones.  Each
      later stage that reads a changed node of the row lowers the margin by an
      upper bound on the span (max - min) of ``D = C_{j-1} - C_{j-2}``: over
      all nodes (MacQueen's bound, formed once per stage) where the margin
      stays above the bound below, else over the row's stencil nodes, which
      is never larger; a node that turned finite or infinite makes a span
      +inf.  While the margin exceeds ``c3 B_j + tau``, no other control can
      reach the survivor's value, and the row is evaluated at its survivor
      alone, with the kernel's operations in its order, so its cost has the
      kernel's bits and its policy stands.  A row reruns the full kernel, which
      forms a fresh margin, once its margin is spent, and whenever its minimum
      is tied (no margin separates a tie); a row with no finite value keeps
      margin +inf and cost +inf until a node it reads turns finite.  A block of
      rows (about :data:`BLOCK_PAIRS` pairs) in which at least half of the rows
      need the full kernel runs it over every row of the block: the unchanged
      rows get the bits a copy would hold and every row a fresh margin.  The
      rows that need it in other blocks are gathered into blocks of the same
      size.
    * Stages.  Once a stage's cost is bitwise equal to the one before it
      (the zero terminal field before stage 1), the cost field has
      reached its fixpoint: every later stage is that same table object,
      and the backward kernel is not run again.

    The rounding bound.  Let ``u = 2**-53``, ``n = 2**d`` corners and
    ``g = (n + 1) u / (1 - (n + 1) u)``: the kernel's ``n`` products
    and ``n`` sums put a computed value ``V`` within ``g`` times the sum
    of its terms' absolute values of the exact one, plus
    ``n 2**-1074`` from underflow.  The weights are nonnegative, but
    their sum need not be exactly 1: ``eps`` bounds ``|sum_c w_c - 1|``
    over the admissible pairs, measured at the build.  Let
    ``q = (1 + g) / (1 - g)`` and ``B_j`` the largest finite
    ``|C_{j-1}|`` over all nodes, and
    ``c1 = g (q + 1)``, ``c2 = g (4q + 2)(1 + eps) + 2 eps``,
    ``c3 = 2 g (1 + eps) + 2 eps``, ``tau = 8 n 2**-1074``.  The fresh
    margin formed at stage ``k`` is
    ``(m2 - m) - c1 (|m2| + |m|) - c2 B_k``.  At a later stage ``j``
    with no node of the row turned finite or infinite, the survivor
    ``s`` and every other control ``e`` satisfy
    ``V_j(e) - V_j(s) >= margin - c3 B_j - tau``, where the margin has
    been lowered by the spans of stages ``k+1..j``: the exact
    difference moves by at most the summed spans plus
    ``eps (|min D| + |max D|) <= 2 eps (B_j + B_k)`` over the
    accumulated change ``D``, and each of the four values is within
    ``g (|V| + 2 (1 + eps) B) / (1 - g)`` of its exact value.  The bound
    is increasing in ``m2``, so the second smallest value covers every
    other control.  The bookkeeping rounds every bound outward
    (``np.nextafter``).  It assumes that the stage costs of admissible
    pairs are finite and that no value overflows; a NaN minimum gets
    no margin.

    A stage is computed only when it is pulled.

    Attributes:
        stage: the stages pulled so far.
        rows: the sorted state rows the last computed step did not copy
            (every row at stage 1, None before it).
        certified: those of them evaluated at their policy control alone.
        pairs: the pairs whose values that step formed (``nx * nu`` at stage 1).
    """

    def __init__(self, engine: DpEngine):
        self.engine = engine
        self.stage = 0
        self.rows = self.certified = None
        self.pairs = 0
        self._margin = np.full(engine.nx, -np.inf)  # per row; -inf: none
        self._source = np.zeros(engine.nx)  # the cost field the last step read
        # the dirty rows of the last changed-node mask (None: none read yet)
        self._changed, self._dirty = None, np.empty(engine.nx, dtype=bool)
        self._cost = self._policy = None  # the last stage's, updated in place
        self._fixpoint: StageTable | None = None

    def __iter__(self) -> BackwardChain:
        return self

    def __next__(self) -> StageTable:
        self.stage += 1
        if self._fixpoint is not None:
            return self._fixpoint
        engine = self.engine
        if self._cost is None:
            table = engine.backward(None)
            self._cost, self._policy = table.cost.copy(), table.policy.copy()
            self.rows = np.arange(engine.nx)
            self.certified = self.rows[:0]
            self.pairs = engine.nx * engine.nu
        else:
            engine._chain_step(engine._augmented(self._cost), self)
            table = StageTable(cost=self._cost.copy(), policy=self._policy.copy())
        table.cost.flags.writeable = table.policy.flags.writeable = False
        if _same_bits(self._cost, self._source):
            self._fixpoint = table
        return table


def _engine_for(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    engine: DpEngine | None = None,
) -> DpEngine:
    """``engine``, checked to be built for exactly these arguments.

    None builds the default one-thread engine.  :class:`ValueError` names
    each argument that is not ``==`` to the engine's (a built-in problem
    compares by its parameters, a custom :class:`ProblemDef` its callables
    by identity).
    """
    if engine is None:
        return DpEngine(problem, xgrid, ugrid)
    given = {"problem": problem, "xgrid": xgrid, "ugrid": ugrid}
    differ = [name for name, v in given.items() if getattr(engine, name) != v]
    if differ:
        raise ValueError(f"engine was built for another {', '.join(differ)}")
    return engine


def _up(x):
    """The next float above ``x``: an upper bound on the exact result of
    the one round-to-nearest operation that gave ``x``."""
    return np.nextafter(x, np.inf)


def _down(x):
    """The next float below ``x``; see :func:`_up`."""
    return np.nextafter(x, -np.inf)


def _gamma(n: int) -> float:
    """An upper bound on ``n u / (1 - n u)``, ``u = 2**-53``: the relative
    error of ``n`` chained roundings."""
    nu = np.ldexp(float(n), -53)  # exact
    return float(_up(nu / _down(1.0 - nu)))


def _rounding_slack(ncorners: int, eps: float) -> tuple[float, float, float, float]:
    """``(c1, c2, c3, tau)`` of the rounding bound in :class:`BackwardChain`,
    for ``ncorners`` corners and weight sums within ``eps`` of 1, each
    rounded up."""
    g = _gamma(ncorners + 1)
    q = _up(_up(1.0 + g) / _down(1.0 - g))
    c1 = _up(g * _up(q + 1.0))
    c2 = _up(_up(_up(g * _up(4.0 * q + 2.0)) * _up(1.0 + eps)) + 2.0 * eps)
    c3 = _up(_up(2.0 * g * _up(1.0 + eps)) + 2.0 * eps)
    # the four values' underflow, (4 + 2 g (q + 1)) n 2**-1074, with g < 1/2
    tau = np.ldexp(8.0 * ncorners, -1074)
    return float(c1), float(c2), float(c3), float(tau)


def _within(rows: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """The entries of sorted ``rows`` in ``[r0, r1)``."""
    return rows[np.searchsorted(rows, r0) : np.searchsorted(rows, r1)]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two float64 fields (``-0.0`` differs from ``0.0``)."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _any_rows(b: np.ndarray) -> np.ndarray:
    """``b.any(axis=-1)`` for a boolean ``(..., m)`` array.

    As a boolean matrix product with a ones vector: a NumPy reduction over a
    short last axis pays a per-row cost that ``matmul`` does not, on one row
    as on many.
    """
    return b @ _ones(b.shape[-1])


@functools.lru_cache(maxsize=None)
def _ones(m: int) -> np.ndarray:
    """A read-only boolean ones vector of length ``m``, made once: ``np.ones``
    costs as much as the product it feeds on a single state."""
    ones = np.ones(m, dtype=bool)
    ones.flags.writeable = False
    return ones


def _same_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of two ``(k, n)`` float64 arrays: are all its bits equal?"""
    return ~_any_rows(a.view(np.uint64) != b.view(np.uint64))


def _put_rows(a: np.ndarray, rows: np.ndarray, v: np.ndarray) -> None:
    """``a[rows] = v`` for sorted distinct ``rows`` of a ``(k, n)`` array,
    one column at a time: fancy indexing loops per row over the short last
    axis (which is also why rows are gathered with ``np.take``)."""
    for j in range(a.shape[1]):
        a[rows, j] = v[:, j]


def _on_live(fn, x: np.ndarray, u: np.ndarray, failed: np.ndarray) -> np.ndarray:
    """``fn(x, u)`` in the batch shape of ``failed``, NaN rows where it holds.

    When no state failed the callable sees the caller's own batch shape, so
    a single ``(n,)`` state is evaluated with scalar arithmetic, and its
    result is returned as it is.  Otherwise the other rows are gathered
    (with none left, the NaN rows are as wide as the states).
    """
    if not np.count_nonzero(failed):  # cheaper than .any() on one state
        return np.asarray(fn(x, u), dtype=float)
    rows = np.flatnonzero(~failed)
    if not rows.size:
        return np.full(failed.shape + x.shape[-1:], np.nan)
    k = failed.size
    xs, us = (np.take(a.reshape(k, -1), rows, axis=0) for a in (x, u))
    vals = np.asarray(fn(xs, us), dtype=float).reshape(rows.size, -1)
    out = np.full((k, vals.shape[1]), np.nan)
    _put_rows(out, rows, vals)
    return out.reshape(failed.shape + out.shape[-1:])


def apply_policy(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    policy: np.ndarray,
    x: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One closed-loop step under ``policy`` from every state in ``x``.

    ``policy`` is a flat integer array of one control-node index per state
    node, -1 where none (a :class:`StageTable`'s ``policy``); any other
    shape or dtype raises :class:`ValueError`.  ``x`` has shape
    ``(..., state_dim)``; pass a single state as ``(state_dim,)``.  Any
    other last axis raises :class:`ValueError`.  A state
    fails at the first of these checks: its policy interpolation stencil
    leaves the grid or touches an infeasible node with positive weight, the
    interpolated control violates an inequality component, or the
    successor state leaves the grid box.  The problem's callables see only
    the states that passed the checks before them.

    The step keeps the batch shape of ``x`` throughout, so one state is
    stepped with NumPy scalar arithmetic, and bitwise as it would be inside
    a batch.

    Returns:
        ``(reason, u, x_next)``.  ``reason`` is an int8 array of the batch
        shape (0-d for one state) indexing :data:`STEP_REASONS` (0 is
        ``STEP_OK``, else the failed check).  ``u`` has shape
        ``(..., control_dim)``, NaN where the policy is undefined;
        ``x_next`` has the shape of ``x``, NaN wherever the step failed.
        When every state stepped and stayed in the box, ``x_next`` may be
        the very array ``problem.dynamics`` returned, unless that array
        shares memory with ``x`` or ``u``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (xgrid.ndim,):
        raise ValueError(f"states must have shape (..., {xgrid.ndim}), got shape {x.shape}")
    policy = np.asarray(policy)
    if policy.shape != (xgrid.size,) or policy.dtype.kind not in "iu":
        raise ValueError(
            f"policy must be an integer array of shape ({xgrid.size},), "
            f"got {policy.dtype} of shape {policy.shape}"
        )
    batch, nc = x.shape[:-1], xgrid._ncorners
    w = np.empty(batch + (nc,))
    base, inside = xgrid._corner_cells(x, w)
    # One corner at a time: on a batch, a (..., 2**ndim) index sum would
    # loop over the corners once per state.
    pol = np.empty(batch + (nc,), dtype=policy.dtype)
    for c, offset in enumerate(xgrid._corner_offsets.tolist()):
        pol[..., c] = policy[base + offset]
    undefined = ~inside | _any_rows((pol == INFEASIBLE) & (w > 0.0))
    # Zero-weight corners may carry the -1 marker; their contribution is
    # exactly 0 * coordinate.  einsum's order of summing the corners follows
    # the operands' layout (measured: 2-D corners as (c0 + c2) + (c1 + c3),
    # not in sequence): C-contiguous (k, 2**ndim) weights keep it the same
    # for a batch as for one state, bit for bit.
    u = np.einsum("kc,kcm->km", w.reshape(-1, nc), ugrid.node_coords()[pol.reshape(-1, nc)])
    u = u.reshape(batch + u.shape[-1:])
    del w, base, inside, pol  # not read again: freed before the callables run
    violated = _any_rows(_on_live(problem.inequality, x, u, undefined) > 0.0)
    failed = undefined | violated
    xn = _on_live(problem.dynamics, x, u, failed)
    left = ~(failed | xgrid._inside(xn))
    reason = np.zeros(batch, dtype=np.int8)  # codes index STEP_REASONS
    if np.count_nonzero(failed | left):
        for code, bad in enumerate((undefined, violated, left), start=1):
            reason[bad] = code
        u[undefined] = np.nan
        xn = np.where((failed | left)[..., None], np.nan, xn)
    elif np.may_share_memory(xn, x) or np.may_share_memory(xn, u):
        xn = xn.copy()
    return reason, u, xn
