"""Finite-horizon reference policies, rollouts, and horizon sweeps.

The reference solution to an ``N``-step problem is the full time-varying
policy sequence from the backward recursion: stage ``k`` of the forward
pass uses the table computed ``N - k`` steps from the end.  Rolling that
sequence out is the exact (up to interpolation) finite-horizon optimum and
serves as the comparison baseline for the stationary policy produced by the
growing-horizon solver.

A *horizon sweep* evaluates how the mean per-step relaxed cost of closed
loop trajectories -- same fixed trajectory length for every entry -- varies
with the horizon the policy was designed for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dp import STEP_REASONS, DpEngine, StageTable, apply_policy
from .grid import CartesianGrid
from .problem import ProblemDef, relaxed_cost


class InfeasibleRolloutError(RuntimeError):
    """A closed-loop rollout failed a feasibility check.

    Attributes:
        step: index of the failed step.
        reason: which check failed (see ``dp.STEP_REASONS``).
    """

    def __init__(self, step: int, reason: str):
        super().__init__(f"rollout infeasible at step {step} ({reason})")
        self.step = step
        self.reason = reason


@dataclass
class RolloutTrace:
    """A closed-loop trajectory with per-step cost bookkeeping.

    ``states`` has one more row than the per-step arrays (it includes the
    terminal state).  ``reason`` is ``None`` for a complete rollout, else the
    failed check (see ``dp.STEP_REASONS``) at which the trace was truncated.
    """

    states: np.ndarray
    controls: np.ndarray
    stage_costs: np.ndarray
    relaxed_costs: np.ndarray
    average_values: np.ndarray
    reason: str | None = None

    @property
    def length(self) -> int:
        """Number of completed steps."""
        return self.controls.shape[0]


def finite_horizon_policies(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    horizon: int,
    engine: DpEngine | None = None,
    threads: int = 1,
) -> list[StageTable]:
    """Optimal time-varying policies for the ``horizon``-step problem.

    Returns:
        Tables in forward time order: entry ``k`` is the policy to apply at
        step ``k`` (i.e. the table with ``horizon - k`` steps to go).  The
        stages past the cost fixpoint (see :meth:`DpEngine.extend`) are one
        shared read-only table.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if engine is None:
        engine = DpEngine(problem, xgrid, ugrid, threads=threads)
    stages: list[StageTable] = []
    while len(stages) < horizon:
        engine.extend(stages)
    stages.reverse()
    return stages


def _rollout(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    tables,
    x0: np.ndarray,
) -> RolloutTrace:
    x = np.asarray(x0, dtype=float).reshape(xgrid.ndim)
    states = [x]
    controls: list[np.ndarray] = []
    fc: list[float] = []
    fcr: list[float] = []
    fa: list[float] = []
    reason = None
    for k, table in enumerate(tables):
        code, u, xn = apply_policy(problem, xgrid, ugrid, table, x)
        if code:
            reason = STEP_REASONS[code]
            if k == 0:
                raise InfeasibleRolloutError(0, reason)
            break
        controls.append(u)
        fc.append(float(np.asarray(problem.stage_cost(x, u), dtype=float)))
        fcr.append(float(relaxed_cost(problem, x, u)))
        fa.append(float(np.asarray(problem.average_fn(x, u), dtype=float)))
        states.append(xn)
        x = xn
    m = ugrid.ndim
    return RolloutTrace(
        states=np.asarray(states, dtype=float),
        controls=np.asarray(controls, dtype=float).reshape(len(controls), m),
        stage_costs=np.asarray(fc, dtype=float),
        relaxed_costs=np.asarray(fcr, dtype=float),
        average_values=np.asarray(fa, dtype=float),
        reason=reason,
    )


def rollout_time_varying(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    policies: list[StageTable],
    x0: np.ndarray,
) -> RolloutTrace:
    """Roll the stage-``k`` policy at step ``k`` starting from ``x0``.

    Raises:
        InfeasibleRolloutError: if the very first step is infeasible (``x0``
            outside the policy's feasible set).  Later failures truncate the
            trace and record the reason instead.
    """
    return _rollout(problem, xgrid, ugrid, policies, x0)


def rollout_stationary(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    table: StageTable,
    x0: np.ndarray,
    horizon: int,
) -> RolloutTrace:
    """Roll a single stationary policy for ``horizon`` steps from ``x0``.

    ``horizon`` 0 is allowed and yields a trace holding only the start state.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return _rollout(problem, xgrid, ugrid, (table for _ in range(horizon)), x0)


def horizon_sweep(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    problem_horizons: list[int],
    trajectory_horizon: int,
    engine: DpEngine | None = None,
    threads: int = 1,
) -> dict[int, np.ndarray]:
    """Mean per-step relaxed cost of every node, per design horizon.

    For each ``N`` in ``problem_horizons``, the ``N``-step first-stage policy
    is rolled out ``trajectory_horizon`` steps from *every* grid node (one
    vectorized ensemble), and the relaxed stage costs are averaged along each
    surviving trajectory.  The backward chain holds only its last two
    tables and the wanted first-stage tables; design horizons past the cost
    fixpoint (see :meth:`DpEngine.extend`) share one read-only table.

    Returns:
        Mapping ``N -> (size,)`` array of per-node mean costs; NaN at nodes
        whose trajectory went infeasible before the full length.
    """
    horizons = sorted(set(int(n) for n in problem_horizons))
    if not horizons or horizons[0] < 1:
        raise ValueError("problem horizons must be positive integers")
    if trajectory_horizon < 1:
        raise ValueError("trajectory_horizon must be at least 1")
    if engine is None:
        engine = DpEngine(problem, xgrid, ugrid, threads=threads)

    wanted = set(horizons)
    first_stage: dict[int, StageTable] = {}
    stages: list[StageTable] = []
    for n in range(1, horizons[-1] + 1):
        table = engine.extend(stages)
        del stages[:-2]  # all that extend reads
        if n in wanted:
            first_stage[n] = table

    out: dict[int, np.ndarray] = {}
    for n in horizons:
        table = first_stage[n]
        ens = engine.seed_ensemble(table)
        acc = np.zeros(engine.nx, dtype=float)
        for _ in range(trajectory_horizon):
            before = ens.states.copy()
            u = engine.forward(ens, table)
            alive = ens.feasible
            if not alive.any():
                break
            acc[alive] += relaxed_cost(problem, before[alive], u[alive])
        costs = np.full(engine.nx, np.nan)
        costs[ens.feasible] = acc[ens.feasible] / float(trajectory_horizon)
        out[n] = costs
    return out
