"""Finite-horizon reference policies, rollouts, and horizon sweeps.

The reference solution to a ``W``-step problem is the full time-varying
policy sequence from the backward recursion: step ``k`` of the forward
pass applies the policy of the stage with ``W - k`` steps to go.  Rolling
that sequence out is the exact (up to interpolation) finite-horizon optimum
and serves as the comparison baseline for the stationary policy produced by
the growing-horizon solver.  The rollout reads nothing of a stage but its
policy, so the reference keeps the policies alone: one read-only array per
run of consecutive stages whose policies are bitwise equal
(:class:`PolicyRuns`).  A solve's record of its stages 1..N is handed on
explicitly, so the reference computes only the stages past ``N``.

A *horizon sweep* evaluates how the mean per-step relaxed cost of closed
loop trajectories -- same fixed trajectory length for every entry -- varies
with the horizon the policy was designed for.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .dp import STEP_REASONS, BackwardChain, DpEngine, StageTable, _engine_for, apply_policy
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


class PolicyRuns(BackwardChain):
    """A :class:`~gridpolicy.dp.BackwardChain` that keeps the policy of
    every stage pulled so far, as runs.

    Of each stage only its policy array is kept, and only once per run of
    consecutive stages whose policies are bitwise equal: the record of
    ``stage`` stages holds one grid-sized int64 array per run.
    :func:`~gridpolicy.solver.solve` pulls its stages through one and
    returns it as ``SolveReport.stages``; :func:`finite_horizon_policies`
    given it reads the stages already pulled from the record and pulls only
    the ones past them.  The record is this object's, not the engine's, so
    it may be handed on, reused and extended.
    """

    def __init__(self, engine: DpEngine):
        super().__init__(engine)
        self._runs: list[list] = []  # [policy, stages in the run], stage 1's first

    def __next__(self) -> StageTable:
        table = super().__next__()
        runs, policy = self._runs, table.policy
        if runs and (runs[-1][0] is policy or np.array_equal(runs[-1][0], policy)):
            runs[-1][1] += 1
        else:
            runs.append([policy, 1])
        return table

    def policies(self, horizon: int) -> list[np.ndarray]:
        """The policies of stages ``horizon, horizon - 1, ..., 1`` (forward
        time order), pulling the stages past ``stage`` first.  Equal
        consecutive entries are one array object.  A ``horizon`` that is not
        an integer raises :class:`TypeError`, one below 1
        :class:`ValueError`, before any stage is pulled."""
        if operator.index(horizon) < 1:
            raise ValueError("horizon must be at least 1")
        for _ in range(horizon - self.stage):
            next(self)
        out: list[np.ndarray] = []
        for policy, length in self._runs:
            out += [policy] * min(length, horizon - len(out))
            if len(out) == horizon:
                break
        out.reverse()
        return out


def finite_horizon_policies(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    horizon: int,
    engine: DpEngine | None = None,
    stages: PolicyRuns | None = None,
) -> list[np.ndarray]:
    """Optimal time-varying policies for the ``horizon``-step problem.

    ``engine`` is as in :func:`~gridpolicy.solver.solve`: built for exactly
    these arguments, else :class:`ValueError`; None builds a one-thread one.
    ``stages`` continues a record instead of starting a fresh chain, such as
    a solve's ``SolveReport.stages``: its stages are reused and only the
    ones past them are computed, and it is extended in place.  It must
    come from ``engine`` (or, with ``engine`` None, from an engine built for
    these arguments), else :class:`ValueError`.  The result is bitwise the
    same either way.  A ``horizon`` that is not an integer raises
    :class:`TypeError` before any stage is computed.

    Returns:
        Read-only int64 policy arrays in forward time order: entry ``k`` is
        the policy to apply at step ``k``, that of the stage with
        ``horizon - k`` steps to go.  Consecutive entries whose policies are
        bitwise equal are one array object.
    """
    if operator.index(horizon) < 1:
        raise ValueError("horizon must be at least 1")
    if stages is None:
        stages = PolicyRuns(_engine_for(problem, xgrid, ugrid, engine))
    elif engine is not None and engine is not stages.engine:
        raise ValueError("stages were recorded on another engine")
    else:
        _engine_for(problem, xgrid, ugrid, stages.engine)
    return stages.policies(horizon)


def _rollout(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    policies,
    x0: np.ndarray,
) -> RolloutTrace:
    x = np.asarray(x0, dtype=float).reshape(xgrid.ndim)
    states = [x]
    controls: list[np.ndarray] = []
    reason = None
    for k, policy in enumerate(policies):
        code, u, xn = apply_policy(problem, xgrid, ugrid, policy, x)
        if code:
            reason = STEP_REASONS[code]
            if k == 0:
                raise InfeasibleRolloutError(0, reason)
            break
        controls.append(u)
        states.append(xn)
        x = xn
    xs = np.asarray(states, dtype=float)
    us = np.asarray(controls, dtype=float).reshape(len(controls), ugrid.ndim)
    # the problem callables act row by row, so one call on all (x_k, u_k)
    # gives the per-step values
    return RolloutTrace(
        states=xs,
        controls=us,
        stage_costs=np.asarray(problem.stage_cost(xs[:-1], us), dtype=float),
        relaxed_costs=relaxed_cost(problem, xs[:-1], us),
        average_values=np.asarray(problem.average_fn(xs[:-1], us), dtype=float),
        reason=reason,
    )


def rollout_time_varying(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    policies: list[np.ndarray],
    x0: np.ndarray,
) -> RolloutTrace:
    """Roll policy ``policies[k]`` at step ``k`` starting from ``x0``.

    ``policies`` holds flat policy arrays, as :func:`finite_horizon_policies`
    returns them.

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
    return _rollout(problem, xgrid, ugrid, itertools.repeat(table.policy, horizon), x0)


def horizon_sweep(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    problem_horizons: list[int],
    trajectory_horizon: int,
    engine: DpEngine | None = None,
) -> dict[int, np.ndarray]:
    """Mean per-step relaxed cost of every node, per design horizon.

    For each ``N`` in ``problem_horizons``, the ``N``-step first-stage policy
    is rolled out ``trajectory_horizon`` steps from *every* grid node (one
    vectorized ensemble), and the relaxed stage costs are averaged along each
    surviving trajectory.  Each step adds the cost of every live entry at
    its state before the step and the control :meth:`DpEngine.forward`
    returned for it.  Of the backward chain only the wanted
    first-stage tables are kept; design horizons past the cost fixpoint
    (see :meth:`DpEngine.chain`) share one read-only table.
    ``engine`` is as in :func:`finite_horizon_policies`.

    A design horizon or ``trajectory_horizon`` that is not an integer raises
    :class:`TypeError` before any stage is computed.

    Returns:
        Mapping ``N -> (size,)`` array of per-node mean costs; NaN at nodes
        whose trajectory went infeasible before the full length.
    """
    horizons = sorted(set(map(operator.index, problem_horizons)))
    if not horizons or horizons[0] < 1:
        raise ValueError("problem horizons must be positive integers")
    if operator.index(trajectory_horizon) < 1:
        raise ValueError("trajectory_horizon must be at least 1")
    engine = _engine_for(problem, xgrid, ugrid, engine)

    # The range comes first: zip stops on it before pulling one more stage.
    stages = zip(range(1, horizons[-1] + 1), engine.chain())
    first_stage = {n: table for n, table in stages if n in horizons}

    out: dict[int, np.ndarray] = {}
    for n in horizons:
        table = first_stage[n]
        ens = engine.seed_ensemble(table)
        acc = np.zeros(engine.nx, dtype=float)
        for _ in range(trajectory_horizon):
            x = ens.states.copy()
            u = engine.forward(ens, table)
            live = np.flatnonzero(ens.feasible)
            if not live.size:
                break
            # the problem callables act row by row
            x, u = (np.take(a, live, axis=0) for a in (x, u))
            acc[live] += relaxed_cost(problem, x, u)
        costs = np.full(engine.nx, np.nan)
        costs[ens.feasible] = acc[ens.feasible] / float(trajectory_horizon)
        out[n] = costs
    return out
