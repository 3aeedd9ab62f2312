"""Growing-horizon solve loop with dual stationarity/convergence termination.

The solver runs backward value recursion to a target horizon ``N``, then
plays the resulting first-stage policy forward from every feasible node for
``ceil(N / 2)`` steps and measures two vectors:

* ``delta_mu`` -- policy stationarity: for every control component, the
  largest deviation (in control node coordinates) between the first-stage
  policy and the stage-``j`` policies for ``j`` in ``[ceil(N/2), N]``,
  over the nodes whose forward trajectories stayed feasible;
* ``delta_x`` -- state convergence: the componentwise half-width of the
  surviving end states around their mean.

Termination requires *every* ``delta_mu`` component strictly below its
tolerance and *every* ``delta_x`` component strictly below its tolerance.
Otherwise the target horizon is multiplied by a growth factor, the backward
recursion pulls the further stages from the same backward chain, and the
forward test is repeated from a fresh ensemble.  That chain is a
:class:`~gridpolicy.reference.PolicyRuns`, which keeps of its stages only
their policies, once per run of equal ones; ``delta_mu`` reads its window
from that record.
The loop gives up once the next target would exceed ``n_max``.
"""

from __future__ import annotations

import math
import operator
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .dp import DpEngine, ForwardEnsemble, StageTable, _engine_for
from .grid import CartesianGrid
from .problem import ProblemDef
from .reference import InfeasibleRolloutError, PolicyRuns, rollout_stationary


class SolverError(RuntimeError):
    """Internal invariant violation during the solve loop."""


class InfeasibleProblemError(RuntimeError):
    """No grid node admits a feasible trajectory."""


@dataclass(frozen=True)
class SolverConfig:
    """Termination tolerances and horizon schedule.

    ``eps_mu`` / ``eps_x`` accept a scalar or a per-component sequence;
    ``None`` defaults to twice the respective grid spacing per component.
    ``n_init``, ``n_max`` and ``growth`` must be integers, else
    :class:`TypeError`.
    """

    eps_mu: float | tuple[float, ...] | None = None
    eps_x: float | tuple[float, ...] | None = None
    n_init: int = 5
    n_max: int = 10_000
    growth: int = 3

    def __post_init__(self) -> None:
        for name in ("n_init", "n_max", "growth"):
            operator.index(getattr(self, name))
        if self.n_init < 1:
            raise ValueError("n_init must be at least 1")
        if self.n_max < self.n_init:
            raise ValueError("n_max must be >= n_init")
        if self.growth < 2:
            raise ValueError("growth must be at least 2")


@dataclass(frozen=True)
class ConvergenceMetrics:
    """Per-tested-horizon record of the termination quantities."""

    horizon: int
    delta_mu: np.ndarray
    delta_x: np.ndarray
    feasible_count: int


@dataclass
class SolveReport:
    """Result of :func:`solve`.

    ``status`` is ``"converged"`` or ``"hit_n_max"``; ``terminal_horizon`` is
    the last horizon actually tested.  ``achieved_average`` is the long-run
    mean of the problem's average output under the returned policy (NaN when
    the evaluation rollout failed; see ``notes``).  ``stages`` is the solve's
    own backward chain, a :class:`~gridpolicy.reference.PolicyRuns` pulled
    to ``stage == terminal_horizon``: its ``rows``, ``certified`` and
    ``pairs`` describe the last stage computed, and it holds the policies of
    stages ``1..terminal_horizon`` as runs, from which the solve read each
    tested horizon's :func:`delta_mu`.  Passed to
    :func:`~gridpolicy.reference.finite_horizon_policies` with the same
    engine it lets the reference compute only the stages past the solve's.
    """

    status: str
    terminal_horizon: int
    first_stage_policy: StageTable
    metrics: list[ConvergenceMetrics]
    final_ensemble: ForwardEnsemble
    achieved_average: float
    wall_time: float
    stages: PolicyRuns
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# termination metrics
# ---------------------------------------------------------------------------


def _resolve_eps(
    value: float | tuple[float, ...] | None, grid: CartesianGrid
) -> np.ndarray:
    if value is None:
        return 2.0 * grid.spacings
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(grid.ndim, float(arr[0]))
    if arr.shape != (grid.ndim,):
        raise ValueError(f"tolerance must be scalar or length {grid.ndim}")
    if not (arr > 0.0).all():  # NaN fails too
        raise ValueError("tolerances must be positive")
    return arr


def delta_mu(
    policies: list[np.ndarray],
    survivors: np.ndarray,
    ugrid: CartesianGrid,
) -> np.ndarray:
    """Policy-stationarity deviation over the back half of a horizon.

    Args:
        policies: one horizon's ``N`` stage policies in forward order, as
            :meth:`~gridpolicy.reference.PolicyRuns.policies` lists them;
            entry 0 is the candidate.  The window is the first
            ``N - ceil(N/2) + 1`` entries (stages ``ceil(N/2)..N``), and an
            entry that is the very object before it is read only once.
        survivors: flat node indices that stayed feasible forward; only
            these nodes are read.
        ugrid: control grid (deviations are measured in node coordinates).

    Returns:
        Per-control-component max of ``|c_j - c_N|``, shape
        ``(ugrid.ndim,)``, formed as ``max(hi - c_N, c_N - lo)`` over each
        node's range: bitwise the same, as ``fl(a - b)`` is monotone in
        ``a`` and in ``b``.
    """
    n = len(policies)
    if n == 0:
        raise ValueError("empty policy list")
    survivors = np.asarray(survivors, dtype=np.int64)
    if survivors.size == 0:
        raise InfeasibleProblemError("no feasible nodes survive the forward pass")
    coords = ugrid.node_coords()
    window = policies[: n - (n + 1) // 2 + 1]
    for k, policy in enumerate(window):
        if k and policy is window[k - 1]:
            continue
        p = policy[survivors]
        if (p < 0).any():
            # Monotone infeasibility makes this unreachable for true survivors.
            raise SolverError("forward survivor lacks a control in a compared stage")
        c = coords[p]
        if k:
            lo, hi = np.minimum(lo, c), np.maximum(hi, c)
        else:
            candidate = lo = hi = c
    return np.maximum(hi - candidate, candidate - lo).max(axis=0)


def delta_x(ensemble: ForwardEnsemble) -> np.ndarray:
    """Componentwise spread of the surviving states around their mean."""
    states = ensemble.states[ensemble.feasible]
    if states.shape[0] == 0:
        raise InfeasibleProblemError("no feasible nodes survive the forward pass")
    return np.abs(states - states.mean(axis=0)).max(axis=0)


# ---------------------------------------------------------------------------
# policy evaluation
# ---------------------------------------------------------------------------


def achieved_average(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    table: StageTable,
    x0: np.ndarray,
    horizon: int,
    tail: int,
) -> float:
    """Long-run mean of ``average_fn`` under a stationary policy.

    Rolls out ``horizon`` closed-loop steps from ``x0`` and averages the
    per-stage output over the last ``tail`` steps.

    Raises:
        TypeError: if ``horizon`` or ``tail`` is not an integer.
        InfeasibleRolloutError: if any step fails a feasibility check.
    """
    horizon, tail = operator.index(horizon), operator.index(tail)
    if not 1 <= tail <= horizon:
        raise ValueError("need 1 <= tail <= horizon")
    trace = rollout_stationary(problem, xgrid, ugrid, table, x0, horizon)
    if trace.reason is not None:
        raise InfeasibleRolloutError(trace.length, trace.reason)
    return float(trace.average_values[-tail:].mean())


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------


def _emit_progress(progress, line: str) -> None:
    if progress is None:
        return
    if callable(progress):
        progress(line)
    else:
        print(line, file=sys.stderr)


def solve(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    config: SolverConfig | None = None,
    engine: DpEngine | None = None,
    progress: object = "stderr",
) -> SolveReport:
    """Solve for a stationary grid policy on a growing horizon.

    The backward stages come from one
    :class:`~gridpolicy.reference.PolicyRuns` chain that the report
    returns as ``stages``: its tables, the returned ``first_stage_policy``
    among them, are read-only, and the stages past the cost fixpoint are one
    shared table.  Only the last table is kept whole, and of the others
    their policies as runs; each tested horizon ``N`` calls
    :func:`delta_mu` once, on ``stages.policies(N)``.

    Args:
        problem: the control problem.
        xgrid: state grid.
        ugrid: control grid.
        config: tolerances and horizon schedule; defaults throughout.
        engine: a prebuilt :class:`DpEngine` for exactly these ``problem``,
            ``xgrid`` and ``ugrid``, which also sets the thread count; None
            builds a one-thread engine.
        progress: ``"stderr"`` (default) prints one line per tested horizon,
            ``None`` silences, a callable receives each line.

    Returns:
        A :class:`SolveReport`.

    Raises:
        ValueError: when ``engine`` was built for another problem or grid.
        InfeasibleProblemError: when no node survives a forward test, which
            under monotone infeasibility means no longer horizon can succeed.
    """
    cfg = config or SolverConfig()
    eps_mu = _resolve_eps(cfg.eps_mu, ugrid)
    eps_x = _resolve_eps(cfg.eps_x, xgrid)
    engine = _engine_for(problem, xgrid, ugrid, engine)

    t0 = time.perf_counter()
    stages = PolicyRuns(engine)
    metrics: list[ConvergenceMetrics] = []
    target = cfg.n_init
    status = None
    ensemble = None

    while True:
        while stages.stage < target:
            table = next(stages)

        ensemble = engine.seed_ensemble(table)
        if not ensemble.feasible.any():
            raise InfeasibleProblemError("no grid node admits a feasible control")
        for _ in range((target + 1) // 2):
            engine.forward(ensemble, table)
        survivors = np.flatnonzero(ensemble.feasible)

        dmu = delta_mu(stages.policies(target), survivors, ugrid)
        dx = delta_x(ensemble)
        metrics.append(
            ConvergenceMetrics(
                horizon=target,
                delta_mu=dmu,
                delta_x=dx,
                feasible_count=int(survivors.size),
            )
        )
        _emit_progress(
            progress,
            "horizon={} delta_mu={} delta_x={} feasible={}".format(
                target,
                ",".join(repr(float(v)) for v in dmu),
                ",".join(repr(float(v)) for v in dx),
                survivors.size,
            ),
        )

        if (dmu < eps_mu).all() and (dx < eps_x).all():
            status = "converged"
            break
        if target * cfg.growth > cfg.n_max:
            status = "hit_n_max"
            break
        target *= cfg.growth

    notes: list[str] = []
    mean_state = ensemble.states[ensemble.feasible].mean(axis=0)
    try:
        avg = achieved_average(
            problem,
            xgrid,
            ugrid,
            table,
            mean_state,
            horizon=10 * target,
            tail=max(1, math.ceil(target / 4)),
        )
    except InfeasibleRolloutError as exc:
        avg = float("nan")
        notes.append(f"average evaluation rollout failed: {exc}")

    return SolveReport(
        status=status,
        terminal_horizon=target,
        first_stage_policy=table,
        metrics=metrics,
        final_ensemble=ensemble,
        achieved_average=avg,
        wall_time=time.perf_counter() - t0,
        stages=stages,
        notes=notes,
    )
