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
recursion resumes from the already-computed stack, and the forward test is
repeated from a fresh ensemble.  The loop gives up once the next target
would exceed ``n_max``.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .dp import DpEngine, ForwardEnsemble, StageTable, feasible_indices
from .grid import CartesianGrid
from .problem import ProblemDef
from .reference import InfeasibleRolloutError, rollout_stationary


class SolverError(RuntimeError):
    """Internal invariant violation during the solve loop."""


class InfeasibleProblemError(RuntimeError):
    """No grid node admits a feasible trajectory."""


@dataclass(frozen=True)
class SolverConfig:
    """Termination tolerances and horizon schedule.

    ``eps_mu`` / ``eps_x`` accept a scalar or a per-component sequence;
    ``None`` defaults to twice the respective grid spacing per component.
    """

    eps_mu: float | tuple[float, ...] | None = None
    eps_x: float | tuple[float, ...] | None = None
    n_init: int = 5
    n_max: int = 10_000
    growth: int = 3

    def __post_init__(self) -> None:
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
    the evaluation rollout failed; see ``notes``).
    """

    status: str
    terminal_horizon: int
    first_stage_policy: StageTable
    metrics: list[ConvergenceMetrics]
    final_ensemble: ForwardEnsemble
    achieved_average: float
    wall_time: float
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
    if (arr <= 0.0).any():
        raise ValueError("tolerances must be positive")
    return arr


def delta_mu(
    stages: list[StageTable],
    survivors: np.ndarray,
    ugrid: CartesianGrid,
) -> np.ndarray:
    """Policy-stationarity deviation over the second half of the stack.

    Args:
        stages: backward tables in recursion order (``stages[j-1]`` holds the
            ``j``-step table); the last entry is the candidate policy.
        survivors: flat node indices that stayed feasible forward.
        ugrid: control grid (deviations are measured in node coordinates).

    Returns:
        Per-control-component max deviation, shape ``(ugrid.ndim,)``.
    """
    n = len(stages)
    if n == 0:
        raise ValueError("empty stage stack")
    survivors = np.asarray(survivors, dtype=np.int64)
    if survivors.size == 0:
        raise InfeasibleProblemError("no feasible nodes survive the forward pass")
    j0 = (n + 1) // 2  # ceil(n / 2)
    pol = np.stack([stages[j - 1].policy[survivors] for j in range(j0, n + 1)])
    if (pol < 0).any():
        # Monotone infeasibility makes this unreachable for true survivors.
        raise SolverError("forward survivor lacks a control in a compared stage")
    coords = ugrid.node_coords()[pol]  # (stages, survivors, m)
    dev = np.abs(coords - coords[-1][None])
    return dev.max(axis=(0, 1))


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
        InfeasibleRolloutError: if any step fails a feasibility check.
    """
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
    threads: int = 1,
    engine: DpEngine | None = None,
    progress: object = "stderr",
) -> SolveReport:
    """Solve for a stationary grid policy on a growing horizon.

    The backward stack grows through :meth:`DpEngine.extend`: its tables,
    the returned ``first_stage_policy`` among them, are read-only, and the
    stages past the cost fixpoint are one shared table.

    Args:
        problem: the control problem.
        xgrid: state grid.
        ugrid: control grid.
        config: tolerances and horizon schedule; defaults throughout.
        threads: worker threads for the vectorized kernels (0 = all usable CPUs).
            Results are independent of this setting.
        engine: reuse a prebuilt :class:`DpEngine` (must match the grids).
        progress: ``"stderr"`` (default) prints one line per tested horizon,
            ``None`` silences, a callable receives each line.

    Returns:
        A :class:`SolveReport`.

    Raises:
        InfeasibleProblemError: when no node survives a forward test, which
            under monotone infeasibility means no longer horizon can succeed.
    """
    cfg = config or SolverConfig()
    eps_mu = _resolve_eps(cfg.eps_mu, ugrid)
    eps_x = _resolve_eps(cfg.eps_x, xgrid)
    if engine is None:
        engine = DpEngine(problem, xgrid, ugrid, threads=threads)

    t0 = time.perf_counter()
    stages: list[StageTable] = []
    metrics: list[ConvergenceMetrics] = []
    target = cfg.n_init
    status = None
    ensemble = None

    while True:
        while len(stages) < target:
            engine.extend(stages)
        table = stages[-1]

        ensemble = engine.seed_ensemble(table)
        if not ensemble.feasible.any():
            raise InfeasibleProblemError("no grid node admits a feasible control")
        for _ in range((target + 1) // 2):
            engine.forward(ensemble, table)
        survivors = feasible_indices(ensemble)

        dmu = delta_mu(stages, survivors, ugrid)
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
            stages[-1],
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
        first_stage_policy=stages[-1],
        metrics=metrics,
        final_ensemble=ensemble,
        achieved_average=avg,
        wall_time=time.perf_counter() - t0,
        notes=notes,
    )
