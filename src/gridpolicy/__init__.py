"""Grid-based policy solver for constrained infinite-horizon optimal control.

The package solves undiscounted, constrained, nonlinear optimal control
problems on uniform Cartesian grids: backward value recursion with
multilinear interpolation produces finite-horizon policies, and a
growing-horizon loop promotes the first-stage policy to a stationary one
once it stops changing and the closed loop contracts to a single regime.
"""

from .config import ConfigError, RunConfig, load_config, parse_config
from .dp import (
    INFEASIBLE,
    STEP_REASONS,
    DpEngine,
    ForwardEnsemble,
    StageTable,
    apply_policy,
    feasible_indices,
)
from .equilibrium import EquilibriumPoint, NoEquilibriumError, equilibrium_search
from .grid import AxisSpec, CartesianGrid
from .problem import (
    PendulumParams,
    ProblemDef,
    builtin_avg_angle_pendulum,
    builtin_min_time_pendulum,
    pendulum_step,
    relaxed_cost,
)
from .reference import (
    RolloutTrace,
    finite_horizon_policies,
    horizon_sweep,
    rollout_stationary,
    rollout_time_varying,
)
from .solver import (
    ConvergenceMetrics,
    InfeasibleProblemError,
    InfeasibleRolloutError,
    SolveReport,
    SolverConfig,
    SolverError,
    achieved_average,
    delta_mu,
    delta_x,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "CartesianGrid",
    "ConfigError",
    "ConvergenceMetrics",
    "DpEngine",
    "EquilibriumPoint",
    "ForwardEnsemble",
    "INFEASIBLE",
    "InfeasibleProblemError",
    "InfeasibleRolloutError",
    "NoEquilibriumError",
    "PendulumParams",
    "ProblemDef",
    "RolloutTrace",
    "RunConfig",
    "STEP_REASONS",
    "SolveReport",
    "SolverConfig",
    "SolverError",
    "StageTable",
    "achieved_average",
    "apply_policy",
    "builtin_avg_angle_pendulum",
    "builtin_min_time_pendulum",
    "delta_mu",
    "delta_x",
    "equilibrium_search",
    "feasible_indices",
    "finite_horizon_policies",
    "horizon_sweep",
    "load_config",
    "parse_config",
    "pendulum_step",
    "relaxed_cost",
    "rollout_stationary",
    "rollout_time_varying",
    "solve",
    "__version__",
]
