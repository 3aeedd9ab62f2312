"""Problem definitions: dynamics, costs, constraints, and built-in benchmarks.

A control problem is a bundle of vectorized callables over batched arrays:
states have shape ``(..., state_dim)`` and controls ``(..., control_dim)``,
and every callable must accept arbitrary matching batch shapes.  Stage costs
may be *relaxed* by a constant multiplier ``lam`` on an auxiliary per-stage
output ``average_fn``; the relaxation shifts the stationary optimum so that
minimizing long-run cost steers the achieved long-run average of
``average_fn`` toward a nominal value.

The built-in benchmarks are a torque-limited pendulum integrated with
classical fourth-order Runge-Kutta substeps under a zero-order hold:

    theta_ddot = u / (m l^2) - (d / m) theta_dot - (g / l) sin(theta)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray
VectorFn = Callable[[Array, Array], Array]


@dataclass(frozen=True)
class ProblemDef:
    """A constrained control problem on continuous state/control spaces.

    Attributes:
        state_dim: dimension of the state vector.
        control_dim: dimension of the control vector.
        dynamics: ``(x, u) -> x_next`` with shape ``(..., state_dim)``.
        stage_cost: ``(x, u) -> f_c`` with shape ``(...,)``.
        inequality: ``(x, u) -> g`` with shape ``(..., n_g)``; a pair is
            admissible iff every component satisfies ``g <= 0``.
        average_fn: ``(x, u) -> f_a`` with shape ``(...,)``, the per-stage
            quantity whose long-run average is steered by the relaxation.
        lam: relaxation multiplier.  ``None`` disables the relaxation
            entirely (the relaxed cost degenerates to the stage cost).
        nominal_average: target long-run average of ``average_fn``, when the
            problem prescribes one.

    The callables must be pure and time-invariant, and act row by row: a
    row's result depends only on that row's bits.  The engine evaluates them
    once per state/control node pair, and the forward pass stops stepping
    entries at exact closed-loop fixpoints, on that promise.

    Problems compare field by field: the built-in problems' callables
    compare by their parameters, any other callable by identity.
    """

    state_dim: int
    control_dim: int
    dynamics: VectorFn
    stage_cost: VectorFn
    inequality: VectorFn
    average_fn: VectorFn
    lam: float | None = None
    nominal_average: float | None = None

    def __post_init__(self) -> None:
        if self.state_dim < 1 or self.control_dim < 1:
            raise ValueError("state_dim and control_dim must be at least 1")


def relaxed_cost(problem: ProblemDef, x: Array, u: Array) -> Array:
    """Relaxed stage cost ``f_c + lam * f_a`` (just ``f_c`` when lam is None)."""
    c = np.asarray(problem.stage_cost(x, u), dtype=float)
    if problem.lam is None:
        return c
    return c + problem.lam * np.asarray(problem.average_fn(x, u), dtype=float)


# ---------------------------------------------------------------------------
# pendulum dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PendulumParams:
    """Physical and discretization parameters of the pendulum benchmarks.

    ``sample_time`` is the zero-order-hold interval; each sample is integrated
    with ``substeps`` classical RK4 steps at constant torque.
    """

    mass: float = 1.0
    gravity: float = 1.0
    length: float = 1.0
    damping: float = 0.0
    sample_time: float = 0.2
    substeps: int = 10

    def __post_init__(self) -> None:
        if min(self.mass, self.gravity, self.length) <= 0.0:
            raise ValueError("mass, gravity and length must be positive")
        if self.damping < 0.0:
            raise ValueError("damping must be nonnegative")
        if self.sample_time <= 0.0:
            raise ValueError("sample_time must be positive")
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")


def pendulum_step(params: PendulumParams, x: Array, u: Array) -> Array:
    """One zero-order-hold sample of the pendulum, batched.

    Args:
        params: physical parameters and integration settings.
        x: states ``(..., 2)`` as ``(theta, theta_dot)``.
        u: torques ``(..., 1)``.

    Returns:
        Next states, shape ``(..., 2)``.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    # components as NumPy scalars for a single state (``[()]``), so that one
    # state is integrated with scalar arithmetic
    th = x[..., 0][()]
    om = x[..., 1][()]
    tq = u[..., 0][()]

    inv_ml2 = 1.0 / (params.mass * params.length**2)
    damp = params.damping / params.mass
    grav = params.gravity / params.length
    h = params.sample_time / params.substeps

    drive = tq * inv_ml2  # the torque term is constant over the sample
    half, sixth, sin = 0.5 * h, h / 6.0, np.sin
    # The acceleration drive - damp * omega - grav * sin(theta) is written
    # out at each stage: as a helper, its 40 calls per sample took a fifth
    # of a single state's step.  The theta slopes are om (stage 1), kt
    # (stages 2 and 4) and k3t, the omega slopes so (stage 1) and ko.  The
    # running sums st and so add the stages left to right, ((k1 + 2.0 * k2)
    # + 2.0 * k3) + k4, the order of the RK4 formula as one expression, so
    # every result bit is the same and a batch never holds all four stages
    # at once.
    for _ in range(params.substeps):
        so = drive - damp * om - grav * sin(th)
        kt = om + half * so
        ko = drive - damp * kt - grav * sin(th + half * om)
        st = om + 2.0 * kt
        so = so + 2.0 * ko
        k3t = om + half * ko
        ko = drive - damp * k3t - grav * sin(th + half * kt)
        st = st + 2.0 * k3t
        so = so + 2.0 * ko
        kt = om + h * ko
        ko = drive - damp * kt - grav * sin(th + h * k3t)
        th = th + sixth * (st + kt)
        om = om + sixth * (so + ko)
    out = np.empty(th.shape + (2,))  # np.stack costs 8 us on one state
    out[..., 0] = th
    out[..., 1] = om
    return out


@dataclass(frozen=True)
class _PendulumStep:
    """``(x, u) -> x_next``: :func:`pendulum_step` at fixed ``params``."""

    params: PendulumParams

    def __call__(self, x: Array, u: Array) -> Array:
        return pendulum_step(self.params, x, u)


@dataclass(frozen=True)
class _Box:
    """Componentwise ``g(x, u) <= 0`` encoding of box bounds on u, theta, omega."""

    torque_limit: float
    theta_bounds: tuple[float, float]
    omega_bounds: tuple[float, float]

    def __post_init__(self) -> None:
        if not self.torque_limit >= 0.0:  # NaN fails too
            raise ValueError(f"torque_limit must be nonnegative, got {self.torque_limit}")

    def __call__(self, x: Array, u: Array) -> Array:
        x = np.asarray(x, dtype=float)
        tq = np.asarray(u, dtype=float)[..., 0][()]
        th, om = x[..., 0][()], x[..., 1][()]
        (th_lo, th_hi), (om_lo, om_hi) = self.theta_bounds, self.omega_bounds
        lim = self.torque_limit
        # each column is written as it is formed: a batch holds one at a time
        out = np.empty(th.shape + (6,))
        out[..., 0] = tq - lim
        out[..., 1] = -lim - tq
        out[..., 2] = th - th_hi
        out[..., 3] = th_lo - th
        out[..., 4] = om - om_hi
        out[..., 5] = om_lo - om
        return out


@dataclass(frozen=True)
class _TargetWindow:
    """Stage cost 0 strictly inside ``halfwidth`` of ``(pi, 0)``, else 1."""

    halfwidth: tuple[float, float]

    def __call__(self, x: Array, u: Array) -> Array:
        x = np.asarray(x, dtype=float)
        w_th, w_om = self.halfwidth
        in_window = (np.abs(x[..., 0] - math.pi) < w_th) & (np.abs(x[..., 1]) < w_om)
        return np.where(in_window, 0.0, 1.0)


def _zero_output(x: Array, u: Array) -> Array:
    return np.zeros(np.shape(x)[:-1])


def _effort_cost(x: Array, u: Array) -> Array:
    return np.asarray(u, dtype=float)[..., 0] ** 2


def _angle_output(x: Array, u: Array) -> Array:
    return np.asarray(x, dtype=float)[..., 0]


def builtin_min_time_pendulum(
    target_halfwidth: tuple[float, float] = (0.1, 0.1),
    params: PendulumParams | None = None,
    theta_bounds: tuple[float, float] = (-2.0, 3.5),
    omega_bounds: tuple[float, float] = (-1.5, 2.0),
    torque_limit: float = 1.0,
) -> ProblemDef:
    """Minimum-time swing-up to the upright position.

    The stage cost is 1 outside a rectangular target window around
    ``(pi, 0)`` and 0 strictly inside it, so the optimal cost-to-go counts
    samples until capture.  ``target_halfwidth[i]`` applies to state
    component ``i``, and the window test is strict (``< halfwidth``).

    ``lam`` is 0: the relaxed cost coincides with the stage cost.
    """
    if params is None:
        params = PendulumParams(damping=0.0)
    w_th, w_om = float(target_halfwidth[0]), float(target_halfwidth[1])
    if w_th <= 0.0 or w_om <= 0.0:
        raise ValueError("target halfwidths must be positive")
    return ProblemDef(
        state_dim=2,
        control_dim=1,
        dynamics=_PendulumStep(params),
        stage_cost=_TargetWindow((w_th, w_om)),
        inequality=_Box(torque_limit, theta_bounds, omega_bounds),
        average_fn=_zero_output,
        lam=0.0,
        nominal_average=None,
    )


def builtin_avg_angle_pendulum(
    theta_ref: float,
    params: PendulumParams | None = None,
    theta_bounds: tuple[float, float] = (-1.0, 1.0),
    omega_bounds: tuple[float, float] = (-1.0, 1.0),
    torque_limit: float = 1.0,
) -> ProblemDef:
    """Minimum control effort subject to a prescribed long-run mean angle.

    The stage cost is ``u^2`` and the per-stage average output is ``theta``.
    The relaxation multiplier is the closed form for holding the damped
    pendulum at ``theta_ref``:

        lam = -2 (m g l)^2 sin(theta_ref) cos(theta_ref)

    which makes the relaxed stationary optimum sit at the torque
    ``u = m g l sin(theta_ref)`` balancing gravity.  ``theta_ref`` must be
    strictly interior to ``theta_bounds``.
    """
    if params is None:
        params = PendulumParams(damping=1.0)
    theta_ref = float(theta_ref)
    if not theta_bounds[0] < theta_ref < theta_bounds[1]:
        raise ValueError(
            f"theta_ref must lie strictly inside {theta_bounds}, got {theta_ref}"
        )
    mgl = params.mass * params.gravity * params.length
    lam = -2.0 * mgl**2 * math.sin(theta_ref) * math.cos(theta_ref)
    return ProblemDef(
        state_dim=2,
        control_dim=1,
        dynamics=_PendulumStep(params),
        stage_cost=_effort_cost,
        inequality=_Box(torque_limit, theta_bounds, omega_bounds),
        average_fn=_angle_output,
        lam=lam,
        nominal_average=theta_ref,
    )
