import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from gridpolicy import (
    PendulumParams,
    ProblemDef,
    builtin_avg_angle_pendulum,
    builtin_min_time_pendulum,
    pendulum_step,
    relaxed_cost,
)


def _scipy_pendulum(params: PendulumParams, x, u):
    def rhs(_, s):
        th, om = s
        acc = (
            u / (params.mass * params.length**2)
            - params.damping / params.mass * om
            - params.gravity / params.length * math.sin(th)
        )
        return [om, acc]

    sol = solve_ivp(
        rhs, (0.0, params.sample_time), x, rtol=1e-12, atol=1e-12, dense_output=False
    )
    return sol.y[:, -1]


# -- integrator --------------------------------------------------------------


def test_pendulum_step_matches_adaptive_integrator():
    params = PendulumParams(damping=0.3)
    for x, u in [((0.4, -0.2), 0.7), ((2.8, 1.1), -1.0), ((-1.5, 0.0), 0.0)]:
        got = pendulum_step(params, np.array(x), np.array([u]))
        want = _scipy_pendulum(params, x, u)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_pendulum_known_fixed_points():
    p0 = PendulumParams()
    np.testing.assert_array_equal(
        pendulum_step(p0, np.zeros(2), np.zeros(1)), np.zeros(2)
    )
    up = pendulum_step(p0, np.array([math.pi, 0.0]), np.zeros(1))
    np.testing.assert_allclose(up, [math.pi, 0.0], atol=1e-12)
    # damped pendulum held at 0.5 rad by u = sin(0.5)
    pd = PendulumParams(damping=1.0)
    x = np.array([0.5, 0.0])
    nxt = pendulum_step(pd, x, np.array([math.sin(0.5)]))
    np.testing.assert_allclose(nxt, x, atol=1e-9)


def test_pendulum_energy_conservation():
    # undamped, unforced: E = 0.5 m (l w)^2 + m g l (1 - cos th)
    params = PendulumParams(damping=0.0)
    x = np.array([1.0, 0.3])

    def energy(s):
        return 0.5 * (s[..., 1] * params.length) ** 2 * params.mass + (
            params.mass * params.gravity * params.length
        ) * (1.0 - np.cos(s[..., 0]))

    e0 = energy(x)
    for _ in range(100):
        x = pendulum_step(params, x, np.zeros(1))
    assert abs(energy(x) - e0) / e0 <= 1e-7


def test_pendulum_fourth_order_convergence():
    # halving the substep size shrinks the error ~16x
    x = np.array([1.0, 0.0])
    u = np.array([0.3])
    ref = _scipy_pendulum(PendulumParams(substeps=10), x, u[0])
    errs = []
    for n in (5, 10, 20):
        got = pendulum_step(PendulumParams(substeps=n), x, u)
        errs.append(np.abs(got - ref).max())
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.3)


def test_pendulum_step_batched_shapes(rng):
    params = PendulumParams(damping=0.5)
    xs = rng.uniform(-1.0, 1.0, size=(4, 3, 2))
    us = rng.uniform(-1.0, 1.0, size=(4, 3, 1))
    batch = pendulum_step(params, xs, us)
    assert batch.shape == (4, 3, 2)
    for i in range(4):
        for j in range(3):
            single = pendulum_step(params, xs[i, j], us[i, j])
            np.testing.assert_array_equal(batch[i, j], single)


def _pendulum_step_unhoisted(params: PendulumParams, x, u):
    """``pendulum_step`` as it was before the torque term and the ``omega``
    stage values were hoisted out of the RK4 substeps, kept as an oracle."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    th = x[..., 0]
    om = x[..., 1]
    tq = u[..., 0]

    inv_ml2 = 1.0 / (params.mass * params.length**2)
    damp = params.damping / params.mass
    grav = params.gravity / params.length
    h = params.sample_time / params.substeps

    def acc(theta, omega):
        return tq * inv_ml2 - damp * omega - grav * np.sin(theta)

    for _ in range(params.substeps):
        k1t = om
        k1o = acc(th, om)
        k2t = om + 0.5 * h * k1o
        k2o = acc(th + 0.5 * h * k1t, om + 0.5 * h * k1o)
        k3t = om + 0.5 * h * k2o
        k3o = acc(th + 0.5 * h * k2t, om + 0.5 * h * k2o)
        k4t = om + h * k3o
        k4o = acc(th + h * k3t, om + h * k3o)
        th = th + (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        om = om + (h / 6.0) * (k1o + 2.0 * k2o + 2.0 * k3o + k4o)
    return np.stack([th, om], axis=-1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mass=st.floats(0.2, 3.0),
    length=st.floats(0.2, 3.0),
    damping=st.sampled_from([0.0, 0.3, 1.7]),
    substeps=st.integers(1, 12),
)
def test_pendulum_step_bitwise_equals_unhoisted_rk4(seed, mass, length, damping, substeps):
    # batched states and a single (2,) state give the old formula's bits
    params = PendulumParams(
        mass=mass, length=length, damping=damping, sample_time=0.2, substeps=substeps
    )
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-4.0, 4.0, size=(int(rng.integers(1, 50)), 2))
    us = rng.uniform(-2.0, 2.0, size=(xs.shape[0], 1))
    assert pendulum_step(params, xs, us).tobytes() == (
        _pendulum_step_unhoisted(params, xs, us).tobytes()
    )
    assert pendulum_step(params, xs[0], us[0]).tobytes() == (
        _pendulum_step_unhoisted(params, xs[0], us[0]).tobytes()
    )


def test_params_validation():
    with pytest.raises(ValueError):
        PendulumParams(mass=0.0)
    with pytest.raises(ValueError):
        PendulumParams(damping=-0.1)
    with pytest.raises(ValueError):
        PendulumParams(sample_time=0.0)
    with pytest.raises(ValueError):
        PendulumParams(substeps=0)


# -- builtin problems --------------------------------------------------------


def test_min_time_cost_window():
    prob = builtin_min_time_pendulum(target_halfwidth=(0.1, 0.1))
    u = np.zeros(1)
    assert prob.stage_cost(np.array([math.pi, 0.0]), u) == 0.0
    assert prob.stage_cost(np.array([math.pi + 0.09, 0.0]), u) == 0.0
    assert prob.stage_cost(np.array([0.0, 0.0]), u) == 1.0
    # window test is strict on the boundary
    assert prob.stage_cost(np.array([math.pi + 0.1, 0.0]), u) == 1.0
    assert prob.stage_cost(np.array([math.pi, 0.1]), u) == 1.0
    assert prob.lam == 0.0
    assert prob.average_fn(np.array([1.0, 1.0]), u) == 0.0


def test_min_time_constraint_box():
    prob = builtin_min_time_pendulum()
    ok = prob.inequality(np.array([3.5, 2.0]), np.array([1.0]))
    assert not (np.asarray(ok) > 0.0).any()  # boundary is admissible
    bad_u = prob.inequality(np.array([0.0, 0.0]), np.array([1.5]))
    assert (np.asarray(bad_u) > 0.0).any()
    bad_th = prob.inequality(np.array([3.6, 0.0]), np.array([0.0]))
    assert (np.asarray(bad_th) > 0.0).any()


def test_avg_angle_construction():
    prob = builtin_avg_angle_pendulum(0.5)
    assert prob.lam == pytest.approx(-math.sin(1.0), abs=1e-15)
    assert prob.nominal_average == 0.5
    u = np.array([0.25])
    assert prob.stage_cost(np.zeros(2), u) == 0.0625
    assert prob.average_fn(np.array([0.3, 0.9]), u) == 0.3
    with pytest.raises(ValueError):
        builtin_avg_angle_pendulum(1.0)
    with pytest.raises(ValueError):
        builtin_avg_angle_pendulum(-1.2)


@pytest.mark.parametrize("limit", [-1.0, math.nan])
@pytest.mark.parametrize(
    "build",
    [builtin_min_time_pendulum, lambda **kw: builtin_avg_angle_pendulum(0.5, **kw)],
    ids=["min_time", "avg_angle"],
)
def test_builtin_problems_reject_a_bad_torque_limit(build, limit):
    with pytest.raises(ValueError, match="torque_limit"):
        build(torque_limit=limit)


@pytest.mark.parametrize("halfwidth", [(0.0, 0.1), (0.1, -0.1)])
def test_min_time_rejects_a_target_halfwidth_that_is_not_positive(halfwidth):
    with pytest.raises(ValueError, match="target halfwidths must be positive"):
        builtin_min_time_pendulum(target_halfwidth=halfwidth)


def test_lambda_stationarity():
    # c_eq(th) = sin(th)^2 + lam*th has a stationary minimum at theta_ref
    theta_ref = 0.5
    lam = builtin_avg_angle_pendulum(theta_ref).lam
    deriv = math.sin(2.0 * theta_ref) + lam
    assert abs(deriv) <= 1e-12
    c = lambda t: math.sin(t) ** 2 + lam * t
    assert c(theta_ref) < c(theta_ref - 0.05)
    assert c(theta_ref) < c(theta_ref + 0.05)


_BUILTIN_ARGS = [
    (
        builtin_min_time_pendulum,
        dict(
            target_halfwidth=(0.1, 0.1),
            params=PendulumParams(damping=0.0),
            theta_bounds=(-2.0, 3.5),
            omega_bounds=(-1.5, 2.0),
            torque_limit=1.0,
        ),
    ),
    (
        builtin_avg_angle_pendulum,
        dict(
            theta_ref=0.5,
            params=PendulumParams(damping=1.0),
            theta_bounds=(-1.0, 1.0),
            omega_bounds=(-1.0, 1.0),
            torque_limit=1.0,
        ),
    ),
]


def _one_change(value):
    """Every value that differs from ``value`` in exactly one component."""
    if isinstance(value, PendulumParams):
        return [
            dataclasses.replace(value, **{f.name: getattr(value, f.name) + 1})
            for f in dataclasses.fields(value)
        ]
    if isinstance(value, tuple):
        return [value[:i] + (v + 0.25,) + value[i + 1 :] for i, v in enumerate(value)]
    return [value + 0.25]


@pytest.mark.parametrize("build, kwargs", _BUILTIN_ARGS)
def test_builtin_problems_compare_by_value(build, kwargs):
    problem = build(**kwargs)
    again = build(**kwargs)
    assert again is not problem
    assert again == problem and hash(again) == hash(problem)
    for key, value in kwargs.items():
        for changed in _one_change(value):
            assert build(**{**kwargs, key: changed}) != problem, (key, changed)


def test_relaxed_cost_linearity(rng):
    prob = builtin_avg_angle_pendulum(0.3)
    x = rng.uniform(-0.9, 0.9, size=(7, 2))
    u = rng.uniform(-1.0, 1.0, size=(7, 1))
    full = relaxed_cost(prob, x, u)
    base = np.asarray(prob.stage_cost(x, u), dtype=float)
    fa = np.asarray(prob.average_fn(x, u), dtype=float)
    np.testing.assert_allclose(full, base + prob.lam * fa, rtol=1e-15)

    # lam = None degenerates to the plain stage cost
    plain = ProblemDef(
        state_dim=2,
        control_dim=1,
        dynamics=prob.dynamics,
        stage_cost=prob.stage_cost,
        inequality=prob.inequality,
        average_fn=prob.average_fn,
        lam=None,
    )
    np.testing.assert_array_equal(relaxed_cost(plain, x, u), base)


def test_problem_validation():
    f = lambda x, u: x
    with pytest.raises(ValueError):
        ProblemDef(
            state_dim=0,
            control_dim=1,
            dynamics=f,
            stage_cost=f,
            inequality=f,
            average_fn=f,
        )
