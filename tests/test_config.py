import pytest

from gridpolicy import ConfigError, load_config, parse_config

BASE = """
problem.kind = avg_angle_pendulum
problem.theta_ref = 0.5
state.0.lo = -1.0
state.0.hi = 1.0
state.0.spacing = 0.02
state.1.lo = -1.0
state.1.hi = 1.0
state.1.spacing = 0.02
control.0.lo = -1.0
control.0.hi = 1.0
control.0.spacing = 0.01
"""


def _with(extra: str) -> str:
    return BASE + extra + "\n"


def _without(text: str, prefix: str) -> str:
    """``text`` without its lines that start with ``prefix``."""
    return "".join(ln for ln in text.splitlines(True) if not ln.startswith(prefix))


def test_full_parse_round_trip():
    cfg = parse_config(
        _with(
            "solver.eps_mu = 0.02\n"
            "solver.eps_x = 0.1, 0.1\n"
            "solver.n_init = 5\n"
            "solver.n_max = 2000\n"
            "solver.growth = 3\n"
            "reference.multiplier = 12\n"
            "sweep.horizons = 5, 40, 80\n"
            "sweep.trajectory_horizon = 1350\n"
            "equilibrium.tolerance = 0.003\n"
            "output.dir = out/test"
        )
    )
    assert cfg.problem_kind == "avg_angle_pendulum"
    assert cfg.theta_ref == 0.5
    assert cfg.pendulum.damping == 1.0  # avg-angle default
    assert cfg.solver.eps_mu == (0.02,)
    assert cfg.solver.eps_x == (0.1, 0.1)
    assert cfg.solver.n_max == 2000
    assert cfg.reference_multiplier == 12
    assert cfg.sweep_horizons == (5, 40, 80)
    assert cfg.sweep_trajectory_horizon == 1350
    assert cfg.equilibrium_tolerance == 0.003
    assert cfg.output_dir == "out/test"

    xg = cfg.state_grid()
    assert xg.shape == (101, 101)
    ug = cfg.control_grid()
    assert ug.shape == (201,)

    problem = cfg.build_problem()
    assert problem.state_dim == 2 and problem.control_dim == 1
    assert problem.lam is not None


def test_defaults():
    cfg = parse_config(BASE)
    assert cfg.solver.eps_mu is None and cfg.solver.eps_x is None
    assert cfg.solver.n_init == 5
    assert cfg.solver.n_max == 10_000
    assert cfg.solver.growth == 3
    assert cfg.reference_multiplier == 10
    assert cfg.sweep_horizons is None
    assert cfg.sweep_trajectory_horizon == 1350
    assert cfg.equilibrium_tolerance is None
    assert cfg.output_dir is None
    assert cfg.torque_limit == 1.0


def test_min_time_defaults_and_window():
    text = """
problem.kind = min_time_pendulum
state.0.lo = -2.0
state.0.hi = 3.5
state.0.spacing = 0.05
state.1.lo = -1.5
state.1.hi = 2.0
state.1.spacing = 0.05
control.0.lo = -1.0
control.0.hi = 1.0
control.0.spacing = 0.01
"""
    cfg = parse_config(text)
    assert cfg.pendulum.damping == 0.0  # min-time default
    problem = cfg.build_problem()
    assert problem.lam == 0.0
    # target window half-widths are twice the state spacings
    import numpy as np

    pi = float(np.pi)
    assert float(problem.stage_cost([pi, 0.0], [0.0])) == 0.0
    assert float(problem.stage_cost([pi + 0.11, 0.0], [0.0])) == 1.0


def test_comments_and_whitespace():
    text = BASE.replace(
        "problem.theta_ref = 0.5",
        "  problem.theta_ref   =   0.5   # reference angle",
    )
    cfg = parse_config(text + "# trailing comment line\n\n")
    assert cfg.theta_ref == 0.5


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda t: t + "bogus.key = 1\n", "unknown configuration key"),
        pytest.param(
            lambda t: t + "run.seed = 1\n",
            "unknown configuration key",
            id="run.seed-unknown configuration key",
        ),
        (lambda t: t + "problem.theta_ref = 0.6\n", "duplicate key"),
        (lambda t: t + "solver.n_init\n", "expected 'key = value'"),
        (lambda t: t + "solver.n_init =\n", "empty key or value"),
        (lambda t: t + "solver.n_init = five\n", "bad value"),
        (lambda t: t + "solver.eps_mu = inf\n", "bad value"),
        (lambda t: t.replace("problem.kind = avg_angle_pendulum\n", ""), "problem.kind"),
        (
            lambda t: t.replace("avg_angle_pendulum", "cartpole"),
            "problem.kind must be one of",
        ),
        (
            lambda t: t.replace("problem.theta_ref = 0.5\n", ""),
            "requires 'problem.theta_ref'",
        ),
        (
            lambda t: t.replace("state.1.lo = -1.0\n", ""),
            "missing",
        ),
        (
            lambda t: t.replace("state.1.", "state.3."),
            "numbered",
        ),
        (
            lambda t: t.replace("control.0.lo = -1.0\n", ""),
            "control.0 is missing",
        ),
        (lambda t: t + "solver.eps_x = 0.1, 0.1, 0.1\n", "components"),
        (lambda t: t + "solver.eps_mu = -0.5\n", "positive"),
        (lambda t: t + "solver.growth = 1\n", "growth"),
        (lambda t: t + "reference.multiplier = 0\n", "multiplier"),
        (lambda t: t + "sweep.horizons = 5, 0\n", "horizons"),
        (lambda t: t + "sweep.trajectory_horizon = 0\n", "trajectory_horizon"),
        (lambda t: t + "equilibrium.tolerance = 0\n", "tolerance"),
        (lambda t: t + "problem.mass = -1\n", "mass"),
        (lambda t: t + "problem.torque_limit = -1.0\n", "'problem.torque_limit'.*nonnegative"),
        (
            lambda t: t.replace("problem.theta_ref = 0.5", "problem.theta_ref = 5.0"),
            "'problem.theta_ref' must lie strictly inside",
        ),
        (
            lambda t: t.replace("problem.theta_ref = 0.5", "problem.theta_ref = -1.0"),
            "'problem.theta_ref' must lie strictly inside",
        ),
        (
            lambda t: t.replace("state.0.spacing = 0.02", "state.0.spacing = -0.02"),
            "spacing",
        ),
        (
            lambda t: t + "state.2.lo = 0.0\nstate.2.hi = 1.0\nstate.2.spacing = 0.5\n",
            "exactly 2 state axes, got 3",
        ),
        (lambda t: _without(t, "state.1."), "exactly 2 state axes, got 1"),
        (
            lambda t: t + "control.1.lo = 0.0\ncontrol.1.hi = 1.0\ncontrol.1.spacing = 0.5\n",
            "exactly 1 control axis, got 2",
        ),
        (lambda t: _without(t, "state."), "no state axes configured"),
        (lambda t: _without(t, "control."), "no control axes configured"),
    ],
)
def test_rejects_bad_configs(mutate, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(mutate(BASE))


def test_theta_ref_rejected_for_min_time():
    text = BASE.replace("avg_angle_pendulum", "min_time_pendulum")
    with pytest.raises(ConfigError, match="theta_ref"):
        parse_config(text)


def test_canonical_ignores_presentation_only_keys():
    a = parse_config(_with("output.dir = out/a"))
    b = parse_config(_with("output.dir = out/b\nreference.multiplier = 99"))
    assert a.canonical() == b.canonical()


def test_canonical_tracks_solve_relevant_keys():
    base = parse_config(BASE)
    for extra in (
        "solver.eps_mu = 0.02",
        "solver.n_max = 50",
        "problem.damping = 0.5",
        "problem.torque_limit = 0.9",
    ):
        assert parse_config(_with(extra)).canonical() != base.canonical()
    # a scalar eps and its explicit per-component expansion agree
    assert (
        parse_config(_with("solver.eps_x = 0.1")).canonical()
        == parse_config(_with("solver.eps_x = 0.1, 0.1")).canonical()
    )


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASE, encoding="utf-8")
    assert load_config(str(p)).problem_kind == "avg_angle_pendulum"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.cfg"))


def test_shipped_configs_parse():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    seen = 0
    for cfg_path in sorted(root.glob("*.cfg")):
        cfg = load_config(str(cfg_path))
        cfg.build_problem()
        cfg.state_grid()
        cfg.control_grid()
        seen += 1
    assert seen >= 4
