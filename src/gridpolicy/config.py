"""Flat key=value run configuration files.

The format is one ``dotted.key = value`` assignment per line; ``#`` starts a
comment (full-line or trailing) and blank lines are ignored.  Example::

    problem.kind = min_time_pendulum
    state.0.lo = -2.0
    state.0.hi = 3.5
    state.0.spacing = 0.05
    ...
    control.0.lo = -1.0
    control.0.hi = 1.0
    control.0.spacing = 0.01
    solver.eps_mu = 0.02
    solver.eps_x = 0.1, 0.1

Unknown keys are rejected by name, so typos fail fast instead of silently
falling back to defaults.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .grid import AxisSpec, CartesianGrid
from .problem import (
    PendulumParams,
    ProblemDef,
    builtin_avg_angle_pendulum,
    builtin_min_time_pendulum,
)
from .solver import SolverConfig


class ConfigError(ValueError):
    """Malformed, unknown, missing, or inconsistent configuration entry."""


_AXIS_KEY = re.compile(r"^(state|control)\.(\d+)\.(lo|hi|spacing)$")

_PROBLEM_KINDS = ("min_time_pendulum", "avg_angle_pendulum")

# Scalar keys with their parsers; axis keys are matched by pattern.
_SCALAR_KEYS = {
    "problem.kind": str,
    "problem.mass": float,
    "problem.gravity": float,
    "problem.length": float,
    "problem.damping": float,
    "problem.sample_time": float,
    "problem.substeps": int,
    "problem.theta_ref": float,
    "problem.torque_limit": float,
    "solver.eps_mu": "floats",
    "solver.eps_x": "floats",
    "solver.n_init": int,
    "solver.n_max": int,
    "solver.growth": int,
    "reference.multiplier": int,
    "sweep.horizons": "ints",
    "sweep.trajectory_horizon": int,
    "equilibrium.tolerance": float,
    "output.dir": str,
}


def _parse_value(key: str, raw: str):
    kind = _SCALAR_KEYS[key]
    try:
        if kind is str:
            return raw
        if kind is int:
            return int(raw)
        if kind is float:
            v = float(raw)
            if not math.isfinite(v):
                raise ValueError("not finite")
            return v
        if kind == "floats":
            vals = tuple(float(p) for p in raw.split(","))
            if not all(math.isfinite(v) for v in vals):
                raise ValueError("not finite")
            return vals
        if kind == "ints":
            return tuple(int(p) for p in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None
    raise AssertionError(f"unhandled parser for {key}")


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration.

    Built via :func:`parse_config` / :func:`load_config`; the factory methods
    construct the problem, grids, and solver settings the run needs.
    """

    problem_kind: str
    pendulum: PendulumParams
    theta_ref: float | None
    torque_limit: float
    state_axes: tuple[AxisSpec, ...]
    control_axes: tuple[AxisSpec, ...]
    solver: SolverConfig
    reference_multiplier: int
    sweep_horizons: tuple[int, ...] | None
    sweep_trajectory_horizon: int
    equilibrium_tolerance: float | None
    output_dir: str | None

    def build_problem(self) -> ProblemDef:
        th_ax, om_ax = self.state_axes
        if self.problem_kind == "min_time_pendulum":
            return builtin_min_time_pendulum(
                target_halfwidth=(2.0 * th_ax.spacing, 2.0 * om_ax.spacing),
                params=self.pendulum,
                theta_bounds=(th_ax.lo, th_ax.hi),
                omega_bounds=(om_ax.lo, om_ax.hi),
                torque_limit=self.torque_limit,
            )
        return builtin_avg_angle_pendulum(
            theta_ref=self.theta_ref,
            params=self.pendulum,
            theta_bounds=(th_ax.lo, th_ax.hi),
            omega_bounds=(om_ax.lo, om_ax.hi),
            torque_limit=self.torque_limit,
        )

    def state_grid(self) -> CartesianGrid:
        return CartesianGrid(self.state_axes)

    def control_grid(self) -> CartesianGrid:
        return CartesianGrid(self.control_axes)

    def canonical(self) -> str:
        """Normalized rendering of everything that determines solve output.

        Two configs with equal canonical forms produce byte-identical policy
        tables, so this string keys the reuse of solved artifacts.  Output
        directory, reference, and sweep entries are deliberately excluded.
        """
        items: list[tuple[str, str]] = [
            ("problem.kind", self.problem_kind),
            ("problem.mass", repr(self.pendulum.mass)),
            ("problem.gravity", repr(self.pendulum.gravity)),
            ("problem.length", repr(self.pendulum.length)),
            ("problem.damping", repr(self.pendulum.damping)),
            ("problem.sample_time", repr(self.pendulum.sample_time)),
            ("problem.substeps", repr(self.pendulum.substeps)),
            ("problem.torque_limit", repr(self.torque_limit)),
        ]
        if self.theta_ref is not None:
            items.append(("problem.theta_ref", repr(self.theta_ref)))
        for prefix, axes in (("state", self.state_axes), ("control", self.control_axes)):
            for i, ax in enumerate(axes):
                items.append((f"{prefix}.{i}.lo", repr(ax.lo)))
                items.append((f"{prefix}.{i}.hi", repr(ax.hi)))
                items.append((f"{prefix}.{i}.spacing", repr(ax.spacing)))
        eps_mu = self.solver.eps_mu
        eps_x = self.solver.eps_x
        items.append(
            ("solver.eps_mu", "default" if eps_mu is None else repr(tuple(eps_mu)))
        )
        items.append(
            ("solver.eps_x", "default" if eps_x is None else repr(tuple(eps_x)))
        )
        items.append(("solver.n_init", repr(self.solver.n_init)))
        items.append(("solver.n_max", repr(self.solver.n_max)))
        items.append(("solver.growth", repr(self.solver.growth)))
        return "\n".join(f"{k} = {v}" for k, v in sorted(items))


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into a validated :class:`RunConfig`."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key or not raw:
            raise ConfigError(f"line {lineno}: empty key or value in {line!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _SCALAR_KEYS and not _AXIS_KEY.match(key):
            raise ConfigError(f"unknown configuration key {key!r}")
        entries[key] = raw

    values = {
        k: _parse_value(k, v) for k, v in entries.items() if k in _SCALAR_KEYS
    }

    kind = values.get("problem.kind")
    if kind is None:
        raise ConfigError("missing required key 'problem.kind'")
    if kind not in _PROBLEM_KINDS:
        raise ConfigError(
            f"problem.kind must be one of {_PROBLEM_KINDS}, got {kind!r}"
        )

    theta_ref = values.get("problem.theta_ref")
    if kind == "avg_angle_pendulum" and theta_ref is None:
        raise ConfigError("avg_angle_pendulum requires 'problem.theta_ref'")
    if kind == "min_time_pendulum" and theta_ref is not None:
        raise ConfigError("'problem.theta_ref' is only valid for avg_angle_pendulum")

    default_damping = 0.0 if kind == "min_time_pendulum" else 1.0
    try:
        pendulum = PendulumParams(
            mass=values.get("problem.mass", 1.0),
            gravity=values.get("problem.gravity", 1.0),
            length=values.get("problem.length", 1.0),
            damping=values.get("problem.damping", default_damping),
            sample_time=values.get("problem.sample_time", 0.2),
            substeps=values.get("problem.substeps", 10),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    state_axes = _collect_axes(entries, "state")
    control_axes = _collect_axes(entries, "control")
    if len(state_axes) != 2:
        raise ConfigError(
            f"pendulum problems need exactly 2 state axes, got {len(state_axes)}"
        )
    if len(control_axes) != 1:
        raise ConfigError(
            f"pendulum problems need exactly 1 control axis, got {len(control_axes)}"
        )

    def _eps(key: str, dims: int):
        v = values.get(key)
        if v is None:
            return None
        if len(v) == 1:
            v = v * dims
        if len(v) != dims:
            raise ConfigError(f"{key} needs 1 or {dims} components, got {len(v)}")
        if any(c <= 0.0 for c in v):
            raise ConfigError(f"{key} components must be positive")
        return v

    try:
        solver = SolverConfig(
            eps_mu=_eps("solver.eps_mu", len(control_axes)),
            eps_x=_eps("solver.eps_x", len(state_axes)),
            n_init=values.get("solver.n_init", 5),
            n_max=values.get("solver.n_max", 10_000),
            growth=values.get("solver.growth", 3),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    multiplier = values.get("reference.multiplier", 10)
    if multiplier < 1:
        raise ConfigError("reference.multiplier must be at least 1")
    trajectory_horizon = values.get("sweep.trajectory_horizon", 1350)
    if trajectory_horizon < 1:
        raise ConfigError("sweep.trajectory_horizon must be at least 1")
    horizons = values.get("sweep.horizons")
    if horizons is not None and (not horizons or min(horizons) < 1):
        raise ConfigError("sweep.horizons must be positive integers")
    eq_tol = values.get("equilibrium.tolerance")
    if eq_tol is not None and eq_tol <= 0.0:
        raise ConfigError("equilibrium.tolerance must be positive")

    return RunConfig(
        problem_kind=kind,
        pendulum=pendulum,
        theta_ref=theta_ref,
        torque_limit=values.get("problem.torque_limit", 1.0),
        state_axes=state_axes,
        control_axes=control_axes,
        solver=solver,
        reference_multiplier=multiplier,
        sweep_horizons=horizons,
        sweep_trajectory_horizon=trajectory_horizon,
        equilibrium_tolerance=eq_tol,
        output_dir=values.get("output.dir"),
    )


def load_config(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def _collect_axes(entries: dict[str, str], prefix: str) -> tuple[AxisSpec, ...]:
    fields: dict[int, dict[str, float]] = {}
    for key, raw in entries.items():
        m = _AXIS_KEY.match(key)
        if not m or m.group(1) != prefix:
            continue
        idx = int(m.group(2))
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from None
        if not math.isfinite(val):
            raise ConfigError(f"bad value for {key!r}: {raw!r} (not finite)")
        fields.setdefault(idx, {})[m.group(3)] = val

    if not fields:
        raise ConfigError(f"no {prefix} axes configured")
    axes = []
    for i in range(len(fields)):
        if i not in fields:
            raise ConfigError(
                f"{prefix} axes must be numbered 0..{len(fields) - 1}; missing {prefix}.{i}"
            )
        spec = fields[i]
        missing = {"lo", "hi", "spacing"} - set(spec)
        if missing:
            raise ConfigError(
                f"{prefix}.{i} is missing {sorted(missing)}"
            )
        try:
            axes.append(AxisSpec(spec["lo"], spec["hi"], spec["spacing"]))
        except ValueError as exc:
            raise ConfigError(f"{prefix}.{i}: {exc}") from None
    return tuple(axes)
