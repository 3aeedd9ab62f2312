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

import dataclasses
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


def _finite(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError("not finite")
    return v


def _list(parse):
    return lambda raw: tuple(parse(p) for p in raw.split(","))


def _check(parse, ok, demand: str):
    """``parse`` followed by the range check ``ok``; ``demand`` says what it wants."""

    def checked(raw: str):
        v = parse(raw)
        if not ok(v):
            raise ValueError(demand)
        return v

    return checked


_positive_floats = _check(
    _list(_finite), lambda v: min(v) > 0.0, "components must be positive"
)
_at_least_one = _check(int, lambda v: v >= 1, "must be at least 1")

# Scalar keys with their parsers, each with the range check of its key;
# axis keys are matched by pattern.
_SCALAR_KEYS = {
    "problem.kind": str,
    "problem.mass": _finite,
    "problem.gravity": _finite,
    "problem.length": _finite,
    "problem.damping": _finite,
    "problem.sample_time": _finite,
    "problem.substeps": int,
    "problem.theta_ref": _finite,
    "problem.torque_limit": _check(_finite, lambda v: v >= 0.0, "must be nonnegative"),
    "solver.eps_mu": _positive_floats,
    "solver.eps_x": _positive_floats,
    "solver.n_init": int,
    "solver.n_max": int,
    "solver.growth": int,
    "reference.multiplier": _at_least_one,
    "sweep.horizons": _check(
        _list(int), lambda v: min(v) >= 1, "must be positive integers"
    ),
    "sweep.trajectory_horizon": _at_least_one,
    "equilibrium.tolerance": _check(_finite, lambda v: v > 0.0, "must be positive"),
    "output.dir": str,
}


def _parse_value(key: str, raw: str):
    """``raw`` parsed and range-checked as the value of ``key``.

    Axis keys take finite floats.  The CLI flags that override a key parse
    their text here too.
    """
    try:
        return _SCALAR_KEYS.get(key, _finite)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None


def _set_fields(values: dict, prefix: str, cls) -> dict:
    """The values of keys ``<prefix>.<field of cls>`` the file sets, by field."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {
        key.partition(".")[2]: v
        for key, v in values.items()
        if key.startswith(prefix + ".") and key.partition(".")[2] in names
    }


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
        items = [
            ("problem.kind", self.problem_kind),
            ("problem.torque_limit", repr(self.torque_limit)),
        ]
        for prefix, params in (("problem", self.pendulum), ("solver", self.solver)):
            for f in dataclasses.fields(params):
                v = getattr(params, f.name)
                v = "default" if v is None else repr(v)  # None: eps from spacing
                items.append((f"{prefix}.{f.name}", v))
        if self.theta_ref is not None:
            items.append(("problem.theta_ref", repr(self.theta_ref)))
        for prefix, axes in (("state", self.state_axes), ("control", self.control_axes)):
            for i, ax in enumerate(axes):
                items.append((f"{prefix}.{i}.lo", repr(ax.lo)))
                items.append((f"{prefix}.{i}.hi", repr(ax.hi)))
                items.append((f"{prefix}.{i}.spacing", repr(ax.spacing)))
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

    values = {k: _parse_value(k, v) for k, v in entries.items()}

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

    state_axes = _collect_axes(values, "state")
    control_axes = _collect_axes(values, "control")
    if len(state_axes) != 2:
        raise ConfigError(
            f"pendulum problems need exactly 2 state axes, got {len(state_axes)}"
        )
    if len(control_axes) != 1:
        raise ConfigError(
            f"pendulum problems need exactly 1 control axis, got {len(control_axes)}"
        )
    lo, hi = state_axes[0].lo, state_axes[0].hi
    if theta_ref is not None and not lo < theta_ref < hi:
        raise ConfigError(
            f"'problem.theta_ref' must lie strictly inside the state.0 bounds "
            f"({lo}, {hi}), got {theta_ref}"
        )

    def _eps(key: str, dims: int):
        v = values.get(key)
        if v is not None and len(v) == 1:
            v = v * dims
        if v is not None and len(v) != dims:
            raise ConfigError(f"{key} needs 1 or {dims} components, got {len(v)}")
        return v

    # The pendulum and solver defaults live on their dataclasses; only the
    # damping default depends on the problem kind.
    physics = _set_fields(values, "problem", PendulumParams)
    physics.setdefault("damping", 0.0 if kind == "min_time_pendulum" else 1.0)
    schedule = _set_fields(values, "solver", SolverConfig)
    schedule["eps_mu"] = _eps("solver.eps_mu", len(control_axes))
    schedule["eps_x"] = _eps("solver.eps_x", len(state_axes))
    try:
        pendulum = PendulumParams(**physics)
        solver = SolverConfig(**schedule)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(
        problem_kind=kind,
        pendulum=pendulum,
        theta_ref=theta_ref,
        torque_limit=values.get("problem.torque_limit", 1.0),
        state_axes=state_axes,
        control_axes=control_axes,
        solver=solver,
        reference_multiplier=values.get("reference.multiplier", 10),
        sweep_horizons=values.get("sweep.horizons"),
        sweep_trajectory_horizon=values.get("sweep.trajectory_horizon", 1350),
        equilibrium_tolerance=values.get("equilibrium.tolerance"),
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


def _collect_axes(values: dict, prefix: str) -> tuple[AxisSpec, ...]:
    fields: dict[int, dict[str, float]] = {}
    for key, val in values.items():
        m = _AXIS_KEY.match(key)
        if m and m.group(1) == prefix:
            fields.setdefault(int(m.group(2)), {})[m.group(3)] = val

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
