"""Span tracer and per-layer metrics for the benchmark's traced run.

The traced run wraps the public entry points of each ``gridpolicy`` module
from here; nothing under ``src/`` knows about it.  A span records name,
start, end, parent span and run id.  Spans stay in memory and are written
out when the run ends.  All workloads run single-threaded, so spans nest
strictly and the children of a span never overlap: a span's self time is
its duration minus the sum of its children's durations.

Layers are named by module: ``config``, ``problem``, ``grid``, ``dp``,
``solver`` and ``reference``.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter

import numpy as np

# (name, unit, better, which end-to-end metric it should move, on which
# workload).  BENCHMARK.json lists the same names, units and directions;
# selftest.py checks that the two agree.
LAYER_METRICS = [
    ("dp.backward_steps", "count", "lower", "run_s: min_time, compare_coarse"),
    ("dp.backward_ms_p50", "ms", "lower", "run_s: min_time (89%), compare_coarse (74%); barely sweep_avg_angle (24%)"),
    ("dp.backward_ms_p90", "ms", "lower", "run_s: min_time, compare_coarse"),
    ("dp.backward_ns_per_pair", "ns", "lower", "run_s: min_time, compare_coarse"),
    ("dp.backward_share", "ratio", "lower", "run_s: min_time, compare_coarse"),
    ("dp.forward_steps", "count", "lower", "run_s: sweep_avg_angle"),
    ("dp.forward_ms_p50", "ms", "lower", "run_s: sweep_avg_angle; under 8% elsewhere"),
    ("dp.forward_ms_p90", "ms", "lower", "run_s: sweep_avg_angle"),
    ("dp.forward_entry_steps", "count", "lower", "run_s: sweep_avg_angle"),
    ("dp.forward_survivor_frac", "ratio", "higher", "useful / attempted entry steps"),
    ("dp.forward_share", "ratio", "lower", "run_s: sweep_avg_angle"),
    ("problem.dynamics_run_s", "s", "lower", "run_s: sweep_avg_angle"),
    ("dp.apply_policy_calls", "count", "lower", "run_s: compare_coarse (~22%), min_time (~4.5%)"),
    ("dp.apply_policy_us_p50", "us", "lower", "run_s: compare_coarse, min_time"),
    ("solver.achieved_average_s", "s", "lower", "run_s: compare_coarse, min_time"),
    ("solver.achieved_average_steps", "count", "lower", "run_s: compare_coarse, min_time"),
    ("reference.rollout_s", "s", "lower", "run_s: compare_coarse"),
    ("reference.rollout_steps", "count", "lower", "run_s: compare_coarse"),
    ("dp.build_s", "s", "lower", "setup_s: min_time, sweep_avg_angle"),
    ("problem.dynamics_setup_s", "s", "lower", "setup_s: min_time, sweep_avg_angle"),
    ("problem.inequality_s", "s", "lower", "setup_s: min_time, sweep_avg_angle"),
    ("problem.cost_s", "s", "lower", "setup_s: min_time, sweep_avg_angle"),
    ("grid.locate_cells_setup_s", "s", "lower", "setup_s: min_time, sweep_avg_angle"),
    ("grid.locate_cells_run_s", "s", "lower", "run_s: sweep_avg_angle, compare_coarse"),
    ("grid.locate_cells_points", "count", "lower", "setup_s and run_s"),
    ("dp.pairs", "count", "lower", "peak_rss_mb: engine size (computed)"),
    ("dp.engine_mb", "MiB", "lower", "peak_rss_mb: min_time, sweep_avg_angle (computed)"),
    ("dp.tables_mb", "MiB", "lower", "peak_rss_mb: compare_coarse held tables (computed)"),
    ("solver.horizons_tested", "count", "lower", "run_s: min_time, compare_coarse"),
    ("solver.terminal_horizon", "count", "lower", "run_s: min_time, compare_coarse"),
    ("solver.delta_s", "s", "lower", "run_s: min_time, compare_coarse"),
    ("reference.finite_horizon_s", "s", "lower", "run_s: compare_coarse"),
    ("dp.thread_speedup", "ratio", "higher", "ungated: backward p50 at 1 thread / at usable CPUs"),
    ("trace.overhead_frac", "ratio", "lower", "traced run_s / untraced median run_s - 1"),
    ("trace.coverage", "ratio", "higher", "layer self time / traced run_s; must be >= 0.9"),
]

MIN_COVERAGE = 0.9

MIB = float(1 << 20)


class Tracer:
    """In-memory span recorder for one repetition (``run_id``)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self.enabled = True
        self.last_cost = None  # latest backward cost field, for the thread probe
        self._stack: list[int] = []

    def wrap(self, name, fn, pre=None, post=None):
        """``fn`` recording one span per call while the tracer is enabled.

        ``pre(*args, **kwargs)`` runs before the span opens and its result is
        handed to ``post(state, result, *args, **kwargs)``, which runs after
        the span closes; both update :attr:`counts` outside the timed span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            state = pre(*args, **kwargs) if pre else None
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if post:
                post(state, out, *args, **kwargs)
            return out

        return traced

    def export(self) -> list[dict]:
        """Spans as records, times in seconds since the tracer started."""
        return [
            {
                "id": i,
                "name": name,
                "start": start - self.t0,
                "end": end - self.t0,
                "parent": parent,
                "run_id": self.run_id,
            }
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]


def install(tracer: Tracer, gp) -> None:
    """Patch the public entry points of every ``gridpolicy`` module.

    Functions that other modules import by name are patched in every
    namespace that holds them (``apply_policy`` lives in ``dp``, ``solver``
    and ``reference``), so that internal calls are traced too.
    """
    from gridpolicy import config, dp, grid, reference, solver

    def patch(name, fn, owners, **hooks):
        traced = tracer.wrap(name, fn, **hooks)
        for owner in owners:
            setattr(owner, fn.__name__, traced)

    def count(key, n):
        def post(state, out, *args, **kwargs):
            tracer.counts[key] += n(out, *args, **kwargs)

        return post

    patch("config.load_config", config.load_config, [config, gp])
    patch("dp.build", dp.DpEngine.__init__, [dp.DpEngine])
    def backward_post(state, table, *args, **kwargs):
        tracer.counts["table_bytes"] += table.cost.nbytes + table.policy.nbytes
        tracer.last_cost = table.cost

    patch("dp.backward", dp.DpEngine.backward, [dp.DpEngine], post=backward_post)

    def forward_pre(engine, ensemble, table):
        return int(ensemble.feasible.sum())

    def forward_post(attempted, out, engine, ensemble, table):
        tracer.counts["forward_attempted"] += attempted
        tracer.counts["forward_survived"] += int(ensemble.feasible.sum())

    patch("dp.forward", dp.DpEngine.forward, [dp.DpEngine], pre=forward_pre, post=forward_post)
    patch("dp.seed_ensemble", dp.DpEngine.seed_ensemble, [dp.DpEngine])
    patch("dp.apply_policy", dp.apply_policy, [dp, solver, reference, gp])
    patch(
        "grid.locate_cells",
        grid.CartesianGrid.locate_cells,
        [grid.CartesianGrid],
        post=count("locate_points", lambda out, *a, **k: int(out[2].shape[0])),
    )
    patch("solver.solve", solver.solve, [solver, gp])
    patch("solver.delta_mu", solver.delta_mu, [solver, gp])
    patch("solver.delta_x", solver.delta_x, [solver, gp])
    patch(
        "solver.achieved_average",
        solver.achieved_average,
        [solver, gp],
        post=count("average_steps", lambda out, *a, **k: k["horizon"] if "horizon" in k else a[5]),
    )
    patch("reference.finite_horizon_policies", reference.finite_horizon_policies, [reference, gp])
    for fn in (reference.rollout_stationary, reference.rollout_time_varying):
        patch(
            "reference.rollout",
            fn,
            [reference, gp],
            post=count("rollout_steps", lambda out, *a, **k: out.length),
        )
    patch("reference.horizon_sweep", reference.horizon_sweep, [reference, gp])


def wrap_problem(tracer: Tracer, problem):
    """``problem`` with its callables traced as ``problem.*`` spans.

    ``stage_cost`` and ``average_fn`` together form the ``problem.cost``
    layer (``relaxed_cost`` calls both).
    """
    return dataclasses.replace(
        problem,
        dynamics=tracer.wrap("problem.dynamics", problem.dynamics),
        inequality=tracer.wrap("problem.inequality", problem.inequality),
        stage_cost=tracer.wrap("problem.cost", problem.stage_cost),
        average_fn=tracer.wrap("problem.cost", problem.average_fn),
    )


def engine_bytes(engine) -> int:
    """Bytes held by the engine's ndarray attributes (computed, not measured)."""
    return sum(v.nbytes for v in vars(engine).values() if isinstance(v, np.ndarray))


def layer_metrics(tracer: Tracer, setup_end: float, run_end: float, engine) -> dict:
    """Per-layer numbers of one traced repetition.

    Spans that start before ``setup_end`` (a ``perf_counter`` reading)
    belong to set-up, the rest up to ``run_end`` to the workload's
    operation.  ``*_s`` times are sums of span durations; ``dp.build_s`` is
    self time (children: problem callables and ``locate_cells``).  Shares
    are span durations, children included, over the traced ``run_s``.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: Counter = Counter()
    self_time: Counter = Counter()
    durations: dict[str, list[float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        phase = "setup" if start < setup_end else "run"
        total[name, phase] += end - start
        self_time[name, phase] += end - start - child[i]
        if phase == "run":
            durations.setdefault(name, []).append(end - start)

    def pct(name, q, scale):
        d = durations.get(name)
        return float(np.percentile(d, q)) * scale if d else 0.0

    run_s = run_end - setup_end
    c = tracer.counts
    pairs = engine.nx * engine.nu
    backward_p50 = pct("dp.backward", 50, 1e3)
    return {
        "dp.backward_steps": len(durations.get("dp.backward", [])),
        "dp.backward_ms_p50": backward_p50,
        "dp.backward_ms_p90": pct("dp.backward", 90, 1e3),
        "dp.backward_ns_per_pair": backward_p50 * 1e6 / pairs,
        "dp.backward_share": total["dp.backward", "run"] / run_s,
        "dp.forward_steps": len(durations.get("dp.forward", [])),
        "dp.forward_ms_p50": pct("dp.forward", 50, 1e3),
        "dp.forward_ms_p90": pct("dp.forward", 90, 1e3),
        "dp.forward_entry_steps": c["forward_attempted"],
        "dp.forward_survivor_frac": (
            c["forward_survived"] / c["forward_attempted"] if c["forward_attempted"] else 0.0
        ),
        "dp.forward_share": total["dp.forward", "run"] / run_s,
        "problem.dynamics_run_s": total["problem.dynamics", "run"],
        "dp.apply_policy_calls": len(durations.get("dp.apply_policy", [])),
        "dp.apply_policy_us_p50": pct("dp.apply_policy", 50, 1e6),
        "solver.achieved_average_s": total["solver.achieved_average", "run"],
        "solver.achieved_average_steps": c["average_steps"],
        "reference.rollout_s": total["reference.rollout", "run"],
        "reference.rollout_steps": c["rollout_steps"],
        "dp.build_s": self_time["dp.build", "setup"],
        "problem.dynamics_setup_s": total["problem.dynamics", "setup"],
        "problem.inequality_s": total["problem.inequality", "setup"],
        "problem.cost_s": total["problem.cost", "setup"],
        "grid.locate_cells_setup_s": total["grid.locate_cells", "setup"],
        "grid.locate_cells_run_s": total["grid.locate_cells", "run"],
        "grid.locate_cells_points": c["locate_points"],
        "dp.pairs": pairs,
        "dp.engine_mb": engine_bytes(engine) / MIB,
        "dp.tables_mb": c["table_bytes"] / MIB,
        "solver.delta_s": total["solver.delta_mu", "run"] + total["solver.delta_x", "run"],
        "reference.finite_horizon_s": total["reference.finite_horizon_policies", "run"],
        "trace.coverage": sum(v for (name, phase), v in self_time.items() if phase == "run") / run_s,
    }
