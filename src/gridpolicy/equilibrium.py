"""Gridded search for stationary (equilibrium) state/control pairs.

A node pair ``(x, u)`` counts as an equilibrium candidate when the dynamics
hold the state in place up to a tolerance, ``||x - f_d(x, u)||_inf <= tol``,
and every inequality component is satisfied.  Among the candidates the
search returns the lexicographic minimum of

    (relaxed cost, ||u||_inf, dynamics residual, pair index)

so that the reported point is the cheapest stationary regime, with the
smallest control effort and tightest residual breaking cost ties (flat cost
plateaus otherwise select arbitrary box-edge artifacts).

For problems that prescribe a nominal long-run average but no relaxation
multiplier, candidates are additionally filtered to per-stage average
outputs near the nominal value and ranked by the raw stage cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dp
from .grid import CartesianGrid
from .problem import ProblemDef, relaxed_cost


class NoEquilibriumError(RuntimeError):
    """No node pair satisfies the stationarity tolerance."""


@dataclass(frozen=True)
class EquilibriumPoint:
    """A gridded stationary pair and its scores."""

    state: np.ndarray
    control: np.ndarray
    state_index: int
    control_index: int
    cost: float
    residual: float


def equilibrium_search(
    problem: ProblemDef,
    xgrid: CartesianGrid,
    ugrid: CartesianGrid,
    eq_tol: float | None = None,
    avg_tol: float | None = None,
) -> EquilibriumPoint:
    """Search every state/control node pair for the best near-equilibrium.

    The pairs are evaluated in the engine build's blocks of whole state
    rows (about 8,192 pairs), so only one block's temporaries, which stay
    in L2, and the candidates' keys are held at a time.

    Args:
        problem: the control problem.
        xgrid: state grid.
        ugrid: control grid.
        eq_tol: stationarity tolerance on ``||x - f_d(x, u)||_inf``; defaults
            to a tenth of the largest state spacing.
        avg_tol: tolerance for the average-output filter used when the
            problem has ``nominal_average`` but no relaxation multiplier;
            defaults to half the smallest state spacing.

    Raises:
        ValueError: when ``eq_tol`` or a given ``avg_tol`` is not positive
            (NaN included).
        NoEquilibriumError: when no pair passes; the message suggests
            loosening ``eq_tol``.
    """
    if eq_tol is None:
        eq_tol = float(xgrid.spacings.max()) / 10.0
    if not eq_tol > 0.0:  # NaN included
        raise ValueError("eq_tol must be positive")
    if avg_tol is not None and not avg_tol > 0.0:
        raise ValueError("avg_tol must be positive")

    averaged = problem.lam is None and problem.nominal_average is not None
    if averaged and avg_tol is None:
        avg_tol = 0.5 * float(xgrid.spacings.min())

    xc = xgrid.node_coords()
    uc = ugrid.node_coords()
    nu = ugrid.size
    # Pair p = ix * nu + iu; a block keeps only its candidates' sort keys.
    found = []
    for b0, b1 in dp._row_blocks(0, xgrid.size, nu, dp._BUILD_BLOCK_PAIRS):
        x = np.repeat(xc[b0:b1], nu, axis=0)
        u = np.tile(uc, (b1 - b0, 1))
        xn = np.asarray(problem.dynamics(x, u), dtype=float)
        residual = np.abs(x - xn).max(axis=-1)
        g = np.asarray(problem.inequality(x, u), dtype=float)
        ok = (residual <= eq_tol) & ~(g > 0.0).any(axis=-1)
        if averaged:
            fa = np.asarray(problem.average_fn(x, u), dtype=float)
            ok &= np.abs(fa - problem.nominal_average) <= avg_tol
            cost = np.asarray(problem.stage_cost(x, u), dtype=float)
        else:
            cost = np.asarray(relaxed_cost(problem, x, u), dtype=float)
        keep = np.flatnonzero(ok)
        found.append(
            (b0 * nu + keep, cost[keep], np.abs(u[keep]).max(axis=-1), residual[keep])
        )
    cand, cost, effort, residual = (np.concatenate(k) for k in zip(*found))

    if cand.size == 0:
        raise NoEquilibriumError(
            f"no node pair is stationary within eq_tol={eq_tol!r}; "
            f"try a larger tolerance or finer grids"
        )
    # Stable sort: equal keys keep ascending pair order, so the final
    # tie-break is the flat pair index.
    best = int(np.lexsort((residual, effort, cost))[0])
    ix, iu = divmod(int(cand[best]), nu)
    return EquilibriumPoint(
        state=xc[ix].copy(),
        control=uc[iu].copy(),
        state_index=int(ix),
        control_index=int(iu),
        cost=float(cost[best]),
        residual=float(residual[best]),
    )
