"""Uniform Cartesian grids with multilinear interpolation.

A grid is the tensor product of per-axis uniform node sets
``lo, lo + h, lo + 2h, ...``.  Scalar fields are stored flat in row-major
(C) node order, i.e. the last axis varies fastest.  Infeasibility is
represented by ``+inf`` field values and propagates conservatively through
interpolation: a query point whose enclosing cell touches an infinite
corner with nonzero weight evaluates to ``+inf``, and a query outside the
node hull is ``+inf`` as well -- the interpolant never extrapolates.

Corners of the enclosing cell are enumerated by a bitmask whose most
significant bit is axis 0; the weight of a corner is the product over axes
of ``frac`` (bit set) or ``1 - frac`` (bit clear).  Points that coincide
with a node -- up to a relative snap tolerance -- receive weight exactly 1.0
on that node, so interpolation reproduces node values exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Relative slack used both when counting nodes on an axis (so that an extent
# that is an exact multiple of the spacing up to float rounding still yields
# the intended node count) and when testing domain membership at the box faces.
_REL_TOL = 1e-9

# Snap tolerance in units of one cell: query points this close to a node are
# treated as lying exactly on it, which keeps node queries exact.
_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class AxisSpec:
    """One uniform axis: nodes ``lo + j * spacing`` for ``j = 0 .. n-1``.

    ``hi`` is an upper bound for node placement, not necessarily a node: the
    number of nodes is the largest ``n`` with ``lo + (n-1) * spacing <= hi``
    (with relative slack), and the effective upper edge of the axis is the
    last node.  At least two nodes are required.
    """

    lo: float
    hi: float
    spacing: float

    def __post_init__(self) -> None:
        for name in ("lo", "hi", "spacing"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"axis {name} must be a finite number, got {v!r}")
        if self.spacing <= 0.0:
            raise ValueError(f"axis spacing must be positive, got {self.spacing!r}")
        if self.npoints < 2:
            raise ValueError(
                f"axis [{self.lo}, {self.hi}] with spacing {self.spacing} "
                f"has fewer than two nodes"
            )

    @property
    def npoints(self) -> int:
        """Number of nodes on the axis."""
        span = (self.hi - self.lo) / self.spacing
        return int(math.floor(span + 0.5 * _REL_TOL)) + 1

    @property
    def upper(self) -> float:
        """Coordinate of the last node (the effective upper edge)."""
        return self.lo + (self.npoints - 1) * self.spacing

    def coords(self) -> np.ndarray:
        """All node coordinates, shape ``(npoints,)``."""
        return self.lo + self.spacing * np.arange(self.npoints, dtype=float)


class CartesianGrid:
    """Tensor product of :class:`AxisSpec` axes with flat row-major indexing.

    Args:
        axes: axis specifications, one per dimension.

    Attributes:
        axes: the axis tuple.
        shape: nodes per axis.
        ndim: number of axes.
        size: total node count.
    """

    def __init__(self, axes: Iterable[AxisSpec]):
        self.axes: tuple[AxisSpec, ...] = tuple(axes)
        if not self.axes:
            raise ValueError("grid needs at least one axis")
        self.shape: tuple[int, ...] = tuple(ax.npoints for ax in self.axes)
        self.ndim: int = len(self.axes)
        self.size: int = int(np.prod(self.shape))
        # Row-major strides in nodes (not bytes): last axis fastest.
        strides = [1] * self.ndim
        for a in range(self.ndim - 2, -1, -1):
            strides[a] = strides[a + 1] * self.shape[a + 1]
        self._strides = np.asarray(strides, dtype=np.int64)
        self._lo = np.asarray([ax.lo for ax in self.axes], dtype=float)
        self._upper = np.asarray([ax.upper for ax in self.axes], dtype=float)
        self._spacing = np.asarray([ax.spacing for ax in self.axes], dtype=float)
        self._ncorners = 1 << self.ndim
        self._coords_cache: np.ndarray | None = None

    # -- basic geometry ------------------------------------------------------

    @property
    def spacings(self) -> np.ndarray:
        """Per-axis node spacing, shape ``(ndim,)``."""
        return self._spacing.copy()

    @property
    def lows(self) -> np.ndarray:
        """Per-axis first-node coordinate, shape ``(ndim,)``."""
        return self._lo.copy()

    @property
    def uppers(self) -> np.ndarray:
        """Per-axis last-node coordinate, shape ``(ndim,)``."""
        return self._upper.copy()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CartesianGrid) and self.axes == other.axes

    def __hash__(self) -> int:
        return hash(self.axes)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{ax.lo}, {ax.hi}] @ {ax.spacing}" for ax in self.axes
        )
        return f"CartesianGrid({parts})"

    # -- node indexing -------------------------------------------------------

    def node_coord(self, flat: int) -> np.ndarray:
        """Coordinates of the node with flat row-major index ``flat``."""
        if not 0 <= flat < self.size:
            raise IndexError(f"node index {flat} out of range [0, {self.size})")
        multi = np.unravel_index(flat, self.shape)
        return self._lo + self._spacing * np.asarray(multi, dtype=float)

    def node_coords(self) -> np.ndarray:
        """Coordinates of every node, shape ``(size, ndim)``, row-major order.

        Cached; callers must not mutate the result.
        """
        if self._coords_cache is None:
            axes_coords = [ax.coords() for ax in self.axes]
            mesh = np.meshgrid(*axes_coords, indexing="ij")
            self._coords_cache = np.stack(
                [m.reshape(-1) for m in mesh], axis=-1
            )
        return self._coords_cache

    def flat_index(self, multi: Iterable[int]) -> int:
        """Flat row-major index of a per-axis index tuple."""
        multi = tuple(multi)
        if len(multi) != self.ndim:
            raise ValueError(f"expected {self.ndim} indices, got {len(multi)}")
        for a, (j, n) in enumerate(zip(multi, self.shape)):
            if not 0 <= j < n:
                raise IndexError(f"axis {a} index {j} out of range [0, {n})")
        return int(np.dot(np.asarray(multi, dtype=np.int64), self._strides))

    # -- membership and cells ------------------------------------------------

    def in_domain(self, points: np.ndarray) -> np.ndarray:
        """Elementwise test whether points lie inside the node hull.

        Args:
            points: array of shape ``(..., ndim)``.

        Returns:
            Boolean array of shape ``(...,)``.  The box faces get a small
            spacing-relative slack so that states produced by integrating
            exactly onto the boundary are not spuriously rejected.
        """
        pts = np.asarray(points, dtype=float)
        atol = self._spacing * _REL_TOL
        ok = (pts >= self._lo - atol) & (pts <= self._upper + atol)
        return ok.all(axis=-1)

    def locate_cells(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Enclosing-cell corner indices and multilinear weights.

        Args:
            points: array of shape ``(k, ndim)``.

        Returns:
            ``(idx, w, inside)`` where ``idx`` is ``(k, 2**ndim)`` int64 flat
            corner indices, ``w`` the matching weights (rows sum to 1 for
            inside points), and ``inside`` the boolean domain mask.  Rows of
            outside points have all-zero weights and corner index 0; callers
            must consult ``inside`` before trusting them.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.ndim:
            raise ValueError(f"expected (k, {self.ndim}) points, got {pts.shape}")
        k = pts.shape[0]
        inside = self.in_domain(pts)

        t = (pts - self._lo) / self._spacing
        snapped = np.rint(t)
        t = np.where(np.abs(t - snapped) <= _SNAP_TOL, snapped, t)
        nmax = np.asarray(self.shape, dtype=np.int64) - 2
        cell = np.clip(np.floor(t).astype(np.int64), 0, np.maximum(nmax, 0))
        frac = t - cell

        idx = np.zeros((k, self._ncorners), dtype=np.int64)
        w = np.ones((k, self._ncorners), dtype=float)
        for c in range(self._ncorners):
            flat = np.zeros(k, dtype=np.int64)
            wc = np.ones(k, dtype=float)
            for a in range(self.ndim):
                bit = (c >> (self.ndim - 1 - a)) & 1
                flat += (cell[:, a] + bit) * self._strides[a]
                wc = wc * (frac[:, a] if bit else 1.0 - frac[:, a])
            idx[:, c] = flat
            w[:, c] = wc
        w[~inside] = 0.0
        idx[~inside] = 0
        return idx, w, inside

    def interpolate(self, field: np.ndarray, point: np.ndarray) -> float:
        """Multilinear interpolation of a flat scalar field at one point.

        Args:
            field: shape ``(size,)`` values in row-major node order; ``+inf``
                entries mark infeasible nodes.
            point: shape ``(ndim,)`` query.

        Returns:
            The interpolated value; ``+inf`` if the point is outside the node
            hull or any corner with nonzero weight is ``+inf``.
        """
        field = np.asarray(field, dtype=float)
        if field.shape != (self.size,):
            raise ValueError(f"field must have shape ({self.size},), got {field.shape}")
        pt = np.asarray(point, dtype=float).reshape(1, self.ndim)
        idx, w, inside = self.locate_cells(pt)
        if not inside[0]:
            return math.inf
        total = 0.0
        for c in range(self._ncorners):
            wc = w[0, c]
            if wc > 0.0:
                total += wc * field[idx[0, c]]
        return float(total)

    # -- field constructors ----------------------------------------------------

    def zeros(self) -> np.ndarray:
        """All-zero flat field."""
        return np.zeros(self.size, dtype=float)

    def full(self, value: float) -> np.ndarray:
        """Constant flat field."""
        return np.full(self.size, value, dtype=float)
