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

import itertools
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
        # Per axis, as Python numbers, since the domain test and the cell
        # search read one axis at a time (for a single point every operation
        # is then a NumPy-scalar one): the bounds with the face slack of
        # :meth:`in_domain`, then lo, spacing, last cell index and stride.
        atol = self._spacing * _REL_TOL
        self._faces = tuple(zip((self._lo - atol).tolist(), (self._upper + atol).tolist()))
        self._search_axes = tuple(
            (*faces, lo, h, max(n - 2, 0), stride)
            for faces, lo, h, n, stride in zip(
                self._faces, self._lo.tolist(), self._spacing.tolist(), self.shape, strides
            )
        )
        # Corner c sets axis a's bit (c >> (ndim - 1 - a)) & 1; its flat
        # offset from the cell's base node is bits @ strides.
        shifts = np.arange(self.ndim - 1, -1, -1)
        bits = (np.arange(self._ncorners)[:, None] >> shifts) & 1
        self._corner_offsets = bits @ self._strides
        self._coords_cache: np.ndarray | None = None

    # -- basic geometry ------------------------------------------------------

    @property
    def spacings(self) -> np.ndarray:
        """Per-axis node spacing, shape ``(ndim,)``."""
        return self._spacing.copy()

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

    # -- membership and cells ------------------------------------------------

    def in_domain(self, points: np.ndarray) -> np.ndarray:
        """Elementwise test whether points lie inside the node hull.

        Args:
            points: array of shape ``(..., ndim)``.

        Returns:
            Boolean array of shape ``(...,)``, a NumPy bool for one
            ``(ndim,)`` point.  The box faces get a small spacing-relative
            slack so that states produced by integrating exactly onto the
            boundary are not spuriously rejected; NaN is outside.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 0 or pts.shape[-1] != self.ndim:
            raise ValueError(f"expected (..., {self.ndim}) points, got {pts.shape}")
        return self._inside(pts)

    def _inside(self, points: np.ndarray) -> np.ndarray:
        """:meth:`in_domain` without its checks: two comparisons per
        component ``points[..., a]``, in the points' batch shape."""
        inside = np.True_
        for a, (lo, hi) in enumerate(self._faces):
            p = points[..., a][()]
            inside &= p >= lo
            inside &= p <= hi
        return inside

    def locate_cells(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Enclosing-cell corner indices and multilinear weights.

        Args:
            points: array of shape ``(k, ndim)``.

        Returns:
            ``(idx, w, inside)`` where ``idx`` is a C-contiguous
            ``(k, 2**ndim)`` int64 array of flat corner indices, ``w`` the
            matching C-contiguous float64 weights (rows sum to 1 for inside
            points), and ``inside`` the boolean domain mask.  Rows of outside
            points have all-zero weights and corner index 0; callers must
            consult ``inside`` before trusting them.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.ndim:
            raise ValueError(f"expected (k, {self.ndim}) points, got {pts.shape}")
        idx = np.empty((pts.shape[0], self._ncorners), dtype=np.int64)
        w = np.empty(idx.shape)
        base, inside = self._corner_cells(pts, w)
        # corner-major, so that NumPy loops along the points, not the corners
        np.copyto(idx.T, base + self._corner_offsets[:, None])
        if not inside.all():
            np.copyto(idx.T, 0, where=~inside)
        return idx, w, inside

    def _corner_cells(
        self, points: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The cell search of :meth:`locate_cells`, in the points' batch shape.

        ``points`` has shape ``(..., ndim)``.  ``w[..., c]`` receives corner
        ``c``'s weight of every point, whatever the strides of the
        ``(..., 2**ndim)`` array ``w``: :meth:`locate_cells` and
        :func:`~gridpolicy.dp.apply_policy` pass C-contiguous arrays, the
        engine build the transposed view of its corner-major stencil rows.
        Corner ``c`` of a point is node ``base + _corner_offsets[c]``.

        The search reads one component ``points[..., a]`` at a time and
        keeps the batch shape, so one ``(ndim,)`` point costs NumPy scalar
        operations (tens of nanoseconds each) instead of array operations
        on a batch of one (about half a microsecond each).  Every element
        gets the same float operations in the same order whatever the
        batch shape.  NaN, infinite and far-out points are outside; the
        invalid and overflowing operations they meet here raise no warning.

        Returns:
            ``(base, inside)``: the int64 flat index of each point's cell
            base node (a valid node, but meaningless outside), and the
            boolean domain mask, both of the batch shape (NumPy scalars for
            one point).
        """
        inside = np.True_
        base = 0
        factors = []
        with np.errstate(invalid="ignore", over="ignore"):
            for a, (lo_slack, hi_slack, lo, h, max_cell, stride) in enumerate(
                self._search_axes
            ):
                p = points[..., a][()]
                inside &= p >= lo_slack
                inside &= p <= hi_slack
                t = p - lo
                t /= h
                snapped = np.rint(t)
                # t = snapped where |d| <= _SNAP_TOL, else t, written as
                # arithmetic: np.where costs 1.5 us on a NumPy scalar.  It is
                # exact for finite t: d is exact (Sterbenz, or -t when
                # snapped is 0), so snapped - d * 1.0 is t; and d * 0.0 is
                # -0.0 only when snapped < t, when snapped is not -0.0, so
                # snapped - d * 0.0 is snapped, sign of zero included.
                d = snapped - t
                d *= abs(d) > _SNAP_TOL
                snapped -= d
                t = snapped
                # Clamp to [0, max_cell] by exact integer products: on a NumPy
                # scalar, np.maximum and np.minimum cost about 1 us each, an
                # int64 times a bool about 0.1 us.
                cell = np.floor(t).astype(np.int64)
                cell *= cell > 0
                cell -= (cell - max_cell) * (cell > max_cell)
                t -= cell  # the fraction of the cell on this axis
                factors.append((1.0 - t, t))
                cell *= stride
                base += cell
            # Corner weights as an outer product over axes, each weight
            # ((g_0 * g_1) * g_2)... with g_a = frac (bit a set) or 1 - frac
            # (clear); C order puts axis 0 in the top bit of the corner
            # index.  The last axis's products are formed one at a time,
            # each written into ``w`` before the next.
            weights = factors[0]
            for g in factors[1:]:
                weights = (head * x for head, x in itertools.product(weights, g))
            for c, v in enumerate(weights):
                w[..., c] = v
        if np.count_nonzero(inside) < inside.size:  # cheaper than .all()
            np.copyto(w, 0.0, where=~inside[..., None])
        return base, inside

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
