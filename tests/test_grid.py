import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from gridpolicy import AxisSpec, CartesianGrid

from _toys import _flat_index, grid_bounds


# -- axis construction -------------------------------------------------------


def test_benchmark_axis_node_counts():
    # frozen counts for the shipped benchmark axes
    assert AxisSpec(-2.0, 3.5, 0.05).npoints == 111
    assert AxisSpec(-1.5, 2.0, 0.05).npoints == 71
    assert AxisSpec(-1.0, 1.0, 0.01).npoints == 201
    assert AxisSpec(-1.0, 1.0, 0.02).npoints == 101
    assert AxisSpec(-1.0, 1.0, 0.04).npoints == 51


def test_axis_hi_not_on_lattice():
    ax = AxisSpec(0.0, 1.0, 0.3)
    assert ax.npoints == 4
    assert ax.upper == pytest.approx(0.9)
    np.testing.assert_allclose(ax.coords(), [0.0, 0.3, 0.6, 0.9])


def test_axis_validation():
    with pytest.raises(ValueError):
        AxisSpec(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        AxisSpec(0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        AxisSpec(0.0, 1.0, math.nan)
    with pytest.raises(ValueError):
        AxisSpec(1.0, 0.0, 0.1)  # hi < lo
    with pytest.raises(ValueError):
        AxisSpec(0.0, 0.05, 0.1)  # single node


# -- indexing ----------------------------------------------------------------


def test_flat_index_row_major():
    g = CartesianGrid([AxisSpec(0.0, 2.0, 1.0), AxisSpec(0.0, 3.0, 1.0)])
    assert g.shape == (3, 4)
    coords = g.node_coords()
    assert _flat_index(g, np.array([1.0, 1.0])) == 5
    np.testing.assert_array_equal(coords[5], [1.0, 1.0])
    # last axis varies fastest
    np.testing.assert_array_equal(coords[1], [0.0, 1.0])


def test_node_coords_matches_node_coord():
    g = CartesianGrid([AxisSpec(-1.0, 1.0, 0.5), AxisSpec(0.0, 1.0, 0.25)])
    coords = g.node_coords()
    assert coords.shape == (g.size, 2)
    for flat in range(g.size):
        multi = np.unravel_index(flat, g.shape)
        want = [ax.lo + ax.spacing * j for ax, j in zip(g.axes, multi)]
        np.testing.assert_array_equal(coords[flat], want)
    with pytest.raises(IndexError):
        coords[g.size]


# -- interpolation -----------------------------------------------------------


def test_interpolation_node_exactness(rng):
    g = CartesianGrid([AxisSpec(-2.0, 3.5, 0.05), AxisSpec(-1.5, 2.0, 0.05)])
    field = rng.normal(size=g.size)
    for _ in range(200):
        flat = int(rng.integers(0, g.size))
        x = g.node_coords()[flat]
        assert g.interpolate(field, x) == field[flat]


def test_interpolation_snaps_near_nodes():
    g = CartesianGrid([AxisSpec(0.0, 1.0, 0.1)])
    field = np.arange(g.size, dtype=float)
    x = np.array([0.3 + 0.1 * 1e-10])
    assert g.interpolate(field, x) == field[3]


def test_interpolation_matches_scipy(rng):
    g = CartesianGrid([AxisSpec(-1.0, 2.0, 0.25), AxisSpec(0.0, 1.0, 0.2)])
    field = rng.normal(size=g.size)
    ref = RegularGridInterpolator(
        ([ax.coords() for ax in g.axes]), field.reshape(g.shape)
    )
    pts = np.column_stack(
        [rng.uniform(-1.0, 1.75, 300), rng.uniform(0.0, 1.0, 300)]
    )
    ours = np.array([g.interpolate(field, p) for p in pts])
    np.testing.assert_allclose(ours, ref(pts), rtol=1e-12, atol=1e-12)


def test_linear_function_reproduced_exactly(rng):
    # multilinear interpolation reproduces affine functions
    g = CartesianGrid([AxisSpec(0.0, 1.0, 0.125), AxisSpec(0.0, 2.0, 0.25)])
    a, b, c = 0.75, -1.25, 0.5
    field = np.array([a * x + b * y + c for x, y in g.node_coords()])
    for _ in range(100):
        p = np.array([rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0)])
        want = a * p[0] + b * p[1] + c
        assert abs(g.interpolate(field, p) - want) <= 1e-12


def test_interpolation_out_of_domain_is_inf():
    g = CartesianGrid([AxisSpec(0.0, 1.0, 0.5)])
    field = np.ones(g.size)
    assert g.interpolate(field, np.array([1.1])) == math.inf
    assert g.interpolate(field, np.array([-0.1])) == math.inf
    # hi beyond the last node is outside the effective domain
    g2 = CartesianGrid([AxisSpec(0.0, 1.0, 0.3)])
    assert g2.interpolate(np.ones(g2.size), np.array([0.95])) == math.inf


def test_infinity_propagation_through_cells():
    g = CartesianGrid([AxisSpec(0.0, 3.0, 1.0)])
    field = np.array([0.0, 1.0, np.inf, 3.0])
    # query in a cell with an infinite corner -> inf
    assert g.interpolate(field, np.array([1.5])) == math.inf
    assert g.interpolate(field, np.array([2.5])) == math.inf
    # on a finite node adjacent to the infinite one -> exact finite value
    assert g.interpolate(field, np.array([1.0])) == 1.0
    assert g.interpolate(field, np.array([3.0])) == 3.0
    # cells not touching the infinite node are unaffected
    assert g.interpolate(field, np.array([0.5])) == 0.5


def test_inside_face_slack():
    g = CartesianGrid([AxisSpec(0.0, 1.0, 0.5), AxisSpec(0.0, 1.0, 0.5)])
    assert g._inside(np.array([1.0, 1.0]))
    assert g._inside(np.array([1.0 + 0.5e-10, 0.0]))
    assert not g._inside(np.array([1.0 + 1e-8, 0.0]))
    assert not g._inside(np.array([-1e-8, 0.0]))
    flags = g._inside(np.array([[0.5, 0.5], [2.0, 0.0]]))
    np.testing.assert_array_equal(flags, [True, False])


def _inside_broadcast(g, points):
    """The broadcast formula the domain test used to evaluate, kept as an oracle."""
    lows, uppers = grid_bounds(g)
    slack = g.spacings * 1e-9
    pts = np.asarray(points, dtype=float)
    return ((pts >= lows - slack) & (pts <= uppers + slack)).all(axis=-1)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ndim=st.integers(1, 3),
    batch=st.sampled_from([(), (1,), (9,), (3, 4)]),
)
def test_inside_equals_the_broadcast_formula(seed, ndim, batch):
    # any batch shape; NaN, infinities, signed zeros, faces and points just
    # inside or outside the face slack
    rng = np.random.default_rng(seed)
    g = CartesianGrid(
        [
            AxisSpec(lo, lo + (n - 1) * h, h)
            for lo, h, n in zip(
                rng.choice([0.0, -1.0, 0.3], ndim),
                rng.choice([0.1, 0.25, 1.0], ndim),
                rng.integers(2, 6, ndim),
            )
        ]
    )
    (lows, uppers), h = grid_bounds(g), g.spacings
    shape = batch + (ndim,)
    face = np.where(rng.random(shape) < 0.5, lows, uppers)
    slack = rng.choice([0.0, 0.5e-9, -0.5e-9, 2e-9, -2e-9], shape) * h
    special = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], shape)
    pts = np.select(
        [rng.random(shape) < p for p in (0.4, 0.7)],
        [rng.uniform(lows - 2 * h, uppers + 2 * h, shape), face + slack],
        special,
    )
    got, want = g._inside(pts), _inside_broadcast(g, pts)
    assert type(got) is type(want) and np.shape(got) == batch
    np.testing.assert_array_equal(got, want)


def test_locate_cells_weights(rng):
    g = CartesianGrid([AxisSpec(0.0, 2.0, 0.5), AxisSpec(-1.0, 1.0, 0.25)])
    pts = np.column_stack(
        [rng.uniform(0.0, 2.0, 100), rng.uniform(-1.0, 1.0, 100)]
    )
    pts = np.vstack([pts, [[5.0, 0.0]]])  # one outside
    idx, w, inside = g.locate_cells(pts)
    assert idx.shape == (101, 4) and w.shape == (101, 4)
    assert inside[:-1].all() and not inside[-1]
    np.testing.assert_allclose(w[:-1].sum(axis=1), 1.0, atol=1e-12)
    assert (w >= 0.0).all()
    assert (w[-1] == 0.0).all()
    assert (idx[:-1] >= 0).all() and (idx[:-1] < g.size).all()


def test_locate_cells_rejects_points_with_another_axis_count():
    g = CartesianGrid([AxisSpec(0.0, 2.0, 0.5), AxisSpec(-1.0, 1.0, 0.25)])
    for pts in (np.zeros((4, 3)), np.zeros((4, 1)), np.zeros((2, 4, 2))):
        with pytest.raises(ValueError, match=r"expected \(k, 2\) points"):
            g.locate_cells(pts)


def _locate_cells_corner_loop(g, points):
    """The per-corner loop ``locate_cells`` used to run, kept as an oracle."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = pts.shape[0]
    inside = g._inside(pts)
    strides = [int(np.prod(g.shape[a + 1 :])) for a in range(g.ndim)]
    idx = np.zeros((k, 1 << g.ndim), dtype=np.int64)
    w = np.ones((k, 1 << g.ndim), dtype=float)
    with np.errstate(all="ignore"):  # NaN, infinite and far-out points
        t = (pts - grid_bounds(g)[0]) / g.spacings
        snapped = np.rint(t)
        t = np.where(np.abs(t - snapped) <= 1e-9, snapped, t)
        nmax = np.asarray(g.shape, dtype=np.int64) - 2
        cell = np.clip(np.floor(t).astype(np.int64), 0, np.maximum(nmax, 0))
        frac = t - cell
        for c in range(1 << g.ndim):
            flat = np.zeros(k, dtype=np.int64)
            wc = np.ones(k, dtype=float)
            for a in range(g.ndim):
                bit = (c >> (g.ndim - 1 - a)) & 1
                flat += (cell[:, a] + bit) * strides[a]
                wc = wc * (frac[:, a] if bit else 1.0 - frac[:, a])
            idx[:, c] = flat
            w[:, c] = wc
    w[~inside] = 0.0
    idx[~inside] = 0
    return idx, w, inside


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_locate_cells_matches_corner_loop(rng, ndim):
    # bitwise equal to the per-corner loop on interior, outside, on-face,
    # node, snapped-to-node and just-off-node points
    g = CartesianGrid(
        [AxisSpec(-1.0 + 0.3 * a, 1.0 + 0.7 * a, 0.1 + 0.15 * a) for a in range(ndim)]
    )
    (lo, hi), h = grid_bounds(g), g.spacings
    nodes = g.node_coords()[rng.integers(0, g.size, 300)]
    jitter = rng.choice([0.0, 1e-12, -1e-12, 1e-7, -1e-7], size=nodes.shape)
    faces = rng.uniform(lo, hi, size=(200, ndim))
    axis = rng.integers(0, ndim, 200)
    slack = rng.choice([0.0, 0.5e-9, -0.5e-9, 1e-8, -1e-8], size=200)
    side = rng.random(200) < 0.5
    faces[np.arange(200), axis] = np.where(side, lo[axis], hi[axis]) + slack * h[axis]
    # NaN, infinite and far-out values on one axis of otherwise inside points
    far = rng.uniform(lo, hi, size=(60, ndim))
    far[np.arange(60), rng.integers(0, ndim, 60)] = rng.choice(
        [np.nan, np.inf, -np.inf, 1e300, -1e300, 1.7e308], 60
    )
    pts = np.vstack(
        [
            rng.uniform(lo, hi, size=(500, ndim)),
            rng.uniform(lo - 3 * h, hi + 3 * h, size=(500, ndim)),
            nodes + jitter * h,
            faces,
            far,
        ]
    )
    got = g.locate_cells(pts)
    want = _locate_cells_corner_loop(g, pts)
    assert not got[2].all() and got[2].any()
    assert got[0].flags.c_contiguous and got[1].flags.c_contiguous  # tobytes hides it
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    # one point at a time, as a closed-loop step passes it
    for p in np.vstack([pts[::97], far[:6]]):
        for a, b in zip(g.locate_cells(p), _locate_cells_corner_loop(g, p)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("ndim", [1, 2])
def test_locate_cells_keeps_signed_zeros_of_the_corner_loop(ndim):
    # on an axis from 0, a point at -0.0 or just below 0 snaps to the node
    # -0.0 and gets a -0.0 fraction; every weight's sign bit must match
    g = CartesianGrid([AxisSpec(0.0, 1.0, 0.25)] * ndim)
    values = [-0.0, 0.0, -1e-12, 1e-12, -2e-10, 2e-10, 1.0, 1.0 - 1e-12, 0.25 - 1e-12]
    pts = np.array(list(itertools.product(values, repeat=ndim)))
    got, want = g.locate_cells(pts), _locate_cells_corner_loop(g, pts)
    assert np.signbit(got[1]).any()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    for p in pts:
        for a, b in zip(g.locate_cells(p), _locate_cells_corner_loop(g, p)):
            assert a.tobytes() == b.tobytes()


def test_cell_search_is_silent_on_nan_infinite_and_far_points():
    # such points are outside; the search meets invalid casts, inf - inf and
    # overflowing divisions on them, and must not warn (under -W error,
    # interpolate would raise instead of returning +inf)
    g = CartesianGrid([AxisSpec(0.0, 1.0, 0.25), AxisSpec(-1.0, 1.0, 0.1)])
    field = np.arange(g.size, dtype=float)
    bad = [np.nan, np.inf, -np.inf, 1e300, -1e300, 1.7e308]
    pts = np.array([[b, 0.5] for b in bad] + [[0.5, b] for b in bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx, w, inside = g.locate_cells(pts)
        assert not inside.any() and not w.any() and not idx.any()
        for p in pts:
            assert g.interpolate(field, p) == math.inf
            assert not g._inside(p)


def test_three_dimensional_interpolation(rng):
    g = CartesianGrid(
        [AxisSpec(0.0, 1.0, 0.5), AxisSpec(0.0, 1.0, 0.25), AxisSpec(0.0, 1.0, 1.0)]
    )
    field = rng.normal(size=g.size)
    ref = RegularGridInterpolator(
        ([ax.coords() for ax in g.axes]), field.reshape(g.shape)
    )
    pts = rng.uniform(0.0, 1.0, size=(50, 3))
    ours = np.array([g.interpolate(field, p) for p in pts])
    np.testing.assert_allclose(ours, ref(pts), rtol=1e-12, atol=1e-12)


def test_field_helpers_and_validation():
    g = CartesianGrid([AxisSpec(0.0, 1.0, 0.5)])
    with pytest.raises(ValueError):
        g.interpolate(np.zeros(5), np.array([0.5]))
    with pytest.raises(ValueError):
        CartesianGrid([])
