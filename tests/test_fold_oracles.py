"""The shared grid, variogram and plane-fit helpers against the inline code
they replaced.

The surface model, the greenspace mask, the kriging template and the
population grid are all built by ``geocore.snapped_grid`` and
``RasterGrid.cells_of``; the variogram shape lives in ``interp._shape``; and
``roofs._PlaneFit`` reads its fallback offset from its normal equations.
The functions below are the earlier bodies, kept as oracles: the new code
must give the same origin, shape, cell indices and floats to the last bit.
The one exception is the plane a ``_PlaneFit`` solves by cofactors, which
is checked against the exact plane (``exact_plane``) within a stated bound.
"""
import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_plane import cofactors, exact_terms, fit_sums, rank_guard_stops
from greenprior import interp
from greenprior.benefits import population_grid_from_points
from greenprior.geocore import BUILDING, GROUND, VEGETATION, PointCloud, RasterGrid, snapped_grid
from greenprior.indicators import build_greenspace_mask
from greenprior.interp import VARIOGRAM_KINDS, VariogramModel
from greenprior.roofs import RoofSegment, _PlaneFit, candidate_roof_points, segment_cell_centers

CELLS = (0.1, 1.0, 5.0, 50.0, 100.0)

# ---------------------------------------------------------------------------
# oracles: the earlier inline bodies
# ---------------------------------------------------------------------------


def _origin(v, cell):
    # the earlier floor(v / cell) * cell, changed knowingly: one cell lower
    # where the product rounds above v, so that v never lands at index -1
    o = math.floor(v / cell) * cell
    return o - cell if o > v else o


def _old_candidate_roof_points(pc, cell):
    pts = pc.points_of(BUILDING)
    origin_x = _origin(pts[:, 0].min(), cell)
    origin_y = _origin(pts[:, 1].min(), cell)
    cols = np.floor((pts[:, 0] - origin_x) / cell).astype(int)
    rows = np.floor((pts[:, 1] - origin_y) / cell).astype(int)
    values = np.full((rows.max() + 1, cols.max() + 1), -np.inf)
    np.maximum.at(values, (rows, cols), pts[:, 2])
    values[np.isinf(values)] = np.nan
    return RasterGrid(origin_x, origin_y, cell, values)


def _old_build_greenspace_mask(pc, potential_roofs, cell, roof_grid):
    xy = pc.xyz[:, :2]
    origin_x = _origin(xy[:, 0].min(), cell)
    origin_y = _origin(xy[:, 1].min(), cell)
    ncols = int(math.floor((xy[:, 0].max() - origin_x) / cell)) + 1
    nrows = int(math.floor((xy[:, 1].max() - origin_y) / cell)) + 1
    values = np.zeros((nrows, ncols))
    veg = pc.points_of(VEGETATION)
    if veg.shape[0]:
        cols = np.floor((veg[:, 0] - origin_x) / cell).astype(int)
        rows = np.floor((veg[:, 1] - origin_y) / cell).astype(int)
        inside = (rows >= 0) & (rows < nrows) & (cols >= 0) & (cols < ncols)
        values[rows[inside], cols[inside]] = 1.0
    for seg in potential_roofs or []:
        centers = segment_cell_centers(seg, roof_grid)
        cols = np.floor((centers[:, 0] - origin_x) / cell).astype(int)
        rows = np.floor((centers[:, 1] - origin_y) / cell).astype(int)
        inside = (rows >= 0) & (rows < nrows) & (cols >= 0) & (cols < ncols)
        values[rows[inside], cols[inside]] = 1.0
    return RasterGrid(origin_x, origin_y, cell, values)


def _old_population_grid(points, cell):
    arr = np.asarray(points, dtype=float)
    origin_x = _origin(arr[:, 0].min(), cell)
    origin_y = _origin(arr[:, 1].min(), cell)
    ncols = int(math.floor((arr[:, 0].max() - origin_x) / cell)) + 1
    nrows = int(math.floor((arr[:, 1].max() - origin_y) / cell)) + 1
    values = np.zeros((nrows, ncols))
    cols = np.floor((arr[:, 0] - origin_x) / cell).astype(int)
    rows = np.floor((arr[:, 1] - origin_y) / cell).astype(int)
    np.add.at(values, (rows, cols), arr[:, 2])
    return RasterGrid(origin_x, origin_y, cell, values)


def _old_interp_template(pc, cell):
    x_min, y_min = pc.xyz[:, 0].min(), pc.xyz[:, 1].min()
    x_max, y_max = pc.xyz[:, 0].max(), pc.xyz[:, 1].max()
    ox = _origin(x_min, cell)
    oy = _origin(y_min, cell)
    ncols = int(math.floor((x_max - ox) / cell)) + 1
    nrows = int(math.floor((y_max - oy) / cell)) + 1
    return RasterGrid(ox, oy, cell, np.zeros((nrows, ncols)))


def _old_shape(kind, ratio):
    if kind == "spherical":
        shape = np.where(ratio < 1.0, 1.5 * ratio - 0.5 * ratio ** 3, 1.0)
    else:
        shape = 1.0 - np.exp(-3.0 * ratio)
    return shape


def _old_gamma(model, h):
    h = np.asarray(h, dtype=float)
    partial = model.sill - model.nugget
    out = np.where(h > 0, model.nugget + partial * _old_shape(model.kind, h / model.range_m), 0.0)
    return out if out.ndim else float(out)


class _OldPlaneFit:
    def __init__(self, fallback_ab):
        self.fallback_ab = fallback_ab
        self.S = np.zeros((3, 3))
        self.t = np.zeros(3)
        self.n = 0
        self.sum_z = self.sum_dx = self.sum_dy = 0.0

    def add(self, dx, dy, z):
        v = np.array([dx, dy, 1.0])
        self.S += np.outer(v, v)
        self.t += z * v
        self.n += 1
        self.sum_z += z
        self.sum_dx += dx
        self.sum_dy += dy

    def plane(self):
        if self.n >= 3 and np.linalg.matrix_rank(self.S, tol=1e-8) == 3:
            a, b, c = np.linalg.solve(self.S, self.t)
            return float(a), float(b), float(c)
        a, b = self.fallback_ab
        c = (self.sum_z - a * self.sum_dx - b * self.sum_dy) / max(self.n, 1)
        return a, b, c


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _assert_same_grid(got, want):
    assert _bits(got.origin_x) == _bits(want.origin_x)
    assert _bits(got.origin_y) == _bits(want.origin_y)
    assert got.cell == want.cell
    assert got.values.shape == want.values.shape
    assert np.array_equal(got.values, want.values, equal_nan=True)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def cell_and_points(draw, columns=2):
    """A cell size and points of either sign, some exactly on cell multiples,
    spanning at most 60 cells so the grids stay small; with columns=3 each
    point also carries a z or count in [0, 50]."""
    cell = draw(st.sampled_from(CELLS))
    coord = st.one_of(st.floats(-30.0 * cell, 30.0 * cell),
                      st.integers(-30, 30).map(lambda k: k * cell))
    row = st.tuples(*[coord, coord, st.floats(0.0, 50.0)][:columns])
    return cell, np.array(draw(st.lists(row, min_size=1, max_size=25)), dtype=float)


def _cloud(xyz, classes):
    return PointCloud(xyz, np.asarray(classes, dtype=np.uint8))


# ---------------------------------------------------------------------------
# the four grid builders
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(cp=cell_and_points(columns=3), data=st.data())
@example(cp=(5.0, np.array([[-5.0, 10.0, 3.0]])), data=None)
@example(cp=(0.1, np.array([[0.3, -0.7, 1.0], [0.1, 0.2, 2.0]])), data=None)
def test_candidate_roof_points_matches_inline_builder(cp, data):
    cell, xyz = cp
    classes = ([BUILDING] * len(xyz) if data is None else
               data.draw(st.lists(st.sampled_from([BUILDING, GROUND, VEGETATION]),
                                  min_size=len(xyz), max_size=len(xyz))))
    classes[0] = BUILDING
    pc = _cloud(xyz, classes)
    _assert_same_grid(candidate_roof_points(pc, cell), _old_candidate_roof_points(pc, cell))


@settings(max_examples=200, deadline=None)
@given(cp=cell_and_points(columns=3), data=st.data())
@example(cp=(50.0, np.array([[100.0, -100.0, 0.0]])), data=None)
def test_greenspace_mask_matches_inline_builder(cp, data):
    cell, xyz = cp
    classes = ([VEGETATION] * len(xyz) if data is None else
               data.draw(st.lists(st.sampled_from([GROUND, VEGETATION]),
                                  min_size=len(xyz), max_size=len(xyz))))
    pc = _cloud(xyz, classes)
    roof_grid = RasterGrid(-3000.0, -3000.0, 1.0, np.zeros((1, 1)))
    segs = []
    if data is not None:
        roof_grid = RasterGrid(data.draw(st.sampled_from([-3000.0, -0.5, 0.0, 7.3])),
                               data.draw(st.sampled_from([-3000.0, -0.5, 0.0, 7.3])),
                               data.draw(st.sampled_from([0.1, 1.0, 5.0])), np.zeros((1, 1)))
        index = st.integers(-10, 1000)
        for _ in range(data.draw(st.integers(0, 3))):
            cells = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=6))
            segs.append(RoofSegment(cells, (0.0, 0.0, 0.0), 0.0, float(len(cells))))
    for roofs in (None, segs):
        _assert_same_grid(build_greenspace_mask(pc, roofs, cell=cell, roof_grid=roof_grid),
                          _old_build_greenspace_mask(pc, roofs, cell, roof_grid))


@settings(max_examples=200, deadline=None)
@given(cp=cell_and_points(columns=3))
@example(cp=(100.0, np.array([[-100.0, 200.0, 4.0]])))
@example(cp=(100.0, np.array([[-100.0, 200.0, 4.0], [-100.0, 200.0, 1.5], [0.0, 0.0, 0.0]])))
def test_population_grid_matches_inline_builder(cp):
    cell, pts = cp
    _assert_same_grid(population_grid_from_points(pts, cell), _old_population_grid(pts, cell))


@settings(max_examples=200, deadline=None)
@given(cp=cell_and_points(columns=3))
@example(cp=(50.0, np.array([[0.0, 0.0, 1.0]])))
@example(cp=(0.1, np.array([[-0.3, 0.3, 1.0], [0.7, -0.1, 1.0]])))
def test_kriging_template_matches_inline_builder(cp):
    cell, xyz = cp
    pc = _cloud(xyz, [GROUND] * len(xyz))
    _assert_same_grid(snapped_grid(pc.xyz, cell), _old_interp_template(pc, cell))


@settings(max_examples=200, deadline=None)
@given(cp=cell_and_points())
@example(cp=(5.0, np.array([[-10.0, 15.0], [0.0, -5.0]])))
@example(cp=(0.1, np.array([[1.7, 0.3], [2.5, 1.0]])))
def test_cells_of_matches_inline_indices(cp):
    cell, xy = cp
    grid = snapped_grid(xy, cell)
    rows, cols = grid.cells_of(xy)
    assert rows.tolist() == np.floor((xy[:, 1] - grid.origin_y) / cell).astype(int).tolist()
    assert cols.tolist() == np.floor((xy[:, 0] - grid.origin_x) / cell).astype(int).tolist()
    # the far edge holds the largest coordinate by construction; the near edge
    # need not hold the smallest one exactly (with a 0.1 cell it can land at
    # index 1), but never below index 0
    assert rows.max() == grid.nrows - 1 and cols.max() == grid.ncols - 1
    assert rows.min() >= 0 and cols.min() >= 0


def test_snapped_grid_holds_a_minimum_that_the_product_overshoots():
    # floor(1.7 / 0.1) * 0.1 is 1.7000000000000002, above the minimum
    xy = np.array([[1.7, 0.3], [2.5, 1.0]])
    grid = snapped_grid(xy, 0.1)
    assert grid.origin_x <= 1.7 and grid.origin_y <= 0.3
    rows, cols = grid.cells_of(xy)
    assert cols.tolist() == [0, grid.ncols - 1] and rows.tolist() == [0, grid.nrows - 1]
    # every coordinate 0.0, 0.1, ..., 299.9 as a minimum lands in column 0
    for cell in (0.1, 0.2, 0.3):
        for v in np.arange(3000) / 10.0:
            g = snapped_grid(np.array([[v, 0.0], [v + 1.0, 1.0]]), cell)
            assert g.cells_of(np.array([[v, 0.0]]))[1][0] == 0


# ---------------------------------------------------------------------------
# variogram shape
# ---------------------------------------------------------------------------

RATIOS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0),
                   st.floats(1.0, 1e3, exclude_min=True))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(VARIOGRAM_KINDS), ratios=st.lists(RATIOS, min_size=1, max_size=20))
@example(kind="spherical", ratios=[0.0, 1.0, 1.5])
@example(kind="exponential", ratios=[0.0, 1.0, 1.5])
def test_variogram_shape_matches_inline_expression(kind, ratios):
    ratio = np.array(ratios)
    assert _bits(interp._shape(kind, ratio)) == _bits(_old_shape(kind, ratio))
    for r in ratios:
        assert _bits(interp._shape(kind, r)) == _bits(_old_shape(kind, r))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(VARIOGRAM_KINDS), nugget=st.floats(0.0, 5.0),
       partial=st.floats(1e-3, 50.0), range_m=st.floats(1.0, 2000.0),
       lags=st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=20))
def test_gamma_matches_inline_expression(kind, nugget, partial, range_m, lags):
    model = VariogramModel(kind, nugget, nugget + partial, range_m)
    lags = lags + [range_m]
    assert _bits(model.gamma(lags)) == _bits(_old_gamma(model, lags))
    got, want = model.gamma(lags[0]), _old_gamma(model, lags[0])
    assert type(got) is float and _bits(got) == _bits(want)


# ---------------------------------------------------------------------------
# plane fit: fallback offset and cofactor solve
# ---------------------------------------------------------------------------

COORD = st.floats(-30.0, 30.0)
Z = st.floats(-5.0, 60.0)
EPS = float(np.finfo(float).eps)


def _fits(fallback, rows):
    new, old = _PlaneFit(fallback), _OldPlaneFit(fallback)
    for dx, dy, z in rows:
        new.add(dx, dy, z)
        old.add(dx, dy, z)
    return new, old


def _assert_same_plane(new, old):
    got, want = new.plane(), old.plane()
    assert [type(v) for v in got] == [float, float, float]
    assert _bits(got) == _bits(want)


@settings(max_examples=300, deadline=None)
@given(fallback=st.tuples(COORD, COORD),
       rows=st.lists(st.tuples(COORD, COORD, Z), max_size=2))
@example(fallback=(0.0, 0.0), rows=[])
def test_plane_fallback_with_fewer_than_three_cells(fallback, rows):
    _assert_same_plane(*_fits(fallback, rows))


@settings(max_examples=300, deadline=None)
@given(fallback=st.tuples(COORD, COORD), direction=st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)]),
       steps=st.lists(st.integers(-20, 20), min_size=3, max_size=12), zs=st.data())
def test_plane_fallback_with_collinear_cells(fallback, direction, steps, zs):
    rows = [(k * direction[0] * 1.0, k * direction[1] * 1.0, zs.draw(Z)) for k in steps]
    new, old = _fits(fallback, rows)
    _assert_same_plane(new, old)
    new.rebuild(rows[1:])
    old = _fits(fallback, rows[1:])[1]
    _assert_same_plane(new, old)


@settings(max_examples=200, deadline=None)
@given(fallback=st.tuples(COORD, COORD),
       rows=st.lists(st.tuples(COORD, COORD, Z), min_size=3, max_size=12))
def test_plane_fit_matches_on_any_cells(fallback, rows):
    # where the rank guard passes, each coefficient lies within 4 eps kappa s
    # of the exact plane x: kappa = trace**3 / (4 det) bounds the condition
    # number of the normal matrix from above, and s = |x| + |t| / trace with
    # t its right-hand side (the worst of 20,000 targeted row sets reached
    # 0.32 eps kappa s); where the guard stops the fit, the fallback's bits
    new, old = _fits(fallback, rows)
    if rank_guard_stops(fit_sums(new)):
        _assert_same_plane(new, old)
        return
    sums = [Fraction(0)] * 9
    for row in rows:
        sums = [s + t for s, t in zip(sums, exact_terms(*row))]
    det, num = cofactors(sums)
    want = [v / det for v in num]
    trace = sums[0] + sums[3] + sums[5]
    kappa = trace ** 3 / (4 * det)
    bound = 4 * Fraction(EPS) * kappa * (max(map(abs, want)) + max(map(abs, sums[6:])) / trace)
    got = new.plane()
    assert [type(v) for v in got] == [float, float, float]
    assert max(abs(Fraction(g) - w) for g, w in zip(got, want)) <= bound
