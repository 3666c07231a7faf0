import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from greenprior.geocore import (
    BUILDING,
    GROUND,
    GeometryError,
    GridGeometry,
    PointCloud,
    Polygon,
    Polyline,
    RasterGrid,
    cell_centers,
    cells_of,
    distance_to_polylines,
    points_in_polygon,
    segment_distances,
    snapped_geometry,
)
from scalar_distance import chain_distance


def square(x0, y0, side):
    return Polygon([[x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side], [x0, y0]])


# ---------------------------------------------------------------------------
# PointCloud
# ---------------------------------------------------------------------------

def test_point_cloud_basic():
    xyz = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 3.0], [5.0, 5.0, 0.0]])
    cls = np.array([BUILDING, BUILDING, GROUND])
    pc = PointCloud(xyz, cls)
    assert len(pc) == 3
    assert pc.points_of(BUILDING).shape == (2, 3)
    assert pc.points_of(GROUND).tolist() == [[5.0, 5.0, 0.0]]


def test_point_cloud_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 2)), np.zeros(3, dtype=np.uint8))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), np.zeros(2, dtype=np.uint8))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0.0, np.nan]]), np.array([0], dtype=np.uint8))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((1, 3)), np.array([9], dtype=np.uint8))


@pytest.mark.parametrize("codes", [[256, -255], [256], [-255], np.array([256, 1]),
                                   np.array([1.0, 0.5])])
def test_point_cloud_checks_codes_before_the_cast(codes):
    # as uint8, 256 and -255 would wrap to ground and building
    with pytest.raises(ValueError, match="unknown classification code"):
        PointCloud(np.zeros((len(codes), 3)), codes)


def test_point_cloud_holds_codes_as_uint8():
    pc = PointCloud(np.zeros((3, 3)), [BUILDING, GROUND, 3])
    assert pc.cls.dtype == np.uint8 and pc.cls.tolist() == [BUILDING, GROUND, 3]
    assert PointCloud(np.zeros((0, 3)), []).cls.dtype == np.uint8


# ---------------------------------------------------------------------------
# RasterGrid / cells_of
# ---------------------------------------------------------------------------

def _cells(grid, points):
    """cells_of as a list of (row, col) pairs."""
    rows, cols = cells_of(grid, np.array(points, dtype=float))
    return list(zip(rows.tolist(), cols.tolist()))


def test_cells_of_known_points():
    grid = RasterGrid(0.0, 0.0, 5.0, np.zeros((4, 4)))
    assert _cells(grid, [(0.0, 0.0), (4.999, 4.999)]) == [(0, 0), (0, 0)]
    # exact boundary goes to the higher-index cell
    assert _cells(grid, [(5.0, 0.0), (0.0, 5.0)]) == [(0, 1), (1, 0)]
    assert _cells(grid, [(12.5, 17.5)]) == [(3, 2)]
    # off the grid, and not clipped; the right edge is exclusive
    assert _cells(grid, [(-0.001, 0.0), (20.0, 0.0)]) == [(0, -1), (0, 4)]


def test_cells_of_offset_origin():
    grid = RasterGrid(100.0, -50.0, 2.5, np.zeros((10, 8)))
    assert _cells(grid, [(100.0, -50.0), (101.0, -48.0), (102.5, -47.5)]) == \
        [(0, 0), (0, 0), (1, 1)]


def test_cells_of_roundtrip_property():
    rng = np.random.default_rng(7)
    grid = RasterGrid(-30.0, 12.0, 3.0, np.zeros((15, 22)))
    for _ in range(500):
        x = rng.uniform(-30.0, -30.0 + 22 * 3.0 - 1e-9)
        y = rng.uniform(12.0, 12.0 + 15 * 3.0 - 1e-9)
        [(row, col)] = _cells(grid, [(x, y)])
        assert 0 <= row < grid.nrows and 0 <= col < grid.ncols
        # the point must actually lie inside the half-open box of that cell
        assert grid.origin_x + col * 3.0 <= x < grid.origin_x + (col + 1) * 3.0
        assert grid.origin_y + row * 3.0 <= y < grid.origin_y + (row + 1) * 3.0


def test_cell_center_roundtrip():
    grid = RasterGrid(10.0, 20.0, 4.0, np.zeros((6, 6)))
    for row in range(6):
        for col in range(6):
            assert _cells(grid, cell_centers(grid, np.array([[row, col]]))) == [(row, col)]


def test_cell_centers_match_cell_center_bits():
    # the scalar rule of a cell's centre, in Python floats
    rng = np.random.default_rng(21)
    grid = RasterGrid(0.1, -1234.3, 0.3, np.zeros((400, 400)))
    cells = rng.integers(0, 400, (50, 2))
    got = cell_centers(grid, cells)
    want = np.array([(grid.origin_x + (c + 0.5) * grid.cell, grid.origin_y + (r + 0.5) * grid.cell)
                     for r, c in cells.tolist()])
    assert got.shape == (50, 2)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert cell_centers(grid, np.empty((0, 2), dtype=np.int64)).shape == (0, 2)
    assert cell_centers(grid, np.array([[3, 7]])).shape == (1, 2)


def _old_snapped_geometry(xy, cell):
    """snapped_geometry with its earlier reduction over both columns at once."""
    lo, hi = xy[:, :2].min(axis=0), xy[:, :2].max(axis=0)
    origin = [math.floor(v / cell) * cell for v in lo]
    origin = [o - cell if o > v else o for o, v in zip(origin, lo)]
    ncols, nrows = (int(math.floor((h - o) / cell)) + 1 for h, o in zip(hi, origin))
    return GridGeometry(origin[0], origin[1], cell, nrows, ncols)


def _fields(g):
    """A GridGeometry's fields as (type, repr) pairs: bits and types alike."""
    return [(type(v), repr(v)) for v in vars(g).values()]


@pytest.mark.parametrize("cell", [0.1, 1.0, 5.0])
def test_snapped_geometry_matches_both_column_reduction(cell):
    rng = np.random.default_rng(29)
    for n, scale in ((1, 1.0), (7, 50.0), (5000, 1200.0), (3000, 5e6)):
        xyz = rng.uniform(-scale, scale, (n, 3))
        xyz[rng.random(n) < 0.1, :2] = -0.0
        want = _fields(_old_snapped_geometry(xyz, cell))
        for perm in (np.arange(n), rng.permutation(n), rng.permutation(n)):
            assert _fields(snapped_geometry(xyz[perm], cell)) == want
            assert _fields(snapped_geometry(xyz[perm, :2], cell)) == want


def test_raster_grid_validation():
    with pytest.raises(ValueError):
        RasterGrid(0.0, 0.0, 0.0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        RasterGrid(0.0, 0.0, 1.0, np.zeros(4))


# ---------------------------------------------------------------------------
# Polygon
# ---------------------------------------------------------------------------

def test_polygon_validation_errors():
    with pytest.raises(GeometryError):
        Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])  # not closed
    with pytest.raises(GeometryError):
        Polygon([[0, 0], [1, 0], [0, 0]])  # too few vertices
    with pytest.raises(GeometryError):
        Polygon([[0, 0], [1, 0], [1, 0], [1, 1], [0, 0]])  # repeated vertex
    with pytest.raises(GeometryError):
        # bowtie: edges cross properly
        Polygon([[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]])


def test_polygon_area_and_centroid():
    sq = square(0.0, 0.0, 10.0)
    assert sq.area() == pytest.approx(100.0)
    assert sq.centroid() == pytest.approx((5.0, 5.0))

    tri = Polygon([[0, 0], [6, 0], [0, 6], [0, 0]])
    assert tri.area() == pytest.approx(18.0)
    assert tri.centroid() == pytest.approx((2.0, 2.0))

    # orientation must not matter
    sq_cw = Polygon([[0, 0], [0, 10], [10, 10], [10, 0], [0, 0]])
    assert sq_cw.area() == pytest.approx(100.0)


def test_polygon_with_hole():
    outer = [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]
    hole = [[4, 4], [6, 4], [6, 6], [4, 6], [4, 4]]
    poly = Polygon(outer, holes=[hole])
    assert poly.area() == pytest.approx(96.0)
    # symmetric hole leaves the centroid in place
    assert poly.centroid() == pytest.approx((5.0, 5.0))
    assert poly.contains(1.0, 1.0)
    assert not poly.contains(5.0, 5.0)  # inside the hole
    assert poly.contains(4.0, 5.0)  # hole boundary still counts


def test_point_in_polygon_basics():
    sq = square(0.0, 0.0, 10.0)
    assert sq.contains(5.0, 5.0)
    assert not sq.contains(15.0, 5.0)
    assert not sq.contains(-0.5, 5.0)
    # boundary and corners count as inside
    assert sq.contains(0.0, 0.0)
    assert sq.contains(10.0, 10.0)
    assert sq.contains(5.0, 0.0)
    assert sq.contains(0.0, 5.0)


def test_points_in_polygon_vectorized_matches_scalar():
    poly = Polygon([[0, 0], [8, 0], [8, 3], [4, 7], [0, 3], [0, 0]])
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2, 10, size=(200, 2))
    mask = points_in_polygon(pts, poly)
    for (x, y), m in zip(pts, mask):
        assert poly.contains(float(x), float(y)) == bool(m)


def _convex_side_oracle(pts, hull, tol=1e-9):
    """Independent containment check for convex rings: same side of every edge."""
    inside = np.ones(pts.shape[0], dtype=bool)
    n = hull.shape[0] - 1
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[i + 1]
        cross = (bx - ax) * (pts[:, 1] - ay) - (by - ay) * (pts[:, 0] - ax)
        edge_len = math.hypot(bx - ax, by - ay)
        inside &= cross >= -tol * edge_len
    return inside


def test_points_in_polygon_against_convex_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        # random convex polygon: hull of scattered points, CCW
        raw = rng.uniform(0, 50, size=(20, 2))
        from scipy.spatial import ConvexHull

        hull_idx = ConvexHull(raw).vertices
        ring = np.vstack([raw[hull_idx], raw[hull_idx[0]]])
        poly = Polygon(ring)
        queries = rng.uniform(-5, 55, size=(100, 2))
        got = points_in_polygon(queries, poly)
        want = _convex_side_oracle(queries, ring)
        # disagreement is only tolerable within a hair of the boundary
        for q, g, w in zip(queries, got, want):
            if g != w:
                assert chain_distance(q[0], q[1], ring) < 1e-7


# ---------------------------------------------------------------------------
# polylines and distances
# ---------------------------------------------------------------------------

def test_segment_distances_cases():
    segment = np.array([[0.0, 0.0], [10.0, 0.0]])
    # perpendicular drop onto the interior; beyond either endpoint, the
    # distance to that endpoint; a point on the segment
    d = segment_distances(np.array([[5.0, 3.0], [-3.0, 4.0], [13.0, 4.0], [4.0, 0.0]]), segment)
    assert d[:3] == pytest.approx([3.0, 5.0, 5.0])
    assert d[3] == 0.0
    # a segment too short for its squared length to be above 0 measures to
    # its first vertex, as the scalar rule does, not to NaN
    tiny = np.array([[0.0, 0.0], [1e-170, 0.0]])
    assert segment_distances(np.array([[3.0, 4.0], [0.0, 4.0]]), tiny).tolist() == [5.0, 4.0]
    assert segment_distances(np.empty((0, 2)), segment).shape == (0,)


SEARCH_M = 10.0


@st.composite
def chains_and_probes(draw):
    """The vertex chain of a validated Polygon exterior or Polyline, with
    points at SEARCH_M from its vertices, a last bit either side of those,
    the vertices themselves and points anywhere around it."""
    ox, oy = draw(st.sampled_from(((0.0, 0.0), (-3.0, 10.5), (512345.25, 5432109.75))))
    n = draw(st.integers(3, 7))
    angles = sorted(draw(st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                                  min_size=n, max_size=n, unique=True)))
    radii = draw(st.lists(st.floats(1.0, 40.0), min_size=n, max_size=n))
    verts = [(ox + r * math.cos(a), oy + r * math.sin(a)) for a, r in zip(angles, radii)]
    try:
        if draw(st.booleans()):
            coords = Polygon(verts + verts[:1]).exterior
        else:
            coords = Polyline(verts).coords
    except GeometryError:
        reject()
    pts = list(verts)
    for vx, vy in verts:
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        pts.append((vx + SEARCH_M * math.cos(theta), vy + SEARCH_M * math.sin(theta)))
    pts += [(np.nextafter(x, x + step), np.nextafter(y, y + step))
            for x, y in pts[n:] for step in (-1.0, 1.0)]
    for _ in range(draw(st.integers(0, 6))):
        pts.append((ox + draw(st.floats(-55.0, 55.0)), oy + draw(st.floats(-55.0, 55.0))))
    return coords, np.array(pts)


# two points about 10 m from a vertex of a rectangle where math.hypot and
# np.hypot round to either side of 10 m
@settings(max_examples=300, deadline=None)
@given(chains_and_probes())
@example((square(0.0, 0.0, 12.0).exterior,
          np.array([[-3.775793, -9.259772525345912], [-6.788069, -7.343168202570265]])))
def test_segment_distances_match_scalar_rule(case):
    coords, pts = case
    got = segment_distances(pts, coords)
    want = np.array([chain_distance(x, y, coords) for x, y in pts.tolist()])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_polyline_validation():
    with pytest.raises(GeometryError):
        Polyline([[0, 0]])
    with pytest.raises(GeometryError):
        Polyline([[0, 0], [0, 0], [1, 1]])
    with pytest.raises(GeometryError):
        Polyline([[0, 0], [1, 1]], tag="highway")


def _distances(points, lines, tag=None):
    """distance_to_polylines of points as a list, and each point's scalar
    oracle minimum over the selected polylines, both as bit patterns."""
    points = np.array(points, dtype=float).reshape(-1, 2)
    got = distance_to_polylines(points, lines, tag=tag)
    want = np.array([min(chain_distance(x, y, ln.coords) for ln in lines
                         if tag is None or ln.tag == tag)
                     for x, y in points.tolist()])
    assert got.shape == (len(points),)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    return got.tolist()


def test_distance_to_polylines_simple():
    lines = [Polyline([[0, 0], [10, 0]], tag="main"),
             Polyline([[0, 5], [10, 5]], tag="minor")]
    assert _distances([(5.0, 2.0)], lines) == pytest.approx([2.0])
    assert _distances([(5.0, 2.0)], lines, tag="minor") == pytest.approx([3.0])
    assert _distances([(5.0, 2.0)], lines, tag="main") == pytest.approx([2.0])
    # many points at once: each its own nearest polyline
    assert _distances([(5.0, 2.0), (5.0, 4.0), (-3.0, 9.0), (12.0, -4.0)], lines) == \
        pytest.approx([2.0, 1.0, 5.0, 2.0 * math.sqrt(5.0)])
    with pytest.raises(GeometryError):
        distance_to_polylines(np.array([[0.0, 0.0]]), [lines[0]], tag="minor")
    # with no point there is nothing to measure, and no polyline is needed
    assert distance_to_polylines(np.empty((0, 2)), [lines[0]], tag="minor").shape == (0,)


def test_distance_to_polylines_l_shape_against_dense_oracle():
    # L-shaped line; oracle densely samples points along it
    line = Polyline([[0, 0], [10, 0], [10, 10]], tag="main")
    samples = []
    for t in np.linspace(0, 1, 20001):
        s = t * 20.0
        if s <= 10.0:
            samples.append((s, 0.0))
        else:
            samples.append((10.0, s - 10.0))
    samples = np.array(samples)
    rng = np.random.default_rng(3)
    points = rng.uniform(-5, 15, size=(100, 2))
    # all points at once, bit for bit the scalar oracle's per point
    for (x, y), d in zip(points.tolist(), _distances(points, [line])):
        brute = np.hypot(samples[:, 0] - x, samples[:, 1] - y).min()
        assert d == pytest.approx(float(brute), abs=1e-3)
        assert d <= brute + 1e-12  # exact answer can only be closer


def test_distance_rigid_transform_invariance():
    rng = np.random.default_rng(19)
    coords = rng.uniform(0, 100, size=(6, 2))
    line = Polyline(coords, tag="minor")
    theta = 0.7346
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    shift = np.array([123.4, -55.1])
    moved = Polyline(coords @ rot.T + shift, tag="minor")
    p = rng.uniform(-20, 120, size=(50, 2))
    d0 = distance_to_polylines(p, [line])
    d1 = distance_to_polylines(p @ rot.T + shift, [moved])
    np.testing.assert_allclose(d1, d0, rtol=0, atol=1e-9)
