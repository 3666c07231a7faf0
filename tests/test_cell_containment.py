"""The footprint kernels against the per-cell loops they replaced.

``building_height`` and ``sample_surface_at_building`` find the cells of a
footprint with one vectorized containment test (``cells_in_polygon``). The
scalar loops below are their earlier bodies, kept as oracles: on
rectilinear footprints whose vertices sit on cell edges and cell centers,
so that centers land exactly on edges and corners, the new code must return
the same float to the last bit or raise the same error.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenprior import geocore
from greenprior.geocore import (
    ComputationError,
    Polygon,
    RasterGrid,
    cell_centers,
    cells_in_polygon,
    points_in_polygon,
    segment_distances,
)
from greenprior.indicators import sample_surface_at_building
from greenprior.ingest import BuildingAttributes
from greenprior.roofs import GroundPoints, _ground_level, building_height
from scalar_distance import point_segment_distance


# ---------------------------------------------------------------------------
# scalar oracles
# ---------------------------------------------------------------------------

def _building_height_oracle(building, dsm, ground_xyz, search_m=10.0):
    x_min, y_min, x_max, y_max = building.footprint.bounds()
    zs = []
    for r in range(dsm.nrows):
        cy = dsm.origin_y + (r + 0.5) * dsm.cell
        if cy < y_min - dsm.cell or cy > y_max + dsm.cell:
            continue
        for c in range(dsm.ncols):
            cx = dsm.origin_x + (c + 0.5) * dsm.cell
            if cx < x_min - dsm.cell or cx > x_max + dsm.cell:
                continue
            if np.isfinite(dsm.values[r, c]) and building.footprint.contains(cx, cy):
                zs.append(float(dsm.values[r, c]))
    if not zs:
        raise ComputationError(f"building {building.id}: no roof cells inside footprint")
    return max(0.0, float(np.median(zs)) - _ground_z_oracle(building.footprint, ground_xyz,
                                                            search_m))


def _ground_z_oracle(footprint, ground_xyz, search_m=10.0):
    x_min, y_min, x_max, y_max = footprint.bounds()
    ground_z = 0.0
    if ground_xyz.shape[0]:
        near = ground_xyz[
            (ground_xyz[:, 0] >= x_min - search_m) & (ground_xyz[:, 0] <= x_max + search_m)
            & (ground_xyz[:, 1] >= y_min - search_m) & (ground_xyz[:, 1] <= y_max + search_m)]
        keep = []
        ring = footprint.exterior
        if near.shape[0]:
            inside = points_in_polygon(near[:, :2], footprint)
            for (x, y, z), ins in zip(near, inside):
                if ins:
                    keep.append(z)
                    continue
                d = min(point_segment_distance(x, y, ax, ay, bx, by)
                        for (ax, ay), (bx, by) in zip(ring[:-1], ring[1:]))
                if d <= search_m:
                    keep.append(z)
        if keep:
            ground_z = float(min(keep))
    return ground_z


def _sample_surface_oracle(surface, building):
    cx, cy = building.footprint.centroid()
    row = math.floor((cy - surface.origin_y) / surface.cell)
    col = math.floor((cx - surface.origin_x) / surface.cell)
    if not (0 <= row < surface.nrows and 0 <= col < surface.ncols):
        raise ComputationError(
            f"building {building.id}: centroid ({cx:.1f}, {cy:.1f}) outside surface extent")
    x_min, y_min, x_max, y_max = building.footprint.bounds()
    row_lo = max(0, int(math.floor((y_min - surface.origin_y) / surface.cell)))
    row_hi = min(surface.nrows, int(math.floor((y_max - surface.origin_y) / surface.cell)) + 1)
    col_lo = max(0, int(math.floor((x_min - surface.origin_x) / surface.cell)))
    col_hi = min(surface.ncols, int(math.floor((x_max - surface.origin_x) / surface.cell)) + 1)
    vals = []
    for r in range(row_lo, row_hi):
        for c in range(col_lo, col_hi):
            px, py = cell_centers(surface, np.array([[r, c]]))[0]
            v = surface.values[r, c]
            if np.isfinite(v) and building.footprint.contains(px, py):
                vals.append(float(v))
    if vals:
        return float(np.mean(vals))
    v = surface.values[row, col]
    if not np.isfinite(v):
        raise ComputationError(f"building {building.id}: no data at footprint")
    return float(v)


def _outcome(fn, *args):
    """The exact result of fn: ("ok", repr of the float) or ("error", message)."""
    try:
        return "ok", repr(fn(*args))
    except ComputationError as exc:
        return "error", str(exc)


# ---------------------------------------------------------------------------
# scenes: a small grid and a rectilinear footprint on its half-cell lattice
# ---------------------------------------------------------------------------

CELLS = (0.5, 1.0, 2.0, 5.0)
ORIGINS = (0.0, -3.0, 10.5)
# shifts of every footprint vertex: none, inside EDGE_TOL either way, and beyond it
JITTERS = (0.0, 5e-10, -5e-10, 2e-9)


@st.composite
def grids(draw):
    nrows = draw(st.integers(1, 9))
    ncols = draw(st.integers(1, 9))
    values = draw(st.lists(
        st.one_of(st.just(math.nan), st.floats(-50.0, 50.0, allow_nan=False)),
        min_size=nrows * ncols, max_size=nrows * ncols))
    return RasterGrid(draw(st.sampled_from(ORIGINS)), draw(st.sampled_from(ORIGINS)),
                      draw(st.sampled_from(CELLS)),
                      np.array(values, dtype=float).reshape(nrows, ncols))


def _span(draw, n_cells, parts):
    """Increasing half-cell indices, from up to 4 cells before the grid to 4 past it."""
    ks = draw(st.lists(st.integers(-8, 2 * n_cells + 8), min_size=parts, max_size=parts,
                       unique=True))
    return sorted(ks)


@st.composite
def footprints(draw, grid):
    half = grid.cell / 2.0
    kind = draw(st.sampled_from(("rectangle", "l_shape", "holed")))
    parts = {"rectangle": 2, "l_shape": 3, "holed": 4}[kind]
    kx = _span(draw, grid.ncols, parts)
    ky = _span(draw, grid.nrows, parts)
    jitter = draw(st.sampled_from(JITTERS))
    x = [grid.origin_x + k * half + jitter for k in kx]
    y = [grid.origin_y + k * half + jitter for k in ky]
    holes = []
    if kind == "rectangle":
        ring = [(x[0], y[0]), (x[1], y[0]), (x[1], y[1]), (x[0], y[1])]
    elif kind == "l_shape":
        # the full box less its upper-right corner
        ring = [(x[0], y[0]), (x[2], y[0]), (x[2], y[1]), (x[1], y[1]), (x[1], y[2]),
                (x[0], y[2])]
    else:
        ring = [(x[0], y[0]), (x[3], y[0]), (x[3], y[3]), (x[0], y[3])]
        hole = [(x[1], y[1]), (x[2], y[1]), (x[2], y[2]), (x[1], y[2])]
        holes = [hole + hole[:1]]
    return Polygon(ring + ring[:1], holes)


@st.composite
def scenes(draw):
    grid = draw(grids())
    return grid, draw(footprints(grid))


@st.composite
def ground_points(draw, grid):
    n = draw(st.integers(0, 4))
    span_x = grid.ncols * grid.cell
    span_y = grid.nrows * grid.cell
    return np.array([[grid.origin_x + draw(st.floats(-0.5, 1.5)) * span_x,
                      grid.origin_y + draw(st.floats(-0.5, 1.5)) * span_y,
                      draw(st.floats(-5.0, 5.0))] for _ in range(n)]).reshape(n, 3)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

# an L whose corners and edges run through cell centers exactly
_L_ON_CENTERS = Polygon([[0.5, 0.5], [2.5, 0.5], [2.5, 1.5], [1.5, 1.5], [1.5, 2.5],
                         [0.5, 2.5], [0.5, 0.5]])
_BEYOND_GRID = Polygon([[10, 10], [12, 10], [12, 12], [10, 12], [10, 10]])
_GRID_4X4 = RasterGrid(0.0, 0.0, 1.0, np.arange(16, dtype=float).reshape(4, 4))


@settings(max_examples=300, deadline=None)
@given(scenes())
@example((_GRID_4X4, _L_ON_CENTERS))
@example((_GRID_4X4, _BEYOND_GRID))
def test_cells_in_polygon_matches_full_scan(scene):
    grid, poly = scene
    rows, cols = cells_in_polygon(grid, poly)
    expected = [(r, c) for r in range(grid.nrows) for c in range(grid.ncols)
                if poly.contains(*cell_centers(grid, np.array([[r, c]]))[0])]
    assert list(zip(rows.tolist(), cols.tolist())) == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_building_height_matches_scalar_oracle(data):
    grid, poly = data.draw(scenes())
    ground = data.draw(ground_points(grid))
    b = BuildingAttributes("b1", 10, "public", poly)
    assert _outcome(building_height, b, grid, GroundPoints(ground)) == \
        _outcome(_building_height_oracle, b, grid, ground)


@settings(max_examples=300, deadline=None)
@given(scenes())
@example((_GRID_4X4, _L_ON_CENTERS))
def test_sample_surface_matches_scalar_oracle(scene):
    grid, poly = scene
    b = BuildingAttributes("b1", 10, "public", poly)
    assert _outcome(sample_surface_at_building, grid, b, cells_in_polygon(grid, poly),
                    poly.centroid()) == _outcome(_sample_surface_oracle, grid, b)


# ---------------------------------------------------------------------------
# ground level: the vectorized ring distance against the per-point loop
# ---------------------------------------------------------------------------

SEARCH_M = 10.0


@st.composite
def ring_probes(draw):
    """A rectangle, a diamond (edges at 45 degrees) or a 3-4-5 triangle, and
    ground points 10 m out from its edges and vertices, a last bit either
    side of that, and anywhere in the search box."""
    kind = draw(st.sampled_from(("rectangle", "diamond", "triangle")))
    ox, oy = draw(st.sampled_from(((0.0, 0.0), (-3.0, 10.5), (512345.25, 5432109.75))))
    size = draw(st.sampled_from((4.0, 12.5, 30.0)))
    if kind == "rectangle":
        ring = [(ox, oy), (ox + size, oy), (ox + size, oy + 0.6 * size), (ox, oy + 0.6 * size)]
    elif kind == "diamond":
        ring = [(ox, oy - size), (ox + size, oy), (ox, oy + size), (ox - size, oy)]
    else:
        ring = [(ox, oy), (ox + size, oy), (ox, oy + 0.75 * size)]
    poly = Polygon(ring + ring[:1])
    pts = []
    # counter-clockwise rings: the outward normal of edge (dx, dy) is (dy, -dx)
    for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
        dx, dy = bx - ax, by - ay
        length = math.hypot(dx, dy)
        t = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0))) if draw(st.booleans()) \
            else draw(st.floats(0.0, 1.0))
        pts.append((ax + t * dx + SEARCH_M * dy / length, ay + t * dy - SEARCH_M * dx / length))
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        pts.append((ax + SEARCH_M * math.cos(theta), ay + SEARCH_M * math.sin(theta)))
        pts.append((ax - 6.0, ay - 8.0))
    pts += [(np.nextafter(x, x + step), np.nextafter(y, y + step))
            for x, y in pts for step in (-1.0, 1.0)]
    x_min, y_min, x_max, y_max = poly.bounds()
    for _ in range(draw(st.integers(0, 6))):
        pts.append((draw(st.floats(x_min - 12.0, x_max + 12.0)),
                    draw(st.floats(y_min - 12.0, y_max + 12.0))))
    zs = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(pts), max_size=len(pts), unique=True))
    return poly, np.array([(x, y, z) for (x, y), z in zip(pts, zs)])


# a rectangle with ground points exactly 10 m from an edge and from a vertex,
# and two about 10 m from a vertex where math.hypot and np.hypot round to
# either side of 10 m (10.000000000000002 and 10.0, then the reverse)
_RECT = Polygon([[0.0, 0.0], [20.0, 0.0], [20.0, 12.0], [0.0, 12.0], [0.0, 0.0]])
_RECT_GROUND = np.array([[5.0, -10.0, 1.0], [-6.0, -8.0, 2.0], [30.0, 6.0, 3.0],
                         [26.0, 20.0, 4.0], [5.0, -10.000000000000002, 0.5],
                         [-3.775793, -9.259772525345912, -1.0],
                         [-6.788069, -7.343168202570265, -2.0]])


@settings(max_examples=300, deadline=None)
@given(ring_probes())
@example((_RECT, _RECT_GROUND))
def test_ground_level_matches_per_point_loop(case):
    poly, ground = case
    for point in ground:
        single = point[None, :]
        assert _bits(_ground_level(poly, GroundPoints(single), SEARCH_M)) == \
            _bits(_ground_z_oracle(poly, single, SEARCH_M))
    assert _bits(_ground_level(poly, GroundPoints(ground), SEARCH_M)) == \
        _bits(_ground_z_oracle(poly, ground, SEARCH_M))


def _bits(value):
    return np.float64(value).view(np.int64).item()


# ---------------------------------------------------------------------------
# ground points by x: the same level as the mask over the whole scene, from
# the points of each footprint's x range alone
# ---------------------------------------------------------------------------

def _masked_ground_level(footprint, ground_xyz, search_m):
    """_ground_level's earlier body: one mask over every ground point."""
    x_min, y_min, x_max, y_max = footprint.bounds()
    near = ground_xyz[
        (ground_xyz[:, 0] >= x_min - search_m) & (ground_xyz[:, 0] <= x_max + search_m)
        & (ground_xyz[:, 1] >= y_min - search_m) & (ground_xyz[:, 1] <= y_max + search_m)]
    keep = points_in_polygon(near[:, :2], footprint)
    out = np.flatnonzero(~keep)
    keep[out] = segment_distances(near[out], footprint.exterior) <= search_m
    return float(near[keep, 2].min()) if keep.any() else 0.0


# x on and about the search box's edges, with ties; z with both zeros, whose
# minimum takes its sign from the order the points come in
_GROUND_X = (-10.0, -10.000000000000002, -9.5, 0.0, 5.0, 20.0, 29.5, 30.0, 30.000000000000004)
_GROUND_Z = (0.0, -0.0, 1.5, 3.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_GROUND_X), st.floats(-15.0, 25.0),
                          st.sampled_from(_GROUND_Z)), max_size=12))
@example([(30.0, 6.0, 0.0), (-10.0, 6.0, -0.0)])
@example([(-10.0, 6.0, -0.0), (30.0, 6.0, 0.0)])
def test_ground_level_matches_the_mask_over_every_point(points):
    ground = np.array(points, dtype=float).reshape(len(points), 3)
    assert _bits(_ground_level(_RECT, GroundPoints(ground), SEARCH_M)) == \
        _bits(_masked_ground_level(_RECT, ground, SEARCH_M))


def test_ground_search_reads_only_each_footprints_x_range(monkeypatch):
    # two buildings 4 km apart: the ground points _ground_level examines are
    # those of the footprints' x ranges, however many the scene holds
    buildings = [Polygon([[x, y], [x + 20.0, y], [x + 20.0, y + 12.0], [x, y + 12.0], [x, y]])
                 for x, y in ((500.0, 500.0), (4500.0, 4500.0))]
    lattice = np.arange(-40.0, 60.0, 2.0)
    near = np.array([(x0 + dx, y0 + dy, dx / 100.0) for x0, y0 in ((500.0, 500.0),
                                                                    (4500.0, 4500.0))
                     for dx in lattice for dy in lattice])
    in_range = sum(int(np.count_nonzero((near[:, 0] >= x_min - SEARCH_M)
                                        & (near[:, 0] <= x_max + SEARCH_M)))
                   for x_min, _, x_max, _ in (b.bounds() for b in buildings))
    rng = np.random.default_rng(3)
    far = np.column_stack([rng.uniform(1000.0, 4000.0, 50_000), rng.uniform(0.0, 5000.0, 50_000),
                           rng.uniform(-5.0, 5.0, 50_000)])
    examined = []
    x_range = GroundPoints.x_range

    def counted(self, lo, hi):
        got = x_range(self, lo, hi)
        examined.append(len(got))
        return got

    monkeypatch.setattr(GroundPoints, "x_range", counted)
    for scene in (near, np.concatenate([far[:25_000], near, far[25_000:]])):
        examined.clear()
        ground = GroundPoints(scene)
        for b in buildings:
            assert _bits(_ground_level(b, ground, SEARCH_M)) == \
                _bits(_masked_ground_level(b, scene, SEARCH_M))
        assert sum(examined) == in_range


# ---------------------------------------------------------------------------
# containment over (point, edge) blocks against the loop over edges
# ---------------------------------------------------------------------------

def _edge_loop_points_in_polygon(points, poly, tol=1e-9):
    """points_in_polygon's earlier body: one pass over the points per edge."""
    def on_edge(ring):
        hit = np.zeros(points.shape[0], dtype=bool)
        for (ax, ay), (bx, by) in zip(ring[:-1], ring[1:]):
            dx, dy = bx - ax, by - ay
            seg_len2 = dx * dx + dy * dy
            px = points[:, 0] - ax
            py = points[:, 1] - ay
            t = np.clip((px * dx + py * dy) / seg_len2, 0.0, 1.0)
            ex = px - t * dx
            ey = py - t * dy
            hit |= ex * ex + ey * ey <= tol * tol
        return hit

    def ray_cast(ring):
        inside = np.zeros(points.shape[0], dtype=bool)
        x, y = points[:, 0], points[:, 1]
        for (ax, ay), (bx, by) in zip(ring[:-1], ring[1:]):
            crosses = (ay > y) != (by > y)
            with np.errstate(invalid="ignore", divide="ignore"):
                x_at = ax + (y - ay) * (bx - ax) / (by - ay)
            inside ^= crosses & (x < x_at)
        return inside

    hit = on_edge(poly.exterior)
    inside = ray_cast(poly.exterior)
    for h in poly.holes:
        hit |= on_edge(h)
        inside &= ~ray_cast(h)
    return inside | hit


def _star(n, outer, inner, hole):
    """An n-vertex star about the origin whose vertices alternate between
    radii outer and inner, with a square hole of half-side hole."""
    angles = 2.0 * math.pi * np.arange(n) / n
    radii = np.where(np.arange(n) % 2 == 0, outer, inner)
    ring = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    square = [[-hole, -hole], [hole, -hole], [hole, hole], [-hole, hole], [-hole, -hole]]
    return Polygon(np.vstack([ring, ring[:1]]), [square])


_STAR = _star(100, 50.0, 30.0, 10.0)


def _star_probes():
    """Every vertex and edge midpoint of _STAR, a last bit either side of
    each, and the centres of a 1 m lattice over its box."""
    rings = np.vstack([_STAR.exterior, _STAR.holes[0]])
    marks = np.vstack([rings, (rings[:-1] + rings[1:]) / 2.0])
    nudged = [np.nextafter(marks, marks + step) for step in (-1.0, 1.0)]
    lattice = np.stack(np.meshgrid(np.arange(-50.5, 51.0), np.arange(-50.5, 51.0)),
                       axis=-1).reshape(-1, 2)
    return np.vstack([marks, *nudged, lattice])


@pytest.mark.parametrize("block", [1, 7, 1000, 1 << 13, 1 << 30])
def test_containment_in_edge_blocks_matches_the_edge_loop(monkeypatch, block):
    monkeypatch.setattr(geocore, "EDGE_BLOCK_PAIRS", block)
    probes = _star_probes()
    want = _edge_loop_points_in_polygon(probes, _STAR)
    assert 0 < np.count_nonzero(want) < len(probes)
    assert points_in_polygon(probes, _STAR).tolist() == want.tolist()


# a 100-vertex footprint over a 10,000-cell box peaked at 0.8 MiB (numpy
# 2.4); one block of every (cell, edge) pair took 54 MiB
CONTAINMENT_PEAK_BYTES = 2 * 2**20


def test_containment_of_a_large_box_holds_little():
    grid = RasterGrid(-50.0, -50.0, 1.0, np.zeros((100, 100)))
    tracemalloc.start()
    try:
        rows, _ = cells_in_polygon(grid, _STAR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < rows.size < grid.values.size
    assert peak < CONTAINMENT_PEAK_BYTES
