import math
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage

from exact_plane import fit_sums, rank_guard_stops
from fullgrid_kernels import densify
from gate_oracles import component_cells
from greenprior import geocore, roofs
from greenprior.geocore import (
    BUILDING,
    GROUND,
    VEGETATION,
    ComputationError,
    PointCloud,
    Polygon,
    RasterGrid,
    SparseGrid,
)
from greenprior.ingest import BuildingAttributes, read_footprints, read_point_cloud
from greenprior.roofs import (
    GroundPoints,
    PotentialThresholds,
    RoofParams,
    assign_segments,
    building_height,
    candidate_roof_points,
    decide_potential,
    extract_all,
    filter_wall_edges,
    grow_segments,
    label_components,
    local_normals,
)
from greenprior.synth import SyntheticCitySpec, generate_city


def grid_from(values):
    return RasterGrid(0.0, 0.0, 1.0, np.asarray(values, dtype=float))


def dense_component(grid):
    """The positions of all of grid's occupied cells: one component."""
    return np.arange(np.count_nonzero(np.isfinite(grid.values)))


def square(x0, y0, side):
    return Polygon([[x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side], [x0, y0]])


# ---------------------------------------------------------------------------
# candidate_roof_points
# ---------------------------------------------------------------------------

def test_candidate_max_per_cell():
    pc = PointCloud(np.array([[0.5, 0.5, 5.0], [0.6, 0.4, 8.0]]),
                    np.array([BUILDING, BUILDING], dtype=np.uint8))
    dsm = densify(candidate_roof_points(pc, 1.0))
    rows, cols = np.nonzero(np.isfinite(dsm.values))
    assert len(rows) == 1
    assert dsm.values[rows[0], cols[0]] == 8.0


def test_candidate_requires_building_points():
    pc = PointCloud(np.array([[0.0, 0.0, 3.0]]), np.array([VEGETATION], dtype=np.uint8))
    with pytest.raises(ComputationError, match="no building points"):
        candidate_roof_points(pc, 1.0)


def test_candidate_flat_roof_with_wall_points():
    # 10x10 roof at z=12 sampled at cell centers, plus wall points lower down
    # that share cells with roof points; the per-cell max hides the walls
    xs, ys = np.meshgrid(np.arange(10) + 0.5, np.arange(10) + 0.5)
    roof = np.column_stack([xs.ravel(), ys.ravel(), np.full(100, 12.0)])
    walls = np.array([[0.2, 0.3, 4.0], [9.7, 5.5, 7.0], [5.1, 9.9, 1.0]])
    pts = np.vstack([roof, walls])
    pc = PointCloud(pts, np.full(len(pts), BUILDING, dtype=np.uint8))
    dsm = candidate_roof_points(pc, 1.0)
    vals = dsm.values[np.isfinite(dsm.values)]
    assert vals.shape == (100,)
    assert (vals == 12.0).all()


def test_candidate_matches_bruteforce_oracle():
    rng = np.random.default_rng(23)
    pts = np.column_stack([rng.uniform(0, 80, 5000), rng.uniform(0, 60, 5000),
                           rng.uniform(0, 40, 5000)])
    cls = rng.choice([GROUND, BUILDING, VEGETATION], size=5000,
                     p=[0.3, 0.5, 0.2]).astype(np.uint8)
    pc = PointCloud(pts, cls)
    cell = 2.0
    dsm = densify(candidate_roof_points(pc, cell))
    expect: dict[tuple[int, int], float] = {}
    for (x, y, z), c in zip(pts, cls):
        if c != BUILDING:
            continue
        rc = (math.floor((y - dsm.origin_y) / cell), math.floor((x - dsm.origin_x) / cell))
        expect[rc] = max(expect.get(rc, -math.inf), z)
    got = {(int(r), int(c)): float(dsm.values[r, c])
           for r, c in zip(*np.nonzero(np.isfinite(dsm.values)))}
    assert got == pytest.approx(expect)


# ---------------------------------------------------------------------------
# filter_wall_edges
# ---------------------------------------------------------------------------

def test_wall_filter_keeps_flat_patch():
    dsm = grid_from(np.full((3, 3), 10.0))
    out = filter_wall_edges(dsm)
    assert np.isfinite(out.values).sum() == 9


def test_wall_filter_removes_cliff_cells():
    vals = np.full((3, 3), np.nan)
    vals[1, 1] = 10.0
    vals[1, 2] = 4.0
    vals[0, 0] = 7.0  # isolated diagonal cell: no 4-neighbors, survives
    out = densify(filter_wall_edges(grid_from(vals)))
    assert np.isnan(out.values[1, 1])
    assert np.isnan(out.values[1, 2])
    assert out.values[0, 0] == 7.0


def test_wall_filter_threshold_is_strict():
    vals = np.full((1, 2), np.nan)
    vals[0, 0] = 10.0
    vals[0, 1] = 10.999
    out = filter_wall_edges(grid_from(vals), threshold=1.0)
    assert np.isfinite(out.values).sum() == 2  # difference < 1 keeps both
    vals[0, 1] = 11.0
    out = filter_wall_edges(grid_from(vals), threshold=1.0)
    assert np.isfinite(out.values).sum() == 0  # exactly 1 m removes both


# ---------------------------------------------------------------------------
# label_components
# ---------------------------------------------------------------------------

def test_components_separated_blocks():
    vals = np.full((8, 8), np.nan)
    vals[0:2, 0:2] = 5.0
    vals[5:7, 5:7] = 9.0
    comps = component_cells(grid_from(vals))
    assert len(comps) == 2
    assert comps[0][0] == (0, 0)  # ordered by (min row, min col)
    assert comps[1][0] == (5, 5)


def test_components_diagonal_touch_is_one():
    vals = np.full((4, 4), np.nan)
    vals[0:2, 0:2] = 5.0
    vals[2:4, 2:4] = 5.0  # touches (1,1) diagonally
    comps = component_cells(grid_from(vals))
    assert len(comps) == 1
    assert len(comps[0]) == 8


def test_components_empty():
    assert component_cells(grid_from(np.full((3, 3), np.nan))) == []


def _flood_fill_oracle(occ):
    seen = np.zeros_like(occ, dtype=bool)
    parts = []
    for r0 in range(occ.shape[0]):
        for c0 in range(occ.shape[1]):
            if not occ[r0, c0] or seen[r0, c0]:
                continue
            stack = [(r0, c0)]
            seen[r0, c0] = True
            part = []
            while stack:
                r, c = stack.pop()
                part.append((r, c))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if (0 <= rr < occ.shape[0] and 0 <= cc < occ.shape[1]
                                and occ[rr, cc] and not seen[rr, cc]):
                            seen[rr, cc] = True
                            stack.append((rr, cc))
            parts.append(frozenset(part))
    return set(parts)


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(31)
    for _ in range(5):
        occ = rng.random((64, 64)) < 0.4
        vals = np.where(occ, 1.0, np.nan)
        comps = component_cells(grid_from(vals))
        got = {frozenset(c) for c in comps}
        assert got == _flood_fill_oracle(occ)


def _label_components_per_label_oracle(dsm):
    """The one-scan-per-label loop that label_components replaced."""
    labels, count = scipy.ndimage.label(np.isfinite(dsm.values),
                                        structure=np.ones((3, 3), dtype=int))
    comps = []
    for lab in range(1, count + 1):
        rr, cc = np.nonzero(labels == lab)
        order = np.lexsort((cc, rr))
        comps.append([(int(r), int(c)) for r, c in zip(rr[order], cc[order])])
    comps.sort(key=lambda cells: (min(r for r, _ in cells), min(c for _, c in cells)))
    return comps


def test_components_order_matches_per_label_oracle():
    # exact list equality: component order (ties included) and cell order
    rng = np.random.default_rng(37)
    for density in (0.05, 0.3, 0.55):
        occ = rng.random((48, 40)) < density
        grid = grid_from(np.where(occ, 1.0, np.nan))
        assert component_cells(grid) == _label_components_per_label_oracle(grid)


def _roof_surface(seed=5, blocks=20, block=40):
    """A surface of blocks x blocks rectangular roofs, 8 to 35 cells a
    side, one at a random place in each square of block cells; roofs in
    neighbouring squares may touch."""
    rng = np.random.default_rng(seed)
    side = blocks * block
    flat = []
    for br in range(blocks):
        for bc in range(blocks):
            h, w = rng.integers(8, 36, 2)
            r0 = br * block + rng.integers(0, block - h + 1)
            c0 = bc * block + rng.integers(0, block - w + 1)
            rr, cc = np.mgrid[r0:r0 + h, c0:c0 + w]
            flat.append((rr * side + cc).ravel())
    flat = np.unique(np.concatenate(flat))
    return SparseGrid(0.0, 0.0, 1.0, side, side, flat, np.full(flat.size, 10.0))


# label_components peaked at 53 bytes per cell on _roof_surface (numpy
# 2.4); the bound allows about 1.5 times that. The kernel that held every
# edge at once and built (row, col) tuples peaked at 305.
COMPONENT_PEAK_BYTES_PER_CELL = 80


def test_component_kernel_peak_memory_follows_the_cells():
    # the neighbour table is the surface's, built before; the labeling
    # takes the edges one offset at a time and gives the components as
    # slices of one position array
    surf = _roof_surface()
    surf.neighbours()
    tracemalloc.start()
    try:
        comps = label_components(surf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert surf.flat.size >= 100_000
    assert np.array_equal(np.sort(np.concatenate(comps)), np.arange(surf.flat.size))
    assert peak <= COMPONENT_PEAK_BYTES_PER_CELL * surf.flat.size


# ---------------------------------------------------------------------------
# grow_segments
# ---------------------------------------------------------------------------

def test_grow_flat_component():
    dsm = grid_from(np.full((6, 6), 10.0))
    segs = grow_segments(dense_component(dsm), dsm, local_normals(dsm))
    assert len(segs) == 1
    assert segs[0].slope_deg == pytest.approx(0.0, abs=1e-9)
    assert segs[0].area_m2 == 36.0


def test_grow_gabled_roof_two_faces():
    # two planes pitched +-20 degrees meeting at a ridge on a cell boundary
    pitch = math.tan(math.radians(20.0))
    cols = np.arange(20) + 0.5
    ridge_x = 10.0
    z = 30.0 - pitch * np.abs(cols - ridge_x)
    vals = np.tile(z, (12, 1))
    dsm = grid_from(vals)
    segs = grow_segments(dense_component(dsm), dsm, local_normals(dsm))
    assert len(segs) == 2
    for s in segs:
        assert s.slope_deg == pytest.approx(20.0, abs=1.0)
        assert len(s.cells) == 120


def test_grow_staircase_levels_split():
    # two flat levels fed directly (no wall filter): the elevation residual
    # must force the split even though both normals are vertical
    vals = np.full((5, 10), 10.0)
    vals[:, 5:] = 14.0
    dsm = grid_from(vals)
    segs = grow_segments(dense_component(dsm), dsm, local_normals(dsm))
    assert len(segs) == 2
    areas = sorted(s.area_m2 for s in segs)
    assert areas == [25.0, 25.0]
    for s in segs:
        assert s.slope_deg == pytest.approx(0.0, abs=1e-9)


def test_grow_covers_component_disjointly():
    rng = np.random.default_rng(47)
    xs, ys = np.meshgrid(np.arange(25) + 0.5, np.arange(25) + 0.5)
    vals = 12.0 + 0.8 * np.sin(xs / 6.0) + 0.5 * np.cos(ys / 5.0)
    vals += rng.normal(0, 0.01, vals.shape)
    dsm = grid_from(vals)
    comp = dense_component(dsm)
    segs = grow_segments(comp, dsm, local_normals(dsm))
    covered = [tuple(rc) for s in segs for rc in s.cells.tolist()]
    assert len(covered) == len(set(covered)) == len(comp)
    assert set(covered) == set(zip(*(v.tolist() for v in np.nonzero(np.isfinite(vals)))))


def test_grow_empty_component():
    dsm = grid_from(np.full((2, 2), np.nan))
    assert grow_segments(np.zeros(0, dtype=np.int64), dsm, local_normals(dsm)) == []


@pytest.mark.parametrize("theta", [0.0, 5.0, 14.0, 15.0, 30.0])
def test_slope_recovery_known_pitch(theta):
    slope = math.tan(math.radians(theta))
    xs, ys = np.meshgrid(np.arange(15) + 0.5, np.arange(15) + 0.5)
    dsm = grid_from(20.0 + slope * xs)
    segs = grow_segments(dense_component(dsm), dsm, local_normals(dsm))
    assert len(segs) == 1
    assert segs[0].slope_deg == pytest.approx(theta, abs=0.5)


def test_segment_slope_area_arithmetic():
    dsm = grid_from(np.full((5, 5), 10.0))
    seg = grow_segments(dense_component(dsm), dsm, local_normals(dsm))[0]
    assert (seg.slope_deg, seg.area_m2) == (pytest.approx(0.0, abs=1e-9), 25.0)
    half = RasterGrid(0.0, 0.0, 0.5, np.full((5, 5), 10.0))
    # 25 cells at 0.5 m
    assert grow_segments(dense_component(half), half, local_normals(half))[0].area_m2 == 6.25

    pitched = grid_from(np.tile(0.2677 * (np.arange(12) + 0.5), (12, 1)))
    seg_p = grow_segments(dense_component(pitched), pitched, local_normals(pitched))[0]
    assert seg_p.slope_deg == pytest.approx(15.0, abs=0.1)


# ---------------------------------------------------------------------------
# assignment and the potential decision
# ---------------------------------------------------------------------------

def make_segment(cells, slope=5.0, area=None):
    from greenprior.roofs import RoofSegment

    cells = np.array(cells, dtype=np.int64).reshape(-1, 2)
    area = area if area is not None else float(len(cells))
    a = math.tan(math.radians(slope))
    return RoofSegment(cells, (a, 0.0, 0.0), slope, area)


def test_assign_segments_by_centroid():
    dsm = grid_from(np.full((30, 30), 10.0))
    b1 = BuildingAttributes("b1", 10, "public", square(0, 0, 10))
    b2 = BuildingAttributes("b2", 10, "private", square(20, 20, 10))
    seg_in = make_segment([(2, 2), (2, 3), (3, 2), (3, 3)])
    seg_out = make_segment([(15, 15), (15, 16)])
    assign_segments([seg_in, seg_out], [b1, b2], dsm)
    assert seg_in.building_id == "b1"
    assert seg_out.building_id is None


def test_decide_potential_cases():
    b_young = BuildingAttributes("a", 30, "public", square(0, 0, 10))
    d = decide_potential(b_young, [make_segment([(0, 0)], slope=5.0, area=50.0)])
    assert d.potential and d.greenable_m2 == 50.0 and d.reasons == frozenset()

    b_old = BuildingAttributes("b", 61, "public", square(0, 0, 10))
    d = decide_potential(b_old, [make_segment([(0, 0)], slope=5.0, area=50.0)])
    assert not d.potential and d.reasons == frozenset({"age"})

    d = decide_potential(b_young, [make_segment([(0, 0)], slope=20.0, area=50.0),
                                   make_segment([(1, 1)], slope=5.0, area=8.0)])
    assert not d.potential and d.reasons == frozenset({"slope", "area"})

    d = decide_potential(b_young, [])
    assert not d.potential and d.reasons == frozenset({"area"})


def test_decide_potential_boundary_values():
    b = BuildingAttributes("a", 60, "public", square(0, 0, 10))  # 60 still passes
    d = decide_potential(b, [make_segment([(0, 0)], slope=14.999, area=10.001)])
    assert d.potential
    # slope exactly at the limit fails; area exactly at the limit fails
    d = decide_potential(b, [make_segment([(0, 0)], slope=15.0, area=50.0)])
    assert not d.potential and "slope" in d.reasons
    d = decide_potential(b, [make_segment([(0, 0)], slope=5.0, area=10.0)])
    assert not d.potential and "area" in d.reasons


def test_decide_potential_monotone():
    rng = np.random.default_rng(61)
    th = PotentialThresholds()
    for _ in range(200):
        age = int(rng.integers(0, 100))
        segs = [make_segment([(i, 0)], slope=float(rng.uniform(0, 40)),
                             area=float(rng.uniform(0, 60))) for i in range(3)]
        b = BuildingAttributes("m", age, "misc", square(0, 0, 10))
        before = decide_potential(b, segs, th).potential
        # decreasing age must never revoke potential
        b2 = BuildingAttributes("m", max(0, age - int(rng.integers(0, 30))), "misc",
                                square(0, 0, 10))
        after_age = decide_potential(b2, segs, th).potential
        # growing one qualifying-slope segment must never revoke it
        segs2 = [make_segment(s.cells, slope=s.slope_deg,
                              area=s.area_m2 + float(rng.uniform(0, 30))) for s in segs]
        after_area = decide_potential(b, segs2, th).potential
        if before:
            assert after_age and after_area


# ---------------------------------------------------------------------------
# building_height
# ---------------------------------------------------------------------------

def test_building_height_flat():
    dsm = grid_from(np.full((12, 12), 30.0))
    b = BuildingAttributes("b1", 10, "public", square(1, 1, 8))
    ground = GroundPoints(np.array([[0.0, 0.0, 0.0]]))
    assert building_height(b, dsm, ground) == pytest.approx(30.0)


def test_building_height_median_robust_to_antenna():
    vals = np.full((3, 5), np.nan)
    vals[1, 1], vals[1, 2], vals[1, 3] = 10.0, 10.0, 50.0
    dsm = grid_from(vals)
    b = BuildingAttributes("b1", 10, "public", square(0.5, 0.5, 4))
    assert building_height(b, dsm, GroundPoints(np.array([[0.0, 0.0, 0.0]]))) == pytest.approx(10.0)


def test_building_height_uses_nearby_ground():
    dsm = grid_from(np.full((10, 10), 25.0))
    b = BuildingAttributes("b1", 10, "public", square(1, 1, 6))
    ground = GroundPoints(np.array([[0.0, 0.0, 5.0], [500.0, 500.0, -20.0]]))  # far point ignored
    assert building_height(b, dsm, ground) == pytest.approx(20.0)


def test_building_height_no_cells_errors():
    dsm = grid_from(np.full((4, 4), np.nan))
    b = BuildingAttributes("b1", 10, "public", square(0, 0, 4))
    with pytest.raises(ComputationError, match="no roof cells"):
        building_height(b, dsm, GroundPoints(np.zeros((0, 3))))


def test_building_height_on_a_surface_the_wall_filter_emptied():
    # two cells 1 m apart in elevation: the filter keeps neither, and a
    # lookup on the empty surface finds no cell, so the height falls back
    surf = filter_wall_edges(grid_from([[10.0, 11.0]]), threshold=1.0)
    assert surf.flat.size == 0
    assert surf.positions(np.array([0, 0, -1, 5]), np.array([0, 1, 0, 9])).tolist() == [0] * 4
    b = BuildingAttributes("b1", 10, "public", square(0, 0, 2))
    with pytest.raises(ComputationError, match="no roof cells"):
        building_height(b, surf, GroundPoints(np.zeros((1, 3))))


# ---------------------------------------------------------------------------
# end to end on a tiny scene
# ---------------------------------------------------------------------------

def _scene_points():
    pts = []
    # flat roof building b1: 12x12 m at z=18, origin (10, 10)
    for x in np.arange(10.25, 22, 0.5):
        for y in np.arange(10.25, 22, 0.5):
            pts.append((x, y, 18.0, BUILDING))
    # gabled building b2 at (40, 10), 14x10 m, ridge along y at x=47, pitch 8 deg
    pitch = math.tan(math.radians(8.0))
    for x in np.arange(40.25, 54, 0.5):
        for y in np.arange(10.25, 20, 0.5):
            pts.append((x, y, 21.0 - pitch * abs(x - 47.0), BUILDING))
    # ground lattice
    for x in np.arange(0, 70, 5.0):
        for y in np.arange(0, 40, 5.0):
            pts.append((x, y, 0.0, GROUND))
    arr = np.array(pts)
    return PointCloud(arr[:, :3], arr[:, 3].astype(np.uint8))


def test_extract_all_small_scene():
    pc = _scene_points()
    buildings = [
        BuildingAttributes("b1", 20, "public", square(10, 10, 12)),
        BuildingAttributes("b2", 30, "private",
                           Polygon([[40, 10], [54, 10], [54, 20], [40, 20], [40, 10]])),
        BuildingAttributes("b3", 10, "misc", square(60, 30, 5)),  # no points at all
    ]
    out = extract_all(pc, buildings, RoofParams())
    assert out.decisions["b1"].potential
    assert out.decisions["b1"].greenable_m2 > 100.0
    assert out.decisions["b2"].potential  # 8 deg pitch, both faces > 10 m2
    segs_b2 = [s for s in out.segments if s.building_id == "b2"]
    assert len(segs_b2) == 2
    for s in segs_b2:
        assert s.slope_deg == pytest.approx(8.0, abs=0.5)
    assert not out.decisions["b3"].potential
    assert out.decisions["b3"].reasons == frozenset({"area"})
    assert out.heights["b1"] == pytest.approx(18.0, abs=0.3)
    assert out.heights["b3"] == 0.0
    # every reported segment belongs to a real building
    assert {s.building_id for s in out.segments} <= {"b1", "b2"}


def test_extract_all_containment_work_is_per_footprint(monkeypatch):
    # guards against per-cell containment tests: one Polygon.contains per
    # grown segment (its centroid lookup) and two vectorized
    # points_in_polygon per building (roof cells, ground points)
    calls = {"contains": 0, "points_in_polygon": 0, "segments": 0}
    contains = geocore.Polygon.contains
    pip = geocore.points_in_polygon
    grow = roofs.grow_segments

    def counted_contains(self, x, y):
        calls["contains"] += 1
        return contains(self, x, y)

    def counted_pip(*args, **kwargs):
        calls["points_in_polygon"] += 1
        return pip(*args, **kwargs)

    def counted_grow(*args, **kwargs):
        segs = grow(*args, **kwargs)
        calls["segments"] += len(segs)
        return segs

    monkeypatch.setattr(geocore.Polygon, "contains", counted_contains)
    monkeypatch.setattr(geocore, "points_in_polygon", counted_pip)
    monkeypatch.setattr(roofs, "points_in_polygon", counted_pip)
    monkeypatch.setattr(roofs, "grow_segments", counted_grow)
    buildings = [
        BuildingAttributes("b1", 20, "public", square(10, 10, 12)),
        BuildingAttributes("b2", 30, "private",
                           Polygon([[40, 10], [54, 10], [54, 20], [40, 20], [40, 10]])),
        BuildingAttributes("b3", 10, "misc", square(60, 30, 5)),
    ]
    extract_all(_scene_points(), buildings, RoofParams())
    assert calls["segments"] > 0
    assert calls["contains"] <= calls["segments"]
    assert calls["points_in_polygon"] <= 2 * len(buildings) + calls["segments"]


@pytest.fixture(scope="module")
def sparse_city(tmp_path_factory):
    """Points and footprints of the seed-7, 15-building city."""
    city = tmp_path_factory.mktemp("sparse")
    generate_city(SyntheticCitySpec(seed=7, n_buildings=15), str(city))
    return (read_point_cloud(str(city / "points.csv")),
            read_footprints(str(city / "footprints.geojson")))


def _extract_peak(pc, buildings):
    """extract_all's result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        out = extract_all(pc, buildings, RoofParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_extract_peak_memory_follows_the_roofs(sparse_city):
    # the surface model spans the scene while roofs fill under 1 % of it:
    # extraction holds the occupied cells only, so its peak stays below half
    # of one dense float grid of the scene
    out, peak = _extract_peak(*sparse_city)
    dsm = out.dsm
    assert min(dsm.nrows, dsm.ncols) >= 1000
    assert peak <= dsm.nrows * dsm.ncols * 8 / 2


def test_extract_peak_memory_does_not_follow_the_scene():
    # two 10 m roofs 5 km apart span a 5000 x 5000 grid, 200 MB dense; the
    # extraction's peak stays under 1/20 of that
    pts, buildings = [], []
    for k, (x0, y0) in enumerate(((0.0, 0.0), (4990.0, 4990.0))):
        xs, ys = np.meshgrid(np.arange(x0 + 0.25, x0 + 10, 0.5), np.arange(y0 + 0.25, y0 + 10, 0.5))
        pts.append(np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, 12.0),
                                    np.full(xs.size, BUILDING)]))
        pts.append([[x0 - 5.0, y0 - 5.0, 0.0, GROUND]])
        buildings.append(BuildingAttributes(f"b{k}", 10, "public", square(x0, y0, 10)))
    arr = np.vstack(pts)
    out, peak = _extract_peak(PointCloud(arr[:, :3], arr[:, 3].astype(np.uint8)), buildings)
    dsm = out.dsm
    assert (dsm.nrows, dsm.ncols) == (5000, 5000)
    assert dsm.flat.size == 200
    assert [out.decisions[b.id].potential for b in buildings] == [True, True]
    assert peak < dsm.nrows * dsm.ncols * 8 / 20


def test_region_growing_fits_each_cell_once(sparse_city, monkeypatch):
    # growth adds and refits each cell as it joins and tests it with holds
    # before that; the final fits and the eviction sweeps are whole-array,
    # so on this city (no cell rejected on its residual) holds runs on one
    # cell at most once per non-seed cell. plane solves once per refit and
    # once per segment for its final fit; the rank guard, read off the fit's
    # sums, stops a refit only on a segment's first one or two cells, never
    # on three or more
    calls = {"add": 0, "refit": 0, "holds": 0, "segments": 0, "plane": 0,
             "refit below 3": 0, "refit stopped": 0}
    fit = roofs._PlaneFit
    add, refit, holds, plane = fit.add, fit.refit, fit.holds, fit.plane

    def counted_add(self, *row):
        calls["add"] += 1
        return add(self, *row)

    def counted_refit(self):
        calls["refit"] += 1
        calls["refit below 3"] += self.n < 3
        calls["refit stopped"] += rank_guard_stops(fit_sums(self))
        refit(self)

    def counted_holds(self, dx, dy, z, residual_tol_m):
        calls["holds"] += np.ndim(dx) == 0  # the sweep's array calls aside
        return holds(self, dx, dy, z, residual_tol_m)

    def counted_plane(self):
        calls["plane"] += 1
        return plane(self)

    for name, method in (("add", counted_add), ("refit", counted_refit),
                         ("holds", counted_holds), ("plane", counted_plane)):
        monkeypatch.setattr(fit, name, method)
    grow = roofs.grow_segments

    def counted_grow(*args, **kwargs):
        segs = grow(*args, **kwargs)
        calls["segments"] += len(segs)
        return segs

    monkeypatch.setattr(roofs, "grow_segments", counted_grow)
    out = extract_all(*sparse_city, RoofParams())
    cells = int(np.isfinite(out.dsm.values).sum())
    assert cells == 5244
    assert calls["add"] == calls["refit"] == cells
    assert calls["holds"] <= cells - calls["segments"]
    assert calls["refit stopped"] == calls["refit below 3"] > 0
    assert calls["plane"] == calls["refit"] + calls["segments"]
