import math
import shutil

import numpy as np
import pytest

from greenprior import cli, geocore, indicators
from greenprior.geocore import (
    BUILDING,
    GROUND,
    VEGETATION,
    ComputationError,
    PointCloud,
    Polygon,
    Polyline,
    RasterGrid,
    cells_in_polygon,
)
from greenprior.indicators import (
    SEASONS,
    IndicatorVector,
    RawIndicators,
    build_greenspace_mask,
    building_coverage_rate,
    greened_mask,
    category_indicator,
    combine_seasonal_temperature,
    distance_indicator,
    greenspace_coverage,
    measure_buildings,
    minmax_scale,
    normalize_indicators,
    sample_surface_at_building,
)
from greenprior.ingest import BuildingAttributes, read_roads, read_table


def pc_of(rows):
    arr = np.asarray(rows, dtype=float)
    return PointCloud(arr[:, :3], arr[:, 3].astype(np.uint8))


def square(x0, y0, side):
    return Polygon([[x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side], [x0, y0]])


def roof_cells(cells):
    """(row, col) cells as the (m, 2) int64 array the indicators take."""
    return np.array(cells, dtype=np.int64).reshape(-1, 2)


def _sample(surface, building):
    """sample_surface_at_building with the cells and centroid that
    measure_buildings passes it."""
    return sample_surface_at_building(surface, building,
                                      cells_in_polygon(surface, building.footprint),
                                      building.footprint.centroid())


# ---------------------------------------------------------------------------
# mask construction
# ---------------------------------------------------------------------------

def test_mask_ground_only_is_zero():
    pc = pc_of([[0, 0, 0, GROUND], [40, 40, 0, GROUND]])
    mask = build_greenspace_mask(pc)
    assert (mask.values == 0).all()


def test_mask_single_vegetation_pixel():
    pc = pc_of([[0, 0, 0, GROUND], [40, 40, 0, GROUND], [12, 7, 3, VEGETATION]])
    mask = build_greenspace_mask(pc)
    assert mask.values.sum() == 1.0
    assert mask.values[1, 2] == 1.0  # (12, 7) lands in 5 m cell row 1, col 2


def test_mask_greened_adds_roof_pixels():
    pc = pc_of([[0, 0, 0, GROUND], [30, 30, 0, GROUND]])
    roof_grid = RasterGrid(0.0, 0.0, 1.0, np.zeros((12, 12)))
    roof = roof_cells([(r, c) for r in range(10) for c in range(10)])  # 100 m2
    baseline = build_greenspace_mask(pc)
    greened = greened_mask(baseline, [roof], roof_grid)
    assert baseline.values.sum() == 0.0
    assert greened.values.sum() == 4.0  # 100 m2 at 25 m2 per pixel
    assert set(np.unique(greened.values)) <= {0.0, 1.0}


def test_greened_mask_marks_a_copy_of_the_base():
    pc = pc_of([[0, 0, 0, GROUND], [30, 30, 0, GROUND], [12, 7, 3, VEGETATION]])
    roof_grid = RasterGrid(0.0, 0.0, 1.0, np.zeros((32, 32)))
    roofs = [roof_cells([(r, c) for r in range(10) for c in range(10)]),
             roof_cells([(31, 31), (7, 12)])]
    base = build_greenspace_mask(pc)
    before = base.values.copy()
    greened = greened_mask(base, roofs, roof_grid)
    assert np.array_equal(base.values, before)
    # the 10 m square fills 2 x 2 pixels of 5 m; of the two single cells, one
    # lands on the vegetation pixel
    want = before.copy()
    want[0:2, 0:2] = want[6, 6] = 1.0
    assert np.array_equal(greened.values, want)
    unchanged = greened_mask(base, [], roof_grid)
    assert unchanged.same_as(base) and unchanged.values is not base.values


# ---------------------------------------------------------------------------
# greenspace coverage
# ---------------------------------------------------------------------------

def test_gc_saturated_disk():
    mask = RasterGrid(0.0, 0.0, 5.0, np.ones((220, 220)))
    gc = greenspace_coverage(mask, 550.0, 550.0, radius=500.0)
    assert gc == pytest.approx(1.0, abs=0.01)


def test_gc_empty():
    mask = RasterGrid(0.0, 0.0, 5.0, np.zeros((220, 220)))
    assert greenspace_coverage(mask, 550.0, 550.0) == 0.0


def test_gc_half_plane():
    vals = np.zeros((220, 220))
    vals[:, :110] = 1.0  # western half vegetated
    mask = RasterGrid(0.0, 0.0, 5.0, vals)
    gc = greenspace_coverage(mask, 550.0, 550.0, radius=500.0)
    assert gc == pytest.approx(0.5, abs=0.01)


def test_gc_outside_extent_counts_zero():
    mask = RasterGrid(0.0, 0.0, 5.0, np.ones((4, 4)))  # tiny 20x20 m patch
    gc = greenspace_coverage(mask, 10.0, 10.0, radius=500.0)
    assert gc == pytest.approx(16 * 25 / (math.pi * 500 ** 2))


def _gc_oracle(mask, x, y, radius):
    ys = mask.origin_y + (np.arange(mask.nrows) + 0.5) * mask.cell
    xs = mask.origin_x + (np.arange(mask.ncols) + 0.5) * mask.cell
    X, Y = np.meshgrid(xs, ys)
    inside = np.hypot(X - x, Y - y) <= radius
    count = float(np.sum((mask.values > 0) & inside))
    return min(1.0, count * mask.cell ** 2 / (math.pi * radius ** 2))


def test_gc_matches_naive_scan_oracle():
    rng = np.random.default_rng(127)
    mask = RasterGrid(-100.0, 250.0, 5.0, (rng.random((200, 200)) < 0.3).astype(float))
    for _ in range(100):
        x = rng.uniform(-200, 1000)
        y = rng.uniform(150, 1350)
        got = greenspace_coverage(mask, x, y, radius=500.0)
        assert got == pytest.approx(_gc_oracle(mask, x, y, 500.0), abs=1e-12)


def test_gc_greened_dominates_baseline():
    rng = np.random.default_rng(5)
    pts = [[x, y, 0, GROUND] for x, y in rng.uniform(0, 400, (50, 2))]
    pts += [[x, y, 2, VEGETATION] for x, y in rng.uniform(0, 400, (40, 2))]
    pc = pc_of(pts)
    roof_grid = RasterGrid(100.0, 100.0, 1.0, np.zeros((20, 20)))
    roof = roof_cells([(r, c) for r in range(12) for c in range(12)])
    baseline = build_greenspace_mask(pc)
    greened = greened_mask(baseline, [roof], roof_grid)
    for _ in range(50):
        x, y = rng.uniform(0, 400, 2)
        assert greenspace_coverage(greened, x, y) >= greenspace_coverage(baseline, x, y)


# ---------------------------------------------------------------------------
# roof coverage rate
# ---------------------------------------------------------------------------

def test_roof_coverage_is_mean_over_cells():
    vals = np.zeros((40, 40))
    vals[:, :10] = 1.0
    mask = RasterGrid(0.0, 0.0, 5.0, vals)
    roof_grid = RasterGrid(0.0, 0.0, 1.0, np.zeros((200, 200)))
    [got] = building_coverage_rate([roof_cells([(100, 40), (100, 160)])], mask, roof_grid,
                                   radius=100.0)
    g1 = greenspace_coverage(mask, 40.5, 100.5, radius=100.0)
    g2 = greenspace_coverage(mask, 160.5, 100.5, radius=100.0)
    assert g1 != g2  # the two cells genuinely see different surroundings
    assert got == pytest.approx((g1 + g2) / 2.0)


def test_single_cell_roof_equals_point_coverage():
    rng = np.random.default_rng(9)
    mask = RasterGrid(0.0, 0.0, 5.0, (rng.random((60, 60)) < 0.4).astype(float))
    roof_grid = RasterGrid(0.0, 0.0, 1.0, np.zeros((300, 300)))
    [got] = building_coverage_rate([roof_cells([(123, 77)])], mask, roof_grid, radius=200.0)
    assert got == pytest.approx(greenspace_coverage(mask, 77.5, 123.5, 200.0))


def test_building_coverage_pools_all_segments():
    mask = RasterGrid(0.0, 0.0, 5.0, np.ones((40, 40)))
    roof_grid = RasterGrid(0.0, 0.0, 1.0, np.zeros((200, 200)))
    # a building's cells come as its segments' cells, one after another
    segs = [roof_cells([(10, 10)]), roof_cells([(10, 11), (11, 10)])]
    [pooled] = building_coverage_rate([np.concatenate(segs)], mask, roof_grid, radius=50.0)
    singles = [greenspace_coverage(mask, 10.5, 10.5, 50.0),
               greenspace_coverage(mask, 11.5, 10.5, 50.0),
               greenspace_coverage(mask, 10.5, 11.5, 50.0)]
    assert pooled == pytest.approx(np.mean(singles))
    with pytest.raises(ValueError):
        building_coverage_rate([roof_cells([])], mask, roof_grid)


# ---------------------------------------------------------------------------
# indicator columns
# ---------------------------------------------------------------------------

def test_distance_indicator_values():
    assert distance_indicator(np.array([0.0, 250.0, 500.0, 900.0])).tolist() == \
        [1.0, 0.5, 0.0, 0.0]
    assert distance_indicator(np.array([100.0]), cap=200.0).tolist() == [0.5]
    with pytest.raises(ValueError, match="distance must be non-negative"):
        distance_indicator(np.array([3.0, -1.0]))


def test_category_indicator_values():
    assert category_indicator(["private", "public", "misc"]).tolist() == [0.5, 1.0, 0.75]
    assert category_indicator([]).shape == (0,)
    with pytest.raises(ValueError, match="unknown building category 'industrial'"):
        category_indicator(["public", "industrial"])


def test_sample_surface_constant():
    surf = RasterGrid(0.0, 0.0, 10.0, np.full((6, 6), 7.0))
    b = BuildingAttributes("b1", 10, "public", square(12, 12, 25))
    assert _sample(surf, b) == 7.0


def test_sample_surface_two_cell_mean():
    vals = np.array([[4.0, 6.0]])
    surf = RasterGrid(0.0, 0.0, 10.0, vals)
    b = BuildingAttributes("b1", 10, "public", Polygon(
        [[1, 1], [19, 1], [19, 9], [1, 9], [1, 1]]))  # spans both cell centers
    assert _sample(surf, b) == pytest.approx(5.0)


def test_sample_surface_centroid_fallback():
    surf = RasterGrid(0.0, 0.0, 10.0, np.array([[3.0, 9.0]]))
    b = BuildingAttributes("b1", 10, "public", square(1.0, 1.0, 2.0))  # traps no center
    assert _sample(surf, b) == 3.0


def test_sample_surface_outside_extent_errors():
    surf = RasterGrid(0.0, 0.0, 10.0, np.full((2, 2), 1.0))
    b = BuildingAttributes("b1", 10, "public", square(100, 100, 10))
    with pytest.raises(ComputationError, match="outside surface extent"):
        _sample(surf, b)


def test_measure_buildings_samples_each_surface_as_on_its_own():
    # income and precipitation share one geometry, the four seasons another;
    # each surface must still be sampled as on its own
    rng = np.random.default_rng(41)
    kriged = [RasterGrid(-20.0, -20.0, 50.0, rng.normal(0.0, 1.0, (6, 6))) for _ in range(2)]
    seasonal = {s: RasterGrid(0.0, 0.0, 7.0, rng.normal(25.0, 2.0, (30, 30))) for s in SEASONS}
    seasonal["winter"].values[10:20, 10:20] = np.nan
    buildings = [
        BuildingAttributes("b1", 10, "public", Polygon(
            [[30, 40], [120, 45], [110, 130], [35, 120], [30, 40]])),
        BuildingAttributes("b2", 20, "misc", square(150, 150, 30)),
        BuildingAttributes("b3", 30, "private", square(160, 20, 3)),  # traps no center
    ]
    roads = [Polyline([[0, 0], [200, 0]], tag="main"), Polyline([[0, 5], [200, 5]])]
    raw = measure_buildings(buildings, [0.25, 0.5, 0.75], roads, kriged[0], seasonal,
                            kriged[1])
    assert raw.ids == ["b1", "b2", "b3"]
    assert raw.categories == ["public", "misc", "private"]
    assert raw.greenspace.tolist() == [0.25, 0.5, 0.75]
    assert raw.road_distance_m.tolist() == pytest.approx([b.footprint.centroid()[1]
                                                          for b in buildings])
    for i, b in enumerate(buildings):
        assert raw.income[i] == _sample(kriged[0], b)
        assert raw.precipitation[i] == _sample(kriged[1], b)
        assert raw.seasonal_temps[i].tolist() == [_sample(seasonal[s], b)
                                                  for s in SEASONS]
    empty = measure_buildings([], [], roads, kriged[0], seasonal, kriged[1])
    assert empty.ids == [] and empty.seasonal_temps.shape == (0, 4)


def test_measure_work_is_per_road_and_per_geometry(small_city, tmp_path, monkeypatch):
    # guards against per-building road distances or per-surface cell lookups
    # coming back: one segment_distances call per main road over all the
    # centroids, one cells_in_polygon call per building and distinct surface
    # geometry (the kriged surfaces share one, the seasonal rasters another)
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    table = read_table(out / "buildings.csv", cli.TABLES["buildings.csv"].columns)
    potential = sum(table["potential"])
    assert potential > 1
    main_roads = sum(ln.tag == "main" for ln in read_roads(small_city / "roads.geojson"))
    distances, lookups = [], []
    segment_distances, cells_in_polygon = geocore.segment_distances, indicators.cells_in_polygon

    def counted_distances(points, coords):
        distances.append(len(points))
        return segment_distances(points, coords)

    def counted_lookups(grid, poly):
        lookups.append(grid)
        return cells_in_polygon(grid, poly)

    monkeypatch.setattr(geocore, "segment_distances", counted_distances)
    monkeypatch.setattr(indicators, "cells_in_polygon", counted_lookups)
    config = str(small_city / "config.txt")
    assert cli.main(["indicators", "--config", config, "--out", str(out)]) == 0
    assert distances == [potential] * main_roads
    assert len(lookups) == 2 * potential and len(set(lookups)) == 2


def test_measure_computes_each_centroid_once(monkeypatch):
    # six surfaces, one centroid per building; a centroid outside a surface
    # keeps its message
    calls = []
    centroid = Polygon.centroid

    def counted(poly):
        calls.append(poly)
        return centroid(poly)

    monkeypatch.setattr(Polygon, "centroid", counted)
    seasonal = {s: RasterGrid(0.0, 0.0, 7.0, np.full((30, 30), 25.0)) for s in SEASONS}
    kriged = RasterGrid(-20.0, -20.0, 50.0, np.ones((6, 6)))
    buildings = [BuildingAttributes("b1", 10, "public", square(30, 40, 20)),
                 BuildingAttributes("b2", 20, "misc", square(150, 150, 3))]
    roads = [Polyline([[0, 0], [200, 0]], tag="main")]
    measure_buildings(buildings, [0.5, 0.5], roads, kriged, seasonal, kriged)
    assert len(calls) == len(buildings)
    far = [BuildingAttributes("b3", 10, "public", square(250, 40, 20))]
    with pytest.raises(ComputationError,
                       match=r"^building b3: centroid \(260\.0, 50\.0\) outside surface extent$"):
        measure_buildings(far, [0.5], roads, kriged, seasonal, kriged)


def test_combine_seasonal_temperature():
    np.testing.assert_allclose(
        combine_seasonal_temperature(np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])),
        [0.8, 0.2])
    rng = np.random.default_rng(33)
    x = rng.random(100)
    np.testing.assert_allclose(combine_seasonal_temperature(np.repeat(x[:, None], 4, axis=1)),
                               x)
    t = rng.random((100, 4))
    v = combine_seasonal_temperature(t)
    assert v.shape == (100,)
    assert ((t.min(axis=1) - 1e-12 <= v) & (v <= t.max(axis=1) + 1e-12)).all()
    for bad in (1.2, np.nan):
        with pytest.raises(ValueError):
            combine_seasonal_temperature(np.array([[0.5, 0.5, 0.5, 0.5], [0.5, bad, 0.5, 0.5]]))


def test_season_constants():
    assert SEASONS == ("spring", "summer", "autumn", "winter")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_minmax_scale_directions():
    np.testing.assert_allclose(minmax_scale(np.array([10.0, 20.0, 30.0]), True),
                               [0.0, 0.5, 1.0])
    np.testing.assert_allclose(minmax_scale(np.array([10.0, 20.0, 30.0]), False),
                               [1.0, 0.5, 0.0])
    np.testing.assert_allclose(minmax_scale(np.array([7.0, 7.0, 7.0]), True),
                               [0.5, 0.5, 0.5])


def test_minmax_preserves_ranking():
    rng = np.random.default_rng(41)
    v = rng.normal(0, 10, 30)
    pos = minmax_scale(v, True)
    neg = minmax_scale(v, False)
    assert (np.argsort(pos) == np.argsort(v)).all()
    assert (np.argsort(neg) == np.argsort(-v)).all()


def raw_columns(*rows):
    """RawIndicators from per-building rows (id, greenspace, distance,
    category, income, seasonal temperatures, precipitation)."""
    ids, green, dist, cats, income, temps, precip = zip(*rows)
    return RawIndicators(list(ids), np.array(green), np.array(dist), list(cats),
                         np.array(income), np.array(temps), np.array(precip))


def normalized(raw, **kwargs):
    """normalize_indicators as one IndicatorVector per building id."""
    return {bid: IndicatorVector(*row)
            for bid, row in zip(raw.ids, normalize_indicators(raw, **kwargs).tolist())}


def test_normalize_indicators_full():
    raws = raw_columns(
        ("a", 0.10, 0.0, "private", 20000.0, (20.0, 30.0, 28.0, 15.0), 1800.0),
        ("b", 0.30, 250.0, "public", 30000.0, (22.0, 33.0, 30.0, 16.0), 2400.0),
        ("c", 0.50, 700.0, "misc", 40000.0, (24.0, 36.0, 32.0, 17.0), 2100.0),
    )
    assert normalize_indicators(raws).shape == (3, len(IndicatorVector.FIELDS))
    vecs = normalized(raws)
    assert set(vecs) == {"a", "b", "c"}
    # greenspace is a negative indicator: least surrounded scores highest
    assert vecs["a"].greenspace == 1.0 and vecs["c"].greenspace == 0.0
    # road distance passes through the linear decay, no re-scaling
    assert vecs["a"].road_distance == 1.0
    assert vecs["b"].road_distance == 0.5
    assert vecs["c"].road_distance == 0.0
    assert vecs["a"].category == 0.5 and vecs["b"].category == 1.0
    # income negative
    assert vecs["a"].income == 1.0 and vecs["c"].income == 0.0
    # temperatures normalize per season then blend: all seasons monotone
    # increasing a->c, so the blend is 0 for a and 1 for c
    assert vecs["a"].temperature == pytest.approx(0.0)
    assert vecs["c"].temperature == pytest.approx(1.0)
    assert vecs["b"].temperature == pytest.approx(
        (0.5 + 4 * 0.5 + 4 * 0.5 + 0.5) / 10.0)
    # precipitation positive
    assert vecs["b"].precipitation == 1.0 and vecs["a"].precipitation == 0.0
    for v in vecs.values():
        arr = v.as_array()
        assert ((arr >= 0.0) & (arr <= 1.0)).all()
    empty = RawIndicators([], np.empty(0), np.empty(0), [], np.empty(0), np.empty((0, 4)),
                          np.empty(0))
    assert normalize_indicators(empty).shape == (0, 6)


def test_normalize_constant_column_rule():
    raws = raw_columns(
        ("a", 0.2, 100.0, "misc", 25000.0, (20.0, 30.0, 28.0, 15.0), 2000.0),
        ("b", 0.2, 200.0, "misc", 25000.0, (20.0, 30.0, 28.0, 15.0), 2000.0),
    )
    vecs = normalized(raws)
    for v in vecs.values():
        assert v.greenspace == 0.5
        assert v.income == 0.5
        assert v.precipitation == 0.5
        assert v.temperature == pytest.approx(0.5)


def test_normalize_names_the_building_and_indicator_out_of_range():
    raws = raw_columns(
        ("a", 0.2, 0.0, "misc", 25000.0, (20.0, 30.0, 28.0, 15.0), 2000.0),
        ("b", 0.4, 200.0, "misc", 26000.0, (21.0, 31.0, 29.0, 16.0), 2100.0),
    )
    with pytest.raises(ValueError, match=r"building b: indicator road_distance=1.5 outside"):
        normalize_indicators(raws, road_cap=-400.0)


def test_indicator_vector_bounds_checked():
    with pytest.raises(ValueError):
        IndicatorVector(1.2, 0.5, 0.5, 0.5, 0.5, 0.5)
