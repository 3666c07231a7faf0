"""The six per-building greening indicators and their normalization.

Raw quantities (surrounding greenspace, road distance, category, income,
seasonal surface temperature, precipitation) are measured as columns over
all potential buildings, then scaled to [0, 1] across them with the demand
direction applied: hot and rainy push priority up, while abundant nearby
greenery, distance from traffic, and high income push it down.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geocore import (
    VEGETATION,
    ComputationError,
    GridGeometry,
    PointCloud,
    Polyline,
    RasterGrid,
    cell_centers,
    cells_in_polygon,
    cells_of,
    distance_to_polylines,
    snapped_grid,
)
from .ingest import BuildingAttributes

SEASONS = ("spring", "summer", "autumn", "winter")

MASK_CELL_DEFAULT = 5.0
GC_RADIUS_DEFAULT = 500.0
ROAD_CAP_DEFAULT = 500.0

CATEGORY_VALUES = {"private": 0.5, "public": 1.0, "misc": 0.75}


@dataclass
class RawIndicators:
    """Measured (pre-normalization) indicator inputs as columns, one entry
    per building in the order of ids; seasonal_temps is (n, 4), in SEASONS
    order."""

    ids: list[str]
    greenspace: np.ndarray
    road_distance_m: np.ndarray
    categories: list[str]
    income: np.ndarray
    seasonal_temps: np.ndarray
    precipitation: np.ndarray


# the six normalized indicators, each in [0, 1], in canonical column order
INDICATORS = ("greenspace", "road_distance", "category", "income",
              "temperature", "precipitation")
# the same indicators, as named in the CSV columns (ind_*, w_*)
SHORT_NAMES = ("greenspace", "road_dist", "category", "income",
               "temperature", "precip")


# ---------------------------------------------------------------------------
# greenspace mask and coverage
# ---------------------------------------------------------------------------

def build_greenspace_mask(pc: PointCloud, cell: float = MASK_CELL_DEFAULT) -> RasterGrid:
    """Binary plan-view map of green pixels: those holding vegetation points,
    on the :func:`snapped_grid` of the whole cloud. :func:`greened_mask`
    adds the roofs."""
    mask = snapped_grid(pc.xyz, cell)
    _mark_green(mask, pc.points_of(VEGETATION))
    return mask


def greened_mask(mask: RasterGrid, potential_roofs: list[np.ndarray],
                 roof_grid: RasterGrid | GridGeometry) -> RasterGrid:
    """A copy of mask with the pixels under the roof cells marked:
    potential_roofs holds (m, 2) arrays of (row, col) cells of roof_grid."""
    greened = mask.copy()
    if potential_roofs:
        _mark_green(greened, cell_centers(roof_grid, np.concatenate(potential_roofs)))
    return greened


def _mark_green(mask: RasterGrid, xy: np.ndarray) -> None:
    rows, cols = cells_of(mask, xy)
    inside = (rows >= 0) & (rows < mask.nrows) & (cols >= 0) & (cols < mask.ncols)
    mask.values[rows[inside], cols[inside]] = 1.0


# (query, mask row) pairs the coverage kernel handles per vectorized step: a
# tile of consecutive mask rows times a run of queries, or part of one row's
# queries when they alone are more
COVERAGE_CHUNK_PAIRS = 1 << 14

_EPS = 2.0 ** -53  # unit roundoff of float64


def greenspace_coverage(mask: RasterGrid, x: float | np.ndarray, y: float | np.ndarray,
                        radius: float = GC_RADIUS_DEFAULT) -> float | np.ndarray:
    """Share of the disk around each (x, y) covered by green pixels.

    Counts mask pixels (value > 0) whose centers lie within the radius and
    multiplies by the pixel area over the disk area; pixels beyond the mask
    extent contribute zero, and the result is capped at 1. Scalar x, y give
    a float, arrays an array of their broadcast shape.

    Each (query, mask row) pair takes its count from the row's prefix sums
    over the column run [a, b) of the disk in that row. :func:`_disk_runs`
    sweeps the mask rows, the queries sorted by y, and estimates each run
    from a sqrt; an estimate that lies within its proven rounding margin of
    a column is settled with the exact test on pixel centers,
    ``dy**2 + dx**2 <= radius**2``. Pixels on the circle thus count exactly
    as a direct scan of the bounding window counts them.
    """
    if not radius > 0:
        raise ValueError("coverage radius must be positive")
    xq, yq = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape = xq.shape
    xq, yq = xq.ravel(), yq.ravel()
    if not (np.isfinite(xq).all() and np.isfinite(yq).all()):
        raise ValueError("coverage query points must be finite")
    order = np.argsort(yq, kind="stable")
    xs, ys = xq[order], yq[order]
    width = mask.ncols + 1
    pref = np.zeros((mask.nrows, width), dtype=np.int32)
    np.cumsum(mask.values > 0, axis=1, out=pref[:, 1:])
    flat = pref.ravel()
    counts = np.zeros(xq.size, dtype=np.int64)

    def settle(rows, q, a, b):
        """Move the near pairs' runs [a, b) to those of the exact test on
        pixel centers and correct their queries' counts."""
        start = rows * width
        estimated = flat[start + b] - flat[start + a]
        lo, mid, hi, _ = (v.astype(np.int64) for v in _window_columns(mask, xs[q], radius))
        dy2 = (mask.y_centers()[rows] - ys[q]) ** 2
        x, x_centers, r2 = xs[q], mask.x_centers(), radius * radius

        def inside(i, c):
            # _first_true also tests columns lo - 1 and hi, which may lie off
            # the mask, at positions whose result it then drops
            return dy2[i] + (x_centers.take(c, mode="clip") - x[i]) ** 2 <= r2

        _first_true(a, inside, lo, mid)
        _first_true(b, lambda i, c: ~inside(i, c), mid, hi)
        np.add.at(counts, q, flat[start + b] - flat[start + a] - estimated)

    # (row, query, a, b) of the near pairs, settled a batch at a time; a
    # buffer made once, so that the tiles' temporaries do not land between
    # the arrays of a growing list and spread the heap
    held = np.empty((4, max(1, COVERAGE_CHUNK_PAIRS)), dtype=np.int64)
    n_held = 0
    for rows, queries, a, b, near in _disk_runs(mask, xs, ys, radius):
        n_rows, n_queries = near.shape
        i = np.flatnonzero(near)
        if n_held + i.size > held.shape[1]:
            settle(*held[:, :n_held])
            n_held = 0
        held[:, n_held:n_held + i.size] = (rows.start + i // n_queries,
                                           queries.start + i % n_queries,
                                           a.ravel()[i], b.ravel()[i])
        n_held += i.size
        tile = pref[rows].ravel()
        if n_rows > 1:
            offsets = np.arange(0, tile.size, width)[:, None]
            a += offsets
            b += offsets
        counts[queries] += (tile[b] - tile[a]).sum(axis=0)
    if n_held:
        settle(*held[:, :n_held])
    cov = np.empty(xq.size)
    cov[order] = np.minimum(1.0, counts * mask.cell * mask.cell / (math.pi * radius * radius))
    return float(cov[0]) if shape == () else cov.reshape(shape)


def _window(v, radius, origin, cell, n):
    """[lo, hi) as floats: the rows or columns of a grid axis of n cells that
    the bounding window of the disk around each v spans, clipped to it."""
    lo = np.clip(np.floor((v - radius - origin) / cell), 0, n)
    return lo, np.clip(np.floor((v + radius - origin) / cell) + 1, lo, n)


def _window_columns(mask, x, radius):
    """(lo, mid, hi, u) of each query x, as floats: its window columns
    [lo, hi), split at mid, the first of them whose center lies at or east
    of x (left of it the disk test can only turn from false to true, from it
    on only from true to false), and x in column units, column c's center
    at c."""
    lo, hi = _window(x, radius, mask.origin_x, mask.cell, mask.ncols)
    mid = np.clip(np.searchsorted(mask.x_centers(), x), lo, hi)
    return lo, mid, hi, (x - mask.origin_x) / mask.cell - 0.5


def _disk_runs(mask, xs, ys, radius):
    """Estimated column run [a, b) of the disk in every (query, mask row)
    pair of the queries (xs, ys), sorted so that ys does not decrease.

    Sorted so, each mask row's queries (those whose window holds it) are a
    run of them. Yields one tile at a time: (rows, queries, a, b, near),
    with rows and queries slices and a, b, near arrays of shape (rows,
    queries); a tile holds at most ``COVERAGE_CHUNK_PAIRS`` pairs. A pair
    whose row is not in its query's window has a == b and near False. Each
    other pair's run is exact unless near is set; near pairs start the
    exact test from [a, b).

    The estimate works in column units, column c's center at c: qu is the
    computed query x, half = sqrt(max(r2 - dy2, 0)) / cell, and
    a = ceil(qu - half), b = ceil(qu + half), clipped to the window's two
    halves (b is floor(qu + half) + 1 wherever qu + half is no integer, and
    all other pairs are near). With eps = 2**-53, rho = r / cell, and U, H
    the exact values that qu and half round:
    - the exact test puts column c inside if |c - U| <= H - beta and outside
      if |c - U| > H + beta, beta = sqrt(eps) rho + 4 eps rho + E: the
      square of dx has a relative error of at most 3.0001 eps; the sum
      rounds to r2 or below only if it is at most r2 (1 + eps), which moves
      sqrt(W), W = r2 - dy2, by at most sqrt(eps r2); and
      E = eps (2.01 ncols + |origin_x| / cell) bounds the rounding of the
      column centers;
    - qu lies within 3.1 eps (|qu| + 1) of U, half within 2.51 eps rho of H,
      and qu -+ half round by at most 1.01 eps (|qu| + rho);
    - so an end farther than M = sqrt(eps) rho + 8 eps (rho + ncols +
      |origin_x| / cell + max |qu| + 2) from every integer is the end of the
      exact test. Where dy2 > r2 no column is inside and half is 0; ceil(qu),
      that far from every integer, is then the split column, and the run is
      empty as it should be. A radius whose square is not a normal float,
      or an M of half a column or more, settles every pair.
    """
    cell, nrows, ncols = mask.cell, mask.nrows, mask.ncols
    r2 = radius * radius
    row_lo, row_hi = _window(ys, radius, mask.origin_y, cell, nrows)
    lo, mid, hi, qu = _window_columns(mask, xs, radius)
    rho = radius / cell
    margin = math.sqrt(_EPS) * rho + 8 * _EPS * (
        rho + ncols + abs(mask.origin_x) / cell + float(np.abs(qu).max(initial=0.0)) + 2)
    estimate = np.finfo(float).tiny <= r2 < math.inf and margin < 0.5
    y_centers = mask.y_centers()
    # the queries whose window holds row r are first[r]:stop[r]
    first = np.searchsorted(row_hi, np.arange(nrows), side="right").tolist()
    stop = np.searchsorted(row_lo, np.arange(nrows), side="right").tolist()
    r0 = 0
    while r0 < nrows:
        if first[r0] == stop[r0]:
            r0 += 1
            continue
        r1 = r0 + 1
        while r1 < nrows and (r1 + 1 - r0) * (stop[r1] - first[r0]) <= COVERAGE_CHUNK_PAIRS:
            r1 += 1
        rows = slice(r0, r1)
        step = max(1, COVERAGE_CHUNK_PAIRS // (r1 - r0))
        for s in range(first[r0], stop[r1 - 1], step):
            q = slice(s, min(s + step, stop[r1 - 1]))
            if estimate:
                dy2 = np.square(y_centers[rows, None] - ys[q])
                half = np.maximum(r2 - dy2, 0.0, out=dy2)
                np.sqrt(half, out=half)
                half /= cell
                left = qu[q] - half
                right = np.add(qu[q], half, out=half)
                a, b = np.ceil(left), np.ceil(right)
                # each end's distance from the nearest integer, from
                # |ceil(v) - v - 1/2| > 1/2 - margin
                for end, v in ((a, left), (b, right)):
                    np.subtract(end, v, out=v)
                    v -= 0.5
                    np.abs(v, out=v)
                near = np.maximum(left, right, out=left) > 0.5 - margin
                for end, low, high in ((a, lo[q], mid[q]), (b, mid[q], hi[q])):
                    np.maximum(end, low, out=end)
                    np.minimum(end, high, out=end)
                a, b = a.astype(np.int64), b.astype(np.int64)
            else:
                shape = (r1 - r0, q.stop - q.start)
                a = np.broadcast_to(lo[q], shape).astype(np.int64)
                b = np.broadcast_to(mid[q], shape).astype(np.int64)
                near = np.ones(shape, dtype=bool)
            if r1 - r0 > 1:
                row = np.arange(r0, r1)[:, None]
                outside = (row < row_lo[q]) | (row >= row_hi[q])
                np.copyto(b, a, where=outside)
                near &= ~outside
            yield rows, q, a, b, near
        r0 = r1


def _first_true(c, test, lo, hi):
    """Move each c[i] in place to the first index in [lo[i], hi[i]) where
    test(i, index) holds, or to hi[i] where none does. test must be
    monotone, false then true, over that range; c[i] starts inside it.
    test takes the positions i as an index array or as slice(None) for all."""
    i = np.flatnonzero((c > lo) & test(slice(None), c - 1))
    while i.size:
        c[i] -= 1
        i = i[c[i] > lo[i]]
        i = i[test(i, c[i] - 1)]
    i = np.flatnonzero((c < hi) & ~test(slice(None), c))
    while i.size:
        c[i] += 1
        i = i[c[i] < hi[i]]
        i = i[~test(i, c[i])]


def building_coverage_rate(buildings: list[np.ndarray], mask: RasterGrid,
                           roof_grid: RasterGrid | GridGeometry,
                           radius: float = GC_RADIUS_DEFAULT) -> list[float]:
    """Mean coverage over the roof cells of each building.

    buildings holds one (m, 2) array of (row, col) cells of roof_grid per
    building; every cell of every building is one query of a single
    :func:`greenspace_coverage` call, and each rate is the mean of its
    building's run of the result.
    """
    sizes = [len(cells) for cells in buildings]
    if not all(sizes):
        raise ValueError("building has no segments to evaluate")
    if not buildings:
        return []
    xy = cell_centers(roof_grid, np.concatenate(buildings))
    coverage = greenspace_coverage(mask, xy[:, 0], xy[:, 1], radius)
    return [float(np.mean(run)) for run in np.split(coverage, np.cumsum(sizes[:-1]))]


# ---------------------------------------------------------------------------
# indicator columns
# ---------------------------------------------------------------------------

def distance_indicator(d: np.ndarray, cap: float = ROAD_CAP_DEFAULT) -> np.ndarray:
    """Demand from road proximity: 1 at the road, linear to 0 at the cap."""
    if np.any(d < 0):
        raise ValueError("distance must be non-negative")
    return np.maximum(0.0, 1.0 - d / cap)


def category_indicator(categories: list[str]) -> np.ndarray:
    try:
        return np.array([CATEGORY_VALUES[c] for c in categories], dtype=float)
    except KeyError as exc:
        raise ValueError(f"unknown building category {exc.args[0]!r}") from None


def sample_surface_at_building(surface: RasterGrid, building: BuildingAttributes,
                               cells: tuple[np.ndarray, np.ndarray],
                               centroid: tuple[float, float]) -> float:
    """Mean surface value over cells whose centers fall inside the footprint.

    Small footprints that trap no cell center fall back to the value at the
    centroid's cell. A centroid beyond the surface extent is an error.
    cells is ``cells_in_polygon`` of the footprint on a grid of the
    surface's geometry, and centroid the footprint's.
    """
    cx, cy = centroid
    (row,), (col,) = cells_of(surface, np.array([[cx, cy]]))
    if not (0 <= row < surface.nrows and 0 <= col < surface.ncols):
        raise ComputationError(
            f"building {building.id}: centroid ({cx:.1f}, {cy:.1f}) outside surface extent")
    vals = surface.values[cells]
    vals = vals[np.isfinite(vals)]
    if vals.size:
        return float(np.mean(vals))
    v = surface.values[row, col]
    if not np.isfinite(v):
        raise ComputationError(f"building {building.id}: no data at footprint")
    return float(v)


def combine_seasonal_temperature(t: np.ndarray) -> np.ndarray:
    """Blend the (n, 4) normalized seasonal temperatures into one indicator
    per row."""
    if not ((t >= 0.0) & (t <= 1.0)).all():
        raise ValueError("seasonal temperatures must be normalized to [0, 1]")
    t1, t2, t3, t4 = t.T
    return (t1 + 4.0 * t2 + 4.0 * t3 + t4) / 10.0


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def minmax_scale(values: np.ndarray, positive: bool) -> np.ndarray:
    """Min-max to [0, 1]; constant columns become 0.5 everywhere."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.full(values.shape, 0.5)
    scaled = (values - lo) / (hi - lo)
    return scaled if positive else 1.0 - scaled


def normalize_indicators(raw: RawIndicators,
                         road_cap: float = ROAD_CAP_DEFAULT) -> np.ndarray:
    """Scale the raw columns across the buildings into the (n, 6) matrix of
    indicators, columns in ``INDICATORS`` order.

    Greenspace and income scale negatively (abundance lowers demand);
    seasonal temperatures scale positively per season before blending;
    precipitation scales positively. Road distance and category are already
    indicator-valued and pass through untouched. A value outside [0, 1] is
    a ValueError naming its building and indicator.
    """
    if not raw.ids:
        return np.empty((0, len(INDICATORS)))
    temps = np.column_stack([minmax_scale(column, positive=True)
                             for column in raw.seasonal_temps.T])
    matrix = np.column_stack([
        minmax_scale(raw.greenspace, positive=False),
        distance_indicator(raw.road_distance_m, road_cap),
        category_indicator(raw.categories),
        minmax_scale(raw.income, positive=False),
        combine_seasonal_temperature(temps),
        minmax_scale(raw.precipitation, positive=True),
    ])
    bad = np.argwhere(~((matrix >= 0.0) & (matrix <= 1.0)))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"building {raw.ids[i]}: indicator {INDICATORS[j]}="
                         f"{matrix[i, j]} outside [0, 1]")
    return matrix


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_buildings(buildings: list[BuildingAttributes], greenspace: list[float],
                      roads: list[Polyline], income: RasterGrid,
                      temps: dict[str, RasterGrid], precip: RasterGrid) -> RawIndicators:
    """Collect the raw indicator columns of the buildings.

    greenspace holds each building's roof coverage rate, from
    :func:`building_coverage_rate`; road distance is to the main roads. The
    six surfaces are grouped by grid geometry (the seasonal rasters share
    one, the kriged surfaces another), and each footprint's cells are
    looked up once per geometry; its centroid is computed once.
    """
    centroids = np.array([b.footprint.centroid() for b in buildings]).reshape(-1, 2)
    road_distance = distance_to_polylines(centroids, roads, tag="main")
    surfaces = [income, *(temps[s] for s in SEASONS), precip]
    geometries = [GridGeometry(s.origin_x, s.origin_y, s.cell, s.nrows, s.ncols)
                  for s in surfaces]
    cells = {g: [cells_in_polygon(g, b.footprint) for b in buildings]
             for g in dict.fromkeys(geometries)}
    samples = np.array([[sample_surface_at_building(s, b, cells[g][i], centroids[i])
                         for s, g in zip(surfaces, geometries)]
                        for i, b in enumerate(buildings)]).reshape(-1, len(surfaces))
    return RawIndicators(
        ids=[b.id for b in buildings],
        greenspace=np.array(greenspace, dtype=float),
        road_distance_m=road_distance,
        categories=[b.category for b in buildings],
        income=samples[:, 0],
        seasonal_temps=samples[:, 1:5],
        precipitation=samples[:, 5],
    )
