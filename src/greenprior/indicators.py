"""The six per-building greening indicators and their normalization.

Raw quantities (surrounding greenspace, road distance, category, income,
seasonal surface temperature, precipitation) are measured per building,
then scaled to [0, 1] across the potential-building population with the
demand direction applied: hot and rainy push priority up, while abundant
nearby greenery, distance from traffic, and high income push it down.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geocore import (
    VEGETATION,
    ComputationError,
    PointCloud,
    Polyline,
    RasterGrid,
    cells_in_polygon,
    distance_to_polylines,
    snapped_grid,
)
from .ingest import BuildingAttributes, GridGeometry
from .roofs import RoofSegment, segment_cell_centers

SEASONS = ("spring", "summer", "autumn", "winter")

MASK_CELL_DEFAULT = 5.0
GC_RADIUS_DEFAULT = 500.0
ROAD_CAP_DEFAULT = 500.0

CATEGORY_VALUES = {"private": 0.5, "public": 1.0, "misc": 0.75}


@dataclass
class RawIndicators:
    """Measured (pre-normalization) indicator inputs for one building."""

    building_id: str
    greenspace: float
    road_distance_m: float
    category: str
    income: float
    seasonal_temps: tuple[float, float, float, float]
    precipitation: float


@dataclass
class IndicatorVector:
    """The six normalized indicators, each in [0, 1], in canonical order."""

    greenspace: float
    road_distance: float
    category: float
    income: float
    temperature: float
    precipitation: float

    FIELDS = ("greenspace", "road_distance", "category", "income",
              "temperature", "precipitation")
    # the same indicators, as named in the CSV columns (ind_*, w_*)
    SHORT_NAMES = ("greenspace", "road_dist", "category", "income",
                   "temperature", "precip")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in self.FIELDS])

    def __post_init__(self):
        for f in self.FIELDS:
            v = getattr(self, f)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"indicator {f}={v} outside [0, 1]")


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


def greened_mask(mask: RasterGrid, potential_roofs: list[RoofSegment],
                 roof_grid: RasterGrid | GridGeometry) -> RasterGrid:
    """A copy of mask with the pixels under the roof segments' cells marked."""
    greened = mask.copy()
    if potential_roofs:
        _mark_green(greened, np.concatenate([segment_cell_centers(seg, roof_grid)
                                             for seg in potential_roofs]))
    return greened


def _mark_green(mask: RasterGrid, xy: np.ndarray) -> None:
    rows, cols = mask.cells_of(xy)
    inside = (rows >= 0) & (rows < mask.nrows) & (cols >= 0) & (cols < mask.ncols)
    mask.values[rows[inside], cols[inside]] = 1.0


# (query, mask row) pairs the coverage kernel handles per vectorized pass;
# a chunk holds whole queries, or a single query larger than this
COVERAGE_CHUNK_PAIRS = 1 << 14


def greenspace_coverage(mask: RasterGrid, x: float | np.ndarray, y: float | np.ndarray,
                        radius: float = GC_RADIUS_DEFAULT) -> float | np.ndarray:
    """Share of the disk around each (x, y) covered by green pixels.

    Counts mask pixels (value > 0) whose centers lie within the radius and
    multiplies by the pixel area over the disk area; pixels beyond the mask
    extent contribute zero, and the result is capped at 1. Scalar x, y give
    a float, arrays an array of their broadcast shape.

    Each (query, mask row) pair takes its count from row-wise prefix sums of
    the mask. The disk's column interval in that row starts from a sqrt
    estimate, and both ends are then settled with the exact test on pixel
    centers, ``dy**2 + dx**2 <= radius**2``, so pixels on the circle count
    exactly as a direct scan of the bounding window counts them.
    """
    if not radius > 0:
        raise ValueError("coverage radius must be positive")
    xq, yq = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape = xq.shape
    xq, yq = xq.ravel(), yq.ravel()
    if not (np.isfinite(xq).all() and np.isfinite(yq).all()):
        raise ValueError("coverage query points must be finite")
    cell, ox, oy = mask.cell, mask.origin_x, mask.origin_y
    nrows, ncols = mask.nrows, mask.ncols
    r2 = radius * radius
    # bounding window of each disk, clipped to the mask
    row_lo = np.clip(np.floor((yq - radius - oy) / cell), 0, nrows).astype(np.int64)
    row_hi = np.clip(np.floor((yq + radius - oy) / cell) + 1, row_lo, nrows).astype(np.int64)
    col_lo = np.clip(np.floor((xq - radius - ox) / cell), 0, ncols).astype(np.int64)
    col_hi = np.clip(np.floor((xq + radius - ox) / cell) + 1, col_lo, ncols).astype(np.int64)
    x_centers, y_centers = mask.x_centers(), mask.y_centers()
    # first window column whose center lies at or east of the query: left of
    # it the disk test can only turn from false to true, from it on only
    # from true to false
    split = np.clip(np.searchsorted(x_centers, xq), col_lo, col_hi)
    # the query's x in column units, column c's center at c
    u = (xq - ox) / cell - 0.5

    width = ncols + 1
    pref = np.zeros((nrows, width), dtype=np.int64)
    np.cumsum(mask.values > 0, axis=1, out=pref[:, 1:])
    pref = pref.ravel()
    n_pairs = row_hi - row_lo
    ends = np.cumsum(n_pairs)
    # pair k of the run of pairs from 0 is the one with mask row k + shift
    # of its query
    shift = row_lo - (ends - n_pairs)
    counts = np.zeros(xq.size)
    q0 = 0
    while q0 < xq.size:
        first = int(ends[q0] - n_pairs[q0])
        q1 = max(q0 + 1, int(np.searchsorted(ends, first + COVERAGE_CHUNK_PAIRS, side="right")))
        per_query = n_pairs[q0:q1]

        def pairs(values):
            """values of queries q0..q1-1, repeated once per pair of each"""
            return np.repeat(values[q0:q1], per_query)

        rows = np.arange(first, ends[q1 - 1]) + pairs(shift)
        dy2 = (y_centers[rows] - pairs(yq)) ** 2
        qx, lo, mid, hi = pairs(xq), pairs(col_lo), pairs(split), pairs(col_hi)

        def inside(i, c):
            # _first_true also tests columns lo - 1 and hi, which may lie
            # off the mask, at positions whose result it then drops
            return dy2[i] + (x_centers.take(c, mode="clip") - qx[i]) ** 2 <= r2

        half = np.sqrt(np.maximum(r2 - dy2, 0.0)) / cell
        qu = pairs(u)
        # [a, b) is the run of columns inside the disk
        a = np.clip(np.ceil(qu - half).astype(np.int64), lo, mid)
        b = np.clip(np.floor(qu + half).astype(np.int64) + 1, mid, hi)
        _first_true(a, inside, lo, mid)
        _first_true(b, lambda i, c: ~inside(i, c), mid, hi)
        row_start = rows * width
        counts[q0:q1] = np.bincount(np.repeat(np.arange(q1 - q0), per_query),
                                    weights=pref[row_start + b] - pref[row_start + a],
                                    minlength=q1 - q0)
        q0 = q1
    cov = np.minimum(1.0, counts * cell * cell / (math.pi * radius * radius))
    return float(cov[0]) if shape == () else cov.reshape(shape)


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


def building_coverage_rate(buildings: list[list[RoofSegment]], mask: RasterGrid,
                           roof_grid: RasterGrid | GridGeometry,
                           radius: float = GC_RADIUS_DEFAULT) -> list[float]:
    """Mean coverage over all cells of each building's segments together.

    buildings holds one list of segments per building; every cell of every
    building is one query of a single :func:`greenspace_coverage` call, and
    each rate is the mean of its building's run of the result.
    """
    centers = []
    for segments in buildings:
        if not segments:
            raise ValueError("building has no segments to evaluate")
        centers.append(np.concatenate([segment_cell_centers(seg, roof_grid)
                                       for seg in segments]))
    if not centers:
        return []
    xy = np.concatenate(centers)
    coverage = greenspace_coverage(mask, xy[:, 0], xy[:, 1], radius)
    runs = np.split(coverage, np.cumsum([len(c) for c in centers[:-1]]))
    return [float(np.mean(run)) for run in runs]


# ---------------------------------------------------------------------------
# scalar indicators
# ---------------------------------------------------------------------------

def distance_indicator(d: float, cap: float = ROAD_CAP_DEFAULT) -> float:
    """Demand from road proximity: 1 at the road, linear to 0 at the cap."""
    if d < 0:
        raise ValueError("distance must be non-negative")
    return max(0.0, 1.0 - d / cap)


def category_indicator(category: str) -> float:
    try:
        return CATEGORY_VALUES[category]
    except KeyError:
        raise ValueError(f"unknown building category {category!r}") from None


def sample_surface_at_building(surface: RasterGrid, building: BuildingAttributes,
                               cells: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Mean surface value over cells whose centers fall inside the footprint.

    Small footprints that trap no cell center fall back to the value at the
    centroid's cell. A centroid beyond the surface extent is an error.
    cells, when given, is ``cells_in_polygon`` of the footprint on a grid of
    the surface's geometry.
    """
    cx, cy = building.footprint.centroid()
    centroid_cell = surface.world_to_cell(cx, cy)
    if centroid_cell is None:
        raise ComputationError(
            f"building {building.id}: centroid ({cx:.1f}, {cy:.1f}) outside surface extent")
    if cells is None:
        cells = cells_in_polygon(surface, building.footprint)
    vals = surface.values[cells]
    vals = vals[np.isfinite(vals)]
    if vals.size:
        return float(np.mean(vals))
    v = surface.values[centroid_cell]
    if not np.isfinite(v):
        raise ComputationError(f"building {building.id}: no data at footprint")
    return float(v)


def combine_seasonal_temperature(t: tuple[float, float, float, float]) -> float:
    """Blend the four normalized seasonal temperatures into one indicator."""
    t1, t2, t3, t4 = t
    for v in (t1, t2, t3, t4):
        if not (0.0 <= v <= 1.0):
            raise ValueError("seasonal temperatures must be normalized to [0, 1]")
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


def normalize_indicators(raws: list[RawIndicators],
                         road_cap: float = ROAD_CAP_DEFAULT) -> dict[str, IndicatorVector]:
    """Scale raw indicators across the population into IndicatorVectors.

    Greenspace and income scale negatively (abundance lowers demand);
    seasonal temperatures scale positively per season before blending;
    precipitation scales positively. Road distance and category are already
    indicator-valued and pass through untouched.
    """
    if not raws:
        return {}
    greens = minmax_scale(np.array([r.greenspace for r in raws]), positive=False)
    incomes = minmax_scale(np.array([r.income for r in raws]), positive=False)
    precips = minmax_scale(np.array([r.precipitation for r in raws]), positive=True)
    temps = np.array([r.seasonal_temps for r in raws])
    temps_n = np.column_stack([minmax_scale(temps[:, i], positive=True) for i in range(4)])
    out = {}
    for i, r in enumerate(raws):
        out[r.building_id] = IndicatorVector(
            greenspace=float(greens[i]),
            road_distance=distance_indicator(r.road_distance_m, road_cap),
            category=category_indicator(r.category),
            income=float(incomes[i]),
            temperature=combine_seasonal_temperature(tuple(temps_n[i])),
            precipitation=float(precips[i]),
        )
    return out


# ---------------------------------------------------------------------------
# per-building measurement
# ---------------------------------------------------------------------------

def measure_building(building: BuildingAttributes, greenspace: float,
                     roads: list[Polyline],
                     income: RasterGrid, temps: dict[str, RasterGrid],
                     precip: RasterGrid, road_class: str = "main") -> RawIndicators:
    """Collect all raw indicator inputs for one building.

    greenspace is the building's roof coverage rate, from
    :func:`building_coverage_rate`. The footprint's cells are looked up
    once per distinct grid geometry among the six surfaces (the seasonal
    rasters share one, the kriged surfaces another).
    """
    cx, cy = building.footprint.centroid()
    looked_up: list[tuple[RasterGrid, tuple[np.ndarray, np.ndarray]]] = []

    def sample(surface):
        cells = next((c for g, c in looked_up if g.same_geometry(surface)), None)
        if cells is None:
            cells = cells_in_polygon(surface, building.footprint)
            looked_up.append((surface, cells))
        return sample_surface_at_building(surface, building, cells)

    return RawIndicators(
        building_id=building.id,
        greenspace=greenspace,
        road_distance_m=distance_to_polylines(cx, cy, roads, tag=road_class),
        category=building.category,
        income=sample(income),
        seasonal_temps=tuple(sample(temps[s]) for s in SEASONS),
        precipitation=sample(precip),
    )
