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

def build_greenspace_mask(pc: PointCloud, potential_roofs: list[RoofSegment] | None = None,
                          cell: float = MASK_CELL_DEFAULT,
                          roof_grid: RasterGrid | GridGeometry | None = None) -> RasterGrid:
    """Binary plan-view map of green pixels.

    Baseline mode (no segments) marks pixels containing vegetation points.
    Greened mode additionally marks pixels under the given roof segments,
    which requires the surface-model grid to place their cells. The mask
    is the :func:`snapped_grid` of the whole cloud either way.
    """
    if potential_roofs and roof_grid is None:
        raise ValueError("greened mode needs the roof grid for georeferencing")
    mask = snapped_grid(pc.xyz, cell)
    green = [pc.points_of(VEGETATION)]
    green += [segment_cell_centers(seg, roof_grid) for seg in potential_roofs or []]
    for xy in green:
        rows, cols = mask.cells_of(xy)
        inside = (rows >= 0) & (rows < mask.nrows) & (cols >= 0) & (cols < mask.ncols)
        mask.values[rows[inside], cols[inside]] = 1.0
    return mask


# (query, mask row) pairs the coverage kernel handles per vectorized pass
COVERAGE_CHUNK_PAIRS = 1 << 16


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
    # first window column whose center lies at or east of the query: left of
    # it the disk test can only turn from false to true, from it on only
    # from true to false
    split = np.clip(np.searchsorted(mask.x_centers(), xq), col_lo, col_hi)

    pref = np.zeros((nrows, ncols + 1), dtype=np.int64)
    np.cumsum(mask.values > 0, axis=1, out=pref[:, 1:])
    starts = np.concatenate(([0], np.cumsum(row_hi - row_lo)))
    counts = np.zeros(xq.size)
    for k0 in range(0, int(starts[-1]), COVERAGE_CHUNK_PAIRS):
        k = np.arange(k0, min(k0 + COVERAGE_CHUNK_PAIRS, int(starts[-1])))
        q = np.searchsorted(starts, k, side="right") - 1
        rows = row_lo[q] + (k - starts[q])
        dy2 = (oy + (rows + 0.5) * cell - yq[q]) ** 2
        qx, mid = xq[q], split[q]

        def inside(i, c):
            return dy2[i] + (ox + (c + 0.5) * cell - qx[i]) ** 2 <= r2

        half = np.sqrt(np.maximum(r2 - dy2, 0.0)) / cell
        u = (qx - ox) / cell - 0.5
        # [a, b) is the run of columns inside the disk
        a = np.clip(np.ceil(u - half).astype(np.int64), col_lo[q], mid)
        b = np.clip(np.floor(u + half).astype(np.int64) + 1, mid, col_hi[q])
        _first_true(a, inside, col_lo[q], mid)
        _first_true(b, lambda i, c: ~inside(i, c), mid, col_hi[q])
        counts += np.bincount(q, weights=pref[rows, b] - pref[rows, a], minlength=xq.size)
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


def building_coverage_rate(segments: list[RoofSegment], mask: RasterGrid,
                           roof_grid: RasterGrid | GridGeometry,
                           radius: float = GC_RADIUS_DEFAULT) -> float:
    """Mean coverage over all cells of the building's segments together."""
    if not segments:
        raise ValueError("building has no segments to evaluate")
    centers = np.concatenate([segment_cell_centers(seg, roof_grid) for seg in segments])
    return float(np.mean(greenspace_coverage(mask, centers[:, 0], centers[:, 1], radius)))


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

def measure_building(building: BuildingAttributes, segments: list[RoofSegment],
                     mask: RasterGrid, roof_grid: RasterGrid | GridGeometry,
                     roads: list[Polyline],
                     income: RasterGrid, temps: dict[str, RasterGrid],
                     precip: RasterGrid, radius: float = GC_RADIUS_DEFAULT,
                     road_class: str = "main") -> RawIndicators:
    """Collect all raw indicator inputs for one building.

    The footprint's cells are looked up once per distinct grid geometry
    among the six surfaces (the seasonal rasters share one, the kriged
    surfaces another).
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
        greenspace=building_coverage_rate(segments, mask, roof_grid, radius),
        road_distance_m=distance_to_polylines(cx, cy, roads, tag=road_class),
        category=building.category,
        income=sample(income),
        seasonal_temps=tuple(sample(temps[s]) for s in SEASONS),
        precipitation=sample(precip),
    )

