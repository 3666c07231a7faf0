"""Deterministic synthetic city used by the test suite and demos.

The generator lays buildings on a parcel grid inside a square domain and
emits every input the pipeline consumes: a classified point cloud,
footprints, roads, income and rainfall stations, seasonal temperature
rasters with cloud gaps, per-building population counts, and a ground-truth
table of each building's true slope, greenable area, and screening verdict.
Everything is a pure function of the seed, so a rerun writes byte-identical
files.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .config import default_config_text
from .geocore import (
    BUILDING,
    GROUND,
    VEGETATION,
    PointCloud,
    Polygon,
    Polyline,
    RasterGrid,
)
from .ingest import (
    FLAGS,
    BuildingAttributes,
    f6,
    flag,
    read_table,
    write_footprints,
    write_point_cloud,
    write_raster_asc,
    write_roads,
    write_table,
    write_xy_value,
)

ROOF_TYPES = ("flat", "gabled", "stepped", "small")
TYPE_SHARES = {"flat": 0.45, "gabled": 0.30, "stepped": 0.15, "small": 0.10}


# The scene sides the command line accepts, in metres: the fixed road layout
# reaches 1150 m, and 4800 m, 16 times the default area, is the largest
# scene the pipeline has been measured on.
DOMAIN_RANGE_M = (1200.0, 4800.0)


@dataclass(frozen=True)
class SyntheticCitySpec:
    seed: int = 42
    n_buildings: int = 60
    domain_m: float = 1200.0
    parcel_m: float = 100.0
    old_share: float = 0.15
    temp_cell_m: float = 30.0

    @property
    def max_buildings(self) -> int:
        """The number of parcels; each holds at most one building."""
        return int(self.domain_m / self.parcel_m) ** 2


@dataclass(frozen=True)
class GroundTruth:
    building_id: str
    roof_type: str
    age_years: int
    category: str
    true_slope_deg: float
    true_greenable_m2: float
    true_height_m: float
    potential: bool


# the columns of groundtruth.csv, one per GroundTruth field in order, each
# with the type read_ground_truth parses it with
GROUND_TRUTH_COLUMNS = {
    "id": str, "roof_type": str, "age_years": int, "category": str,
    "true_slope_deg": float, "true_greenable_m2": float, "true_height_m": float,
    "potential": flag}


def _roads(domain):
    return [
        Polyline([[0.0, 100.0], [domain, 100.0]], "main"),
        Polyline([[900.0, 0.0], [900.0, domain]], "main"),
        Polyline([[0.0, 650.0], [domain, 650.0]], "minor"),
        Polyline([[300.0, 0.0], [300.0, domain]], "minor"),
        Polyline([[0.0, 1150.0], [domain, 1150.0]], "minor"),
    ]


def _type_counts(n):
    counts = {
        "flat": round(TYPE_SHARES["flat"] * n),
        "gabled": round(TYPE_SHARES["gabled"] * n),
        "stepped": round(TYPE_SHARES["stepped"] * n),
    }
    counts["small"] = n - sum(counts.values())
    return counts


def _roof_samples(x0, y0, w, length, z_of):
    """4 points per 1 m cell at the quarter offsets, z from z_of(x, y)."""
    xs = (x0 + np.arange(w)[:, None] + np.array([0.25, 0.75])).ravel()
    ys = (y0 + np.arange(length)[:, None] + np.array([0.25, 0.75])).ravel()
    X, Y = np.meshgrid(xs, ys)
    Z = z_of(X, Y)
    return np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])


def _wall_samples(x0, y0, w, length, top_z):
    """Facade returns just inside the footprint edges, below the roof."""
    inset = 0.1
    xs = x0 + 0.5 + np.arange(w)
    ys = y0 + 0.5 + np.arange(length)
    px, py = [], []
    px.extend(xs); py.extend([y0 + inset] * w)
    px.extend(xs); py.extend([y0 + length - inset] * w)
    py.extend(ys); px.extend([x0 + inset] * length)
    py.extend(ys); px.extend([x0 + w - inset] * length)
    px = np.asarray(px)
    py = np.asarray(py)
    levels = [1.0, max(1.5, top_z - 1.5)]
    pts = [np.column_stack([px, py, np.full(px.shape, z)]) for z in levels]
    return np.vstack(pts)


def _cell_max_grid(roof_type, w, length, params):
    """The per-cell maximum roof elevation the emitted samples produce."""
    cols = np.arange(w)
    if roof_type in ("flat", "small"):
        col_max = np.full(w, params["z"])
    elif roof_type == "gabled":
        ridge = params["ridge_offset"]  # in local cell units from x0
        near = np.minimum(np.abs(cols + 0.25 - ridge), np.abs(cols + 0.75 - ridge))
        col_max = params["z_ridge"] - math.tan(math.radians(params["pitch"])) * near
    else:  # stepped: handled per row below
        col_max = None
    if col_max is not None:
        return np.tile(col_max, (length, 1))
    half = length // 2
    grid = np.empty((length, w))
    grid[:half, :] = params["z_lo"]
    grid[half:, :] = params["z_hi"]
    return grid


def _building_geometry(rng, roof_type, parcel_x, parcel_y, parcel_m):
    if roof_type == "small":
        w = length = 3
    elif roof_type == "gabled":
        w = 2 * int(rng.integers(7, 14))
        length = int(rng.integers(14, 29))
    elif roof_type == "stepped":
        w = int(rng.integers(12, 27))
        length = 2 * int(rng.integers(8, 15))
    else:
        w = int(rng.integers(12, 29))
        length = int(rng.integers(12, 29))
    margin = 8
    ox = int(rng.integers(margin, int(parcel_m) - margin - w + 1))
    oy = int(rng.integers(margin, int(parcel_m) - margin - length + 1))
    return float(parcel_x + ox), float(parcel_y + oy), w, length


def _roof_params(rng, roof_type, w, steep):
    if roof_type in ("flat", "small"):
        return {"z": float(rng.uniform(6.0, 45.0))}
    if roof_type == "gabled":
        pitch = float(rng.uniform(17.0, 28.0)) if steep else float(rng.uniform(6.0, 12.0))
        eave = float(rng.uniform(6.0, 30.0))
        half = w // 2
        return {
            "pitch": pitch,
            "ridge_offset": float(half),
            "z_ridge": eave + math.tan(math.radians(pitch)) * half,
            "z_eave": eave,
        }
    z_lo = float(rng.uniform(6.0, 30.0))
    return {"z_lo": z_lo, "z_hi": z_lo + float(rng.uniform(3.0, 6.0))}


def _roof_z_function(roof_type, x0, y0, length, params):
    if roof_type in ("flat", "small"):
        return lambda X, Y: np.full(X.shape, params["z"])
    if roof_type == "gabled":
        ridge_x = x0 + params["ridge_offset"]
        slope = math.tan(math.radians(params["pitch"]))
        return lambda X, Y: params["z_ridge"] - slope * np.abs(X - ridge_x)
    y_mid = y0 + length // 2
    return lambda X, Y: np.where(Y < y_mid, params["z_lo"], params["z_hi"])


def _ground_truth(bid, roof_type, age, category, w, length, params, age_max=60):
    if roof_type == "small":
        slope, greenable = 0.0, 0.0  # 9 m2 roof fails the area gate
    elif roof_type == "flat":
        slope, greenable = 0.0, float(w * length)
    elif roof_type == "gabled":
        slope = params["pitch"]
        greenable = float(w * length) if slope < 15.0 else 0.0
    else:
        # the wall filter eats one cell row on each side of the step
        slope, greenable = 0.0, float((length - 2) * w)
    cell_max = _cell_max_grid(roof_type, w, length, params)
    height = float(np.median(cell_max))
    potential = age <= age_max and greenable > 0.0
    return GroundTruth(bid, roof_type, age, category, slope, greenable,
                       height, potential)


def _vegetation(rng, spec, rects):
    n_patches = max(6, spec.n_buildings // 4)
    boxes = np.array(rects, dtype=float).reshape(-1, 4)
    pts = []
    for _ in range(n_patches):
        # denser greenery on the west side, where the income field is low,
        # so the equity regression has a real signal to recover
        cx = 30.0 + (spec.domain_m - 60.0) * float(rng.beta(1.2, 2.6))
        cy = float(rng.uniform(30.0, spec.domain_m - 30.0))
        radius = float(rng.uniform(15.0, 40.0))
        lo_x = math.ceil((cx - radius) / 2.0) * 2.0
        lo_y = math.ceil((cy - radius) / 2.0) * 2.0
        xs = np.arange(lo_x, cx + radius + 1e-9, 2.0)
        ys = np.arange(lo_y, cy + radius + 1e-9, 2.0)
        X, Y = np.meshgrid(xs, ys)
        keep = (X - cx) ** 2 + (Y - cy) ** 2 <= radius ** 2
        X, Y = X[keep], Y[keep]
        inside_domain = (X >= 0) & (X <= spec.domain_m) & (Y >= 0) & (Y <= spec.domain_m)
        X, Y = X[inside_domain], Y[inside_domain]
        clear = np.ones(X.shape, dtype=bool)
        # a building holds none of the points unless its box meets theirs
        near = ((boxes[:, 0] <= X.max(initial=-np.inf)) & (boxes[:, 2] >= X.min(initial=np.inf))
                & (boxes[:, 1] <= Y.max(initial=-np.inf)) & (boxes[:, 3] >= Y.min(initial=np.inf)))
        for (x0, y0, x1, y1) in boxes[near].tolist():
            clear &= ~((X >= x0) & (X <= x1) & (Y >= y0) & (Y <= y1))
        X, Y = X[clear], Y[clear]
        Z = rng.uniform(2.0, 8.0, X.shape[0])
        if X.shape[0]:
            pts.append(np.column_stack([X, Y, Z]))
    return np.vstack(pts) if pts else np.empty((0, 3))


def _stations(rng, grid_n, spacing, offset, jitter, field, noise_sd):
    coords = []
    for i in range(grid_n):
        for j in range(grid_n):
            if grid_n == 5 and i == 2 and j == 2:
                continue  # drop the center so the count is 24
            coords.append((offset + j * spacing, offset + i * spacing))
    coords = np.asarray(coords, dtype=float)
    coords += rng.uniform(-jitter, jitter, coords.shape)
    values = field(coords[:, 0], coords[:, 1]) + rng.normal(0.0, noise_sd, len(coords))
    return np.column_stack([coords, values])


def _income_field(x, y):
    return 20000.0 + 22000.0 * x / 1200.0 + 9000.0 * np.sin(math.pi * y / 1200.0)


def _precip_field(x, y):
    return 1750.0 + 650.0 * y / 1200.0 + 280.0 * np.sin(2.0 * math.pi * x / 1200.0)


_TEMP_FIELDS = {
    "spring": lambda x, y: 21.0 + 2.5 * x / 1200.0 + 1.5 * y / 1200.0,
    "summer": lambda x, y: 30.0 + 3.0 * x / 1200.0 + 2.0 * np.sin(math.pi * y / 1200.0),
    "autumn": lambda x, y: 26.0 + 2.8 * x / 1200.0 + 1.2 * y / 1200.0,
    "winter": lambda x, y: 15.0 + 2.0 * x / 1200.0 + 1.0 * np.sin(math.pi * x / 1200.0),
}


def _temperature_rasters(rng, spec):
    n = int(round(spec.domain_m / spec.temp_cell_m))
    xs = (np.arange(n) + 0.5) * spec.temp_cell_m
    X, Y = np.meshgrid(xs, xs)
    rasters = {}
    for season in ("spring", "summer", "autumn", "winter"):
        vals = _TEMP_FIELDS[season](X, Y) + rng.normal(0.0, 0.15, (n, n))
        if season == "summer":
            cx = float(rng.uniform(200.0, spec.domain_m - 200.0))
            cy = float(rng.uniform(200.0, spec.domain_m - 200.0))
            radius = float(rng.uniform(100.0, 180.0))
            vals[(X - cx) ** 2 + (Y - cy) ** 2 <= radius ** 2] = np.nan
        elif season == "autumn":
            r0 = int(rng.integers(5, n - 10))
            c0 = int(rng.integers(0, n - 18))
            vals[r0:r0 + 5, c0:c0 + 18] = np.nan
        rasters[season] = RasterGrid(0.0, 0.0, spec.temp_cell_m, vals)
    return rasters


def generate_city(spec, out_dir):
    """Write the full dataset into out_dir and return the ground truth.

    Raises ValueError, before anything is written, when spec.n_buildings is
    not from 0 to spec.max_buildings.
    """
    if not 0 <= spec.n_buildings <= spec.max_buildings:
        raise ValueError(f"n_buildings must be from 0 to {spec.max_buildings} "
                         f"(one per parcel), got {spec.n_buildings}")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    n_parcels = int(spec.domain_m / spec.parcel_m)

    parcel_ids = np.sort(rng.choice(spec.max_buildings, size=spec.n_buildings,
                                    replace=False)) if spec.n_buildings else np.array([], dtype=int)
    counts = _type_counts(spec.n_buildings)
    type_list = [t for t in ROOF_TYPES for _ in range(counts[t])]
    types = [type_list[i] for i in rng.permutation(spec.n_buildings)] if spec.n_buildings else []

    buildings = []
    truths = []
    rects = []
    population = []
    cloud_chunks = []
    gabled_seen = 0

    for i, parcel in enumerate(parcel_ids):
        bid = f"b{i + 1:03d}"
        roof_type = types[i]
        pr, pcol = int(parcel) // n_parcels, int(parcel) % n_parcels
        x0, y0, w, length = _building_geometry(
            rng, roof_type, pcol * spec.parcel_m, pr * spec.parcel_m, spec.parcel_m)
        steep = False
        if roof_type == "gabled":
            steep = gabled_seen % 3 == 2
            gabled_seen += 1
        params = _roof_params(rng, roof_type, w, steep)
        old = rng.random() < spec.old_share
        age = int(rng.integers(61, 95)) if old else int(rng.integers(3, 61))
        category = ("private", "public", "misc")[int(rng.choice(3, p=(0.5, 0.25, 0.25)))]
        population.append((x0 + w / 2.0, y0 + length / 2.0, float(rng.integers(20, 400))))

        footprint = Polygon([[x0, y0], [x0 + w, y0], [x0 + w, y0 + length],
                             [x0, y0 + length], [x0, y0]])
        buildings.append(BuildingAttributes(bid, age, category, footprint))
        rects.append((x0, y0, x0 + w, y0 + length))
        truths.append(_ground_truth(bid, roof_type, age, category, w, length, params))

        z_of = _roof_z_function(roof_type, x0, y0, length, params)
        roof = _roof_samples(x0, y0, w, length, z_of)
        base_z = params.get("z_eave", params.get("z_lo", params.get("z", 10.0)))
        walls = _wall_samples(x0, y0, w, length, base_z)
        cloud_chunks.append((np.vstack([roof, walls]), BUILDING))

    # bare terrain on a 10 m lattice at elevation zero
    gs = np.arange(0.0, spec.domain_m + 1e-9, 10.0)
    GX, GY = np.meshgrid(gs, gs)
    ground = np.column_stack([GX.ravel(), GY.ravel(), np.zeros(GX.size)])
    veg = _vegetation(rng, spec, rects)

    xyz = np.vstack([ground] + [c for c, _ in cloud_chunks] + ([veg] if len(veg) else []))
    cls = np.concatenate(
        [np.full(len(ground), GROUND, dtype=np.uint8)]
        + [np.full(len(c), BUILDING, dtype=np.uint8) for c, _ in cloud_chunks]
        + ([np.full(len(veg), VEGETATION, dtype=np.uint8)] if len(veg) else []))
    pc = PointCloud(xyz, cls)

    income = _stations(rng, 5, 240.0, 120.0, 30.0, _income_field, 800.0)
    precip = _stations(rng, 4, 300.0, 150.0, 40.0, _precip_field, 40.0)
    temps = _temperature_rasters(rng, spec)

    paths = {}
    write_point_cloud(pc, os.path.join(out_dir, "points.csv"))
    paths["points"] = "points.csv"
    write_footprints(buildings, os.path.join(out_dir, "footprints.geojson"))
    paths["footprints"] = "footprints.geojson"
    write_roads(_roads(spec.domain_m), os.path.join(out_dir, "roads.geojson"))
    paths["roads"] = "roads.geojson"
    write_xy_value(income, os.path.join(out_dir, "income_stations.csv"),
                   header="x,y,income_hkd")
    paths["income_stations"] = "income_stations.csv"
    write_xy_value(precip, os.path.join(out_dir, "precip_stations.csv"),
                   header="x,y,precip_mm")
    paths["precip_stations"] = "precip_stations.csv"
    write_xy_value(np.asarray(population) if population else np.empty((0, 3)),
                   os.path.join(out_dir, "population.csv"), header="x,y,count")
    paths["population"] = "population.csv"
    for season, grid in temps.items():
        name = f"temp_{season}.asc"
        write_raster_asc(grid, os.path.join(out_dir, name))
        paths[f"temp_{season}"] = name

    write_table(os.path.join(out_dir, "groundtruth.csv"), GROUND_TRUTH_COLUMNS, [
        [t.building_id, t.roof_type, str(t.age_years), t.category, f6(t.true_slope_deg),
         f6(t.true_greenable_m2), f6(t.true_height_m), FLAGS[t.potential]]
        for t in truths])

    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(default_config_text(paths))

    return truths


def read_ground_truth(path):
    """Load groundtruth.csv back into GroundTruth records; a value that does
    not parse raises FormatError naming the line and the column."""
    table = read_table(path, GROUND_TRUTH_COLUMNS)
    return [GroundTruth(*values) for values in zip(*table.values())]
