"""Command-line pipeline: synth, extract, indicators, prioritize, benefits, report.

Each subcommand reads the previous stage's files from the output directory
and writes its own, so every step can be rerun or inspected on its own.
All outputs use fixed formatting and ordering: rerunning a stage with
unchanged inputs reproduces its files byte for byte.
"""

import argparse
import functools
import math
import os
import sys
from collections import namedtuple
from dataclasses import asdict
from itertools import compress
from operator import ne, or_

import numpy as np

from .benefits import (
    assemble_report,
    greenspace_exposure,
    income_greenspace_regression,
    population_grid_from_points,
)
from .config import ConfigError, load_config
from .geocore import ComputationError, GeometryError, snapped_grid
from .indicators import (
    SEASONS,
    SHORT_NAMES,
    build_greenspace_mask,
    building_coverage_rate,
    greened_mask,
    measure_buildings,
    normalize_indicators,
)
from .ingest import (
    FLAGS,
    FormatError,
    f6,
    flag,
    optional_float,
    polygon_geometry,
    read_footprints,
    read_point_cloud,
    read_raster_asc,
    read_raster_geometry,
    read_roads,
    read_table,
    read_xy_value,
    write_features,
    write_raster_asc,
    write_table,
)
from .interp import SampleSet, fill_raster_nodata, interpolate_grid
from .priority import (
    WEIGHT_SCHEMES,
    compute_weights,
    priority_summary,
    rank_buildings,
)
from .roofs import extract_all
from .synth import DOMAIN_RANGE_M, SyntheticCitySpec, generate_city

IND_COLUMNS = tuple("ind_" + short for short in SHORT_NAMES)
WEIGHT_COLUMNS = tuple("w_" + short for short in SHORT_NAMES)
# the per-building values of the final report, after its id and potential
REPORT_VALUES = ("roof_area_m2", "slope_deg", "height_m") + IND_COLUMNS + ("priority",)

Table = namedtuple("Table", "stage columns")

# Every CSV a stage writes: the stage that writes it, and its columns in
# file order, each with the type a reader parses it with.
TABLES = {
    "segments.csv": Table("extract", {
        "building_id": str, "seg_id": str, "qualifying": flag, "slope_deg": float,
        "area_m2": float, "n_cells": int, "plane_a": float, "plane_b": float,
        "plane_c": float}),
    "cells.csv": Table("extract", {"building_id": str, "seg_id": str, "row": int, "col": int}),
    "buildings.csv": Table("extract", {
        "id": str, "potential": flag, "reasons": str, "greenable_m2": float,
        "height_m": float, "age_years": int, "category": str}),
    "indicators.csv": Table("indicators", {
        "id": str, "gc_raw": float, "road_dist_m": float, "category": str,
        "income_raw": float, **{f"temp_{season}_raw": float for season in SEASONS},
        "precip_raw": float, **dict.fromkeys(IND_COLUMNS, float)}),
    "weights.csv": Table("prioritize", {
        "scheme": str, "active": flag, **dict.fromkeys(WEIGHT_COLUMNS, float)}),
    "priorities.csv": Table("prioritize", {
        "id": str, **{f"p_{scheme}": float for scheme in WEIGHT_SCHEMES},
        "priority": float, "rank": int, "percentile": float}),
    "benefits.csv": Table("benefits", {"metric": str, "value": float, "unit": str}),
    "regression.csv": Table("benefits", {
        "slope": float, "intercept": float, "pearson_r": float, "p_value": float, "n": int}),
    "buildings_report.csv": Table("report", {
        "id": str, "potential": flag, **dict.fromkeys(REPORT_VALUES, optional_float)}),
}

# The rows of benefits.csv in file order: each metric and its unit. All but
# the first are the fields of benefits.BenefitReport.
BENEFIT_METRICS = (
    ("potential_buildings", "count"),
    ("greenable_area_m2", "m2"),
    ("exposure_baseline", "fraction"),
    ("exposure_greened", "fraction"),
    ("carbon_direct_kg", "kg_per_yr"),
    ("energy_joules", "J_per_yr"),
    ("energy_kwh", "kWh_per_yr"),
    ("carbon_indirect_kg", "kg_per_yr"),
    ("carbon_total_kg", "kg_per_yr"),
    ("value_energy_hkd", "HKD_per_yr"),
    ("value_carbon_hkd", "HKD_per_yr"),
    ("value_total_hkd", "HKD_per_yr"),
)

# Reference values reported by the Hong Kong 2021 citywide study the method
# follows; shown in report.md for orientation only, since a synthetic
# desk-scale scene cannot reproduce citywide magnitudes.
HK_REFERENCE = (
    ("share of buildings with potential", "85.3 %"),
    ("greenable roof area", "63.9 km2"),
    ("greenspace exposure, baseline", "35.3 %"),
    ("greenspace exposure, greened", "56.7 %"),
    ("direct carbon uptake", "93,000 t/yr"),
    ("indirect carbon reduction", "183,000 t/yr"),
    ("total carbon reduction", "276,000 t/yr (about 0.8 % of 34.7 Mt)"),
    ("cooling energy saved", "2.33e8 kWh/yr"),
    ("total money value", "HK$318 million/yr"),
    ("income versus greenspace", "r = -0.25, p < 0.001"),
)


def _out_path(cfg, name):
    return os.path.join(cfg.out_dir, name)


def _artifact(cfg, name, prior):
    path = _out_path(cfg, name)
    if not os.path.isfile(path):
        raise ConfigError(
            f"missing artifact {path}: run the {prior} subcommand first")
    return path


def _read_table(cfg, name):
    """The columns of the stage table name; a missing file names the stage to
    run."""
    table = TABLES[name]
    return read_table(_artifact(cfg, name, table.stage), table.columns)


def _write_table(cfg, name, rows):
    write_table(_out_path(cfg, name), TABLES[name].columns, rows)


def _write_surface(grid, path):
    """Write a kriged surface at f6's 6 decimals, not repr.

    Its last bits come from the variogram fit and the kriging solves,
    which differ between machines; no stage reads the file back.
    """
    write_raster_asc(grid, path, decimals=6)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args):
    low, high = DOMAIN_RANGE_M
    if not low <= args.domain_m <= high:
        raise ValueError(f"--domain-m must be from {low:g} to {high:g} m (the road layout "
                         f"reaches 1150 m), got {args.domain_m:g}")
    spec = SyntheticCitySpec(seed=args.seed, n_buildings=args.buildings,
                             domain_m=args.domain_m)
    if not 0 <= spec.n_buildings <= spec.max_buildings:
        raise ValueError(f"--buildings must be from 0 to {spec.max_buildings} "
                         f"(one per parcel), got {spec.n_buildings}")
    truths = generate_city(spec, args.out)
    n_pot = sum(1 for t in truths if t.potential)
    print(f"synth: wrote {len(truths)} buildings ({n_pot} with potential) "
          f"and supporting layers to {args.out}")
    print(f"synth: run the pipeline with --config {os.path.join(args.out, 'config.txt')}")
    return 0


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def cmd_extract(cfg):
    cfg.require("points", "footprints")
    pc = read_point_cloud(cfg.points)
    buildings = read_footprints(cfg.footprints)
    extraction = extract_all(pc, buildings, cfg.roof_params())
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_raster_asc(extraction.dsm, _out_path(cfg, "dsm.asc"))

    th = cfg.thresholds()
    ordered = sorted(extraction.segments, key=lambda s: (s.building_id, s.seg_id))
    seg_rows = []
    for seg in ordered:
        a, b, c = seg.plane
        seg_rows.append([seg.building_id, seg.seg_id, FLAGS[th.qualifies(seg)],
                         f6(seg.slope_deg), f6(seg.area_m2),
                         str(len(seg.cells)), f6(a), f6(b), f6(c)])
    _write_table(cfg, "segments.csv", seg_rows)
    _write_table(cfg, "cells.csv", _cell_rows(ordered))

    b_rows = []
    for b in sorted(buildings, key=lambda b: b.id):
        dec = extraction.decisions[b.id]
        b_rows.append([b.id, FLAGS[bool(dec.potential)],
                       "|".join(sorted(dec.reasons)),
                       f6(dec.greenable_m2), f6(extraction.heights[b.id]),
                       str(b.age_years), b.category])
    _write_table(cfg, "buildings.csv", b_rows)

    for reason in extraction.height_fallbacks.values():
        print(f"warning: {reason}; height_m set to 0", file=sys.stderr)
    n_pot = sum(1 for d in extraction.decisions.values() if d.potential)
    greenable = sum(d.greenable_m2 for d in extraction.decisions.values()
                    if d.potential)
    share = 100.0 * n_pot / len(buildings) if buildings else 0.0
    print(f"extract: {n_pot}/{len(buildings)} buildings with potential "
          f"({share:.1f} %), greenable roof area {greenable:.1f} m2")
    return 0


def _cell_rows(segments):
    """The rows of cells.csv for segments, one per segment: a single field
    that holds all of its lines, as write_table writes a row, without the
    last line end. Only the cells go through a %-format; the ids are put
    in front of each line as they are, so a % in an id stays a %."""
    rows = []
    for seg in segments:
        if not seg.cells.size:
            continue
        prefix = seg.building_id + "," + seg.seg_id + ","
        lines = "%d,%d\n" * len(seg.cells) % tuple(seg.cells.ravel().tolist())
        rows.append([prefix + lines[:-1].replace("\n", "\n" + prefix)])
    return rows


# ---------------------------------------------------------------------------
# indicators
# ---------------------------------------------------------------------------

def _cells_by_segment(path, grid):
    """The (m, 2) int64 (row, col) cells of each (building_id, seg_id) in a
    cells.csv, in file order; every cell must lie on the surface-model grid."""
    table = read_table(path, TABLES["cells.csv"].columns)
    bids, sids, rows, cols = table.values()
    if not bids:
        return {}
    # Python ints, so that one past the int64 range is off the grid too
    if not (0 <= min(rows) and max(rows) < grid.nrows
            and 0 <= min(cols) and max(cols) < grid.ncols):
        i = next(i for i, (r, c) in enumerate(zip(rows, cols))
                 if not (0 <= r < grid.nrows and 0 <= c < grid.ncols))
        raise FormatError(
            f"{path}: segment ({bids[i]}, {sids[i]}) has cell ({rows[i]}, {cols[i]}), "
            f"outside the {grid.nrows} x {grid.ncols} grid of dsm.asc")
    cells = np.array((rows, cols), dtype=np.int64).T
    # a segment's rows come in runs, which start where either key changes
    starts = [0, *compress(range(1, len(bids)),
                           map(or_, map(ne, bids[1:], bids), map(ne, sids[1:], sids))), len(bids)]
    runs = {}
    for start, stop in zip(starts, starts[1:]):
        runs.setdefault((bids[start], sids[start]), []).append(cells[start:stop])
    return {key: parts[0] if len(parts) == 1 else np.concatenate(parts)
            for key, parts in runs.items()}


def _load_roof_cells(cfg, grid):
    """The cells of each building's qualifying segments, as one (m, 2) int64
    (row, col) array in segments.csv order, from the extract stage's
    tables; every segment has cells, and every cell a segment."""
    segs = _read_table(cfg, "segments.csv")
    cells_path = _artifact(cfg, "cells.csv", "extract")
    cells_by_seg = _cells_by_segment(cells_path, grid)
    keys = list(zip(segs["building_id"], segs["seg_id"]))
    for key in keys:
        if key not in cells_by_seg:
            raise FormatError(f"{cells_path}: segment ({key[0]}, {key[1]}) has no cells")
    known = set(keys)
    for key in cells_by_seg:
        if key not in known:
            raise FormatError(
                f"{cells_path}: segment ({key[0]}, {key[1]}) is not in segments.csv")
    qualifying = {}
    for key in compress(keys, segs["qualifying"]):
        qualifying.setdefault(key[0], []).append(cells_by_seg[key])
    return {bid: np.concatenate(parts) for bid, parts in qualifying.items()}


def _station_surface(path, template):
    """The stations of one x,y,value file interpolated onto the template; a
    well-formed file that cannot be kriged names itself in the error."""
    samples = SampleSet.from_points(read_xy_value(path))
    try:
        return interpolate_grid(samples, template)
    except ComputationError as exc:
        raise ComputationError(f"{path}: {exc}") from None


def cmd_indicators(cfg):
    cfg.require("points", "footprints", "roads", "income_stations",
                "precip_stations", "temp_spring", "temp_summer",
                "temp_autumn", "temp_winter")
    # only the header: roof cells are placed by its origin and cell size
    dsm = read_raster_geometry(_artifact(cfg, "dsm.asc", "extract"))
    roof_cells = _load_roof_cells(cfg, dsm)
    buildings_table = _read_table(cfg, "buildings.csv")
    potential_ids = sorted(compress(buildings_table["id"], buildings_table["potential"]))

    pc = read_point_cloud(cfg.points)
    buildings = {b.id: b for b in read_footprints(cfg.footprints)}
    missing = next((bid for bid in potential_ids if bid not in buildings), None)
    if missing is not None:
        raise FormatError(f"{_out_path(cfg, 'buildings.csv')}: potential building "
                          f"{missing!r} has no feature in {cfg.footprints}")
    roads = read_roads(cfg.roads)

    mask_base = build_greenspace_mask(pc, cell=cfg.mask_cell)
    mask_green = greened_mask(mask_base, [roof_cells[bid] for bid in potential_ids
                                          if bid in roof_cells], dsm)
    write_raster_asc(mask_base, _out_path(cfg, "greenspace_base.asc"))
    write_raster_asc(mask_green, _out_path(cfg, "greenspace_greened.asc"))

    template = snapped_grid(pc.xyz, cfg.interp_cell)
    income_surface = _station_surface(cfg.income_stations, template)
    precip_surface = _station_surface(cfg.precip_stations, template)
    _write_surface(income_surface, _out_path(cfg, "income_surface.asc"))
    _write_surface(precip_surface, _out_path(cfg, "precip_surface.asc"))

    temps = {}
    for season in SEASONS:
        path = getattr(cfg, f"temp_{season}")
        grid = read_raster_asc(path)
        if not np.isfinite(grid.values).all():
            try:
                grid = fill_raster_nodata(grid)
            except ComputationError as exc:
                raise ComputationError(f"{path}: cannot fill gaps: {exc}") from None
        temps[season] = grid

    coverage = building_coverage_rate([roof_cells.get(bid, ()) for bid in potential_ids],
                                      mask_green, dsm, radius=cfg.gc_radius)
    try:
        raw = measure_buildings([buildings[bid] for bid in potential_ids], coverage, roads,
                                income_surface, temps, precip_surface)
    except GeometryError as exc:  # no main road to measure against
        raise FormatError(f"{cfg.roads}: {exc}") from None
    matrix = normalize_indicators(raw, road_cap=cfg.road_cap_m)

    numbers = np.column_stack([raw.greenspace, raw.road_distance_m, raw.income,
                               raw.seasonal_temps, raw.precipitation, matrix])
    _write_table(cfg, "indicators.csv", [
        [bid, f6(v[0]), f6(v[1]), category] + [f6(x) for x in v[2:]]
        for bid, category, v in zip(raw.ids, raw.categories, numbers.tolist())])
    print(f"indicators: scored {len(raw.ids)} potential buildings")
    return 0


# ---------------------------------------------------------------------------
# prioritize
# ---------------------------------------------------------------------------

def _read_indicator_vectors(cfg):
    table = _read_table(cfg, "indicators.csv")
    return table["id"], np.column_stack([table[c] for c in IND_COLUMNS])


def cmd_prioritize(cfg):
    ids, matrix = _read_indicator_vectors(cfg)
    if not ids:
        raise ComputationError("no potential buildings to prioritize")
    # column statistics need at least two buildings; every scheme
    # degenerates to equal weights for a single row
    weights = {s: compute_weights(matrix, s if len(ids) > 1 else "equal")
               for s in WEIGHT_SCHEMES}
    _write_table(cfg, "weights.csv", [
        [s, FLAGS[s == cfg.scheme]] + [f"{w:.9f}" for w in weights[s]]
        for s in WEIGHT_SCHEMES])

    # a correctly rounded sum per building, not a BLAS product whose last
    # bits follow the kernel
    per_scheme = {s: [math.fsum(row) for row in (matrix * weights[s]).tolist()]
                  for s in WEIGHT_SCHEMES}
    active = dict(zip(ids, per_scheme[cfg.scheme]))
    ranked = rank_buildings(active)
    order = {s.building_id: s for s in ranked}
    p_rows = []
    for i, bid in enumerate(ids):
        s = order[bid]
        p_rows.append([bid] + [f6(per_scheme[sch][i]) for sch in WEIGHT_SCHEMES]
                      + [f6(s.priority), str(s.rank), f6(s.percentile)])
    _write_table(cfg, "priorities.csv", p_rows)

    summary = priority_summary(ranked)
    print(f"prioritize: scheme={cfg.scheme}, {summary.count} buildings, "
          f"share above 0.5 = {100 * summary.share_above_half:.1f} %, "
          f"mean {summary.mean_priority:.3f}, max {summary.max_priority:.3f}")
    return 0


# ---------------------------------------------------------------------------
# benefits
# ---------------------------------------------------------------------------

def _read_mask(cfg, name):
    """A greenspace mask of indicators; each cell must be 0 or 1."""
    path = _artifact(cfg, name, "indicators")
    mask = read_raster_asc(path)
    bad = mask.values[(mask.values != 0.0) & (mask.values != 1.0)]
    if bad.size:
        raise FormatError(f"{path}: greenspace mask holds {float(bad[0])!r}; "
                          "its cells must be 0 or 1")
    return mask


def cmd_benefits(cfg):
    cfg.require("population")
    buildings_table = _read_table(cfg, "buildings.csv")
    mask_base = _read_mask(cfg, "greenspace_base.asc")
    mask_green = _read_mask(cfg, "greenspace_greened.asc")
    ind_table = _read_table(cfg, "indicators.csv")

    population = population_grid_from_points(read_xy_value(cfg.population),
                                             cell=cfg.population_cell)
    exposure_base = greenspace_exposure(mask_base, population, radius=cfg.gc_radius)
    exposure_green = greenspace_exposure(mask_green, population, radius=cfg.gc_radius)

    potential = buildings_table["potential"]
    volumes = list(zip(compress(buildings_table["greenable_m2"], potential),
                       compress(buildings_table["height_m"], potential)))
    greenable = sum(area for area, _ in volumes)
    report = assemble_report(greenable, exposure_base, exposure_green, volumes,
                             cooling=cfg.cooling(), econ=cfg.econ())

    values = {"potential_buildings": len(volumes), **asdict(report)}
    _write_table(cfg, "benefits.csv", [[metric, f6(values[metric]), unit]
                                       for metric, unit in BENEFIT_METRICS])

    pairs = list(zip(ind_table["income_raw"], ind_table["gc_raw"]))
    reg_rows = []
    try:
        reg = income_greenspace_regression(pairs)
        reg_rows.append([f"{reg.slope:.9g}", f"{reg.intercept:.9g}",
                         f6(reg.pearson_r), f6(reg.p_value), str(reg.n)])
        reg_note = (f"regression: r = {reg.pearson_r:.3f}, "
                    f"p = {reg.p_value:.4g}, n = {reg.n}")
    except ValueError as exc:
        reg_note = f"regression: skipped ({exc})"
    _write_table(cfg, "regression.csv", reg_rows)

    print(f"benefits: exposure {exposure_base:.3f} -> {exposure_green:.3f}, "
          f"carbon {report.carbon_total_kg / 1000.0:.1f} t/yr, "
          f"value HK${report.value_total_hkd:,.0f}/yr")
    print(reg_note)
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(cfg):
    cfg.require("footprints")
    buildings = _read_table(cfg, "buildings.csv")
    segs = _read_table(cfg, "segments.csv")
    ind = _read_table(cfg, "indicators.csv")
    ind_values = dict(zip(ind["id"], zip(*(ind[c] for c in IND_COLUMNS))))
    pri = _read_table(cfg, "priorities.csv")
    priority = dict(zip(pri["id"], pri["priority"]))
    unscored = next((bid for bid in ind["id"] if bid not in priority), None)
    if unscored is not None:
        raise FormatError(f"{_out_path(cfg, 'priorities.csv')}: no priority for building "
                          f"{unscored} of indicators.csv")
    stray = next((bid for bid in priority if bid not in ind_values), None)
    if stray is not None:
        raise FormatError(f"{_out_path(cfg, 'priorities.csv')}: building {stray} "
                          "is not in indicators.csv")
    weights = _read_table(cfg, "weights.csv")
    benefits = _read_table(cfg, "benefits.csv")
    metrics = dict(zip(benefits["metric"], benefits["value"]))
    for metric, _ in BENEFIT_METRICS:
        if metric not in metrics:
            raise FormatError(f"{_out_path(cfg, 'benefits.csv')}: missing metric {metric}")
    regression = _read_table(cfg, "regression.csv")

    min_slope = {}
    for bid, slope in zip(segs["building_id"], segs["slope_deg"]):
        if bid not in min_slope or slope < min_slope[bid]:
            min_slope[bid] = slope

    footprints = {b.id: b.footprint for b in read_footprints(cfg.footprints)}
    no_indicators = (None,) * len(IND_COLUMNS)
    rows, features, priorities = [], [], []
    for bid, potential, greenable, height in sorted(
            zip(buildings["id"], buildings["potential"], buildings["greenable_m2"],
                buildings["height_m"]), key=lambda r: r[0]):
        values = [greenable, min_slope.get(bid), height,
                  *ind_values.get(bid, no_indicators), priority.get(bid)]
        rows.append([bid, FLAGS[potential]]
                    + ["" if v is None else f6(v) for v in values])
        props = {"id": bid, "potential": potential}
        props.update((c, None if v is None else round(v, 6))
                     for c, v in zip(REPORT_VALUES, values))
        poly = footprints.get(bid)
        features.append((None if poly is None else polygon_geometry(poly), props))
        if bid in priority:
            priorities.append(priority[bid])
    _write_table(cfg, "buildings_report.csv", rows)
    write_features(_out_path(cfg, "buildings_report.geojson"), features)

    text = _render_report(len(buildings["id"]), priorities, weights, metrics, regression)
    with open(_out_path(cfg, "report.md"), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"report: wrote {_out_path(cfg, 'report.md')} and the per-building table")
    return 0


def _render_report(n, priorities, weights, metrics, regression):
    n_pot = int(metrics["potential_buildings"])
    share = 100.0 * n_pot / n if n else 0.0
    lines = []
    w = lines.append
    w("# Roof greening assessment")
    w("")
    w("## Extraction")
    w("")
    w(f"- buildings analyzed: {n}")
    w(f"- buildings with greening potential: {n_pot} ({share:.1f} %)")
    w(f"- greenable roof area: {metrics['greenable_area_m2']:,.1f} m2 "
      f"({metrics['greenable_area_m2'] / 1e6:.4f} km2)")
    w("")
    w("## Priorities")
    w("")
    w("| scheme | active | " + " | ".join(WEIGHT_COLUMNS) + " |")
    w("|---|---|" + "---|" * len(WEIGHT_COLUMNS))
    for scheme, active, *values in zip(weights["scheme"], weights["active"],
                                       *(weights[c] for c in WEIGHT_COLUMNS)):
        w("| " + scheme + " | " + FLAGS[active] + " | "
          + " | ".join(f"{v:.4f}" for v in values) + " |")
    if priorities:
        n_scored = len(priorities)
        above = 100.0 * sum(1 for p in priorities if p > 0.5) / n_scored
        w("")
        w(f"- scored buildings: {n_scored}")
        w(f"- share with priority above 0.5: {above:.1f} %")
        w(f"- mean priority: {sum(priorities) / n_scored:.3f}, max: {max(priorities):.3f}")
    w("")
    w("## Benefits")
    w("")
    w(f"- greenspace exposure: {100 * metrics['exposure_baseline']:.1f} % baseline, "
      f"{100 * metrics['exposure_greened']:.1f} % after greening")
    w(f"- direct carbon uptake: {metrics['carbon_direct_kg'] / 1000.0:,.2f} t/yr")
    w(f"- cooling energy saved: {metrics['energy_kwh']:,.1f} kWh/yr")
    w(f"- indirect carbon reduction: {metrics['carbon_indirect_kg'] / 1000.0:,.2f} t/yr")
    w(f"- total carbon reduction: {metrics['carbon_total_kg'] / 1000.0:,.2f} t/yr")
    w(f"- money value: HK${metrics['value_energy_hkd']:,.0f} energy + "
      f"HK${metrics['value_carbon_hkd']:,.0f} carbon = "
      f"HK${metrics['value_total_hkd']:,.0f}/yr")
    w("")
    w("## Income and greenspace")
    w("")
    if regression["slope"]:
        w(f"- linear fit of coverage on income: slope {regression['slope'][0]:.3e}, "
          f"r = {regression['pearson_r'][0]:.3f}, p = {regression['p_value'][0]:.4g}, "
          f"n = {regression['n'][0]}")
    else:
        w("- regression not computed (too few scored buildings or no spread)")
    w("")
    w("## Reference comparison")
    w("")
    w("Values reported by the Hong Kong 2021 citywide study, for orientation.")
    w("This run's inputs are a synthetic scene, so magnitudes are not")
    w("expected to match; the mechanism, not the city, is what reruns here.")
    w("")
    w("| quantity | reference value |")
    w("|---|---|")
    for name, value in HK_REFERENCE:
        w(f"| {name} | {value} |")
    w("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache  # one parser per process, however often main runs
def build_parser():
    parser = argparse.ArgumentParser(
        prog="greenprior",
        description="Roof greening potential, priority, and benefit pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic city dataset")
    p_synth.add_argument("--out", default="city", help="dataset directory")
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.add_argument("--buildings", type=int, default=60)
    low, high = DOMAIN_RANGE_M
    p_synth.add_argument("--domain-m", type=float, default=SyntheticCitySpec.domain_m,
                         help=f"side of the square scene in metres, from {low:g} to "
                              f"{high:g} (default %(default)g)")

    for name, help_text in (
            ("extract", "roof segmentation and potential screening"),
            ("indicators", "six demand indicators per potential building"),
            ("prioritize", "weighting schemes and priority ranking"),
            ("benefits", "exposure, carbon, energy, and money accounting"),
            ("report", "final per-building table and report.md")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None, help="override out_dir")
        p.add_argument("--scheme", default=None, choices=WEIGHT_SCHEMES)

    return parser


_COMMANDS = {
    "extract": cmd_extract,
    "indicators": cmd_indicators,
    "prioritize": cmd_prioritize,
    "benefits": cmd_benefits,
    "report": cmd_report,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        cfg = load_config(args.config, overrides={"out_dir": args.out, "scheme": args.scheme})
        os.makedirs(cfg.out_dir, exist_ok=True)
        return _COMMANDS[args.command](cfg)
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
