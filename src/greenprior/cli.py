"""Command-line pipeline: synth, extract, indicators, prioritize, benefits, report.

Each subcommand reads the previous stage's files from the output directory
and writes its own, so every step can be rerun or inspected on its own.
All outputs use fixed formatting and ordering: rerunning a stage with
unchanged inputs reproduces its files byte for byte.
"""

import argparse
import csv
import math
import os
import sys
from collections import namedtuple

import numpy as np

from .benefits import (
    assemble_report,
    greenspace_exposure,
    income_greenspace_regression,
    population_grid_from_points,
)
from .config import ConfigError, load_config
from .geocore import ComputationError, snapped_grid
from .indicators import (
    SEASONS,
    IndicatorVector,
    build_greenspace_mask,
    measure_building,
    normalize_indicators,
)
from .ingest import (
    BuildingReportRow,
    FormatError,
    read_footprints,
    read_point_cloud,
    read_raster_asc,
    read_raster_geometry,
    read_roads,
    read_xy_value,
    write_building_report,
    write_raster_asc,
)
from .interp import SampleSet, fill_raster_nodata, interpolate_grid
from .priority import (
    WEIGHT_SCHEMES,
    compute_weights,
    priority_summary,
    rank_buildings,
)
from .roofs import RoofSegment, extract_all
from .synth import SyntheticCitySpec, generate_city

IND_COLUMNS = tuple("ind_" + short for short in IndicatorVector.SHORT_NAMES)
WEIGHT_COLUMNS = tuple("w_" + short for short in IndicatorVector.SHORT_NAMES)
FLAGS = ("false", "true")


def flag(text):
    """A flag column value: exactly 'true' or 'false', else ValueError."""
    return bool(FLAGS.index(text))


Table = namedtuple("Table", "stage columns")

# Every CSV one stage hands to another: the stage that writes it, and its
# columns in file order, each with the type later stages parse it with.
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
}

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
    """The rows of a stage table as dicts, every column parsed with its type.

    The header must hold every column of TABLES[name], each row must have as
    many fields as the header, and every value must parse; blank lines are
    skipped.
    """
    table = TABLES[name]
    path = _artifact(cfg, name, table.stage)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in table.columns if c not in header]
        if missing:
            raise FormatError(f"{path}: line 1: missing column(s) {', '.join(missing)}")
        where = {column: i for i, column in enumerate(header)}
        rows = []
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(header):
                raise FormatError(f"{path}: line {reader.line_num}: expected "
                                  f"{len(header)} fields, got {len(fields)}")
            row = {}
            for column, kind in table.columns.items():
                value = fields[where[column]]
                try:
                    row[column] = kind(value)
                except ValueError:
                    raise FormatError(f"{path}: line {reader.line_num}: column {column}: "
                                      f"{value!r} is not a valid {kind.__name__}") from None
            rows.append(row)
    return rows


def _write_table(cfg, name, rows):
    with open(_out_path(cfg, name), "w", encoding="utf-8") as fh:
        fh.write(",".join(TABLES[name].columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _f(v):
    """v at 6 decimals; a value that rounds to zero prints without a sign."""
    text = f"{float(v):.6f}"
    return "0.000000" if text == "-0.000000" else text


def _write_surface(grid, path):
    """Write a kriged surface at _f's 6 decimals, not repr.

    Its last bits come from the variogram fit and the kriging solves,
    which differ between machines; no stage reads the file back.
    """
    write_raster_asc(grid, path, decimals=6)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args):
    spec = SyntheticCitySpec(seed=args.seed, n_buildings=args.buildings)
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
    seg_rows, cell_rows = [], []
    for seg in sorted(extraction.segments, key=lambda s: (s.building_id, s.seg_id)):
        qualifying = (seg.slope_deg < th.slope_max_deg
                      and seg.area_m2 > th.area_min_m2)
        a, b, c = seg.plane
        seg_rows.append([seg.building_id, seg.seg_id, FLAGS[bool(qualifying)],
                         _f(seg.slope_deg), _f(seg.area_m2),
                         str(len(seg.cells)), _f(a), _f(b), _f(c)])
        for row, col in seg.cells:
            cell_rows.append([seg.building_id, seg.seg_id, str(row), str(col)])
    _write_table(cfg, "segments.csv", seg_rows)
    _write_table(cfg, "cells.csv", cell_rows)

    b_rows = []
    for b in sorted(buildings, key=lambda b: b.id):
        dec = extraction.decisions[b.id]
        b_rows.append([b.id, FLAGS[bool(dec.potential)],
                       "|".join(sorted(dec.reasons)),
                       _f(dec.greenable_m2), _f(extraction.heights[b.id]),
                       str(b.age_years), b.category])
    _write_table(cfg, "buildings.csv", b_rows)

    n_pot = sum(1 for d in extraction.decisions.values() if d.potential)
    greenable = sum(d.greenable_m2 for d in extraction.decisions.values()
                    if d.potential)
    share = 100.0 * n_pot / len(buildings) if buildings else 0.0
    print(f"extract: {n_pot}/{len(buildings)} buildings with potential "
          f"({share:.1f} %), greenable roof area {greenable:.1f} m2")
    return 0


# ---------------------------------------------------------------------------
# indicators
# ---------------------------------------------------------------------------

def _load_segments(cfg, grid):
    """Rebuild the qualifying RoofSegments of each building from the extract
    stage's tables; every cell must lie on the surface-model grid."""
    seg_rows = _read_table(cfg, "segments.csv")
    cells_path = _out_path(cfg, "cells.csv")
    cells_by_seg = {}
    for row in _read_table(cfg, "cells.csv"):
        key = (row["building_id"], row["seg_id"])
        cell = (row["row"], row["col"])
        if not (0 <= cell[0] < grid.nrows and 0 <= cell[1] < grid.ncols):
            raise FormatError(
                f"{cells_path}: segment ({key[0]}, {key[1]}) has cell {cell}, outside "
                f"the {grid.nrows} x {grid.ncols} grid of dsm.asc")
        cells_by_seg.setdefault(key, []).append(cell)
    qualifying = {}
    for row in seg_rows:
        key = (row["building_id"], row["seg_id"])
        if key not in cells_by_seg:
            raise FormatError(
                f"{cells_path}: segment ({key[0]}, {key[1]}) has no cells")
        if row["qualifying"]:
            qualifying.setdefault(row["building_id"], []).append(RoofSegment(
                cells_by_seg[key], (row["plane_a"], row["plane_b"], row["plane_c"]),
                row["slope_deg"], row["area_m2"],
                building_id=row["building_id"], seg_id=row["seg_id"]))
    return qualifying


def _station_surface(path, template, method):
    """The stations of one x,y,value file interpolated onto the template; a
    well-formed file that cannot be kriged names itself in the error."""
    samples = SampleSet.from_points(read_xy_value(path))
    try:
        return interpolate_grid(samples, template, method=method)
    except ComputationError as exc:
        raise ComputationError(f"{path}: {exc}") from None


def cmd_indicators(cfg):
    cfg.require("points", "footprints", "roads", "income_stations",
                "precip_stations", "temp_spring", "temp_summer",
                "temp_autumn", "temp_winter")
    # only the header: segment cells are placed by its origin and cell size
    dsm = read_raster_geometry(_artifact(cfg, "dsm.asc", "extract"))
    qualifying = _load_segments(cfg, dsm)
    potential_ids = [r["id"] for r in _read_table(cfg, "buildings.csv") if r["potential"]]

    pc = read_point_cloud(cfg.points)
    buildings = {b.id: b for b in read_footprints(cfg.footprints)}
    roads = read_roads(cfg.roads)

    mask_base = build_greenspace_mask(pc, None, cell=cfg.mask_cell)
    green_segs = [s for bid in potential_ids for s in qualifying.get(bid, [])]
    mask_green = build_greenspace_mask(pc, green_segs, cell=cfg.mask_cell,
                                       roof_grid=dsm)
    write_raster_asc(mask_base, _out_path(cfg, "greenspace_base.asc"))
    write_raster_asc(mask_green, _out_path(cfg, "greenspace_greened.asc"))

    template = snapped_grid(pc.xyz, cfg.interp_cell)
    income_surface = _station_surface(cfg.income_stations, template, cfg.interp_method)
    precip_surface = _station_surface(cfg.precip_stations, template, cfg.interp_method)
    _write_surface(income_surface, _out_path(cfg, "income_surface.asc"))
    _write_surface(precip_surface, _out_path(cfg, "precip_surface.asc"))

    temps = {}
    for season in SEASONS:
        path = getattr(cfg, f"temp_{season}")
        grid = read_raster_asc(path)
        if np.isnan(grid.values).any():
            try:
                grid = fill_raster_nodata(grid)
            except ComputationError as exc:
                raise ComputationError(f"{path}: cannot fill gaps: {exc}") from None
        temps[season] = grid

    raws = []
    for bid in sorted(potential_ids):
        raws.append(measure_building(
            buildings[bid], qualifying.get(bid, []), mask_green, dsm, roads,
            income_surface, temps, precip_surface, radius=cfg.gc_radius))
    vectors = normalize_indicators(raws, road_cap=cfg.road_cap_m)

    rows = []
    for raw in raws:
        vec = vectors[raw.building_id]
        rows.append([raw.building_id, _f(raw.greenspace), _f(raw.road_distance_m),
                     raw.category, _f(raw.income)]
                    + [_f(t) for t in raw.seasonal_temps]
                    + [_f(raw.precipitation)]
                    + [_f(v) for v in vec.as_array()])
    _write_table(cfg, "indicators.csv", rows)
    print(f"indicators: scored {len(raws)} potential buildings")
    return 0


# ---------------------------------------------------------------------------
# prioritize
# ---------------------------------------------------------------------------

def _read_indicator_vectors(cfg):
    rows = _read_table(cfg, "indicators.csv")
    ids = [r["id"] for r in rows]
    matrix = np.array([[r[c] for c in IND_COLUMNS] for r in rows])
    return ids, matrix


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
        p_rows.append([bid] + [_f(per_scheme[sch][i]) for sch in WEIGHT_SCHEMES]
                      + [_f(s.priority), str(s.rank), _f(s.percentile)])
    _write_table(cfg, "priorities.csv", p_rows)

    summary = priority_summary(ranked)
    print(f"prioritize: scheme={cfg.scheme}, {summary.count} buildings, "
          f"share above 0.5 = {100 * summary.share_above_half:.1f} %, "
          f"mean {summary.mean_priority:.3f}, max {summary.max_priority:.3f}")
    return 0


# ---------------------------------------------------------------------------
# benefits
# ---------------------------------------------------------------------------

def cmd_benefits(cfg):
    cfg.require("population")
    building_rows = _read_table(cfg, "buildings.csv")
    mask_base = read_raster_asc(_artifact(cfg, "greenspace_base.asc", "indicators"))
    mask_green = read_raster_asc(_artifact(cfg, "greenspace_greened.asc", "indicators"))
    ind_rows = _read_table(cfg, "indicators.csv")

    population = population_grid_from_points(read_xy_value(cfg.population),
                                             cell=cfg.population_cell)
    exposure_base = greenspace_exposure(mask_base, population, radius=cfg.gc_radius)
    exposure_green = greenspace_exposure(mask_green, population, radius=cfg.gc_radius)

    potential = [r for r in building_rows if r["potential"]]
    greenable = sum(r["greenable_m2"] for r in potential)
    volumes = [(r["greenable_m2"], r["height_m"]) for r in potential]
    report = assemble_report(greenable, exposure_base, exposure_green, volumes,
                             cooling=cfg.cooling(), econ=cfg.econ())

    rows = [
        ["potential_buildings", _f(len(potential)), "count"],
        ["greenable_area_m2", _f(report.greenable_area_m2), "m2"],
        ["exposure_baseline", _f(report.exposure_baseline), "fraction"],
        ["exposure_greened", _f(report.exposure_greened), "fraction"],
        ["carbon_direct_kg", _f(report.carbon_direct_kg), "kg_per_yr"],
        ["energy_joules", _f(report.energy_joules), "J_per_yr"],
        ["energy_kwh", _f(report.energy_kwh), "kWh_per_yr"],
        ["carbon_indirect_kg", _f(report.carbon_indirect_kg), "kg_per_yr"],
        ["carbon_total_kg", _f(report.carbon_total_kg), "kg_per_yr"],
        ["value_energy_hkd", _f(report.value_energy_hkd), "HKD_per_yr"],
        ["value_carbon_hkd", _f(report.value_carbon_hkd), "HKD_per_yr"],
        ["value_total_hkd", _f(report.value_total_hkd), "HKD_per_yr"],
    ]
    _write_table(cfg, "benefits.csv", rows)

    pairs = [(r["income_raw"], r["gc_raw"]) for r in ind_rows]
    reg_rows = []
    try:
        reg = income_greenspace_regression(pairs)
        reg_rows.append([f"{reg.slope:.9g}", f"{reg.intercept:.9g}",
                         _f(reg.pearson_r), _f(reg.p_value), str(reg.n)])
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
    building_rows = _read_table(cfg, "buildings.csv")
    seg_rows = _read_table(cfg, "segments.csv")
    ind_rows = {r["id"]: r for r in _read_table(cfg, "indicators.csv")}
    pri_rows = {r["id"]: r for r in _read_table(cfg, "priorities.csv")}
    weight_rows = _read_table(cfg, "weights.csv")
    metrics = {r["metric"]: r["value"] for r in _read_table(cfg, "benefits.csv")}
    reg_rows = _read_table(cfg, "regression.csv")

    min_slope = {}
    for r in seg_rows:
        bid = r["building_id"]
        s = r["slope_deg"]
        if bid not in min_slope or s < min_slope[bid]:
            min_slope[bid] = s

    footprints = {b.id: b.footprint for b in read_footprints(cfg.footprints)}
    rows = []
    for r in sorted(building_rows, key=lambda r: r["id"]):
        bid = r["id"]
        ind = ind_rows.get(bid)
        pri = pri_rows.get(bid)
        rows.append(BuildingReportRow(
            id=bid,
            potential=r["potential"],
            roof_area_m2=r["greenable_m2"],
            slope_deg=min_slope.get(bid),
            height_m=r["height_m"],
            priority=pri["priority"] if pri else None,
            **{c: ind[c] if ind else None for c in IND_COLUMNS},
        ))
    write_building_report(rows, _out_path(cfg, "buildings_report.csv"),
                          _out_path(cfg, "buildings_report.geojson"), footprints)

    text = _render_report(cfg, building_rows, rows, weight_rows, metrics, reg_rows)
    with open(_out_path(cfg, "report.md"), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"report: wrote {_out_path(cfg, 'report.md')} and the per-building table")
    return 0


def _render_report(cfg, building_rows, report_rows, weight_rows, metrics, reg_rows):
    n = len(building_rows)
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
    for r in weight_rows:
        w("| " + r["scheme"] + " | " + FLAGS[r["active"]] + " | "
          + " | ".join(f"{r[c]:.4f}" for c in WEIGHT_COLUMNS) + " |")
    scored = [r for r in report_rows if r.priority is not None]
    if scored:
        ps = [r.priority for r in scored]
        above = 100.0 * sum(1 for p in ps if p > 0.5) / len(ps)
        w("")
        w(f"- scored buildings: {len(ps)}")
        w(f"- share with priority above 0.5: {above:.1f} %")
        w(f"- mean priority: {sum(ps) / len(ps):.3f}, max: {max(ps):.3f}")
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
    if reg_rows:
        r = reg_rows[0]
        w(f"- linear fit of coverage on income: slope {r['slope']:.3e}, "
          f"r = {r['pearson_r']:.3f}, p = {r['p_value']:.4g}, "
          f"n = {r['n']}")
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

def build_parser():
    parser = argparse.ArgumentParser(
        prog="greenprior",
        description="Roof greening potential, priority, and benefit pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic city dataset")
    p_synth.add_argument("--out", default="city", help="dataset directory")
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.add_argument("--buildings", type=int, default=60)

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
