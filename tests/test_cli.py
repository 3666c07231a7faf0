import csv
import filecmp
import json
import math
import os
import shutil
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from greenprior import cli
from greenprior.geocore import RasterGrid
from greenprior.ingest import f6, read_footprints, read_raster_asc, write_raster_asc, write_table
from greenprior.roofs import RoofSegment
from greenprior.priority import WEIGHT_SCHEMES, compute_weights
from greenprior.synth import GROUND_TRUTH_COLUMNS, SyntheticCitySpec, generate_city

PIPELINE_FILES = (
    "dsm.asc", "segments.csv", "cells.csv", "buildings.csv",
    "greenspace_base.asc", "greenspace_greened.asc",
    "income_surface.asc", "precip_surface.asc", "indicators.csv",
    "weights.csv", "priorities.csv", "benefits.csv", "regression.csv",
    "buildings_report.csv", "buildings_report.geojson", "report.md",
)

IND_HEADER = ("id,gc_raw,road_dist_m,category,income_raw,temp_spring_raw,"
              "temp_summer_raw,temp_autumn_raw,temp_winter_raw,precip_raw,"
              "ind_greenspace,ind_road_dist,ind_category,ind_income,"
              "ind_temperature,ind_precip")


def _read_metric_map(path):
    with open(path, newline="") as fh:
        return {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_full_chain_writes_all_artifacts(small_city):
    out = small_city / "out"
    for fname in PIPELINE_FILES:
        assert (out / fname).is_file(), fname


def test_stage_tables_match_schema(small_city):
    out = small_city / "out"
    tables = sorted(p.name for p in out.glob("*.csv"))
    assert tables == sorted(cli.TABLES)
    for name in tables:
        header = (out / name).read_text().split("\n", 1)[0]
        assert header == ",".join(cli.TABLES[name].columns), name
    header = (small_city / "groundtruth.csv").read_text().split("\n", 1)[0]
    assert header == ",".join(GROUND_TRUTH_COLUMNS)


def test_synth_subcommand(tmp_path):
    out = tmp_path / "c"
    code = cli.main(["synth", "--out", str(out), "--seed", "3",
                     "--buildings", "4"])
    assert code == 0
    assert (out / "points.csv").is_file()
    assert len((out / "groundtruth.csv").read_text().splitlines()) == 5


@pytest.mark.parametrize("count", ["-3", "145", "200"])
def test_synth_building_count_out_of_range_exit_one(tmp_path, capsys, count):
    out = tmp_path / "c"
    code = cli.main(["synth", "--out", str(out), "--buildings", count])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: --buildings must be from 0 to 144 (one per parcel), got {count}\n"
    assert not out.exists()


def test_synth_zero_buildings(tmp_path):
    assert SyntheticCitySpec().max_buildings == 144
    code = cli.main(["synth", "--out", str(tmp_path / "none"), "--buildings", "0"])
    assert code == 0
    assert (tmp_path / "none" / "groundtruth.csv").read_text().count("\n") == 1


@pytest.mark.parametrize("value", ["1199", "4801", "0", "-1200", "nan", "inf"])
def test_synth_domain_out_of_range_exit_one(tmp_path, capsys, value):
    out = tmp_path / "c"
    code = cli.main(["synth", "--out", str(out), "--domain-m", value])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("error: --domain-m must be from 1200 to 4800 m (the road layout reaches "
                   f"1150 m), got {value}\n")
    assert not out.exists()


def test_synth_domain_sets_the_parcel_count(tmp_path, capsys):
    # 1300 m holds 13 x 13 parcels; the building check reads that count
    out = tmp_path / "c"
    assert cli.main(["synth", "--out", str(out), "--domain-m", "1300", "--buildings", "170"]) == 1
    assert capsys.readouterr().err == \
        "error: --buildings must be from 0 to 169 (one per parcel), got 170\n"
    assert cli.main(["synth", "--out", str(out), "--domain-m", "1300", "--buildings", "1"]) == 0
    xyz = np.loadtxt(out / "points.csv", delimiter=",", skiprows=1)
    assert 1200.0 < xyz[:, :2].max() <= 1300.0


def test_synth_help_states_the_domain_range(capsys):
    with pytest.raises(SystemExit):
        cli.main(["synth", "--help"])
    assert "from 1200 to 4800" in " ".join(capsys.readouterr().out.split())


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_priorities_consistent_with_weights(small_city):
    rows = _read_rows(small_city / "out" / "priorities.csv")
    assert rows
    for r in rows:
        assert r["priority"] == r["p_equal"]
        assert 0.0 <= float(r["priority"]) <= 1.0
    ranks = sorted(int(r["rank"]) for r in rows)
    assert ranks == list(range(1, len(rows) + 1))


def test_benefit_metrics_internally_consistent(small_city):
    m = _read_metric_map(small_city / "out" / "benefits.csv")
    assert m["carbon_total_kg"] == pytest.approx(
        m["carbon_direct_kg"] + m["carbon_indirect_kg"], rel=1e-9)
    assert m["value_total_hkd"] == pytest.approx(
        m["value_energy_hkd"] + m["value_carbon_hkd"], rel=1e-9)
    assert m["energy_kwh"] == pytest.approx(m["energy_joules"] / 3.6e6,
                                            rel=1e-9)
    assert m["exposure_greened"] >= m["exposure_baseline"]


def test_report_sections_present(small_city):
    text = (small_city / "out" / "report.md").read_text()
    for heading in ("# Roof greening assessment", "## Extraction",
                    "## Priorities", "## Benefits",
                    "## Income and greenspace", "## Reference comparison"):
        assert heading in text
    assert "synthetic" in text


def test_rerun_is_byte_identical(small_city, tmp_path):
    out = small_city / "out"
    snapshot = tmp_path / "snap"
    snapshot.mkdir()
    for fname in ("priorities.csv", "benefits.csv", "report.md"):
        shutil.copy2(out / fname, snapshot / fname)
    config = str(small_city / "config.txt")
    for command in ("prioritize", "benefits", "report"):
        assert cli.main([command, "--config", config, "--out", str(out)]) == 0
    for fname in ("priorities.csv", "benefits.csv", "report.md"):
        assert filecmp.cmp(snapshot / fname, out / fname, shallow=False), fname


# a shift of the kind HK 1980 Grid coordinates carry, exact in decimal
HK_GRID_SHIFT = (Decimal(836000), Decimal(818000))


def _shift_xy_csv(src, dst):
    """Copy a CSV whose first two fields are x and y, shifted exactly."""
    lines = src.read_text().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        x, y, rest = line.split(",", 2)
        rows.append(f"{Decimal(x) + HK_GRID_SHIFT[0]},{Decimal(y) + HK_GRID_SHIFT[1]},{rest}")
    dst.write_text("\n".join(rows) + "\n")


def _shift_features(src, dst):
    """Copy a GeoJSON file with every coordinate pair shifted to the float
    nearest the exact decimal sum."""
    def shift(coords):
        if isinstance(coords[0], list):
            return [shift(c) for c in coords]
        return [float(Decimal(repr(v)) + d) for v, d in zip(coords, HK_GRID_SHIFT)]

    doc = json.loads(src.read_text())
    for feat in doc["features"]:
        feat["geometry"]["coordinates"] = shift(feat["geometry"]["coordinates"])
    dst.write_text(json.dumps(doc))


def _shift_raster(src, dst):
    """Copy an ESRI ASCII grid with its lower-left corner shifted."""
    lines = src.read_text().split("\n")
    for i, key in ((2, "xllcorner"), (3, "yllcorner")):
        name, value = lines[i].split()
        assert name == key
        lines[i] = f"{key} {float(Decimal(value) + HK_GRID_SHIFT[i - 2])!r}"
    dst.write_text("\n".join(lines))


def test_chain_in_hong_kong_grid_coordinates_writes_the_same_tables(small_city, tmp_path):
    # the 7/12 city moved by (836000, 818000) m: every table, raster body and
    # report is the unmoved chain's, but the plane offsets of segments.csv;
    # this holds the absolute edge tolerance to a scale where a coordinate's
    # last bit is 1.2e-10 m
    city = tmp_path / "city"
    city.mkdir()
    for src in sorted(small_city.iterdir()):
        dst = city / src.name
        if src.suffix == ".csv" and src.name != "groundtruth.csv":
            _shift_xy_csv(src, dst)
        elif src.suffix == ".geojson":
            _shift_features(src, dst)
        elif src.suffix == ".asc":
            _shift_raster(src, dst)
        elif src.is_file():
            shutil.copy2(src, dst)
    for command in ("extract", "indicators", "prioritize", "benefits", "report"):
        assert cli.main([command, "--config", str(city / "config.txt"),
                         "--out", str(city / "out")]) == 0, command
    moved, still = city / "out", small_city / "out"
    for name in PIPELINE_FILES:
        if name == "segments.csv":
            rows = list(zip(_read_rows(moved / name), _read_rows(still / name), strict=True))
            offsets = [(a.pop("plane_c"), b.pop("plane_c")) for a, b in rows]
            assert all(a == b for a, b in rows)
            assert any(a != b for a, b in offsets)  # the sloped roofs'
        elif name.endswith(".asc"):
            assert (moved / name).read_text().split("\n")[6:] == \
                (still / name).read_text().split("\n")[6:], name
        elif name.endswith(".geojson"):
            assert [f["properties"] for f in json.loads((moved / name).read_text())["features"]] \
                == [f["properties"] for f in json.loads((still / name).read_text())["features"]]
        else:
            assert filecmp.cmp(moved / name, still / name, shallow=False), name


def test_surface_file_ignores_last_bit_noise(tmp_path):
    # A kriged surface that differs between machines only in its last bits
    # must still be written byte for byte the same. The values sit 3e-7
    # away from a 6-decimal rounding tie, far beyond a few ULP.
    rng = np.random.default_rng(5)
    vals = np.round(rng.uniform(1e3, 5e4, (6, 4)), 6) + 2e-7
    vals[1, 2] = np.nan
    # move each value 3 ULP, up or down in a checkerboard
    toward = np.where(np.indices(vals.shape).sum(axis=0) % 2, np.inf, -np.inf)
    noisy = vals
    for _ in range(3):
        noisy = np.nextafter(noisy, toward)
    assert (noisy != vals)[np.isfinite(vals)].all()
    a, b = tmp_path / "a.asc", tmp_path / "b.asc"
    write_raster_asc(RasterGrid(0.0, 0.0, 50.0, vals), a, decimals=6)
    write_raster_asc(RasterGrid(0.0, 0.0, 50.0, noisy), b, decimals=6)
    assert a.read_bytes() == b.read_bytes()

    back = read_raster_asc(a)
    assert np.isnan(back.values[1, 2])
    assert np.allclose(back.values, vals, rtol=0, atol=5e-7, equal_nan=True)


def test_rounded_values_print_no_negative_zero():
    assert f6(-0.0) == f6(-4e-7) == "0.000000"
    assert f6(-6e-7) == "-0.000001"
    assert f6(0.0) == "0.000000"


# degenerate matrices make cv_weights warn; that is not under test here
@pytest.mark.filterwarnings("ignore:zero-mean column:RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(matrix=st.integers(2, 12).flatmap(
    lambda n: arrays(float, (n, 6), elements=st.floats(0.0, 1.0))))
def test_priority_scores_are_correctly_rounded(small_city, tmp_path_factory, matrix):
    # each p_<scheme> is the exact weighted sum of its indicator row,
    # rounded once; the table is written at full precision to show it
    out = tmp_path_factory.mktemp("scores")
    rows = [f"b{i:03d},0,0,residential,0,0,0,0,0,0," + ",".join(map(repr, row))
            for i, row in enumerate(matrix.tolist())]
    (out / "indicators.csv").write_text("\n".join([IND_HEADER, *rows]) + "\n")
    with mock.patch.object(cli, "f6", lambda v: repr(float(v))):
        code = cli.main(["prioritize", "--config", str(small_city / "config.txt"),
                         "--out", str(out)])
    assert code == 0
    got = _read_rows(out / "priorities.csv")
    for scheme in WEIGHT_SCHEMES:
        w = compute_weights(matrix, scheme)
        assert [float(r[f"p_{scheme}"]) for r in got] \
            == [float(sum(map(Fraction, row * w))) for row in matrix]


def test_scheme_override_changes_active_row(small_city, tmp_path):
    out2 = tmp_path / "o2"
    out2.mkdir()
    shutil.copy2(small_city / "out" / "indicators.csv",
                 out2 / "indicators.csv")
    config = str(small_city / "config.txt")
    code = cli.main(["prioritize", "--config", config, "--out", str(out2),
                     "--scheme", "critic"])
    assert code == 0
    weights = {r["scheme"]: r["active"]
               for r in _read_rows(out2 / "weights.csv")}
    assert weights["critic"] == "true"
    assert weights["equal"] == "false"
    for r in _read_rows(out2 / "priorities.csv"):
        assert r["priority"] == r["p_critic"]


def test_missing_artifact_names_prior_stage(small_city, tmp_path, capsys):
    config = str(small_city / "config.txt")
    empty = tmp_path / "empty"
    code = cli.main(["indicators", "--config", config, "--out", str(empty)])
    assert code == 1
    err = capsys.readouterr().err
    assert "extract" in err and "dsm.asc" in err


def test_truncated_cells_table_exit_one(small_city, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    segs = _read_rows(out / "segments.csv")
    target = next((r["building_id"], r["seg_id"]) for r in segs
                  if r["qualifying"] == "true")
    with open(out / "cells.csv", newline="") as fh:
        lines = fh.readlines()
    kept = [ln for ln in lines if not ln.startswith(",".join(target) + ",")]
    assert len(kept) < len(lines)
    (out / "cells.csv").write_text("".join(kept))
    code = cli.main(["indicators", "--config", str(small_city / "config.txt"),
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{out / 'cells.csv'}: segment ({target[0]}, {target[1]}) has no cells" in err
    assert "Traceback" not in err


def test_potential_building_without_qualifying_segment_exit_one(small_city, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    potential = sorted(r["id"] for r in _read_rows(out / "buildings.csv")
                       if r["potential"] == "true")
    lines = (out / "segments.csv").read_text().splitlines(keepends=True)
    target = potential[-1]
    lines = [ln.replace(",true,", ",false,", 1) if ln.startswith(target + ",") else ln
             for ln in lines]
    (out / "segments.csv").write_text("".join(lines))
    code = cli.main(["indicators", "--config", str(small_city / "config.txt"),
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (f"error: {out / 'buildings.csv'}: potential building {target!r} "
                   f"has no qualifying segment in {out / 'segments.csv'}\n")


def test_cell_outside_surface_model_exit_one(small_city, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    lines = (out / "cells.csv").read_text().splitlines(keepends=True)
    bid, seg, row, _ = lines[1].rstrip("\n").split(",")
    lines[1] = f"{bid},{seg},{row},99999\n"
    (out / "cells.csv").write_text("".join(lines))
    code = cli.main(["indicators", "--config", str(small_city / "config.txt"),
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"cells.csv: segment ({bid}, {seg}) has cell ({row}, 99999), outside" in err
    assert "Traceback" not in err


def test_cell_of_unknown_segment_exit_one(small_city, tmp_path, capsys):
    # such rows used to be dropped; the first one in file order is named
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    lines = (out / "cells.csv").read_text().splitlines(keepends=True)
    lines[2:2] = ["zz99,s999,1,1\n"]
    lines.append("aa00,s0,1,1\n")
    (out / "cells.csv").write_text("".join(lines))
    code = cli.main(["indicators", "--config", str(small_city / "config.txt"),
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{out / 'cells.csv'}: segment (zz99, s999) is not in segments.csv" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("damage, metric", [
    ("header only", "potential_buildings"),
    ("cut", "carbon_direct_kg"),
    ("nul", "energy_kwh"),
])
def test_damaged_benefits_table_exit_one(small_city, tmp_path, capsys, damage, metric):
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    lines = (out / "benefits.csv").read_text().splitlines(keepends=True)
    if damage == "header only":
        lines = lines[:1]
    elif damage == "cut":
        lines = lines[:5]
    else:
        lines = [ln.replace("energy_kwh", "energy\0kwh") for ln in lines]
    (out / "benefits.csv").write_text("".join(lines))
    code = cli.main(["report", "--config", str(small_city / "config.txt"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{out / 'benefits.csv'}: missing metric {metric}" in err
    assert "Traceback" not in err


RASTER_HEADER = {"ncols": "3", "nrows": "2", "xllcorner": "0.0", "yllcorner": "0.0",
                 "cellsize": "1.0", "NODATA_value": "-9999.0"}


@pytest.mark.parametrize("name", ["dsm.asc", "greenspace_base.asc"])
@pytest.mark.parametrize("key, value, message", [
    ("ncols", "inf", "ncols must be a positive integer, got inf"),
    ("ncols", "1181.5", "ncols must be a positive integer, got 1181.5"),
    ("nrows", "0", "nrows must be a positive integer, got 0.0"),
    ("nrows", "nan", "nrows must be a positive integer, got nan"),
    ("xllcorner", "nan", "xllcorner must be finite, got nan"),
    ("yllcorner", "-inf", "yllcorner must be finite, got -inf"),
    ("cellsize", "0", "cellsize must be positive and finite, got 0.0"),
    ("cellsize", "-1", "cellsize must be positive and finite, got -1.0"),
    ("cellsize", "inf", "cellsize must be positive and finite, got inf"),
])
def test_malformed_raster_header_exit_one(small_city, tmp_path, capsys, name, key, value,
                                          message):
    # dsm.asc is read header-only by indicators, the greenspace mask in full by benefits
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(small_city / "out" / "buildings.csv", out)
    header = dict(RASTER_HEADER, **{key: value})
    (out / name).write_text("".join(f"{k} {v}\n" for k, v in header.items())
                            + "1 2 3\n4 5 6\n")
    command = "indicators" if name == "dsm.asc" else "benefits"
    code = cli.main([command, "--config", str(small_city / "config.txt"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{out / name}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("valid, message", [
    (2, "too few valid cells to fill gaps (2 of 1600)"),
    (3, "3 valid cells: need at least 3 semivariogram bins to fit"),
])
def test_degenerate_gap_fill_exit_three(small_city, tmp_path, capsys, valid, message):
    # a well-formed raster whose few valid cells, in one row, cannot be kriged
    city = tmp_path / "city"
    shutil.copytree(small_city, city)
    path = city / "temp_summer.asc"
    grid = read_raster_asc(path)
    values = np.full(grid.values.shape, np.nan)
    values[0, :valid] = grid.values[0, :valid]
    write_raster_asc(RasterGrid(grid.origin_x, grid.origin_y, grid.cell, values), path)
    code = cli.main(["indicators", "--config", str(city / "config.txt"),
                     "--out", str(city / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"error: {path}: cannot fill gaps: {message}" in err
    assert "Traceback" not in err


def test_infinite_temperature_cell_is_filled_as_nan_is(small_city, tmp_path):
    # every non-finite cell of a temperature raster is a gap to krige: inf
    # under a scored building's centroid gives the indicators of NaN there
    scored = _read_rows(small_city / "out" / "indicators.csv")[0]["id"]
    footprint = next(b.footprint for b in read_footprints(small_city / "footprints.geojson")
                     if b.id == scored)
    grid = read_raster_asc(small_city / "temp_spring.asc")
    cx, cy = footprint.centroid()
    row = math.floor((cy - grid.origin_y) / grid.cell)
    col = math.floor((cx - grid.origin_x) / grid.cell)
    tables = []
    for name, gap in (("nan", np.nan), ("inf", np.inf)):
        city = tmp_path / name
        shutil.copytree(small_city, city)
        values = grid.values.copy()
        values[row, col] = gap
        write_raster_asc(RasterGrid(grid.origin_x, grid.origin_y, grid.cell, values),
                         city / "temp_spring.asc")
        code = cli.main(["indicators", "--config", str(city / "config.txt"),
                         "--out", str(city / "out")])
        assert code == 0
        tables.append((city / "out" / "indicators.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("stations, message", [
    (1, "kriging needs at least 2 distinct sample locations, got 1"),
    (2, "2 distinct sample locations: need at least 3 semivariogram bins to fit"),
])
def test_degenerate_station_file_exit_three(small_city, tmp_path, capsys, stations, message):
    # a well-formed station file with too few stations to fit a variogram
    city = tmp_path / "city"
    shutil.copytree(small_city, city)
    path = city / "income_stations.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1 + stations]))
    code = cli.main(["indicators", "--config", str(city / "config.txt"),
                     "--out", str(city / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"error: {path}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, message", [
    ("income_stations.csv", "24 distinct sample locations: "),
    ("temp_summer.asc", "cannot fill gaps: 1547 valid cells: "),
], ids=["stations", "raster"])
def test_value_too_large_to_fit_exit_three(small_city, tmp_path, capsys, name, message):
    # one finite value: at 1e100 the squares of its differences overflow the
    # variogram fit's sums, which used to end in an OverflowError traceback;
    # at 1e200 the squares themselves overflow, which used to print numpy's
    # RuntimeWarning before the error
    # at 4e153 the squares are finite and their sums overflow, the raster's
    # in the semivariogram itself
    for value in ("1e100", "4e153", "1e200"):
        def enlarge(city):
            path = city / name
            if name.endswith(".csv"):
                lines = path.read_text().splitlines(keepends=True)
                x, y, _ = lines[1].split(",")
                lines[1] = f"{x},{y},{value}\n"
                path.write_text("".join(lines))
            else:
                grid = read_raster_asc(path)
                values = grid.values.copy()
                first = np.flatnonzero(np.isfinite(values))[0]
                values[np.unravel_index(first, values.shape)] = float(value)
                write_raster_asc(RasterGrid(grid.origin_x, grid.origin_y, grid.cell, values),
                                 path)

        city, code, err = _indicators_on_copy(small_city, tmp_path / value, capsys, enlarge)
        assert code == 3, value
        assert err == (f"error: {city / name}: {message}"
                       "semivariances too large to fit: their sums overflow\n"), value


@pytest.mark.parametrize("damage, message", [
    ("header", "line 1: missing column(s) reasons, greenable_m2, height_m, age_years, category"),
    ("short", "line 2: expected 7 fields, got 3"),
    ("long", "line 3: expected 7 fields, got 8"),
    ("abc", "line 2: column greenable_m2: 'abc' is not a valid float"),
])
def test_damaged_buildings_table_exit_one(small_city, tmp_path, capsys, damage, message):
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    lines = (out / "buildings.csv").read_text().splitlines(keepends=True)
    if damage == "header":
        lines = ["id,potential\n"]
    elif damage == "short":
        lines[1] = ",".join(lines[1].split(",")[:3]) + "\n"
    elif damage == "abc":
        fields = lines[1].split(",")
        fields[lines[0].split(",").index("greenable_m2")] = "abc"
        lines[1] = ",".join(fields)
    else:
        lines[2] = lines[2].rstrip("\n") + ",extra\n"
    (out / "buildings.csv").write_text("".join(lines))
    code = cli.main(["benefits", "--config", str(small_city / "config.txt"),
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"buildings.csv: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("table, column, value, message", [
    ("cells.csv", "row", "2.5", "column row: '2.5' is not a valid int"),
    ("segments.csv", "plane_a", "", "column plane_a: '' is not a valid float"),
    ("indicators.csv", "ind_income", "high", "column ind_income: 'high' is not a valid float"),
    ("buildings.csv", "potential", "TRUE", "column potential: 'TRUE' is not a valid flag"),
    ("segments.csv", "qualifying", "yes", "column qualifying: 'yes' is not a valid flag"),
    # a float column parses nan and inf, which the table layer refuses
    ("indicators.csv", "gc_raw", "nan", "column gc_raw: 'nan' is not a finite number"),
    ("indicators.csv", "gc_raw", "-inf", "column gc_raw: '-inf' is not a finite number"),
    ("buildings.csv", "height_m", "nan", "column height_m: 'nan' is not a finite number"),
    ("buildings.csv", "height_m", "inf", "column height_m: 'inf' is not a finite number"),
])
def test_non_numeric_stage_value_exit_one(small_city, tmp_path, capsys, table, column, value,
                                          message):
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    lines = (out / table).read_text().splitlines(keepends=True)
    fields = lines[1].rstrip("\n").split(",")
    fields[lines[0].rstrip("\n").split(",").index(column)] = value
    lines[1] = ",".join(fields) + "\n"
    (out / table).write_text("".join(lines))
    command = {"indicators.csv": "prioritize", "buildings.csv": "benefits"}.get(table, "indicators")
    code = cli.main([command, "--config", str(small_city / "config.txt"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{table}: line 2: {message}" in err
    assert "Traceback" not in err


def test_benefit_total_that_overflows_exit_three(small_city, tmp_path, capsys):
    # finite inputs whose products pass the largest float: the totals would
    # be inf on every energy, carbon and money row
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    lines = (out / "buildings.csv").read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    row = next(i for i, line in enumerate(lines)
               if line.split(",")[header.index("potential")] == "true")
    fields = lines[row].rstrip("\n").split(",")
    fields[header.index("greenable_m2")] = "1e308"
    lines[row] = ",".join(fields) + "\n"
    (out / "buildings.csv").write_text("".join(lines))
    code = cli.main(["benefits", "--config", str(small_city / "config.txt"), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: benefit energy_joules overflows to inf\n"


@pytest.mark.parametrize("first, rest, code, message", [
    # the total passes the largest float: it used to print numpy's
    # overflow warning (an error under the suite's filterwarnings) and
    # write an exposure of 0
    ("1e308", "1e308", 3, "population grid total overflows to inf"),
    ("-1", "5", 1, "population counts must be non-negative"),
    ("0", "0", 3, "population grid has zero total population"),
], ids=["overflow", "negative", "zero"])
def test_unusable_population_counts_name_the_file(small_city, tmp_path, capsys, first, rest,
                                                  code, message):
    city = tmp_path / "city"
    shutil.copytree(small_city, city)
    pop = city / "population.csv"
    header, *rows = pop.read_text().splitlines()
    counts = [first] + [rest] * (len(rows) - 1)
    rows = [row.rsplit(",", 1)[0] + "," + count for row, count in zip(rows, counts)]
    pop.write_text("\n".join([header, *rows]) + "\n")
    assert cli.main(["benefits", "--config", str(city / "config.txt"),
                     "--out", str(city / "out")]) == code
    assert capsys.readouterr().err == f"error: {pop}: {message}\n"


def _old_cell_rows(segments):
    """The row loop that cli._cell_rows replaced: one list per cell."""
    return [[seg.building_id, seg.seg_id, str(row), str(col)]
            for seg in segments for row, col in seg.cells.tolist()]


# ids a footprint may carry: % is allowed, and must not act as a format
PERCENT_IDS = ("b001", "100%", "b%d", "%s%%", "%(x)s", "%", "h\u00e9%i")


@settings(max_examples=100, deadline=None)
@given(segments=st.lists(st.tuples(
    st.sampled_from(PERCENT_IDS), st.sampled_from(("s0001", "s%d", "%%")),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=6)),
    max_size=6))
def test_cell_rows_match_the_row_loop(segments, tmp_path_factory):
    segs = [RoofSegment(np.array(cells, dtype=np.int64).reshape(-1, 2), (0.0, 0.0, 0.0), 0.0,
                        1.0, building_id=bid, seg_id=sid)
            for bid, sid, cells in segments]
    tmp = tmp_path_factory.mktemp("cells")
    columns = cli.TABLES["cells.csv"].columns
    write_table(tmp / "want.csv", columns, _old_cell_rows(segs))
    write_table(tmp / "got.csv", columns, cli._cell_rows(segs))
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


def test_extract_names_height_fallbacks_on_stderr(small_city, tmp_path, capsys):
    # a footprint off the scene holds no roof cell: its height falls back to
    # 0, and extract names it on stderr; the rest of the run is unchanged
    doc = json.loads((small_city / "footprints.geojson").read_text())
    ring = [[-60.0, -60.0], [-50.0, -60.0], [-50.0, -50.0], [-60.0, -50.0], [-60.0, -60.0]]
    doc["features"].append({"type": "Feature",
                            "geometry": {"type": "Polygon", "coordinates": [ring]},
                            "properties": {"id": "zz%none", "age_years": 5, "category": "misc"}})
    (tmp_path / "footprints.geojson").write_text(json.dumps(doc))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"points = {small_city / 'points.csv'}\n"
                       "footprints = footprints.geojson\n")
    out = tmp_path / "out"
    assert cli.main(["extract", "--config", str(cfgfile), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: building zz%none: no roof cells inside footprint; "
                            "height_m set to 0\n")
    assert captured.out.startswith("extract: ") and captured.out.count("\n") == 1
    rows = _read_rows(out / "buildings.csv")
    assert [r["height_m"] for r in rows if r["id"] == "zz%none"] == ["0.000000"]
    assert [r for r in rows if r["id"] != "zz%none"] == \
        _read_rows(small_city / "out" / "buildings.csv")
    for name in ("dsm.asc", "segments.csv", "cells.csv"):
        assert filecmp.cmp(out / name, small_city / "out" / name, shallow=False), name

    # the city's own footprints all have roof cells: nothing on stderr
    code = cli.main(["extract", "--config", str(small_city / "config.txt"),
                     "--out", str(tmp_path / "plain")])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_building_id_with_comma_exit_one(small_city, tmp_path, capsys):
    # such an id used to pass extract and break segments.csv for indicators
    text = (small_city / "footprints.geojson").read_text()
    first_id = json.loads(text)["features"][0]["properties"]["id"]
    (tmp_path / "footprints.geojson").write_text(
        text.replace(json.dumps(first_id), json.dumps("b,001"), 1))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"points = {small_city / 'points.csv'}\n"
                       "footprints = footprints.geojson\n")
    code = cli.main(["extract", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "footprints.geojson: feature #0: building id 'b,001'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value, message", [
    ("id", None, "feature #0: id must be a JSON string, got None"),
    ("id", True, "feature #0: id must be a JSON string, got True"),
    ("id", -5, "feature #0: id must be a JSON string, got -5"),
    ("age_years", True, "{bid}: age_years must be a JSON integer, got True"),
    ("age_years", 2.7, "{bid}: age_years must be a JSON integer, got 2.7"),
    ("age_years", 1e308, "{bid}: age_years must be a JSON integer, got 1e+308"),
])
def test_footprint_property_of_wrong_json_type_exit_one(small_city, tmp_path, capsys, key,
                                                        value, message):
    # these used to be read as the text 'None', 'True', '-5' and through int()
    doc = json.loads((small_city / "footprints.geojson").read_text())
    props = doc["features"][0]["properties"]
    bid = props["id"]
    props[key] = value
    (tmp_path / "footprints.geojson").write_text(json.dumps(doc))
    (tmp_path / "points.csv").write_text("x,y,z,class\n0.5,0.5,10.0,1\n")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("points = points.csv\nfootprints = footprints.geojson\n")
    code = cli.main(["extract", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'footprints.geojson'}: {message.format(bid=bid)}" in err
    assert "Traceback" not in err


def _indicators_on_copy(small_city, tmp_path, capsys, edit):
    """indicators on a copy of the small city after edit(city): its exit
    code and stderr."""
    city = tmp_path / "city"
    shutil.copytree(small_city, city)
    edit(city)
    code = cli.main(["indicators", "--config", str(city / "config.txt"),
                     "--out", str(city / "out")])
    return city, code, capsys.readouterr().err


def test_potential_building_without_footprint_exit_one(small_city, tmp_path, capsys):
    # used to end in a KeyError traceback
    first = next(r["id"] for r in _read_rows(small_city / "out" / "buildings.csv")
                 if r["potential"] == "true")

    def drop_footprint(city):
        doc = json.loads((city / "footprints.geojson").read_text())
        doc["features"] = [f for f in doc["features"] if f["properties"]["id"] != first]
        (city / "footprints.geojson").write_text(json.dumps(doc))

    city, code, err = _indicators_on_copy(small_city, tmp_path, capsys, drop_footprint)
    assert code == 1
    assert err == (f"error: {city / 'out' / 'buildings.csv'}: potential building {first!r} "
                   f"has no feature in {city / 'footprints.geojson'}\n")


@pytest.mark.parametrize("potential", [True, False])
def test_no_main_road_names_the_roads_file(small_city, tmp_path, capsys, potential):
    # road distance is measured to the main roads; with no potential building
    # there is nothing to measure, and the run still succeeds
    def edit(city):
        doc = json.loads((city / "roads.geojson").read_text())
        for feature in doc["features"]:
            feature["properties"]["class"] = "minor"
        (city / "roads.geojson").write_text(json.dumps(doc))
        if not potential:
            table = city / "out" / "buildings.csv"
            table.write_text(table.read_text().replace(",true,", ",false,"))

    city, code, err = _indicators_on_copy(small_city, tmp_path, capsys, edit)
    if potential:
        assert code == 1
        assert err == (f"error: {city / 'roads.geojson'}: no polylines with class 'main' "
                       "to measure against\n")
    else:
        assert code == 0 and err == ""
        assert (city / "out" / "indicators.csv").read_text() == IND_HEADER + "\n"


@pytest.mark.parametrize("value", ["-1", "1e308", "0.5", "-9999"])
def test_greenspace_mask_value_not_0_or_1_exit_one(small_city, tmp_path, capsys, value):
    # benefits used to count any value above 0 as green; -9999 is the nodata marker
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    lines = (out / "greenspace_greened.asc").read_text().splitlines(keepends=True)
    lines[-1] = " ".join([value] + lines[-1].split()[1:]) + "\n"
    (out / "greenspace_greened.asc").write_text("".join(lines))
    code = cli.main(["benefits", "--config", str(small_city / "config.txt"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    shown = "nan" if value == "-9999" else repr(float(value))
    assert (f"{out / 'greenspace_greened.asc'}: greenspace mask holds {shown}; "
            "its cells must be 0 or 1") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("damage", ["row dropped", "header only", "stray row"])
def test_priorities_lacking_an_indicators_id_exit_one(small_city, tmp_path, capsys, damage):
    # a header-only priorities.csv used to give a report with no priority
    # lines, and a stray row a priority for a building that was not scored
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    lines = (out / "priorities.csv").read_text().splitlines(keepends=True)
    if damage == "header only":
        first = (out / "indicators.csv").read_text().split("\n")[1]
        lines, missing = lines[:1], first.split(",")[0]
        message = f"no priority for building {missing} of indicators.csv"
    elif damage == "row dropped":
        missing = lines[2].split(",")[0]
        del lines[2]
        message = f"no priority for building {missing} of indicators.csv"
    else:
        def ids(name):
            return [line.split(",")[0] for line in (out / name).read_text().splitlines()[1:]]
        stray = next(bid for bid in ids("buildings.csv") if bid not in ids("indicators.csv"))
        lines.append(stray + lines[1][lines[1].index(","):])
        message = f"building {stray} is not in indicators.csv"
    (out / "priorities.csv").write_text("".join(lines))
    code = cli.main(["report", "--config", str(small_city / "config.txt"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{out / 'priorities.csv'}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e309"])
def test_non_finite_point_coordinate_exit_one(small_city, tmp_path, capsys, column, token):
    lines = (small_city / "points.csv").read_text().splitlines(keepends=True)[:5]
    fields = lines[3].split(",")
    fields[column] = token
    lines[3] = ",".join(fields)
    (tmp_path / "points.csv").write_text("".join(lines))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"points = points.csv\nfootprints = {small_city / 'footprints.geojson'}\n")
    code = cli.main(["extract", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'points.csv'}: line 4: coordinates must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("token", ["256", "-255"])
def test_class_code_past_uint8_exit_one(small_city, tmp_path, capsys, token):
    # as uint8, 256 and -255 would wrap to ground and building
    lines = (small_city / "points.csv").read_text().splitlines(keepends=True)[:5]
    lines[3] = ",".join(lines[3].split(",")[:3] + [token]) + "\n"
    (tmp_path / "points.csv").write_text("".join(lines))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"points = points.csv\nfootprints = {small_city / 'footprints.geojson'}\n")
    code = cli.main(["extract", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'points.csv'}: line 4: unknown class code {token}" in err
    assert "Traceback" not in err


def test_malformed_footprint_exit_one(tmp_path, capsys):
    (tmp_path / "points.csv").write_text("x,y,z,class\n0.5,0.5,10.0,1\n")
    (tmp_path / "footprints.geojson").write_text(
        '{"type": "FeatureCollection", "features": ["x"]}')
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("points = points.csv\nfootprints = footprints.geojson\n")
    code = cli.main(["extract", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "footprints.geojson: feature #0" in err
    assert "Traceback" not in err


def test_missing_config_file_exit_one(tmp_path, capsys):
    code = cli.main(["extract", "--config", str(tmp_path / "no.cfg")])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_bad_scheme_rejected_by_parser(small_city):
    config = str(small_city / "config.txt")
    with pytest.raises(SystemExit):
        cli.main(["prioritize", "--config", config, "--scheme", "subjective"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["transmogrify"])


def test_prioritize_without_rows_exit_three(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("")
    out = tmp_path / "out"
    out.mkdir()
    (out / "indicators.csv").write_text(IND_HEADER + "\n")
    code = cli.main(["prioritize", "--config", str(cfgfile),
                     "--out", str(out)])
    assert code == 3
    assert "no potential buildings" in capsys.readouterr().err


def test_prioritize_single_row_equal_fallback(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("")
    out = tmp_path / "out"
    out.mkdir()
    (out / "indicators.csv").write_text(
        IND_HEADER + "\n"
        + "b1,0.1,50,private,30000,21,30,26,15,1800,"
        + "0.3,0.9,1.0,0.4,0.5,0.6\n")
    code = cli.main(["prioritize", "--config", str(cfgfile),
                     "--out", str(out)])
    assert code == 0
    rows = _read_rows(out / "priorities.csv")
    assert len(rows) == 1
    assert rows[0]["rank"] == "1"
    assert float(rows[0]["percentile"]) == 100.0
    for r in _read_rows(out / "weights.csv"):
        for col in cli.WEIGHT_COLUMNS:
            assert float(r[col]) == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_benefits_reference_scale_aggregates(tmp_path, capsys):
    """Feed citywide-scale inputs through the benefits stage end to end."""
    out = tmp_path / "out"
    out.mkdir()
    area = 63.9e6
    height = 1.4395e9 / area
    (out / "buildings.csv").write_text(
        "id,potential,reasons,greenable_m2,height_m,age_years,category\n"
        f"b1,true,,{area!r},{height!r},10,private\n")
    (out / "indicators.csv").write_text(IND_HEADER + "\n")
    zeros = RasterGrid(0.0, 0.0, 5.0, np.zeros((4, 4)))
    ones = RasterGrid(0.0, 0.0, 5.0, np.ones((4, 4)))
    write_raster_asc(zeros, str(out / "greenspace_base.asc"))
    write_raster_asc(ones, str(out / "greenspace_greened.asc"))
    pop = tmp_path / "population.csv"
    pop.write_text("x,y,count\n10.0,10.0,50\n")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"population = {pop.name}\n")

    code = cli.main(["benefits", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    m = _read_metric_map(out / "benefits.csv")
    assert m["greenable_area_m2"] == pytest.approx(63.9e6)
    assert m["energy_kwh"] == pytest.approx(2.33e8, rel=0.01)
    assert m["carbon_direct_kg"] == pytest.approx(93294e3, rel=0.005)
    assert m["carbon_indirect_kg"] == pytest.approx(182905e3, rel=0.005)
    assert m["carbon_total_kg"] == pytest.approx(276e6, rel=0.005)
    assert m["value_energy_hkd"] == pytest.approx(300.6e6, rel=0.005)
    assert m["value_carbon_hkd"] == pytest.approx(17.9e6, rel=0.005)
    assert m["value_total_hkd"] == pytest.approx(318e6, rel=0.005)
    assert "skipped" in capsys.readouterr().out
    reg_lines = (out / "regression.csv").read_text().splitlines()
    assert len(reg_lines) == 1


def test_all_old_buildings_yield_zero_potential(tmp_path, capsys):
    city = tmp_path / "city"
    generate_city(SyntheticCitySpec(seed=19, n_buildings=3, old_share=1.0),
                  str(city))
    config = str(city / "config.txt")
    out = str(city / "out")
    assert cli.main(["extract", "--config", config, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "0/3" in printed
    rows = _read_rows(city / "out" / "buildings.csv")
    assert len(rows) == 3
    for r in rows:
        assert r["potential"] == "false"
        assert "age" in r["reasons"]
