import csv
import json
import re
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenprior import cli, ingest
from greenprior.geocore import BUILDING, CLASS_NAMES, GROUND, PointCloud, RasterGrid
from greenprior.ingest import (
    FormatError,
    f6,
    flag,
    optional_float,
    read_footprints,
    read_point_cloud,
    read_raster_asc,
    read_roads,
    read_table,
    read_xy_value,
    write_point_cloud,
    write_raster_asc,
    write_table,
    write_xy_value,
)


def feature_collection(features):
    return {"type": "FeatureCollection", "features": features}


def square_feature(bid, age=10, category="public", x0=0.0, y0=0.0, side=10.0):
    ring = [[x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side], [x0, y0]]
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [ring]},
        "properties": {"id": bid, "age_years": age, "category": category},
    }


# ---------------------------------------------------------------------------
# point cloud CSV
# ---------------------------------------------------------------------------

def test_read_point_cloud_single_line(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("1.0,2.0,3.0,1\n")
    pc = read_point_cloud(p)
    assert len(pc) == 1
    assert pc.xyz.tolist() == [[1.0, 2.0, 3.0]]
    assert pc.cls[0] == BUILDING


def test_read_point_cloud_with_header(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("x,y,z,class\n0,0,5,1\n1,1,0,0\n")
    pc = read_point_cloud(p)
    assert len(pc) == 2
    assert pc.cls.tolist() == [BUILDING, GROUND]


def test_read_point_cloud_malformed_line_names_lineno(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("1.0,2.0,abc,1\n")
    with pytest.raises(FormatError, match="line 1"):
        read_point_cloud(p)
    p.write_text("x,y,z,class\n1,2,3,1\n1.0,oops,3.0,1\n")
    with pytest.raises(FormatError, match="line 3"):
        read_point_cloud(p)


def test_read_point_cloud_unknown_class(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("1,2,3,7\n")
    with pytest.raises(FormatError, match="class code"):
        read_point_cloud(p)


def test_read_point_cloud_empty(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("x,y,z,class\n")
    with pytest.raises(FormatError, match="no points"):
        read_point_cloud(p)


def test_point_cloud_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    pc = PointCloud(np.round(rng.uniform(0, 100, (50, 3)), 4),
                    rng.integers(0, 4, 50).astype(np.uint8))
    p = tmp_path / "pts.csv"
    write_point_cloud(pc, p)
    back = read_point_cloud(p)
    np.testing.assert_array_equal(back.xyz, pc.xyz)
    np.testing.assert_array_equal(back.cls, pc.cls)


def _write_point_cloud_oracle(pc, path):
    """The per-row writer that write_point_cloud replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,z,class\n")
        for (x, y, z), c in zip(pc.xyz, pc.cls):
            fh.write(f"{x:.4f},{y:.4f},{z:.4f},{int(c)}\n")


# values whose four-decimal text is easy to get wrong: signed zeros, values
# that round to -0.0000 or to a carry, ties, and large magnitudes
AWKWARD_COORDS = (0.0, -0.0, -0.00004, -0.00005, 0.00005, 0.99995, -0.99995, 1.00005,
                  2.5e-5, 1e15 + 0.3, -1e16, 1.7976931348623157e308, -5e-324, 1234.56785)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(
           st.lists(st.one_of(st.sampled_from(AWKWARD_COORDS),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=3, max_size=3),
           st.sampled_from(sorted(CLASS_NAMES))), max_size=40),
       block=st.sampled_from((1, 3, 4096)))
@example(rows=[([x, -x, x], code) for x, code in zip(AWKWARD_COORDS, [0, 1, 2, 3] * 4)],
         block=4096)
@example(rows=[], block=4096)
def test_point_writer_matches_per_row_oracle(tmp_path_factory, rows, block):
    xyz = np.array([r[0] for r in rows], dtype=float).reshape(-1, 3)
    pc = PointCloud(xyz, np.array([r[1] for r in rows], dtype=np.uint8))
    folder = tmp_path_factory.mktemp("pc")
    got, want = folder / "got.csv", folder / "want.csv"
    with mock.patch.object(ingest, "POINT_BLOCK_LINES", block):
        write_point_cloud(pc, got)
    _write_point_cloud_oracle(pc, want)
    assert got.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------------------
# footprints
# ---------------------------------------------------------------------------

def test_read_footprints_valid(tmp_path):
    p = tmp_path / "fp.geojson"
    p.write_text(json.dumps(feature_collection([square_feature("b1")])))
    out = read_footprints(p)
    assert len(out) == 1
    assert out[0].id == "b1"
    assert out[0].age_years == 10
    assert out[0].category == "public"
    assert out[0].footprint.area() == pytest.approx(100.0)


def test_read_footprints_duplicate_id(tmp_path):
    p = tmp_path / "fp.geojson"
    p.write_text(json.dumps(feature_collection(
        [square_feature("b1"), square_feature("b1", x0=50.0)])))
    with pytest.raises(FormatError, match="duplicate building id 'b1'"):
        read_footprints(p)


def test_read_footprints_missing_property(tmp_path):
    feat = square_feature("b2")
    del feat["properties"]["age_years"]
    p = tmp_path / "fp.geojson"
    p.write_text(json.dumps(feature_collection([feat])))
    with pytest.raises(FormatError, match="b2.*age_years"):
        read_footprints(p)


def test_read_footprints_rejects_non_polygon(tmp_path):
    feat = square_feature("b1")
    feat["geometry"]["type"] = "Point"
    feat["geometry"]["coordinates"] = [0.0, 0.0]
    p = tmp_path / "fp.geojson"
    p.write_text(json.dumps(feature_collection([feat])))
    with pytest.raises(FormatError, match="Polygon"):
        read_footprints(p)


def test_read_footprints_bad_category(tmp_path):
    p = tmp_path / "fp.geojson"
    p.write_text(json.dumps(feature_collection([square_feature("b1", category="retail")])))
    with pytest.raises(FormatError, match="category"):
        read_footprints(p)


# ---------------------------------------------------------------------------
# roads
# ---------------------------------------------------------------------------

def test_read_roads(tmp_path):
    doc = feature_collection([
        {"type": "Feature",
         "geometry": {"type": "LineString", "coordinates": [[0, 0], [100, 0]]},
         "properties": {"class": "main"}},
        {"type": "Feature",
         "geometry": {"type": "LineString", "coordinates": [[0, 50], [100, 50], [100, 150]]},
         "properties": {"class": "minor"}},
    ])
    p = tmp_path / "roads.geojson"
    p.write_text(json.dumps(doc))
    lines = read_roads(p)
    assert [ln.tag for ln in lines] == ["main", "minor"]
    assert lines[1].coords.shape == (3, 2)


def test_read_roads_bad_class(tmp_path):
    doc = feature_collection([
        {"type": "Feature",
         "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]},
         "properties": {"class": "arterial"}},
    ])
    p = tmp_path / "roads.geojson"
    p.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="road class"):
        read_roads(p)


def _road_feature():
    return {"type": "Feature",
            "geometry": {"type": "LineString", "coordinates": [[0, 0], [100, 0]]},
            "properties": {"class": "main"}}


@pytest.mark.parametrize("reader, key, value, label", [
    pytest.param(read_footprints, None, "x", "feature #0", id="footprint-not-an-object"),
    pytest.param(read_footprints, "properties", 3, "feature #0", id="footprint-properties-3"),
    pytest.param(read_footprints, "geometry", [1], "feature #0", id="footprint-geometry-list"),
    pytest.param(read_footprints, "coordinates", 5, "b1", id="footprint-coordinates-5"),
    pytest.param(read_footprints, "coordinates", [["a", "b"]] * 5, "b1",
                 id="footprint-ring-of-strings"),
    pytest.param(read_footprints, "coordinates", [[{}, {}]] * 5, "b1",
                 id="footprint-ring-of-objects"),
    pytest.param(read_footprints, "coordinates", [[[0, 0], [1]]], "b1", id="footprint-ragged"),
    pytest.param(read_roads, None, None, "feature #0", id="road-null"),
    pytest.param(read_roads, "properties", 3, "feature #0", id="road-properties-3"),
    pytest.param(read_roads, "coordinates", 5, "feature #0", id="road-coordinates-5"),
    pytest.param(read_roads, "coordinates", [["a", "b"], ["c", "d"]], "feature #0",
                 id="road-line-of-strings"),
    pytest.param(read_roads, "coordinates", [[0, {}], [1, 1]], "feature #0",
                 id="road-line-with-object"),
])
def test_malformed_features_raise_format_error(tmp_path, reader, key, value, label):
    feat = square_feature("b1") if reader is read_footprints else _road_feature()
    if key is None:
        feat = value
    elif key == "coordinates":
        feat["geometry"]["coordinates"] = value
    else:
        feat[key] = value
    p = tmp_path / "layer.geojson"
    p.write_text(json.dumps(feature_collection([feat])))
    with pytest.raises(FormatError) as info:
        reader(p)
    assert str(info.value).startswith(f"{p}: {label}: ")


@pytest.mark.parametrize("bid", ["b,001", 'b"1', "b\n1", "b\r1"])
def test_building_id_that_breaks_stage_tables_is_rejected(tmp_path, bid):
    # stage tables are plain comma-separated lines with no quoting
    p = tmp_path / "footprints.geojson"
    p.write_text(json.dumps(feature_collection([square_feature("b0"), square_feature(bid)])))
    with pytest.raises(FormatError) as info:
        read_footprints(p)
    assert str(info.value).startswith(f"{p}: feature #1: building id {bid!r}")


# ---------------------------------------------------------------------------
# x,y,value CSV
# ---------------------------------------------------------------------------

def test_read_xy_value(tmp_path):
    p = tmp_path / "st.csv"
    p.write_text("x,y,value\n10.0,20.0,1.5\n30.0,40.0,-2.25\n")
    arr = read_xy_value(p)
    assert arr.shape == (2, 3)
    assert arr[1].tolist() == [30.0, 40.0, -2.25]


def test_read_xy_value_requires_header(tmp_path):
    p = tmp_path / "st.csv"
    p.write_text("10.0,20.0,1.5\n30.0,40.0,2.5\n")
    with pytest.raises(FormatError, match="header"):
        read_xy_value(p)


def test_read_xy_value_bad_line(tmp_path):
    p = tmp_path / "st.csv"
    p.write_text("x,y,value\n10.0,20.0\n")
    with pytest.raises(FormatError, match="line 2"):
        read_xy_value(p)


def test_xy_value_roundtrip(tmp_path):
    arr = np.array([[1.25, 2.5, 3.125], [100.0625, -7.5, 0.015625]])
    p = tmp_path / "st.csv"
    write_xy_value(arr, p)
    back = read_xy_value(p)
    np.testing.assert_allclose(back, arr, atol=1e-6)


# ---------------------------------------------------------------------------
# ESRI ASCII rasters
# ---------------------------------------------------------------------------

def test_raster_roundtrip_bit_exact(tmp_path):
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    g = RasterGrid(10.0, 20.0, 5.0, vals)
    p = tmp_path / "g.asc"
    write_raster_asc(g, p)
    back = read_raster_asc(p)
    assert (back.origin_x, back.origin_y, back.cell) == (g.origin_x, g.origin_y, g.cell)
    assert np.array_equal(back.values, g.values, equal_nan=True)


def test_raster_roundtrip_awkward_floats(tmp_path):
    rng = np.random.default_rng(13)
    vals = rng.standard_normal((7, 5)) * 1e3 + 0.1234567890123
    vals[2, 3] = np.nan
    vals[0, 0] = np.nan
    g = RasterGrid(-1.5, 2.25, 0.7, vals)
    p = tmp_path / "g.asc"
    write_raster_asc(g, p)
    back = read_raster_asc(p)
    assert (back.origin_x, back.origin_y, back.cell) == (g.origin_x, g.origin_y, g.cell)
    # bit-exact, nodata placement included
    assert np.array_equal(back.values, g.values, equal_nan=True)


def test_raster_row_order_top_first(tmp_path):
    # top row of the file must be the northernmost row
    g = RasterGrid(0.0, 0.0, 1.0, np.array([[1.0, 2.0], [3.0, 4.0]]))  # row 0 = south
    p = tmp_path / "g.asc"
    write_raster_asc(g, p)
    lines = p.read_text().strip().splitlines()
    assert lines[-2].split() == ["3.0", "4.0"]  # north row written first
    assert lines[-1].split() == ["1.0", "2.0"]


def _write_raster_asc_oracle(grid, path, nodata=-9999.0, decimals=None):
    """The per-element writer that write_raster_asc replaced, with the CSV
    tables' f6 at 6 decimals."""
    fmt = repr if decimals is None else f6
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ncols {grid.ncols}\n")
        fh.write(f"nrows {grid.nrows}\n")
        fh.write(f"xllcorner {repr(grid.origin_x)}\n")
        fh.write(f"yllcorner {repr(grid.origin_y)}\n")
        fh.write(f"cellsize {repr(grid.cell)}\n")
        fh.write(f"NODATA_value {repr(nodata)}\n")
        for row in np.flipud(grid.values):
            fh.write(" ".join(repr(nodata) if np.isnan(v) else fmt(float(v)) for v in row))
            fh.write("\n")


@pytest.mark.parametrize("decimals", [None, 6])
def test_raster_writer_matches_per_element_oracle(tmp_path, decimals):
    vals = np.array([
        [np.nan, -0.0, np.inf, -np.inf],
        [5e-324, 1e-7, 1e16, 0.1 + 0.2],
        [-9999.0, 0.0, -1.5, np.nan],
    ])
    g = RasterGrid(-1.5, 2.25, 0.7, vals)
    got, want = tmp_path / "got.asc", tmp_path / "want.asc"
    write_raster_asc(g, got, decimals=decimals)
    _write_raster_asc_oracle(g, want, decimals=decimals)
    assert got.read_bytes() == want.read_bytes()


def test_raster_writer_drops_the_sign_of_a_value_that_rounds_to_zero(tmp_path):
    g = RasterGrid(0.0, 0.0, 1.0, np.array([[-0.0, -4e-7, 4e-7, -6e-7]]))
    p = tmp_path / "g.asc"
    write_raster_asc(g, p, decimals=6)
    assert p.read_text().splitlines()[-1] == "0.000000 0.000000 0.000000 -0.000001"
    with pytest.raises(KeyError):  # repr or 6 decimals, nothing else
        write_raster_asc(g, p, decimals=3)


RASTER_VALUES = (-0.0, 0.0, np.inf, -np.inf, 5e-324, 1e-7, 1e16, 0.1 + 0.2, -9999.0,
                 0.0000005, -0.0000004, 123.4567895, 1.7976931348623157e308)


@st.composite
def raster_rows(draw):
    """A grid whose rows are each all NaN, mixed, free of NaN, or NaN but
    in the first and last columns."""
    ncols = draw(st.integers(1, 12))
    values = st.one_of(st.sampled_from(RASTER_VALUES),
                       st.floats(allow_nan=False, width=draw(st.sampled_from((32, 64)))))
    rows = []
    for kind in draw(st.lists(st.sampled_from(("empty", "mixed", "full", "ends")), min_size=1,
                              max_size=8)):
        row = draw(st.lists(values, min_size=ncols, max_size=ncols))
        if kind == "empty":
            row = [np.nan] * ncols
        elif kind == "ends":
            row[1:-1] = [np.nan] * len(row[1:-1])
        elif kind == "mixed":
            for col in draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=ncols)):
                row[col] = np.nan
        rows.append(row)
    return RasterGrid(-1.5, 2.25, 0.7, np.array(rows, dtype=float))


@settings(max_examples=150, deadline=None)
@given(grid=raster_rows(), decimals=st.sampled_from((None, 6)),
       nodata=st.sampled_from((-9999.0, 0.0, -1e30)))
def test_raster_writer_matches_oracle_row_by_row(tmp_path_factory, grid, decimals, nodata):
    # the dense grid and its occupied cells (a SparseGrid, as dsm.asc is
    # written from) must both give the oracle's bytes
    folder = tmp_path_factory.mktemp("asc")
    got, want = folder / "got.asc", folder / "want.asc"
    _write_raster_asc_oracle(grid, want, nodata=nodata, decimals=decimals)
    for raster in (grid, grid.occupied_cells()):
        write_raster_asc(raster, got, nodata=nodata, decimals=decimals)
        assert got.read_bytes() == want.read_bytes()


# few values, many cells: the writer formats each distinct bit pattern once,
# so values that share a text at 6 decimals, or a sign only (-0.0), and NaN
# payloads must still come out as the per-element oracle writes them
REPEATED_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1.0, 0.1,
                   0.1000000001, 0.0999999999, -0.0000004, 1e-300, np.nan,
                   *np.array([0x7FF8000000000001, -0x0008000000000000]).view(np.float64).tolist())


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.sampled_from(REPEATED_VALUES), min_size=1, max_size=60),
       ncols=st.integers(1, 9), decimals=st.sampled_from((None, 6)))
def test_raster_writer_formats_repeated_values_as_oracle(tmp_path_factory, values, ncols,
                                                         decimals):
    values += [values[-1]] * (-len(values) % ncols)
    grid = RasterGrid(0.0, 0.0, 1.0, np.array(values).reshape(-1, ncols))
    folder = tmp_path_factory.mktemp("asc")
    got, want = folder / "got.asc", folder / "want.asc"
    _write_raster_asc_oracle(grid, want, decimals=decimals)
    for raster in (grid, grid.occupied_cells()):
        write_raster_asc(raster, got, decimals=decimals)
        assert got.read_bytes() == want.read_bytes()


def test_raster_missing_header_keyword(tmp_path):
    p = tmp_path / "g.asc"
    p.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 4\n")
    with pytest.raises(FormatError, match="nodata_value"):
        read_raster_asc(p)


def test_raster_value_count_mismatch(tmp_path):
    p = tmp_path / "g.asc"
    p.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                 "NODATA_value -9999\n1 2 3\n")
    with pytest.raises(FormatError, match="expected 4 values"):
        read_raster_asc(p)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_table_round_trip(tmp_path):
    columns = {"id": str, "active": flag, "n": int, "x": optional_float}
    path = tmp_path / "t.csv"
    write_table(path, columns, [["a", "true", "3", "1.500000"], ["b", "false", "-2", ""]])
    assert path.read_text() == "id,active,n,x\na,true,3,1.500000\nb,false,-2,\n"
    assert read_table(path, columns) == {
        "id": ["a", "b"], "active": [True, False], "n": [3, -2], "x": [1.5, None]}


def test_table_refuses_a_quote_and_names_its_line(tmp_path):
    # write_table never quotes a field, so a quote is damage, not csv quoting
    columns = {"id": str, "n": int}
    path = tmp_path / "t.csv"
    for text, line in (('id,n\na,1\n"b",2\n', 3), ('"id",n\na,1\n', 1),
                       ('id,n\na,1\n\nb,"2,3"\n', 4), ('id,n\na,1\nb,2\nc,3"\n', 4)):
        path.write_text(text)
        with pytest.raises(FormatError, match=f"line {line}: holds a double quote"):
            read_table(path, columns)


def test_table_reads_crlf_and_cr_as_lf(tmp_path):
    columns = {"id": str, "n": int}
    path = tmp_path / "t.csv"
    want = {"id": ["a", "b"], "n": [1, 2]}
    for end in ("\r\n", "\r"):
        path.write_bytes(end.join(["id,n", "a,1", "b,2", ""]).encode())
        assert read_table(path, columns) == want
    path.write_bytes(b"id,n\r\na,1\r\n\r\nb,x\r\n")
    with pytest.raises(FormatError, match=r"line 4: column n: 'x' is not a valid int$"):
        read_table(path, columns)


def test_table_names_lines_after_skipped_blank_lines(tmp_path):
    columns = {"id": str, "n": int}
    path = tmp_path / "t.csv"
    for body, message in (("a,1\n\n\nb,2,3\n", "line 5: expected 2 fields, got 3"),
                          ("\na,1\n\nb,2\n\nc,z\n", "line 7: column n: 'z' is not a valid int"),
                          ("a,1\n\n\n\nb,\n", "line 6: column n: '' is not a valid int")):
        path.write_text("id,n\n" + body)
        with pytest.raises(FormatError, match=f"{message}$"):
            read_table(path, columns)
    path.write_text("\nid,n\na,1\n")
    with pytest.raises(FormatError, match="line 1: missing column"):
        read_table(path, columns)


def test_table_refuses_non_finite_numbers(tmp_path):
    # float() reads nan and inf, but no stage writes them: a float, or an
    # optional_float that is not empty, must be finite
    columns = {"id": str, "x": float, "y": optional_float}
    path = tmp_path / "t.csv"
    for body, message in (("a,nan,1\n", "line 2: column x: 'nan' is not a finite number"),
                          ("a,1,\nb,2,-inf\n", "line 3: column y: '-inf' is not a finite number"),
                          ("a,1e309,1\n", "line 2: column x: '1e309' is not a finite number")):
        path.write_text("id,x,y\n" + body)
        with pytest.raises(FormatError, match=f"{message}$"):
            read_table(path, columns)


def test_every_stage_table_reads_as_its_lines(small_city):
    # str columns come back as the split fields themselves, the others parsed
    for name, table in cli.TABLES.items():
        path = small_city / "out" / name
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows or name == "regression.csv"
        assert read_table(path, table.columns) == {
            column: [kind(row[column]) for row in rows]
            for column, kind in table.columns.items()}


# ---------------------------------------------------------------------------
# building report: cmd_report writes it with write_table and write_features
# ---------------------------------------------------------------------------

REPORT_HEADER = list(cli.TABLES["buildings_report.csv"].columns)


def _report_files(out):
    with open(out / "buildings_report.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    features = json.loads((out / "buildings_report.geojson").read_text())["features"]
    return lines, features


def test_building_report_roundtrip(small_city):
    out = small_city / "out"
    lines, features = _report_files(out)
    table = read_table(out / "buildings_report.csv", cli.TABLES["buildings_report.csv"].columns)
    rows = [dict(zip(table, values)) for values in zip(*table.values())]
    pri = read_table(out / "priorities.csv", cli.TABLES["priorities.csv"].columns)
    priorities = dict(zip(pri["id"], pri["priority"]))
    assert [r["id"] for r in rows] == [f["properties"]["id"] for f in features]
    assert all(f["geometry"]["type"] == "Polygon" for f in features)
    missing = 0
    for line, row, feature in zip(lines[1:], rows, features):
        props = feature["properties"]
        assert list(props) == REPORT_HEADER
        assert props["potential"] is row["potential"]
        assert row["priority"] == priorities.get(row["id"])
        for column, text in zip(REPORT_HEADER[2:], line[2:]):
            # a missing value is an empty field in the CSV and null in the GeoJSON
            missing += text == ""
            assert props[column] == row[column]
            assert (props[column] is None) == (text == "")
    assert missing > 0
    assert any(r["priority"] is not None for r in rows)


def test_building_report_formatting(small_city):
    lines, _ = _report_files(small_city / "out")
    assert lines[0] == REPORT_HEADER
    assert {line[1] for line in lines[1:]} == {"true", "false"}
    numbers = [text for line in lines[1:] for text in line[2:] if text]
    assert numbers
    for text in numbers:  # 6 decimal places, always, and never a negative zero
        assert re.fullmatch(r"-?\d+\.\d{6}", text), text
        assert text != "-0.000000"


def test_building_report_empty(small_city, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    header = (out / "buildings.csv").read_text().split("\n", 1)[0]
    (out / "buildings.csv").write_text(header + "\n")
    assert cli.main(["report", "--config", str(small_city / "config.txt"),
                     "--out", str(out)]) == 0
    lines, features = _report_files(out)
    assert lines == [REPORT_HEADER]  # header only
    assert features == []
