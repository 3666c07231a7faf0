"""Bulk point-cloud, raster and cell-table parsing against the line loops
they replaced.

``read_point_cloud`` parses the file with one ``np.loadtxt`` call and falls
back to its line loop to name a bad line, or where loadtxt reads numbers
differently from ``float()`` and ``int()``; ``read_raster_asc`` converts
its body with one ``np.loadtxt`` pass, and falls back to one cast over its
``str.split()`` tokens; ``read_table`` splits a stage table such as
``cells.csv`` into columns and converts each with one ``map``. The earlier
bodies below are kept as oracles: over generated files (awkward
number spellings, blank lines, CRLF, header present or absent, ragged
raster rows, wrong field counts, unknown class codes) the new
readers must give the same float bits, class codes and cells, or fail with
the same exception and message.

The table oracle is the csv-module reader ``read_table`` had before. It
unquoted a quoted field; stage tables are never quoted, and a quote is now
an error, so a generated file that holds one must fail with FormatError.

The point oracle has gained the reader's one later rule, a line whose
coordinates are not finite is malformed, so that both name that line. The
raster generator marks the two header quirks the old loop accepted, a
repeated keyword and a data line before the sixth keyword; the reader now
rejects those files, and the oracle is compared on the others.
"""
import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenprior import cli, ingest
from greenprior.geocore import CLASS_NAMES, PointCloud, RasterGrid
from greenprior.ingest import (
    FormatError,
    read_point_cloud,
    read_raster_asc,
    read_raster_geometry,
    read_table,
)

# ---------------------------------------------------------------------------
# oracles: the earlier per-line bodies
# ---------------------------------------------------------------------------


def _old_read_point_cloud(path):
    xyz = []
    cls = []

    def is_header(parts):
        try:
            float(parts[0])
        except ValueError:
            return True
        return False

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if lineno == 1 and is_header(parts):
                continue
            if len(parts) != 4:
                raise FormatError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                x, y, z = float(parts[0]), float(parts[1]), float(parts[2])
                code = int(parts[3])
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: could not parse {line!r}") from None
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise FormatError(f"{path}: line {lineno}: coordinates must be finite, "
                                  f"got {line!r}")
            if code not in CLASS_NAMES:
                raise FormatError(f"{path}: line {lineno}: unknown class code {code}")
            xyz.append((x, y, z))
            cls.append(code)
    if not xyz:
        raise FormatError(f"{path}: no points found")
    return PointCloud(np.array(xyz, dtype=float), np.array(cls, dtype=np.uint8))


_ASC_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def _old_read_raster_asc(path):
    header = {}
    data_tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            key = parts[0].lower()
            if len(header) < 6 and key in _ASC_KEYS and len(parts) == 2:
                try:
                    header[key] = float(parts[1])
                except ValueError:
                    raise FormatError(f"{path}: bad header value for {parts[0]}") from None
            else:
                data_tokens.extend(parts)
    missing = [k for k in _ASC_KEYS if k not in header]
    if missing:
        raise FormatError(f"{path}: missing header keyword(s): {', '.join(missing)}")
    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    if ncols < 1 or nrows < 1:
        raise FormatError(f"{path}: grid dimensions must be positive")
    if len(data_tokens) != ncols * nrows:
        raise FormatError(f"{path}: expected {ncols * nrows} values, found {len(data_tokens)}")
    try:
        flat = np.array([float(t) for t in data_tokens], dtype=float)
    except ValueError:
        raise FormatError(f"{path}: non-numeric raster value") from None
    nodata = header["nodata_value"]
    flat[flat == nodata] = np.nan
    values = np.flipud(flat.reshape(nrows, ncols))
    return RasterGrid(header["xllcorner"], header["yllcorner"], header["cellsize"], values)


# ---------------------------------------------------------------------------
# generated files
# ---------------------------------------------------------------------------

# spellings float() accepts or rejects in ways a hand-written parser could miss
AWKWARD_FLOATS = (
    "1_0", "1__0", "_1", "١٢", "１２", "Infinity", "-inf", "nan", "-nan",
    "nan(1)", "1e309", "-1e-400", "-0.0", "+5", " 1.5 ", "\t2", "　1", "3　",
    "\x1c1", "1\x1f", "3\x85", "1.0", "0x10", "1#", "#1", "", " ", "x", "1\x00", "5e-324",
)
CLASS_TOKENS = ("0", "1", "2", "3", " 2 ", "٢", "２", "0_1", "4", "-1", "1.0",
                "99999999999999999999", "x", "#1", "")

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
float_tokens = st.one_of(finite_floats.map(repr), st.sampled_from(AWKWARD_FLOATS),
                         st.floats().map(repr))
blank_lines = st.sampled_from(("", "   ", "\t", " 　 "))
line_ends = st.sampled_from(("\n", "\r\n"))


@st.composite
def point_files(draw):
    """The text of a point CSV: a header or not, mostly well-formed rows,
    blank lines, CRLF, and fields that are awkward or wrong."""
    good = draw(st.booleans())
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(("x,y,z,class", " X , Y , Z , class ", "#x,y,z,c"))))
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(blank_lines))
            continue
        coords = draw(st.lists(finite_floats.map(repr) if good else float_tokens,
                               min_size=3, max_size=3))
        code = draw(st.sampled_from(("0", "1", "2", "3") if good else CLASS_TOKENS))
        fields = coords + [code]
        if not good and draw(st.integers(0, 7)) == 0:
            fields = fields[:draw(st.integers(1, 3))] + ["1"] * draw(st.integers(0, 2))
        lines.append(draw(st.sampled_from(("", " ", "\t"))) + ",".join(fields)
                     + draw(st.sampled_from(("", " ", "\t"))))
    end = draw(line_ends)
    return end.join(lines) + draw(st.sampled_from(("", end)))


# what str.split() splits on between raster values: ASCII blanks, and
# characters a parser could take for part of a number, a line break or no
# separator at all
TOKEN_SEPARATORS = (" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
                    "\xa0", "\u3000", " \x0c\t")


@st.composite
def raster_files(draw):
    """(text, quirks) of an ESRI ASCII grid with a header in any order and
    case, and a body of awkward tokens wrapped across lines at random.
    quirks names the header faults drawn: "repeated" for a keyword given
    twice, "early" for a data line before the sixth keyword."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    spell = st.sampled_from(("{}", "{}.0", "{}e0"))
    header = [
        ("ncols", draw(spell).format(ncols)),
        ("nrows", draw(spell).format(nrows)),
        ("xllcorner", draw(st.one_of(finite_floats.map(repr), st.sampled_from(("1_0", "-0.0"))))),
        ("yllcorner", draw(finite_floats.map(repr))),
        ("cellsize", draw(st.one_of(st.floats(1e-3, 1e3).map(repr), st.just("２")))),
        ("NODATA_value", draw(st.sampled_from(("-9999", "-9999.0", "nan", "0", "1e309")))),
    ]
    header = draw(st.permutations(header))
    lines = [draw(st.sampled_from((k, k.upper(), k.capitalize()))) + " " + v for k, v in header]
    quirks = set()
    if draw(st.booleans()):  # both before the last keyword, so before the header ends
        again = draw(st.sampled_from([key for key, _ in header[:-1]]))
        lines.insert(draw(st.integers(0, len(lines) - 1)), again + " 7")
        quirks.add("repeated")
    good = draw(st.booleans())
    count = nrows * ncols + (0 if good else draw(st.sampled_from((0, 0, -1, 1))))
    values = (st.one_of(finite_floats.map(repr), st.sampled_from(("-9999", "nan")))
              if good else float_tokens)
    # whitespace inside a token separates values, as in the file
    body = " ".join(draw(st.lists(values, min_size=count, max_size=count))).split()
    rows = []
    while body:
        take = draw(st.integers(1, len(body)))
        seps = draw(st.lists(st.sampled_from(TOKEN_SEPARATORS), min_size=take - 1,
                             max_size=take - 1))
        rows.append(body[0] + "".join(sep + token for sep, token in zip(seps, body[1:take])))
        body = body[take:]
        if draw(st.integers(0, 4)) == 0:
            rows.append(draw(blank_lines))
    if rows and draw(st.integers(0, 4)) == 0:
        row = rows.pop(0)
        lines.insert(draw(st.integers(0, len(lines) - 1)), row)
        if row.strip():
            quirks.add("early")
    end = draw(line_ends)
    return end.join(lines + rows) + end, frozenset(quirks)


def _outcome_points(read, path):
    try:
        pc = read(path)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return (pc.xyz.view(np.int64).tolist(), pc.xyz.flags.c_contiguous,
            pc.cls.tolist(), pc.cls.dtype)


def _outcome_raster(read, path):
    try:
        g = read(path)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return (g.values.view(np.int64).tolist(),
            np.array([g.origin_x, g.origin_y, g.cell]).view(np.int64).tolist())


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(text=point_files())
@example(text="x,y,z,class\n1_0,١٢,１２,٢\n")
@example(text="1,2,3,1\r\n\r\n  \r\n4,5,6,2\r\n")
@example(text="x,y,z,class\n")
@example(text="\x1c1,2,3,1\n")
@example(text="1,2,3,99999999999999999999\n")
@example(text="1,2,Infinity,1\n")
@example(text="1,-nan,3,1\n")
@example(text="\n\n\n1,2,3,1\n")
@example(text="")
@example(text="1_0,2,3_5,0_1\n")
@example(text="+1,+2.5,+3e0,+2\n")
@example(text=" 1 , 2 ,\t3\t, 2 \n")
@example(text="x,y,z,class\r\n1,2,3,1\r\n4,5,6,2\r\n")
@example(text="1,2,3,1\n\n\n4,5,6,2\n\n")
@example(text="x,y,z,class")
@example(text="7.5,8.25,9,3")
@example(text="x,y,z,class\n7.5,8.25,9,3\n")
@example(text="1,2\x1c,3,1\n")
@example(text="1,2,3,\u01fe\n")
def test_point_cloud_matches_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("pc") / "points.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome_points(read_point_cloud, path) == _outcome_points(_old_read_point_cloud, path)


@pytest.mark.parametrize("text, message", [
    ("x,y,z,class\n1,2,3,1\n1,2,3\n", "line 3: expected 4 fields, got 3"),
    ("1,2,3,1\n\n1,2,3,1,5\n", "line 3: expected 4 fields, got 5"),
    ("1,2,3,1\n1,2,#3,1\n", "line 2: could not parse '1,2,#3,1'"),
    ("1,2,3,1.0\n", "line 1: could not parse '1,2,3,1.0'"),
    ("1,2,3,7\n", "line 1: unknown class code 7"),
    ("1,2,3,1\n1,nan,3,7\n1,2\n", "line 2: coordinates must be finite, got '1,nan,3,7'"),
    ("x,y,z,class\n1,2,3,1\n1e309,2,3,1\n", "line 3: coordinates must be finite, "
     "got '1e309,2,3,1'"),
])
def test_point_cloud_error_names_first_bad_line(tmp_path, text, message):
    path = tmp_path / "points.csv"
    path.write_text(text)
    with pytest.raises(FormatError) as exc:
        read_point_cloud(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("text", ["", "x,y,z,class\n", "\n\n"])
def test_point_cloud_without_points_warns_nothing(tmp_path, text):
    path = tmp_path / "points.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FormatError, match="no points found"):
            read_point_cloud(path)
    assert caught == []


def test_point_cloud_bulk_parse_holds_less_than_line_loop(tmp_path):
    rng = np.random.default_rng(5)
    n = 30_000
    pc = PointCloud(rng.uniform(0, 1200, (n, 3)), rng.integers(0, 4, n))
    path = tmp_path / "points.csv"
    ingest.write_point_cloud(pc, path)
    peaks = []
    for read in (read_point_cloud, _old_read_point_cloud):
        tracemalloc.start()
        read(path)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < peaks[1]


# ---------------------------------------------------------------------------
# rasters
# ---------------------------------------------------------------------------


QUIRK_MESSAGES = {"repeated": "repeated header keyword", "early": "data before header keyword(s)"}


@settings(max_examples=300, deadline=None)
@given(file=raster_files())
@example(file=("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
               "1_0 ١٢\n", frozenset()))
@example(file=("ncols 3\r\nnrows 1\r\nxllcorner 0\r\nyllcorner 0\r\ncellsize 1\r\n"
               "NODATA_value nan\r\nnan -nan\r\n\r\n Infinity\r\n", frozenset()))
@example(file=("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
               "1 #\n", frozenset()))
@example(file=("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
               "1 2 3\n", frozenset()))
@example(file=("ncols 1\nnrows 1\nxllcorner 0\n5\nyllcorner 0\ncellsize 1\nNODATA_value 0\n",
               frozenset({"early"})))
@example(file=("ncols 1\nnrows 1\ncellsize 7\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
               "NODATA_value 0\n5\n", frozenset({"repeated"})))
def test_raster_matches_line_loop(tmp_path_factory, file):
    text, quirks = file
    path = tmp_path_factory.mktemp("asc") / "grid.asc"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome_raster(read_raster_asc, path)
    if quirks:
        kind, message = got
        assert kind is FormatError and message.startswith(f"{path}: line ")
        assert any(QUIRK_MESSAGES[q] in message for q in quirks)
    else:
        assert got == _outcome_raster(_old_read_raster_asc, path)


@pytest.mark.parametrize("text, message", [
    ("ncols 1\nnrows 1\nxllcorner 0\n5\nyllcorner 0\ncellsize 1\nNODATA_value 0\n",
     "line 4: data before header keyword(s) yllcorner, cellsize, nodata_value"),
    ("ncols 1\n\nnrows 1\n 5 \n", "line 4: data before header keyword(s) "
     "xllcorner, yllcorner, cellsize, nodata_value"),
    ("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNCOLS 1\nNODATA_value 0\n5\n",
     "line 6: repeated header keyword NCOLS"),
    ("ncols 1\nnrows 1\nxllcorner 0 1\nyllcorner 0\ncellsize 1\nNODATA_value 0\n5\n",
     "line 3: data before header keyword(s) xllcorner, yllcorner, cellsize, nodata_value"),
])
def test_raster_header_quirks_are_errors(tmp_path, text, message):
    path = tmp_path / "grid.asc"
    path.write_text(text)
    for read in (read_raster_asc, read_raster_geometry):
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: {message}"


def test_chain_rasters_read_without_the_split_path(small_city, monkeypatch):
    # the temperature rasters a chain reads and every raster it writes (the
    # surface model, both greenspace masks, the kriged surfaces) are read by
    # the loadtxt pass alone, to the bits of the split path
    def no_split(*args):
        raise AssertionError("_split_raster_body called")

    paths = sorted(small_city.glob("*.asc")) + sorted((small_city / "out").glob("*.asc"))
    assert len(paths) == 9
    monkeypatch.setattr(ingest, "_split_raster_body", no_split)
    bulk = [_outcome_raster(read_raster_asc, path) for path in paths]
    monkeypatch.undo()
    monkeypatch.setattr(ingest, "_loadtxt_raster_body", lambda fh: None)
    assert bulk == [_outcome_raster(read_raster_asc, path) for path in paths]


def test_raster_bulk_read_holds_less_than_split_path(tmp_path, monkeypatch):
    # a greenspace mask of the 42/60 city's size, 241 x 241 cells
    rng = np.random.default_rng(5)
    values = (rng.random((241, 241)) < 0.3).astype(float)
    values[rng.random(values.shape) < 0.2] = np.nan
    path = tmp_path / "mask.asc"
    ingest.write_raster_asc(RasterGrid(0.0, 0.0, 5.0, values), path)
    peaks = []
    for split in (False, True):
        if split:
            monkeypatch.setattr(ingest, "_loadtxt_raster_body", lambda fh: None)
        tracemalloc.start()
        read_raster_asc(path)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < peaks[1]


@settings(max_examples=100, deadline=None)
@given(file=raster_files())
def test_header_read_gives_raster_geometry(tmp_path_factory, file):
    text, _ = file
    path = tmp_path_factory.mktemp("asc") / "grid.asc"
    path.write_bytes(text.encode("utf-8"))
    try:
        grid = read_raster_asc(path)
    except FormatError:
        return
    geometry = read_raster_geometry(path)
    assert (geometry.origin_x, geometry.origin_y, geometry.cell,
            geometry.nrows, geometry.ncols) == (grid.origin_x, grid.origin_y, grid.cell,
                                                grid.nrows, grid.ncols)


# ---------------------------------------------------------------------------
# cells.csv
# ---------------------------------------------------------------------------

CELL_GRID = RasterGrid(0.0, 0.0, 1.0, np.zeros((20, 30)))


def _csv_read_table(path, columns):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
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
            for column, kind in columns.items():
                value = fields[where[column]]
                try:
                    row[column] = kind(value)
                except ValueError:
                    raise FormatError(f"{path}: line {reader.line_num}: column {column}: "
                                      f"{value!r} is not a valid {kind.__name__}") from None
            rows.append(row)
    return rows


def _old_cells_by_segment(path, grid):
    cells_by_seg = {}
    for row in _csv_read_table(path, cli.TABLES["cells.csv"].columns):
        key = (row["building_id"], row["seg_id"])
        cell = (row["row"], row["col"])
        if not (0 <= cell[0] < grid.nrows and 0 <= cell[1] < grid.ncols):
            raise FormatError(
                f"{path}: segment ({key[0]}, {key[1]}) has cell {cell}, outside "
                f"the {grid.nrows} x {grid.ncols} grid of dsm.asc")
        cells_by_seg.setdefault(key, []).append(cell)
    return cells_by_seg


INT_TOKENS = ("0", "7", "19", "29", "20", "30", "-1", "+3", " 4", "5 ", "\t6", "007", "-0",
              "1_0", "٣", "２", "2.5", "1e1", "", "x", "0x1", "3\x1c", "\x1f3",
              "99999999999999999999", "-99999999999999999999", "12\x85", "\u20034")
KEY_TOKENS = ("b001", "b002", "s0", "s1", "", " b001", "b\u00e9", '"b001"', 'a"b', "b\x1c")


@st.composite
def cell_files(draw):
    """The text of a cells.csv: the header or another, runs of rows per key,
    keys that come back later, blank lines, CRLF, and awkward fields."""
    good = draw(st.booleans())
    header = draw(st.sampled_from(
        ("building_id,seg_id,row,col",) * 4
        + ("seg_id,building_id,row,col", "building_id,seg_id,row,col,extra",
           '"building_id",seg_id,row,col', "building_id,seg_id,row")))
    lines = [header]
    ints = st.integers(0, 35).map(str) if good else st.sampled_from(INT_TOKENS)
    keys = st.sampled_from(KEY_TOKENS[:4] if good else KEY_TOKENS)
    for _ in range(draw(st.integers(0, 5))):
        key = [draw(keys), draw(keys)]
        for _ in range(draw(st.integers(1, 4))):
            fields = key + [draw(ints), draw(ints)]
            if not good and draw(st.integers(0, 7)) == 0:
                fields = fields[:draw(st.integers(1, 5))] + ["1"] * draw(st.integers(0, 2))
            lines.append(",".join(fields))
            if not good and draw(st.integers(0, 9)) == 0:
                lines.append(draw(st.sampled_from(("", " ", "\t"))))
    end = draw(st.sampled_from(("\n", "\r\n", "\r")) if not good else st.just("\n"))
    return end.join(lines) + draw(st.sampled_from(("", end, end * 2)))


def _outcome_cells(read, path):
    try:
        return [(key, np.asarray(cells).tolist()) for key, cells in read(path, CELL_GRID).items()]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(text=cell_files())
@example(text="building_id,seg_id,row,col\n")
@example(text="building_id,seg_id,row,col\nb,s,1,2\nb,t,3,4\nb,s,5,6\n")
@example(text="building_id,seg_id,row,col\nb,s,1,2\n\nb,s,3,4\n")
@example(text="building_id,seg_id,row,col\nb,s,1,2,3\nb,s,3\n")
@example(text="building_id,seg_id,row,col\nb,s,1,2,x,y,z\n\nb,s,3,4\n")
@example(text="building_id,seg_id,row,col\nb,s,1,2,x,y,z\n \nb,s,3,4\n")
@example(text="building_id,seg_id,row,col\nb,s,1,2\n\n")
@example(text="building_id,seg_id,row,col\nb,s,1,2,3\n")
@example(text='building_id,seg_id,row,col\n"b",s,1,2\n')
@example(text="building_id,seg_id,row,col\nb\rx,s,1,2\n")
@example(text="building_id,seg_id,row,col\nb,s,2.5,1\n")
@example(text="building_id,seg_id,row,col\nb,s,3\x1c,1\n")
@example(text="building_id,seg_id,row,col\nb,s,99999999999999999999,1\nb,s,2.5,1\n")
@example(text="building_id,seg_id,row,col\nb,s,1,99\nb,t,-1,2\n")
@example(text='building_id,seg_id,row,col\n"b,1",s,1,2\n')
@example(text="building_id,seg_id,row,col\r\nb,s,1,2\r\n")
@example(text="building_id,seg_id,row,col\nb,s, 1 ,+2\nb,s,1_0,٣\n")
def test_cells_match_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cells") / "cells.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome_cells(cli._cells_by_segment, path)
    if '"' in text:  # an earlier bad line may be the one named
        assert got[0] is FormatError, got
    else:
        assert got == _outcome_cells(_old_cells_by_segment, path)


def test_extract_tables_read_without_the_error_walk(small_city, monkeypatch):
    # the tables extract writes are read in the column-wise pass alone, to
    # the values the csv-module reader gives
    def no_walk(*args):
        raise AssertionError("_table_error called")

    monkeypatch.setattr(ingest, "_table_error", no_walk)
    for name in ("segments.csv", "cells.csv", "buildings.csv"):
        path = small_city / "out" / name
        columns = cli.TABLES[name].columns
        rows = _csv_read_table(path, columns)
        assert rows
        assert read_table(path, columns) == {c: [r[c] for r in rows] for c in columns}
