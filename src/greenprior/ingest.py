"""Readers and writers for every file format the pipeline touches.

Everything is plain text: point clouds, station samples and the tables
the stages write are CSV, footprints and roads are GeoJSON, rasters are
ESRI ASCII grids. Readers validate and fail loudly; none of them skip a
malformed record silently.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geocore import (
    CLASS_NAMES,
    GridGeometry,
    PointCloud,
    Polygon,
    Polyline,
    RasterGrid,
    ROAD_CLASSES,
    SparseGrid,
)

BUILDING_CATEGORIES = ("private", "public", "misc")

NODATA_DEFAULT = -9999.0


class FormatError(ValueError):
    """An input file does not match its documented format."""


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------

# lines of a point-cloud CSV written per bulk pass; bounds the strings held
# at once
POINT_BLOCK_LINES = 1 << 12

# ASCII separator characters: np.loadtxt skips them around a field, as it
# does any whitespace, but float() and int() reject them
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def read_point_cloud(path) -> PointCloud:
    """Parse a "x,y,z,class" CSV into a PointCloud.

    A single header line is allowed on line 1, recognized by a non-numeric
    first field. Any malformed data line is an error that names the 1-based
    line number. Numbers are read exactly as Python's ``float()`` (x, y, z)
    and ``int()`` (class) read them; a line whose coordinates read as NaN
    or infinite is malformed.

    The file is parsed in one ``np.loadtxt`` call, whose conversions give
    the bits of ``float()`` and ``int()`` on every spelling it accepts, and
    checked by PointCloud. A file it cannot read, or that PointCloud
    rejects (a non-finite coordinate, an unknown class code), or with no
    points, is read again line by line: that loop raises the error naming
    the first bad line, or returns the cloud when only loadtxt was stricter
    (underscores in numbers, non-ASCII digits, whitespace-only lines).
    """
    try:
        return PointCloud(*_point_table(path))
    except (ValueError, OverflowError, UserWarning):
        return _read_point_lines(path)


def _point_table(path) -> tuple[np.ndarray, np.ndarray]:
    """The (xyz, class codes) of a point CSV read by np.loadtxt. Raises
    ValueError when the file holds an ASCII separator character, and as
    loadtxt raises on a line it cannot read; loadtxt warns on no points,
    which raises here."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if any(sep in text for sep in _SEPARATORS):
        raise ValueError(f"{path}: holds an ASCII separator character")
    head = text.partition("\n")[0].strip()
    del text
    header = bool(head) and _is_point_header(head.split(","))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        rows = np.loadtxt(path, dtype="f8,f8,f8,i8", delimiter=",", comments=None,
                          quotechar=None, skiprows=int(header), encoding="utf-8", ndmin=1)
    return np.column_stack([rows["f0"], rows["f1"], rows["f2"]]), rows["f3"]


def _is_point_header(parts: list[str]) -> bool:
    try:
        float(parts[0])
    except ValueError:
        return True
    return False


def _read_point_lines(path) -> PointCloud:
    """read_point_cloud one line at a time: the path that names bad lines."""
    xyz = []
    cls = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if lineno == 1 and _is_point_header(parts):
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


def write_point_cloud(pc: PointCloud, path) -> None:
    """Write a "x,y,z,class" CSV, coordinates with four decimals; each block
    of POINT_BLOCK_LINES rows is formatted by one %-format."""
    row = "%.4f,%.4f,%.4f,%d\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,z,class\n")
        for lo in range(0, len(pc.cls), POINT_BLOCK_LINES):
            xyz = pc.xyz[lo:lo + POINT_BLOCK_LINES].tolist()
            codes = pc.cls[lo:lo + POINT_BLOCK_LINES].tolist()
            fields = [v for (x, y, z), c in zip(xyz, codes) for v in (x, y, z, c)]
            fh.write(row * len(codes) % tuple(fields))


# ---------------------------------------------------------------------------
# footprints and roads (GeoJSON)
# ---------------------------------------------------------------------------

@dataclass
class BuildingAttributes:
    """Static facts about one building: identity, age, category, footprint."""

    id: str
    age_years: int
    category: str
    footprint: Polygon

    def __post_init__(self):
        if self.age_years < 0:
            raise ValueError(f"building {self.id}: age_years must be non-negative")
        if self.category not in BUILDING_CATEGORIES:
            raise ValueError(f"building {self.id}: unknown category {self.category!r}")


def _load_feature_collection(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise FormatError(f"{path}: expected a GeoJSON FeatureCollection")
    feats = doc.get("features")
    if not isinstance(feats, list):
        raise FormatError(f"{path}: FeatureCollection has no feature list")
    return feats


def _feature_parts(path, idx, feat):
    """The properties and geometry objects of one feature; absent ones are {}."""
    if not isinstance(feat, dict):
        raise FormatError(f"{path}: feature #{idx}: not a JSON object")
    parts = (feat.get("properties") or {}, feat.get("geometry") or {})
    for key, part in zip(("properties", "geometry"), parts):
        if not isinstance(part, dict):
            raise FormatError(f"{path}: feature #{idx}: {key} is not a JSON object")
    return parts


def read_footprints(path) -> list[BuildingAttributes]:
    """Load building footprints with id, age_years and category properties."""
    feats = _load_feature_collection(path)
    out: list[BuildingAttributes] = []
    seen: set[str] = set()
    for idx, feat in enumerate(feats):
        props, geom = _feature_parts(path, idx, feat)
        bid = props.get("id")
        label = bid if isinstance(bid, str) else f"feature #{idx}"
        if geom.get("type") != "Polygon":
            raise FormatError(f"{path}: {label}: geometry must be Polygon, got {geom.get('type')!r}")
        for key in ("id", "age_years", "category"):
            if key not in props:
                raise FormatError(f"{path}: {label}: missing property {key!r}")
        if not isinstance(bid, str):
            raise FormatError(f"{path}: {label}: id must be a JSON string, got {bid!r}")
        if any(ch in bid for ch in ',"\r\n'):
            raise FormatError(f"{path}: feature #{idx}: building id {bid!r} holds a comma, "
                              "quote or line break, which the stage tables cannot hold")
        if bid in seen:
            raise FormatError(f"{path}: duplicate building id {bid!r}")
        seen.add(bid)
        rings = geom.get("coordinates")
        if not isinstance(rings, list) or not rings:
            raise FormatError(f"{path}: {bid}: coordinates must be a non-empty list of rings")
        try:
            poly = Polygon(rings[0], holes=list(rings[1:]))
        except (TypeError, ValueError) as exc:  # GeometryError, non-numeric coordinates
            raise FormatError(f"{path}: {bid}: {exc}") from None
        age = props["age_years"]
        if type(age) is not int:  # bool is an int type, JSON true is not a number
            raise FormatError(f"{path}: {bid}: age_years must be a JSON integer, got {age!r}")
        try:
            out.append(BuildingAttributes(bid, age, str(props["category"]), poly))
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
    return out


def read_roads(path) -> list[Polyline]:
    """Load road centerlines; each LineString feature carries a class property."""
    feats = _load_feature_collection(path)
    out: list[Polyline] = []
    for idx, feat in enumerate(feats):
        props, geom = _feature_parts(path, idx, feat)
        if geom.get("type") != "LineString":
            raise FormatError(f"{path}: feature #{idx}: geometry must be LineString")
        tag = props.get("class")
        if tag not in ROAD_CLASSES:
            raise FormatError(f"{path}: feature #{idx}: road class must be one of "
                              f"{ROAD_CLASSES}, got {tag!r}")
        try:
            out.append(Polyline(geom.get("coordinates"), tag=tag))
        except (TypeError, ValueError) as exc:  # GeometryError, non-numeric coordinates
            raise FormatError(f"{path}: feature #{idx}: {exc}") from None
    if not out:
        raise FormatError(f"{path}: no road features")
    return out


def polygon_geometry(poly: Polygon) -> dict:
    rings = [poly.exterior.tolist()] + [h.tolist() for h in poly.holes]
    return {"type": "Polygon", "coordinates": rings}


def write_features(path, features) -> None:
    """Write (geometry, properties) pairs as one GeoJSON FeatureCollection."""
    feats = [{"type": "Feature", "geometry": geom, "properties": props}
             for geom, props in features]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"type": "FeatureCollection", "features": feats}, fh, indent=1)
        fh.write("\n")


def write_footprints(buildings: list[BuildingAttributes], path) -> None:
    write_features(path, [
        (polygon_geometry(b.footprint),
         {"id": b.id, "age_years": b.age_years, "category": b.category})
        for b in buildings])


def write_roads(lines: list[Polyline], path) -> None:
    write_features(path, [
        ({"type": "LineString", "coordinates": ln.coords.tolist()}, {"class": ln.tag})
        for ln in lines])


# ---------------------------------------------------------------------------
# station samples (x, y, value)
# ---------------------------------------------------------------------------

def read_xy_value(path) -> np.ndarray:
    """Read a "x,y,value" CSV (header line required) into an (n, 3) array."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if lineno == 1:
                try:
                    [float(p) for p in parts]
                except ValueError:
                    continue  # good: line 1 is the header
                raise FormatError(f"{path}: first line must be a header, not data")
            if len(parts) != 3:
                raise FormatError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
            try:
                rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: could not parse {line!r}") from None
    if not rows:
        raise FormatError(f"{path}: no samples found")
    arr = np.array(rows, dtype=float)
    if not np.isfinite(arr).all():
        raise FormatError(f"{path}: non-finite sample values")
    return arr


def write_xy_value(arr: np.ndarray, path, header: str = "x,y,value") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for x, y, v in np.asarray(arr, dtype=float):
            fh.write(f"{x:.4f},{y:.4f},{v:.6f}\n")


# ---------------------------------------------------------------------------
# ESRI ASCII rasters
# ---------------------------------------------------------------------------

_ASC_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def _read_asc_header(fh, path) -> tuple[GridGeometry, float]:
    """Read lines from fh until all six header keywords are seen.

    Returns the geometry and the nodata value; every later line is data. A
    keyword line is one of the six names (any case) and one value. Blank
    lines may come between them; a repeated keyword or any other line
    before the sixth keyword is an error.
    """
    header: dict[str, float] = {}
    lineno = 0
    while len(header) < len(_ASC_KEYS):
        raw = fh.readline()
        if not raw:
            break
        lineno += 1
        parts = raw.split()
        if not parts:
            continue
        key = parts[0].lower()
        if len(parts) != 2 or key not in _ASC_KEYS:
            missing = ", ".join(k for k in _ASC_KEYS if k not in header)
            raise FormatError(f"{path}: line {lineno}: data before header keyword(s) {missing}")
        if key in header:
            raise FormatError(f"{path}: line {lineno}: repeated header keyword {parts[0]}")
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise FormatError(f"{path}: bad header value for {parts[0]}") from None
    missing = [k for k in _ASC_KEYS if k not in header]
    if missing:
        raise FormatError(f"{path}: missing header keyword(s): {', '.join(missing)}")
    for key in ("ncols", "nrows"):
        if not (header[key].is_integer() and header[key] >= 1):
            raise FormatError(f"{path}: {key} must be a positive integer, got {header[key]!r}")
    for key in ("xllcorner", "yllcorner"):
        if not math.isfinite(header[key]):
            raise FormatError(f"{path}: {key} must be finite, got {header[key]!r}")
    if not (math.isfinite(header["cellsize"]) and header["cellsize"] > 0):
        raise FormatError(f"{path}: cellsize must be positive and finite, "
                          f"got {header['cellsize']!r}")
    geometry = GridGeometry(header["xllcorner"], header["yllcorner"], header["cellsize"],
                            int(header["nrows"]), int(header["ncols"]))
    return geometry, header["nodata_value"]


def read_raster_geometry(path) -> GridGeometry:
    """The geometry of an ESRI ASCII grid, from its header alone; the body
    is neither read nor checked."""
    with open(path, "r", encoding="utf-8") as fh:
        return _read_asc_header(fh, path)[0]


def read_raster_asc(path) -> RasterGrid:
    """Read an ESRI ASCII grid. Nodata cells become NaN internally.

    Values are read exactly as Python's ``float()`` reads them; rows may
    wrap across lines. The body is converted by one ``np.loadtxt`` pass,
    whose conversions give the bits of ``float()`` on every spelling it
    accepts, and taken in reading order. A body it refuses (rows wrapped
    unevenly, spellings such as ``1_0`` or non-ASCII digits, no values) or
    that holds another count of values than the grid's is read again by
    :func:`_split_raster_body`, which raises the error, or returns the
    values where only loadtxt was stricter.
    """
    with open(path, "r", encoding="utf-8") as fh:
        geometry, nodata = _read_asc_header(fh, path)
        count = geometry.nrows * geometry.ncols
        body = fh.tell()
        flat = _loadtxt_raster_body(fh)
        if flat is None or flat.size != count:
            fh.seek(body)
            flat = _split_raster_body(fh, path, count)
    flat[flat == nodata] = np.nan
    # file stores the top row first; flip into the bottom-row-0 convention
    values = np.flipud(flat.reshape(geometry.nrows, geometry.ncols))
    return RasterGrid(geometry.origin_x, geometry.origin_y, geometry.cell, values)


def _loadtxt_raster_body(fh) -> np.ndarray | None:
    """The values of the raster body that fh is open at, in reading order,
    by one np.loadtxt pass; None where loadtxt refuses the body or warns
    that it holds no values."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            return np.loadtxt(fh, dtype=float, comments=None, quotechar=None,
                              ndmin=2).ravel()
    except (ValueError, UserWarning):
        return None


def _split_raster_body(fh, path, count: int) -> np.ndarray:
    """The values of the raster body that fh is open at, as one numpy cast
    over its ``str.split()`` tokens: the exact path, whose errors name a
    count of values other than count or a value that is not a number."""
    tokens = fh.read().split()
    if len(tokens) != count:
        raise FormatError(f"{path}: expected {count} values, found {len(tokens)}")
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        raise FormatError(f"{path}: non-numeric raster value") from None


def write_raster_asc(grid: RasterGrid | SparseGrid, path, nodata: float = NODATA_DEFAULT,
                     decimals: int | None = None) -> None:
    """Write a RasterGrid or SparseGrid as an ESRI ASCII file.

    With decimals=None (the default) values are serialized with repr() so
    that read_raster_asc(write(g)) reproduces g to the last bit. Use it for
    rasters that a later stage reads back (dsm.asc, the synthetic
    temperature grids) or whose values are exact (the greenspace masks).

    With decimals=6 each value is written by :func:`f6`, as the CSV
    outputs are. Use it for derived float surfaces such as the kriged ones,
    whose last bits differ between machines with the linear algebra
    libraries and would otherwise make the file differ too. The header and
    nodata cells are written with repr() either way.
    """
    fmt = {None: repr, 6: f6}[decimals]
    nodata_text = repr(nodata)
    cells = grid.occupied_cells()
    flat, ncols = cells.flat, grid.ncols
    # each distinct value is formatted once, keyed by its bits so that 0.0
    # and -0.0 keep their own text
    keys = cells.values.view(np.int64)
    bits = np.sort(keys)
    first = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    bits = bits[first]
    which = np.searchsorted(bits, keys)
    distinct = [fmt(v) for v in bits.view(np.float64).tolist()]
    texts = [distinct[i] for i in which.tolist()]
    # the occupied cells of row r are those at starts[r]:starts[r + 1]; each
    # row is the nodata row with their texts put in at their columns
    starts = np.searchsorted(flat, np.arange(grid.nrows + 1) * ncols).tolist()
    nodata_row = [nodata_text] * ncols
    nodata_line = " ".join(nodata_row) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ncols {ncols}\n")
        fh.write(f"nrows {grid.nrows}\n")
        fh.write(f"xllcorner {repr(grid.origin_x)}\n")
        fh.write(f"yllcorner {repr(grid.origin_y)}\n")
        fh.write(f"cellsize {repr(grid.cell)}\n")
        fh.write(f"NODATA_value {nodata_text}\n")
        # the file stores the top row first
        for r in range(grid.nrows - 1, -1, -1):
            lo, hi = starts[r], starts[r + 1]
            if lo == hi:
                fh.write(nodata_line)
                continue
            if hi - lo == ncols:
                row = texts[lo:hi]
            else:
                row = nodata_row.copy()
                for col, text in zip((flat[lo:hi] - r * ncols).tolist(), texts[lo:hi]):
                    row[col] = text
            fh.write(" ".join(row) + "\n")


# ---------------------------------------------------------------------------
# tables (CSV)
# ---------------------------------------------------------------------------

FLAGS = ("false", "true")


def flag(text):
    """A flag column value: exactly 'true' or 'false', else ValueError."""
    return bool(FLAGS.index(text))


def optional_float(text):
    """A number column that may be empty: None for '', else float(text)."""
    return None if text == "" else float(text)


def f6(v) -> str:
    """v at 6 decimals; a value that rounds to zero prints without a sign."""
    text = f"{float(v):.6f}"
    return "0.000000" if text == "-0.000000" else text


def read_table(path, columns) -> dict[str, list]:
    """The columns of a CSV table, each a list of its values in file order,
    parsed with its type.

    columns maps each column name to the function that parses its values.
    The header must hold every column, each row must have as many fields as
    the header, and every value must parse; a float, or an optional_float
    that is not empty, must also be finite, since stages write no nan or
    inf. CRLF and CR line ends read as LF, and empty lines are skipped.
    Fields are never quoted, as :func:`write_table` writes them: a double
    quote anywhere is an error.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    header = lines[0].split(",")
    where = {column: i for i, column in enumerate(header)}
    rows = list(filter(None, lines[1:]))
    if ('"' in text or columns.keys() - where.keys()
            or {row.count(",") for row in rows} - {len(header) - 1}):
        _table_error(path, lines, columns)
    # every row has one field per column, so column i is every
    # len(header)-th field of the rows from i on; a str column is that slice
    fields = ",".join(rows).split(",") if rows else []
    try:
        table = {column: (fields[where[column]::len(header)] if kind is str
                          else list(map(kind, fields[where[column]::len(header)])))
                 for column, kind in columns.items()}
    except ValueError:
        _table_error(path, lines, columns)
    for column, kind in columns.items():
        if kind in (float, optional_float) and not all(map(_finite, table[column])):
            _table_error(path, lines, columns)
    return table


def _finite(value):
    """A parsed number is finite; an empty optional_float (None) passes."""
    return value is None or math.isfinite(value)


def _table_error(path, lines, columns):
    """Raise the FormatError of the first bad line of a table that
    :func:`read_table` could not read: a double quote, a missing column, a
    row of the wrong length, a value that does not parse or a number that
    is not finite."""
    header = lines[0].split(",")
    where = {column: i for i, column in enumerate(header)}
    for lineno, line in enumerate(lines, start=1):
        if '"' in line:
            raise FormatError(f"{path}: line {lineno}: holds a double quote; "
                              "table fields are never quoted")
        if lineno == 1:
            missing = [c for c in columns if c not in where]
            if missing:
                raise FormatError(f"{path}: line 1: missing column(s) {', '.join(missing)}")
        elif line:
            fields = line.split(",")
            if len(fields) != len(header):
                raise FormatError(f"{path}: line {lineno}: expected "
                                  f"{len(header)} fields, got {len(fields)}")
            for column, kind in columns.items():
                value = fields[where[column]]
                try:
                    parsed = kind(value)
                except ValueError:
                    raise FormatError(f"{path}: line {lineno}: column {column}: "
                                      f"{value!r} is not a valid {kind.__name__}") from None
                if kind in (float, optional_float) and not _finite(parsed):
                    raise FormatError(f"{path}: line {lineno}: column {column}: "
                                      f"{value!r} is not a finite number")
    raise AssertionError(f"{path}: read_table failed on no line")


def write_table(path, columns, rows) -> None:
    """Write a CSV table: the column names, then each row's field strings."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
