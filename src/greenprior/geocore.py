"""Planar geometry and raster primitives shared by the whole pipeline.

All coordinates are meters in a projected CRS; nothing in here knows about
geodesy. Rasters are anchored at their lower-left corner, row 0 is the
southernmost row, and NaN marks nodata cells. A raster is held either
dense (:class:`RasterGrid`) or as its occupied cells alone
(:class:`SparseGrid`); both give their occupied cells by
``occupied_cells()``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

# Point classification codes used throughout.
GROUND = 0
BUILDING = 1
VEGETATION = 2
OTHER = 3

CLASS_NAMES = {GROUND: "ground", BUILDING: "building", VEGETATION: "vegetation", OTHER: "other"}

# The 8-neighbour offsets (drow, dcol) in row-major order; the last four
# are the forward ones, which a row-major scan meets after the cell.
NEIGH8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))

# Absolute tolerance (meters) below which a point counts as lying on a
# polygon edge or on top of a sample location.
EDGE_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid geometric construction (open ring, self-intersection, ...)."""


class ComputationError(RuntimeError):
    """A pipeline computation failed on otherwise well-formed inputs."""


# ---------------------------------------------------------------------------
# tunable parameters
# ---------------------------------------------------------------------------

def tunable(default, *, zero_ok=False, high=math.inf):
    """A numeric parameter field: its default (whose type is the field's)
    and its range, above 0 (from 0 if zero_ok) and up to high."""
    return field(default=default, metadata={"bound": (zero_ok, high)})


def check_tunable(name, value, f) -> None:
    """Raise ValueError naming name unless value is finite and in f's range."""
    zero_ok, high = f.metadata["bound"]
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0 or (value == 0 and not zero_ok) or value > high:
        if high < math.inf:
            rule = f"lie in {'[' if zero_ok else '('}0, {high}]"
        else:
            rule = "be non-negative" if zero_ok else "be positive"
        raise ValueError(f"{name} must {rule}, got {value!r}")


def check_tunables(obj) -> None:
    """check_tunable on every tunable field of a parameter dataclass."""
    for f in fields(obj):
        if "bound" in f.metadata:
            check_tunable(f.name, getattr(obj, f.name), f)


# ---------------------------------------------------------------------------
# point cloud
# ---------------------------------------------------------------------------

@dataclass
class PointCloud:
    """Classified 3-D points stored columnar: xyz is (n, 3), cls is (n,)."""

    xyz: np.ndarray
    cls: np.ndarray

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=float)
        self.cls = np.asarray(self.cls)
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise ValueError("xyz must have shape (n, 3)")
        if self.cls.shape != (self.xyz.shape[0],):
            raise ValueError("cls must have one entry per point")
        if self.xyz.size and not np.isfinite(self.xyz).all():
            raise ValueError("point coordinates must be finite")
        # checked before the cast, which would wrap a code such as 256 to 0
        if self.cls.size and not np.isin(self.cls, list(CLASS_NAMES)).all():
            raise ValueError("unknown classification code in point cloud")
        self.cls = self.cls.astype(np.uint8)

    def __len__(self) -> int:
        return self.xyz.shape[0]

    def points_of(self, code: int) -> np.ndarray:
        """Return the (m, 3) coordinates of points with the given class code."""
        return self.xyz[self.cls == code]


# ---------------------------------------------------------------------------
# raster grid
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RasterGrid:
    """Axis-aligned float grid.

    ``origin_x, origin_y`` is the lower-left corner. Cell (row, col) covers
    the half-open box [origin + i*cell, origin + (i+1)*cell) on each axis,
    with row 0 at the bottom. ``values`` is (nrows, ncols) float64 and NaN
    marks nodata; nodata must never take part in < or > comparisons.
    """

    origin_x: float
    origin_y: float
    cell: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.cell <= 0:
            raise ValueError("cell size must be positive")
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise ValueError("values must be a non-empty 2-D array")

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    def x_centers(self) -> np.ndarray:
        return self.origin_x + (np.arange(self.ncols) + 0.5) * self.cell

    def y_centers(self) -> np.ndarray:
        return self.origin_y + (np.arange(self.nrows) + 0.5) * self.cell

    def copy(self) -> "RasterGrid":
        return RasterGrid(self.origin_x, self.origin_y, self.cell, self.values.copy())

    def occupied_cells(self) -> "SparseGrid":
        """The cells that are not NaN, as a SparseGrid of this geometry."""
        occupied = ~np.isnan(self.values)
        return SparseGrid(self.origin_x, self.origin_y, self.cell, self.nrows, self.ncols,
                          np.flatnonzero(occupied), self.values[occupied])


@dataclass(frozen=True)
class GridGeometry:
    """Where a grid lies: lower-left origin, cell size and shape, named as
    on RasterGrid."""

    origin_x: float
    origin_y: float
    cell: float
    nrows: int
    ncols: int


@dataclass(eq=False)
class SparseGrid:
    """A raster held as its occupied cells only, so that its size follows
    those cells and not the grid's extent.

    The geometry is named as on RasterGrid. ``flat`` holds the sorted
    row-major flat indices ``row * ncols + col`` of the occupied cells, and
    ``values`` their values in the same order; every other cell is nodata.
    A cell is known by its position in these arrays.
    """

    origin_x: float
    origin_y: float
    cell: float
    nrows: int
    ncols: int
    flat: np.ndarray
    values: np.ndarray
    # (n, 8): the position of each cell's neighbour at each NEIGH8 offset, n
    # where that neighbour is empty or off the grid; built by neighbours()
    table: np.ndarray | None = field(default=None, repr=False)

    def occupied_cells(self) -> "SparseGrid":
        """Itself: it holds only occupied cells."""
        return self

    def positions(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The position of each cell (rows, cols), arrays that broadcast
        together; the cell count n where that cell is empty or off the
        grid. One binary search of flat."""
        on = (rows >= 0) & (rows < self.nrows) & (cols >= 0) & (cols < self.ncols)
        key = np.where(on, rows * self.ncols + cols, -1)
        at = np.searchsorted(self.flat, key)
        if not self.flat.size:
            return at  # all 0, the cell count
        # a search past the end reads the last cell, whose key cannot match
        return np.where(self.flat.take(at, mode="clip") == key, at, self.flat.size)

    def neighbours(self) -> np.ndarray:
        """The neighbour table, built on the first call by one positions()
        search per offset."""
        if self.table is None:
            rr, cc = np.divmod(self.flat, self.ncols)
            self.table = np.stack([self.positions(rr + dr, cc + dc) for dr, dc in NEIGH8],
                                  axis=1)
        return self.table

    def subset(self, keep: np.ndarray) -> "SparseGrid":
        """The cells where the boolean array keep is true; a neighbour table
        already built is renumbered, not searched again."""
        count = int(np.count_nonzero(keep))
        table = None
        if self.table is not None:
            renumber = np.full(self.flat.size + 1, count)
            renumber[np.flatnonzero(keep)] = np.arange(count)
            table = renumber[self.table[keep]]
        return SparseGrid(self.origin_x, self.origin_y, self.cell, self.nrows, self.ncols,
                          self.flat[keep], self.values[keep], table)


def snapped_geometry(xy: np.ndarray, cell: float) -> GridGeometry:
    """The grid, snapped to multiples of the cell, that holds xy.

    Only the first two columns of xy, x and y, are read. On each axis the
    origin is floor(min / cell) * cell, one cell lower where that product
    rounds above the minimum (a cell such as 0.1 is not exact in binary),
    and the cell count is floor((max - origin) / cell) + 1. So every point
    falls in a cell, and grids built from shifted subsets of one scene stay
    aligned. Every grid the pipeline builds from points (surface model,
    greenspace mask, kriging template, population) follows this one rule.
    """
    if cell <= 0:
        raise ValueError("cell size must be positive")
    # one reduction per column: min(axis=0) over the strided (n, 2) slice
    # takes ten times as long on clouds of 40k to 120k points
    lo, hi = [xy[:, 0].min(), xy[:, 1].min()], [xy[:, 0].max(), xy[:, 1].max()]
    origin = [math.floor(v / cell) * cell for v in lo]
    origin = [o - cell if o > v else o for o, v in zip(origin, lo)]
    ncols, nrows = (int(math.floor((h - o) / cell)) + 1 for h, o in zip(hi, origin))
    return GridGeometry(origin[0], origin[1], cell, nrows, ncols)


def cells_of(grid: RasterGrid | SparseGrid | GridGeometry,
             xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) on grid of the cells holding each point of xy (x and y
    in its first two columns); indices off the grid are not clipped."""
    return (np.floor((xy[:, 1] - grid.origin_y) / grid.cell).astype(int),
            np.floor((xy[:, 0] - grid.origin_x) / grid.cell).astype(int))


def cell_centers(grid: RasterGrid | SparseGrid | GridGeometry, cells: np.ndarray) -> np.ndarray:
    """World (x, y) of the centres of cells, an (m, 2) integer array of
    (row, col) on grid; shape (m, 2)."""
    return np.array([grid.origin_x, grid.origin_y]) + (cells[:, ::-1] + 0.5) * grid.cell


def snapped_grid(xy: np.ndarray, cell: float) -> RasterGrid:
    """The grid of zeros of :func:`snapped_geometry`."""
    g = snapped_geometry(xy, cell)
    return RasterGrid(g.origin_x, g.origin_y, cell, np.zeros((g.nrows, g.ncols)))


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------

def _ring_array(ring, name: str) -> np.ndarray:
    arr = np.asarray(ring, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"{name} must be an (n, 2) coordinate sequence")
    if arr.shape[0] < 4:
        raise GeometryError(f"{name} needs at least 4 vertices (closed ring)")
    if not np.isfinite(arr).all():
        raise GeometryError(f"{name} has non-finite coordinates")
    if not (arr[0] == arr[-1]).all():
        raise GeometryError(f"{name} is not closed (first vertex must equal last)")
    if (np.abs(np.diff(arr, axis=0)).sum(axis=1) == 0).any():
        raise GeometryError(f"{name} repeats consecutive vertices")
    return arr


def _ring_signed_area(ring: np.ndarray) -> float:
    x, y = ring[:-1, 0], ring[:-1, 1]
    xn, yn = ring[1:, 0], ring[1:, 1]
    return 0.5 * float(np.sum(x * yn - xn * y))


def _ring_centroid(ring: np.ndarray) -> tuple[float, float]:
    x, y = ring[:-1, 0], ring[:-1, 1]
    xn, yn = ring[1:, 0], ring[1:, 1]
    cross = x * yn - xn * y
    a = 0.5 * float(np.sum(cross))
    if a == 0.0:
        return float(x.mean()), float(y.mean())
    cx = float(np.sum((x + xn) * cross)) / (6.0 * a)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * a)
    return cx, cy


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 \
        and d3 != 0 and d4 != 0


@dataclass(eq=False)
class Polygon:
    """Closed exterior ring plus optional interior rings (holes), in meters.

    The exterior must be simple (no proper self-intersection) and enclose a
    positive area; this is checked at construction time.
    """

    exterior: np.ndarray
    holes: list = field(default_factory=list)

    def __post_init__(self):
        self.exterior = _ring_array(self.exterior, "exterior ring")
        self.holes = [_ring_array(h, "interior ring") for h in self.holes]
        # on Python floats: the same IEEE operations as on numpy scalars, faster
        vertices = self.exterior.tolist()
        segs = list(zip(vertices[:-1], vertices[1:]))
        n = len(segs)
        for i in range(n):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue  # first and last segments share a vertex
                if _segments_properly_intersect(segs[i][0], segs[i][1], segs[j][0], segs[j][1]):
                    raise GeometryError("exterior ring is self-intersecting")
        if self.area() <= 0:
            raise GeometryError("polygon area must be positive")

    def area(self) -> float:
        a = abs(_ring_signed_area(self.exterior))
        for h in self.holes:
            a -= abs(_ring_signed_area(h))
        return a

    def centroid(self) -> tuple[float, float]:
        a_ext = abs(_ring_signed_area(self.exterior))
        cx, cy = _ring_centroid(self.exterior)
        num_x, num_y, denom = cx * a_ext, cy * a_ext, a_ext
        for h in self.holes:
            a_h = abs(_ring_signed_area(h))
            hx, hy = _ring_centroid(h)
            num_x -= hx * a_h
            num_y -= hy * a_h
            denom -= a_h
        if denom <= 0:
            return cx, cy
        return num_x / denom, num_y / denom

    def bounds(self) -> tuple[float, float, float, float]:
        xs, ys = self.exterior[:, 0], self.exterior[:, 1]
        return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())

    def contains(self, x: float, y: float) -> bool:
        return bool(points_in_polygon(np.array([[x, y]]), self)[0])


# (point, edge) pairs one containment step takes at once: each of its
# float64 temporaries then holds at most 64 kB, whatever the ring's vertex
# count and the box of points. Temporaries of 256 kB raised the peak RSS of
# a one-process rescore loop by 3-5 MB (heap growth, not a larger peak of
# live objects).
EDGE_BLOCK_PAIRS = 1 << 13


def _on_any_edge(points: np.ndarray, ring: np.ndarray, tol: float) -> np.ndarray:
    """Boolean mask of points lying within tol of any segment of the ring: a
    tolerance test on squared offsets, not a distance (segment_distances),
    in one broadcast over (point, edge)."""
    (ax, ay), (bx, by) = ring[:-1].T, ring[1:].T
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    px = points[:, :1] - ax
    py = points[:, 1:2] - ay
    t = np.clip((px * dx + py * dy) / seg_len2, 0.0, 1.0)
    ex = px - t * dx
    ey = py - t * dy
    return (ex * ex + ey * ey <= tol * tol).any(axis=1)


def _ray_cast(points: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Even-odd crossing test against one ring, in one broadcast over
    (point, edge): the parity of the edges crossed right of each point."""
    (ax, ay), (bx, by) = ring[:-1].T, ring[1:].T
    x, y = points[:, :1], points[:, 1:2]
    crosses = (ay > y) != (by > y)
    with np.errstate(invalid="ignore", divide="ignore"):
        x_at = ax + (y - ay) * (bx - ax) / (by - ay)
    return (np.count_nonzero(crosses & (x < x_at), axis=1) & 1).astype(bool)


def points_in_polygon(points: np.ndarray, poly: Polygon, tol: float = EDGE_TOL) -> np.ndarray:
    """Vectorized containment test; points on any ring boundary count inside.
    Each step tests a block of points against every edge of a ring, at most
    EDGE_BLOCK_PAIRS (point, edge) pairs."""
    points = np.asarray(points, dtype=float)
    step = max(1, EDGE_BLOCK_PAIRS // max(len(r) - 1 for r in (poly.exterior, *poly.holes)))
    inside = np.empty(len(points), dtype=bool)
    for lo in range(0, len(points), step):
        block = points[lo:lo + step]
        on_edge = _on_any_edge(block, poly.exterior, tol)
        for h in poly.holes:
            on_edge |= _on_any_edge(block, h, tol)
        within = _ray_cast(block, poly.exterior)
        for h in poly.holes:
            within &= ~_ray_cast(block, h)
        inside[lo:lo + step] = within | on_edge
    return inside


def cells_in_polygon(grid: RasterGrid | SparseGrid | GridGeometry,
                     poly: Polygon) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the grid cells whose centers lie in the polygon.

    One vectorized containment test over the centers of the cells in the
    polygon's bounding box, padded by one cell; boundary centers count as
    inside. Cells come in row-major order.
    """
    x_min, y_min, x_max, y_max = poly.bounds()
    row_lo = max(0, math.floor((y_min - grid.origin_y) / grid.cell) - 1)
    row_hi = min(grid.nrows, math.floor((y_max - grid.origin_y) / grid.cell) + 2)
    col_lo = max(0, math.floor((x_min - grid.origin_x) / grid.cell) - 1)
    col_hi = min(grid.ncols, math.floor((x_max - grid.origin_x) / grid.cell) + 2)
    rr, cc = np.meshgrid(np.arange(row_lo, row_hi), np.arange(col_lo, col_hi), indexing="ij")
    rr, cc = rr.ravel(), cc.ravel()
    inside = points_in_polygon(cell_centers(grid, np.column_stack([rr, cc])), poly)
    return rr[inside], cc[inside]


# ---------------------------------------------------------------------------
# polylines
# ---------------------------------------------------------------------------

ROAD_CLASSES = ("main", "minor")


@dataclass(eq=False)
class Polyline:
    """Ordered vertex chain with a class tag ("main" or "minor")."""

    coords: np.ndarray
    tag: str = "minor"

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.ndim != 2 or self.coords.shape[1] != 2 or self.coords.shape[0] < 2:
            raise GeometryError("polyline needs at least 2 (x, y) vertices")
        if not np.isfinite(self.coords).all():
            raise GeometryError("polyline has non-finite coordinates")
        if (np.abs(np.diff(self.coords, axis=0)).sum(axis=1) == 0).any():
            raise GeometryError("polyline repeats consecutive vertices")
        if self.tag not in ROAD_CLASSES:
            raise GeometryError(f"unknown polyline class {self.tag!r}")


def segment_distances(points: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Distance from each point (x, y in its first two columns) to the
    nearest segment of the vertex chain coords. Per segment from a by d:
    t = clip((p - a)·d / |d|², 0, 1) in numpy's elementwise IEEE operations,
    then math.hypot of p - (a + t·d), CPython's own, not the platform libm's
    np.hypot. A segment whose |d|² is 0 measures to a.
    """
    px, py = points[:, :1], points[:, 1:2]
    (ax, ay), (dx, dy) = coords[:-1].T, np.diff(coords, axis=0).T
    along, len2 = (px - ax) * dx + (py - ay) * dy, dx * dx + dy * dy
    t = np.clip(np.divide(along, len2, out=np.zeros(along.shape), where=len2 > 0), 0.0, 1.0)
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    d = np.fromiter(map(math.hypot, ex.ravel().tolist(), ey.ravel().tolist()), float, ex.size)
    return d.reshape(ex.shape).min(axis=1, initial=math.inf)


def distance_to_polylines(points: np.ndarray, lines: list[Polyline],
                          tag: str | None = None) -> np.ndarray:
    """Each of the (n, 2) points' least distance to the selected polylines:
    the elementwise minimum of one :func:`segment_distances` call per
    polyline. ``tag`` selects polylines of that class; None selects all.
    GeometryError when there are points and no polyline is selected.
    """
    selected = [ln for ln in lines if tag is None or ln.tag == tag]
    if not selected and len(points):
        raise GeometryError(f"no polylines with class {tag!r} to measure against")
    nearest = np.full(len(points), math.inf)
    for ln in selected:
        np.minimum(nearest, segment_distances(points, ln.coords), out=nearest)
    return nearest
