"""Roof extraction from classified point clouds.

The chain is: rasterize building points into a surface model (max z per
cell), drop wall and edge cells by the neighbor elevation test, cluster the
survivors with 8-connected component labeling, split each cluster into
planar segments by region growing, and finally decide per building whether
any segment is worth greening.

The surface model is a SparseGrid: the sorted flat indices of its occupied
cells and their elevations, with no array of the scene's size. Its
8-neighbor table is built once, by one binary search of the flat indices
per offset, and serves the wall filter, the 2x2 stencils of the local
normals, the component labeling and region growing; the wall filter hands
it on renumbered to the cells it keeps. Empty and off-grid neighbors read
alike as NaN. So every kernel's cost and memory follow the roof area, not
the scene's. The kernels take a RasterGrid too, through the same
occupied_cells() accessor.

Region growing works on one component at a time, on integer positions of
its cells, with the slice of the neighbor table that covers them. Per seed,
the normal test covers all of the component's cells in one array
expression; a segment's eviction sweeps and its final plane fit are
whole-array too. Only the breadth-first growth visits cells one by one,
because each cell it takes changes the running plane fit. Every growth and
eviction decision is one float comparison, a cosine against the normal
tolerance or a residual against the residual tolerance. The residuals come
from plane fits solved by cofactors in Python floats, as does each
segment's final plane and, elementwise, the tie-break scores of the local
normals: no BLAS or LAPACK kernel touches a decision or a plane.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geocore import (
    BUILDING,
    GROUND,
    NEIGH8,
    ComputationError,
    PointCloud,
    RasterGrid,
    SparseGrid,
    cell_centers,
    cells_in_polygon,
    cells_of,
    check_tunables,
    points_in_polygon,
    segment_distances,
    snapped_geometry,
    tunable,
)
from .ingest import BuildingAttributes

NEIGH4 = ((-1, 0), (1, 0), (0, -1), (0, 1))

# one-sided 2x2 stencil quadrants, in tie-break order
QUADRANTS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# (cell, quadrant) pairs whose tie-break windows local_normals scores at
# once; _window_scores' temporaries take about 400 bytes per pair.
WINDOW_BLOCK_PAIRS = 1 << 12


@dataclass
class RoofSegment:
    """One planar roof piece: member cells plus the fitted plane."""

    cells: np.ndarray  # (m, 2) int64 (row, col), in (row, col) order
    plane: tuple[float, float, float]  # z = a*x + b*y + c in world coordinates
    slope_deg: float
    area_m2: float
    building_id: str | None = None
    seg_id: str = ""


@dataclass
class PotentialThresholds:
    slope_max_deg: float = tunable(15.0)
    area_min_m2: float = tunable(10.0)
    age_max_yr: int = tunable(60, zero_ok=True)

    def __post_init__(self):
        check_tunables(self)

    def shortfalls(self, segment: RoofSegment) -> set[str]:
        """The thresholds segment misses: "slope" unless it is flatter than
        slope_max_deg, "area" unless it is larger than area_min_m2."""
        return {reason for reason, met in (("slope", segment.slope_deg < self.slope_max_deg),
                                           ("area", segment.area_m2 > self.area_min_m2))
                if not met}

    def qualifies(self, segment: RoofSegment) -> bool:
        """Whether segment is flat enough and large enough to green."""
        return not self.shortfalls(segment)


@dataclass
class RoofParams:
    cell: float = tunable(1.0)
    wall_diff_m: float = tunable(1.0)
    # a cosine test: past 180 degrees the tolerance would wrap round
    normal_tol_deg: float = tunable(10.0, high=180)
    residual_tol_m: float = tunable(0.2)
    thresholds: PotentialThresholds = field(default_factory=PotentialThresholds)

    def __post_init__(self):
        check_tunables(self)


@dataclass
class PotentialDecision:
    building_id: str
    potential: bool
    reasons: frozenset
    greenable_m2: float

    def __post_init__(self):
        if self.potential != (len(self.reasons) == 0):
            raise ValueError("potential flag must match empty reasons")


# ---------------------------------------------------------------------------
# surface model and wall filter
# ---------------------------------------------------------------------------

def candidate_roof_points(pc: PointCloud, cell: float) -> SparseGrid:
    """Rasterize building points to per-cell maximum elevations.

    The grid is the :func:`snapped_geometry` of the building points; only
    the cells that hold one are occupied. Each cell's maximum is taken over
    its points in file order, as a running maximum would take it.
    """
    pts = pc.points_of(BUILDING)
    if pts.shape[0] == 0:
        raise ComputationError("no building points in the cloud")
    g = snapped_geometry(pts, cell)
    rows, cols = cells_of(g, pts)
    flat = rows * g.ncols + cols
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    starts = np.flatnonzero(np.concatenate([[True], flat[1:] != flat[:-1]]))
    return SparseGrid(g.origin_x, g.origin_y, cell, g.nrows, g.ncols, flat[starts],
                      np.maximum.reduceat(pts[order, 2], starts))


def filter_wall_edges(dsm: RasterGrid | SparseGrid,
                      threshold: float = RoofParams.wall_diff_m) -> SparseGrid:
    """Drop cells that sit against a vertical discontinuity.

    A cell survives iff every occupied 4-neighbor differs in elevation by
    less than the threshold. Missing neighbors pass vacuously, so roof
    borders and isolated cells are kept. Returns the kept cells, with the
    neighbour table of dsm's cells renumbered to them.
    """
    surf = dsm.occupied_cells()
    table = surf.neighbours()
    z = surf.values
    padded = np.append(z, np.nan)  # position n, no neighbour, reads as NaN
    keep = np.ones(z.size, dtype=bool)
    for offset in NEIGH4:
        nb = padded[table[:, NEIGH8.index(offset)]]
        with np.errstate(invalid="ignore"):
            keep &= ~(np.isfinite(nb) & (np.abs(z - nb) >= threshold))
    return surf.subset(keep)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------

def label_components(dsm: RasterGrid | SparseGrid) -> list[np.ndarray]:
    """Partition occupied cells into 8-connected components, each an
    ascending int64 array of positions in dsm.occupied_cells(), a slice of
    one stable argsort by component. Components are ordered by (min row,
    min col), then by first cell.

    Works on the occupied cells only, by hook and compress (Shiloach and
    Vishkin): every cell starts as its own root, each edge to a forward
    8-neighbour hooks the larger of its two roots to the smaller, and
    pointer jumping flattens the trees, until every edge has one root. The
    root of a component is then its first cell in row-major order.
    """
    surf = dsm.occupied_cells()
    n = surf.flat.size
    root = np.arange(n)
    hooked = True
    while hooked:
        hooked = False
        for nb in surf.neighbours()[:, 4:].T:  # one forward offset of NEIGH8 at a time
            src = np.flatnonzero(nb < n)
            a, b = root[src], root[nb[src]]
            if (a == b).all():
                continue
            hooked = True
            np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
            while (root[root] != root).any():
                root = root[root]
    del src, a, b  # the last offset's arrays, freed before the sort
    # positions are row-major: a stable sort by root starts each component at
    # its root, in its min row; lexsort is stable too, so ties keep root order
    order = np.argsort(root, kind="stable")
    starts = np.flatnonzero(root[order] == order)
    rows, cols = np.divmod(surf.flat[order], surf.ncols)
    rank = np.lexsort((np.minimum.reduceat(cols, starts), rows[starts]))
    ends = np.append(starts[1:], n)
    return [order[lo:hi] for lo, hi in zip(starts[rank].tolist(), ends[rank].tolist())]


# ---------------------------------------------------------------------------
# local plane estimates
# ---------------------------------------------------------------------------

def _quadrant_planes(Z: np.ndarray, table: np.ndarray,
                     h: float) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Gradient and flatness residual of each one-sided 2x2 stencil.

    Z holds the elevations of a surface's occupied cells and table their
    neighbour table. Returns, per quadrant, arrays (a, b, res) over those
    cells: the least-squares plane gradient over the up-to-four stencil
    cells and the worst per-point deviation. Stencils with fewer than three
    cells yield NaN/inf.
    """
    padded = np.append(Z, np.nan)  # position n, no neighbour, reads as NaN
    out = []
    for dr, dc in QUADRANTS:
        Zx, Zy, Zxy = (padded[table[:, NEIGH8.index(offset)]]
                       for offset in ((0, dc), (dr, 0), (dr, dc)))
        fx, fy, fxy = np.isfinite(Zx), np.isfinite(Zy), np.isfinite(Zxy)
        a = np.full(Z.shape, np.nan)
        b = np.full(Z.shape, np.nan)
        res = np.full(Z.shape, np.inf)
        # all four corners: least-squares bilinear gradient
        m = fx & fy & fxy
        z, zx, zy, zxy = Z[m], Zx[m], Zy[m], Zxy[m]
        a[m] = ((zx + zxy - z - zy) / 2.0) * dc / h
        b[m] = ((zy + zxy - z - zx) / 2.0) * dr / h
        res[m] = np.abs(z + zxy - zx - zy) / 4.0
        # three corners: the plane through them is exact; each mask names
        # the corners of its x and y differences
        for m, (x1, x0), (y1, y0) in ((fx & fy & ~fxy, (Zx, Z), (Zy, Z)),
                                      (~fx & fy & fxy, (Zxy, Zy), (Zy, Z)),
                                      (fx & ~fy & fxy, (Zx, Z), (Zxy, Zx))):
            a[m] = (x1[m] - x0[m]) * dc / h
            b[m] = (y1[m] - y0[m]) * dr / h
            res[m] = 0.0
        out.append((a, b, res))
    return out


def _plane_cofactors(sxx, sxy, sx, syy, sy, n, tx, ty, tz):
    """The determinant of the normal matrix of a plane fit's nine sums, and
    the cofactor numerators of (a, b, c); Python floats or numpy arrays."""
    c00 = syy * n - sy * sy
    c01 = sy * sx - sxy * n
    c02 = sxy * sy - syy * sx
    c11 = sxx * n - sx * sx
    c12 = sxy * sx - sxx * sy
    c22 = sxx * syy - sxy * sxy
    return (sxx * c00 + sxy * c01 + sx * c02, c00 * tx + c01 * ty + c02 * tz,
            c01 * tx + c11 * ty + c12 * tz, c02 * tx + c12 * ty + c22 * tz)


def _window_scores(surf: SparseGrid, padded: np.ndarray, r, c, dr, dc) -> np.ndarray:
    """Worst plane-fit deviation over the one-sided 3x3 window of each
    (cell, quadrant) pair (arrays r, c, dr, dc) of the occupied cells of
    surf, 0 under four cells; the window's cells are looked up by binary
    search, and padded is surf.values with NaN appended, so an unoccupied
    cell (position n) reads as NaN. A 2x2 stencil that straddles a crease
    can be coplanar by accident (a symmetric ridge, a two-level step); one
    cell deeper on the same side exposes the bend, while a stencil inside a
    true face stays exact. Deviations depend on neither cell size nor window
    direction: the fit uses the unit lattice.
    """
    i, j = np.divmod(np.arange(9)[:, None], 3)  # one row per window cell
    z = padded[surf.positions(r + i * dr, c + j * dc)]
    occ = np.isfinite(z)
    z = np.where(occ, z - z[0], 0.0)  # window cell 0 is the cell itself
    # _PlaneFit's nine sums over each window's cells in cell order, dx = j
    # and dy = i; four or more cells of a 3x3 lattice are never collinear,
    # so det > 0 wherever a window is scored
    one = np.ones_like(i)
    sums = [sum(w * o for w, o in zip(wk, occ)) for wk in (j * j, j * i, j, i * i, i, one)]
    sums += [sum(w * zk for w, zk in zip(wk, z)) for wk in (j, i, one)]
    few = sums[5] < 4
    det, *num = _plane_cofactors(*sums)
    a, b, c0 = (v / np.where(few, 1, det) for v in num)
    dev = np.where(occ, np.abs(z - (a * j + b * i + c0)), 0.0).max(axis=0)
    return np.where(few, 0.0, dev)


def local_normals(dsm: RasterGrid | SparseGrid
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell plane gradient (a, b) and flatness residual.

    Each occupied cell tries the four one-sided 2x2 stencils around it and
    keeps the flattest. One-sided stencils matter: a cell next to a roof
    ridge still gets the pure gradient of its own face instead of an
    average across the crease. When several stencils are equally flat but
    disagree on the gradient, the deeper-window score arbitrates; remaining
    ties fall to fixed quadrant order. Returns (cells, a, b, curvature):
    the flat indices of the occupied cells in row-major order, and one
    value per such cell; a and b are NaN and curvature +inf where no
    quadrant has three stencil cells.
    """
    surf = dsm.occupied_cells()
    n = surf.flat.size
    quads = _quadrant_planes(surf.values, surf.neighbours(), surf.cell)
    best_a = np.full(n, np.nan)
    best_b = np.full(n, np.nan)
    best_res = np.full(n, np.inf)
    for a, b, res in quads:
        upd = np.isfinite(a) & (res < best_res)
        best_a[upd] = a[upd]
        best_b[upd] = b[upd]
        best_res[upd] = res[upd]
    # find cells where another quadrant ties the minimum with a different
    # gradient; those need the deeper look
    with np.errstate(invalid="ignore"):
        tie = np.stack([np.isfinite(a) & (res <= best_res + 1e-12)
                        for a, _, res in quads], axis=1)
        differs = np.stack([(np.abs(a - best_a) > 1e-9) | (np.abs(b - best_b) > 1e-9)
                            for a, b, _ in quads], axis=1)
    # score the tying quadrants of the ambiguous cells WINDOW_BLOCK_PAIRS at a
    # time; rounding to 1e-9 sends gaps at rounding-noise level to quadrant
    # order on any build
    amb = np.flatnonzero((tie & differs).any(axis=1))
    tie = tie[amb]
    pair, q = np.nonzero(tie)
    dr, dc = np.array(QUADRANTS)[q].T
    score = np.full(tie.shape, np.inf)
    rr, cc = np.divmod(surf.flat[amb][pair], surf.ncols)
    padded = np.append(surf.values, np.nan)
    for start in range(0, pair.size, WINDOW_BLOCK_PAIRS):
        s = slice(start, start + WINDOW_BLOCK_PAIRS)
        score[pair[s], q[s]] = np.round(
            _window_scores(surf, padded, rr[s], cc[s], dr[s], dc[s]), 9)
    pick = np.argmin(score, axis=1), np.arange(amb.size)
    best_a[amb] = np.stack([a[amb] for a, _, _ in quads])[pick]
    best_b[amb] = np.stack([b[amb] for _, b, _ in quads])[pick]
    return surf.flat, best_a, best_b, best_res


# ---------------------------------------------------------------------------
# region growing
# ---------------------------------------------------------------------------

# Growth, eviction and each segment's final plane use one solve: the plane
# by cofactors in Python floats (_plane_cofactors), IEEE arithmetic that gives
# the same bits on every machine. The normal matrix S is symmetric positive
# semi-definite with eigenvalues l1 >= l2 >= l3; l1 * l2 <= (trace / 2)**2, so
# 4 * det / trace**2 <= l3. A fit with 4 * det / trace**2 <= RANK_GUARD, such
# as a one-cell-wide strip, fixes no plane well: it keeps the seed's gradient
# and fits only the offset.
RANK_GUARD = 1e-6


class _PlaneFit:
    """Running least-squares plane over cells, in seed-local coordinates.

    The normal equations S (a, b, c) = t, with v = (dx, dy, 1), are kept
    as their nine sums of ``outer(v, v)`` and ``z * v`` over the cells.
    """

    def __init__(self, fallback_ab: tuple[float, float]):
        self.fallback_ab = fallback_ab
        self.sxx = self.sxy = self.sx = self.syy = self.sy = 0.0
        self.tx = self.ty = self.tz = 0.0
        self.n = 0

    def add(self, dx: float, dy: float, z: float):
        self.sxx += dx * dx
        self.sxy += dx * dy
        self.sx += dx
        self.syy += dy * dy
        self.sy += dy
        self.n += 1
        self.tx += z * dx
        self.ty += z * dy
        self.tz += z

    def plane(self) -> tuple[float, float, float]:
        """(a, b, c) minimizing squared residuals, by cofactors; member sets
        that the rank guard stops keep the seed's local gradient and only
        fit the offset."""
        n = float(self.n)
        det, na, nb, nc = _plane_cofactors(self.sxx, self.sxy, self.sx, self.syy, self.sy, n,
                                           self.tx, self.ty, self.tz)
        trace = self.sxx + self.syy + n
        if self.n < 3 or 4.0 * det <= RANK_GUARD * trace * trace:
            a, b = self.fallback_ab
            return a, b, (self.tz - a * self.sx - b * self.sy) / max(self.n, 1)
        return na / det, nb / det, nc / det

    def refit(self):
        """Set the plane the residual tests use."""
        self.coef = self.plane()

    def holds(self, dx, dy, z, residual_tol_m: float):
        """Whether the cell lies within residual_tol_m of the current plane;
        given arrays of cells, the same test per cell, as an array."""
        a, b, c = self.coef
        return abs(z - (a * dx + b * dy + c)) <= residual_tol_m


def _summed_fit(fallback_ab: tuple[float, float], dx: np.ndarray, dy: np.ndarray,
                z: np.ndarray) -> _PlaneFit:
    """The fit that add() over the rows (dx, dy, z) in order would build.

    Each sum is accumulated left to right from 0.0 (a cumulative sum, never
    numpy's pairwise one), so it has the bits of the += chain, signed zeros
    included.
    """
    fit = _PlaneFit(fallback_ab)
    terms = np.stack([dx * dx, dx * dy, dx, dy * dy, dy, z * dx, z * dy, z])
    sums = np.cumsum(np.hstack([np.zeros((8, 1)), terms]), axis=1)[:, -1].tolist()
    fit.sxx, fit.sxy, fit.sx, fit.syy, fit.sy, fit.tx, fit.ty, fit.tz = sums
    fit.n = dx.size
    return fit


class _ComponentCells:
    """The cells of one component, at surface positions at, as positions
    0 .. size - 1, in (row, col) order, with their (row, col), centres,
    elevations and local normals.

    neighbours[i] lists the positions of cell i's 8-neighbours in NEIGH8
    order, taken from the surface's neighbour table; an empty neighbour is
    position size, a sentinel that the growth flags mark as taken.
    """

    def __init__(self, at: np.ndarray, dsm: RasterGrid | SparseGrid, normals):
        _, A, B, curv = normals
        surf = dsm.occupied_cells()
        self.size = at.size
        self.rc = np.column_stack(np.divmod(surf.flat[at], surf.ncols))
        self.x, self.y = cell_centers(surf, self.rc).T
        self.z = surf.values[at]
        self.a, self.b, self.k = A[at], B[at], curv[at]
        self.q = 1.0 / np.sqrt(self.a * self.a + self.b * self.b + 1.0)
        self.usable = np.isfinite(self.k)
        # occupied neighbours lie in the component: one search of at maps them
        # to component positions, and the surface's sentinel n to size
        self.neighbours = np.searchsorted(at, surf.neighbours()[at]).tolist()
        # Python floats for the per-cell growth loop
        self.xs, self.ys, self.zs = self.x.tolist(), self.y.tolist(), self.z.tolist()


def grow_segments(component, dsm: RasterGrid | SparseGrid, normals,
                  normal_tol_deg: float = RoofParams.normal_tol_deg,
                  residual_tol_m: float = RoofParams.residual_tol_m) -> list[RoofSegment]:
    """Split one connected component into planar segments.

    Seeds are picked flattest-first. A frontier cell joins when its local
    normal is within normal_tol_deg of the seed normal and its elevation is
    within residual_tol_m of the segment's running plane fit. After growth
    the fit is re-checked and outlier cells are evicted back into the pool
    until it holds every member.
    Cells with no usable local normal end up as singletons. component is
    one of label_components(dsm), and normals what local_normals(dsm)
    returns.
    """
    cells = _ComponentCells(component, dsm, normals)
    cos_tol = math.cos(math.radians(normal_tol_deg))
    h = dsm.cell
    pool = bytearray(b"\x01") * cells.size
    segments: list[RoofSegment] = []
    # positions are in (row, col) order, so the stable sort orders seeds by
    # (curvature, row, col)
    for seed in np.argsort(cells.k, kind="stable").tolist():
        if not pool[seed]:
            continue
        members = np.sort(_grow_one(seed, cells, pool, cos_tol, residual_tol_m))
        for i in members.tolist():
            pool[i] = 0
        x0, y0 = cells.xs[seed], cells.ys[seed]
        fallback = ((float(cells.a[seed]), float(cells.b[seed]))
                    if math.isfinite(cells.k[seed]) else (0.0, 0.0))
        fit = _summed_fit(fallback, cells.x[members] - x0, cells.y[members] - y0,
                          cells.z[members])
        pa, pb, c_loc = fit.plane()
        plane = (pa, pb, c_loc - pa * x0 - pb * y0)
        slope = math.degrees(math.atan(math.hypot(pa, pb)))
        segments.append(RoofSegment(cells.rc[members], plane, slope, members.size * h * h))
    return segments


def _grow_one(seed: int, cells: _ComponentCells, pool: bytearray, cos_tol: float,
              residual_tol_m: float) -> list[int]:
    """Positions of the segment grown from seed over the pool's cells."""
    if not math.isfinite(cells.k[seed]):
        return [seed]
    sa, sb, sq = float(cells.a[seed]), float(cells.b[seed]), float(cells.q[seed])
    # the normal test depends on the seed alone: decide it for every cell at once
    cos = (cells.a * sa + cells.b * sb + 1.0) * cells.q * sq
    agree = (cells.usable & (cos >= cos_tol)).tobytes()

    xs, ys, zs, neighbours = cells.xs, cells.ys, cells.zs, cells.neighbours
    x0, y0 = xs[seed], ys[seed]
    fit = _PlaneFit((sa, sb))
    member = bytearray(cells.size) + b"\x01"  # the sentinel counts as taken
    member[seed] = 1
    joined = [seed]
    fit.add(0.0, 0.0, zs[seed])
    fit.refit()

    # breadth first: the loop reads the queue while extending it
    queue = list(neighbours[seed])
    for i in queue:
        if member[i] or not pool[i] or not agree[i]:
            continue
        dx, dy, z = xs[i] - x0, ys[i] - y0, zs[i]
        if not fit.holds(dx, dy, z, residual_tol_m):
            continue
        member[i] = 1
        joined.append(i)
        fit.add(dx, dy, z)
        fit.refit()
        queue.extend(neighbours[i])

    # evict cells the fit cannot hold and refit, until it holds them all;
    # every round drops at least one non-seed cell, so this ends
    evicted = False
    while len(joined) > 1:
        at = np.array(joined)
        dx, dy, z = cells.x[at] - x0, cells.y[at] - y0, cells.z[at]
        keep = np.concatenate([[True], fit.holds(dx[1:], dy[1:], z[1:], residual_tol_m)])
        if keep.all():
            break
        for i in at[~keep].tolist():
            member[i] = 0
        joined = at[keep].tolist()
        fit = _summed_fit(fit.fallback_ab, dx[keep], dy[keep], z[keep])
        fit.refit()
        evicted = True
    if not evicted:
        return joined  # every member joined next to an earlier one

    # eviction may have split the patch; keep only the part still touching the seed
    reached = bytearray(cells.size) + b"\x01"
    reached[seed] = 1
    out = [seed]
    stack = [seed]
    while stack:
        for j in neighbours[stack.pop()]:
            if member[j] and not reached[j]:
                reached[j] = 1
                out.append(j)
                stack.append(j)
    return out


# ---------------------------------------------------------------------------
# building assignment and the greening decision
# ---------------------------------------------------------------------------

def assign_segments(segments: list[RoofSegment], buildings: list[BuildingAttributes],
                    grid: RasterGrid | SparseGrid) -> None:
    """Attach each segment to the building whose footprint holds its centroid.

    Segments whose centroid falls outside every footprint keep
    building_id None; callers usually drop those.
    """
    ordered = sorted(buildings, key=lambda b: b.id)
    boxes = [b.footprint.bounds() for b in ordered]
    for seg in segments:
        centers = cell_centers(grid, seg.cells)
        cx, cy = float(centers[:, 0].mean()), float(centers[:, 1].mean())
        for b, (x_min, y_min, x_max, y_max) in zip(ordered, boxes):
            if x_min <= cx <= x_max and y_min <= cy <= y_max and b.footprint.contains(cx, cy):
                seg.building_id = b.id
                break


def decide_potential(building: BuildingAttributes, segments: list[RoofSegment],
                     thresholds: PotentialThresholds | None = None) -> PotentialDecision:
    """Greening verdict for one building.

    Potential requires age within the load-bearing limit and at least one
    segment that is both flat enough and large enough. The reasons set
    records which thresholds blocked the building; greenable area sums the
    qualifying segments either way.
    """
    th = thresholds or PotentialThresholds()
    reasons = set()
    if building.age_years > th.age_max_yr:
        reasons.add("age")
    qualifying = [s for s in segments if th.qualifies(s)]
    greenable = sum(s.area_m2 for s in qualifying)
    if not qualifying:
        reasons |= set().union(*map(th.shortfalls, segments)) if segments else {"area"}
    return PotentialDecision(building.id, len(reasons) == 0, frozenset(reasons), greenable)


@dataclass(eq=False)
class GroundPoints:
    """Ground-class points, (n, 3) in file order, with their order by x,
    made once per extract so that each building reads only the points in
    its x range."""

    xyz: np.ndarray
    by_x: np.ndarray = field(init=False, repr=False)  # indices of xyz, ascending x
    x: np.ndarray = field(init=False, repr=False)  # x in that order

    def __post_init__(self):
        self.by_x = np.argsort(self.xyz[:, 0])
        self.x = self.xyz[self.by_x, 0]

    def x_range(self, lo: float, hi: float) -> np.ndarray:
        """The points with lo <= x <= hi, in file order: two binary searches
        of the sorted x, then the slice's indices sorted back."""
        start, stop = np.searchsorted(self.x, lo, "left"), np.searchsorted(self.x, hi, "right")
        return self.xyz[np.sort(self.by_x[start:stop])]


def _ground_level(footprint, ground: GroundPoints, search_m: float) -> float:
    """Lowest ground-class point inside the footprint or within search_m of
    its exterior ring; 0 when there is none. The candidates are the points
    of the footprint's box grown by search_m, in file order, so that the
    minimum and its sign do not depend on the order by x."""
    x_min, y_min, x_max, y_max = footprint.bounds()
    near = ground.x_range(x_min - search_m, x_max + search_m)
    near = near[(near[:, 1] >= y_min - search_m) & (near[:, 1] <= y_max + search_m)]
    keep = points_in_polygon(near[:, :2], footprint)
    out = np.flatnonzero(~keep)
    keep[out] = segment_distances(near[out], footprint.exterior) <= search_m
    return float(near[keep, 2].min()) if keep.any() else 0.0


def building_height(building: BuildingAttributes, dsm: RasterGrid | SparseGrid,
                    ground: GroundPoints, search_m: float = 10.0) -> float:
    """Roof elevation (median of in-footprint cells) above local ground.

    Ground level is the lowest ground-class point within search_m of the
    footprint; with no such point it defaults to 0. Result is clamped at 0.
    """
    surf = dsm.occupied_cells()
    at = surf.positions(*cells_in_polygon(surf, building.footprint))
    zs = surf.values[at[at < surf.flat.size]]
    if not zs.size:
        raise ComputationError(f"building {building.id}: no roof cells inside footprint")
    ground_z = _ground_level(building.footprint, ground, search_m)
    return max(0.0, float(np.median(zs)) - ground_z)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

@dataclass
class RoofExtraction:
    dsm: SparseGrid  # wall-filtered surface model
    segments: list[RoofSegment]  # assigned to buildings, in id order
    decisions: dict[str, PotentialDecision]
    heights: dict[str, float]
    # why each building whose height fell back to 0 has none, by id
    height_fallbacks: dict[str, str] = field(default_factory=dict)


def extract_all(pc: PointCloud, buildings: list[BuildingAttributes],
                params: RoofParams | None = None) -> RoofExtraction:
    """Run the full extraction chain for one scene."""
    p = params or RoofParams()
    dsm = filter_wall_edges(candidate_roof_points(pc, p.cell), p.wall_diff_m)
    normals = local_normals(dsm)
    segments: list[RoofSegment] = []
    for comp in label_components(dsm):
        segments.extend(grow_segments(comp, dsm, normals, p.normal_tol_deg, p.residual_tol_m))
    assign_segments(segments, buildings, dsm)
    segments = [s for s in segments if s.building_id is not None]
    for i, seg in enumerate(segments, start=1):
        seg.seg_id = f"s{i:04d}"
    by_building: dict[str, list[RoofSegment]] = {}
    for seg in segments:
        by_building.setdefault(seg.building_id, []).append(seg)
    ground = GroundPoints(pc.points_of(GROUND))
    decisions = {}
    heights = {}
    fallbacks = {}
    for b in sorted(buildings, key=lambda b: b.id):
        decisions[b.id] = decide_potential(b, by_building.get(b.id, []), p.thresholds)
        try:
            heights[b.id] = building_height(b, dsm, ground)
        except ComputationError as exc:
            heights[b.id] = 0.0
            fallbacks[b.id] = str(exc)
    return RoofExtraction(dsm, segments, decisions, heights, fallbacks)
