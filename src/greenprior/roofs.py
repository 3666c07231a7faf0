"""Roof extraction from classified point clouds.

The chain is: rasterize building points into a surface model (max z per
cell), drop wall and edge cells by the neighbor elevation test, cluster the
survivors with 8-connected component labeling, split each cluster into
planar segments by region growing, and finally decide per building whether
any segment is worth greening.

The wall filter and the local plane estimates work on the arrays of
occupied cells only, reading each neighbor with a bounds-checked gather
from the grid itself, so their cost follows the roof area rather than the
scene's; off-grid and empty neighbors read alike as NaN. The component
labeling finds each occupied cell's neighbors by a binary search of the
occupied cells' flat indices, and grows no label grid. The plane
estimates are kept per occupied cell, never as grids, so extraction holds
at most two scene-sized grids at a time: the rasterized surface model and
its wall-filtered copy.

Region growing works on one component at a time, on integer positions of
its cells, with a neighbor table from the same binary search. Per seed,
the normal test covers all of the component's cells in one array
expression; a segment's eviction sweeps and its final plane fit are
whole-array too. Only the breadth-first growth visits cells one by one,
because each cell it takes changes the running plane fit. Every growth and
eviction decision is one float comparison, a cosine against the normal
tolerance or a residual against the residual tolerance. The residuals come
from plane fits solved by cofactors in Python floats, as does each
segment's final plane, so no BLAS kernel touches a decision or a plane.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geocore import (
    BUILDING,
    GROUND,
    ComputationError,
    PointCloud,
    RasterGrid,
    cells_in_polygon,
    points_in_polygon,
    point_segment_distance,
    snapped_grid,
)
from .ingest import BuildingAttributes, GridGeometry

NEIGH4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
NEIGH8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))

# one-sided 2x2 stencil quadrants, in tie-break order
QUADRANTS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass
class RoofSegment:
    """One planar roof piece: member cells plus the fitted plane."""

    cells: list[tuple[int, int]]
    plane: tuple[float, float, float]  # z = a*x + b*y + c in world coordinates
    slope_deg: float
    area_m2: float
    building_id: str | None = None
    seg_id: str = ""


@dataclass
class PotentialThresholds:
    slope_max_deg: float = 15.0
    area_min_m2: float = 10.0
    age_max_yr: int = 60


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

def candidate_roof_points(pc: PointCloud, cell: float) -> RasterGrid:
    """Rasterize building points to a grid of per-cell maximum elevations.

    Cells without any building point are NaN. The grid is the
    :func:`snapped_grid` of the building points.
    """
    pts = pc.points_of(BUILDING)
    if pts.shape[0] == 0:
        raise ComputationError("no building points in the cloud")
    grid = snapped_grid(pts, cell)
    grid.values[:] = -np.inf
    np.maximum.at(grid.values, grid.cells_of(pts), pts[:, 2])
    grid.values[np.isinf(grid.values)] = np.nan
    return grid


def _gather(V: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """V[r, c] over index arrays that broadcast together, NaN wherever
    (r, c) lies off the grid, as if the grid had a NaN border."""
    n, m = V.shape
    inside = (r >= 0) & (r < n) & (c >= 0) & (c < m)
    return np.where(inside, V[np.clip(r, 0, n - 1), np.clip(c, 0, m - 1)], np.nan)


def filter_wall_edges(dsm: RasterGrid, threshold: float = 1.0) -> RasterGrid:
    """Drop cells that sit against a vertical discontinuity.

    A cell survives iff every occupied 4-neighbor differs in elevation by
    less than the threshold. Missing neighbors pass vacuously, so roof
    borders and isolated cells are kept. Only occupied cells are tested.
    """
    V = dsm.values
    rr, cc = np.nonzero(np.isfinite(V))
    z = V[rr, cc]
    keep = np.ones(rr.size, dtype=bool)
    for dr, dc in NEIGH4:
        nb = _gather(V, rr + dr, cc + dc)
        with np.errstate(invalid="ignore"):
            keep &= ~(np.isfinite(nb) & (np.abs(z - nb) >= threshold))
    out = np.full(V.shape, np.nan)
    out[rr[keep], cc[keep]] = z[keep]
    return RasterGrid(dsm.origin_x, dsm.origin_y, dsm.cell, out)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------

def _neighbour_positions(flat: np.ndarray, rr: np.ndarray, cc: np.ndarray,
                         shape: tuple[int, int], offsets):
    """Per (dr, dc) of offsets, the pairs (i, j) of positions in flat, the
    sorted flat indices of cells (rr, cc) of a grid of the given shape, such
    that cell j is cell i moved by (dr, dc). One binary search per offset."""
    n, m = shape
    for dr, dc in offsets:
        on = np.flatnonzero((rr + dr >= 0) & (rr + dr < n) & (cc + dc >= 0) & (cc + dc < m))
        nb = flat[on] + (dr * m + dc)
        at = np.minimum(np.searchsorted(flat, nb), flat.size - 1)
        hit = flat[at] == nb
        yield on[hit], at[hit]


def label_components(dsm: RasterGrid) -> list[list[tuple[int, int]]]:
    """Partition occupied cells into 8-connected components.

    Components are ordered by (min row, min col); cells within a component
    by (row, col).

    Works on the occupied cells only, by hook and compress (Shiloach and
    Vishkin): every cell starts as its own root, each edge to a forward
    8-neighbour hooks the larger of its two roots to the smaller, and
    pointer jumping flattens the trees, until every edge has one root. The
    root of a component is then its first cell in row-major order.
    """
    V = dsm.values
    rr, cc = np.nonzero(np.isfinite(V))
    flat = rr * V.shape[1] + cc
    src, dst = map(np.concatenate, zip(*_neighbour_positions(
        flat, rr, cc, V.shape, ((0, 1), (1, -1), (1, 0), (1, 1)))))
    root = np.arange(rr.size)
    while True:
        a, b = root[src], root[dst]
        if (a == b).all():
            break
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        jumped = root[root]
        while (jumped != root).any():
            root, jumped = jumped, jumped[jumped]
    # nonzero is row-major; a stable sort by root keeps that order per component
    order = np.argsort(root, kind="stable")
    rr, cc = rr[order].tolist(), cc[order].tolist()
    sizes = np.bincount(root)
    ends = [0] + np.cumsum(sizes[sizes > 0]).tolist()
    comps = [list(zip(rr[lo:hi], cc[lo:hi])) for lo, hi in zip(ends[:-1], ends[1:])]
    comps.sort(key=lambda cells: (min(r for r, _ in cells), min(c for _, c in cells)))
    return comps


# ---------------------------------------------------------------------------
# local plane estimates
# ---------------------------------------------------------------------------

def _quadrant_planes(V: np.ndarray, rr: np.ndarray, cc: np.ndarray,
                     h: float) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Gradient and flatness residual of each one-sided 2x2 stencil.

    (rr, cc) are occupied cells of the grid V. Returns, per quadrant,
    arrays (a, b, res) over those cells: the least-squares plane gradient
    over the up-to-four stencil cells and the worst per-point deviation.
    Stencils with fewer than three cells yield NaN/inf.
    """
    Z = V[rr, cc]
    out = []
    for dr, dc in QUADRANTS:
        Zx, Zy = _gather(V, rr, cc + dc), _gather(V, rr + dr, cc)
        Zxy = _gather(V, rr + dr, cc + dc)
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
        # three corners: the plane through them is exact
        m = fx & fy & ~fxy
        a[m] = (Zx[m] - Z[m]) * dc / h
        b[m] = (Zy[m] - Z[m]) * dr / h
        res[m] = 0.0
        m = ~fx & fy & fxy
        a[m] = (Zxy[m] - Zy[m]) * dc / h
        b[m] = (Zy[m] - Z[m]) * dr / h
        res[m] = 0.0
        m = fx & ~fy & fxy
        a[m] = (Zx[m] - Z[m]) * dc / h
        b[m] = (Zxy[m] - Zx[m]) * dr / h
        res[m] = 0.0
        out.append((a, b, res))
    return out


def _window_scores(V: np.ndarray, r, c, dr, dc) -> np.ndarray:
    """Worst plane-fit deviation over the one-sided 3x3 window of each
    (cell, quadrant) pair (arrays r, c, dr, dc) of the grid V, 0 under four
    cells. A 2x2 stencil that straddles a crease can be coplanar by accident
    (a symmetric ridge, a two-level step); one cell deeper on the same side
    exposes the bend, while a stencil inside a true face stays exact.
    Deviations depend on neither cell size nor window direction: the fit
    uses the unit lattice.
    """
    i, j = np.divmod(np.arange(9), 3)
    z = _gather(V, r[:, None] + i * dr[:, None], c[:, None] + j * dc[:, None])
    occ = np.isfinite(z)
    z = np.where(occ, z - V[r, c][:, None], 0.0)
    design = np.column_stack([j, i, np.ones(9)])
    S = np.einsum("nk,ki,kj->nij", occ.astype(float), design, design)
    few = occ.sum(axis=1) < 4
    S[few] = np.eye(3)
    coef = np.linalg.solve(S, (z @ design)[..., None])[..., 0]
    dev = np.where(occ, np.abs(z - coef @ design.T), 0.0).max(axis=1)
    return np.where(few, 0.0, dev)


def local_normals(dsm: RasterGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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
    V = dsm.values
    rr, cc = np.nonzero(np.isfinite(V))
    quads = _quadrant_planes(V, rr, cc, dsm.cell)
    best_a = np.full(rr.size, np.nan)
    best_b = np.full(rr.size, np.nan)
    best_res = np.full(rr.size, np.inf)
    for a, b, res in quads:
        upd = np.isfinite(a) & (res < best_res)
        best_a[upd] = a[upd]
        best_b[upd] = b[upd]
        best_res[upd] = res[upd]
    # find cells where another quadrant ties the minimum with a different
    # gradient; those need the deeper look
    ambiguous = np.zeros(rr.size, dtype=bool)
    for a, b, res in quads:
        with np.errstate(invalid="ignore"):
            tie = np.isfinite(a) & (res <= best_res + 1e-12)
            differs = (np.abs(a - best_a) > 1e-9) | (np.abs(b - best_b) > 1e-9)
        ambiguous |= tie & differs
    # score all tying quadrants of all ambiguous cells at once; rounding to
    # 1e-9 sends gaps at rounding-noise level to quadrant order on any build
    amb = np.flatnonzero(ambiguous)
    tie = np.stack([np.isfinite(a[amb]) & (res[amb] <= best_res[amb] + 1e-12)
                    for a, _, res in quads], axis=1)
    pair, q = np.nonzero(tie)
    dr, dc = np.array(QUADRANTS)[q].T
    score = np.full(tie.shape, np.inf)
    score[pair, q] = np.round(_window_scores(V, rr[amb][pair], cc[amb][pair], dr, dc), 9)
    pick = np.argmin(score, axis=1), np.arange(amb.size)
    best_a[amb] = np.stack([a[amb] for a, _, _ in quads])[pick]
    best_b[amb] = np.stack([b[amb] for _, b, _ in quads])[pick]
    return np.ravel_multi_index((rr, cc), V.shape), best_a, best_b, best_res


# ---------------------------------------------------------------------------
# region growing
# ---------------------------------------------------------------------------

# Growth, eviction and each segment's final plane use one solve: the plane
# by cofactors in Python floats (_PlaneFit.plane), IEEE arithmetic that gives
# the same bits on every machine. The normal matrix S is symmetric positive
# semi-definite with eigenvalues l1 >= l2 >= l3; l1 * l2 <= (trace / 2)**2, so
# 4 * det / trace**2 <= l3. A fit with 4 * det / trace**2 <= RANK_GUARD, such
# as a one-cell-wide strip, fixes no plane well: it keeps the seed's gradient
# and fits only the offset.
RANK_GUARD = 1e-6


class _PlaneFit:
    """Running least-squares plane over cells, in seed-local coordinates.

    The normal equations S @ (a, b, c) = t, with v = (dx, dy, 1), are kept
    as their nine sums of ``outer(v, v)`` and ``z * v`` over the cells.
    """

    def __init__(self, fallback_ab: tuple[float, float]):
        self.fallback_ab = fallback_ab
        self.rebuild(())

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

    def rebuild(self, rows):
        self.sxx = self.sxy = self.sx = self.syy = self.sy = 0.0
        self.tx = self.ty = self.tz = 0.0
        self.n = 0
        for dx, dy, z in rows:
            self.add(dx, dy, z)

    def plane(self) -> tuple[float, float, float]:
        """(a, b, c) minimizing squared residuals, by cofactors; member sets
        that the rank guard stops keep the seed's local gradient and only
        fit the offset."""
        sxx, sxy, sx, syy, sy = self.sxx, self.sxy, self.sx, self.syy, self.sy
        n = float(self.n)
        c00 = syy * n - sy * sy
        c01 = sy * sx - sxy * n
        c02 = sxy * sy - syy * sx
        det = sxx * c00 + sxy * c01 + sx * c02
        trace = sxx + syy + n
        if self.n < 3 or 4.0 * det <= RANK_GUARD * trace * trace:
            a, b = self.fallback_ab
            return a, b, (self.tz - a * sx - b * sy) / max(self.n, 1)
        c11 = sxx * n - sx * sx
        c12 = sxy * sx - sxx * sy
        c22 = sxx * syy - sxy * sxy
        tx, ty, tz = self.tx, self.ty, self.tz
        return ((c00 * tx + c01 * ty + c02 * tz) / det,
                (c01 * tx + c11 * ty + c12 * tz) / det,
                (c02 * tx + c12 * ty + c22 * tz) / det)

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
    """The cells of one component at positions 0 .. size - 1, in (row, col)
    order, with their centres, elevations and local normals.

    neighbours[i] lists the positions of cell i's 8-neighbours in NEIGH8
    order; a neighbour outside the component is position size, a sentinel
    that the growth flags mark as taken.
    """

    def __init__(self, component, dsm: RasterGrid, normals):
        cells, A, B, curv = normals
        shape = dsm.values.shape
        flat = np.unique(np.ravel_multi_index(
            np.asarray(component, dtype=np.int64).reshape(-1, 2).T, shape))
        at = np.minimum(np.searchsorted(cells, flat), cells.size - 1)
        if cells.size == 0 or (cells[at] != flat).any():
            raise ValueError("component holds a cell that is not occupied in the surface model")
        self.size = flat.size
        self.rr, self.cc = rr, cc = np.divmod(flat, shape[1])
        self.x = dsm.origin_x + (cc + 0.5) * dsm.cell
        self.y = dsm.origin_y + (rr + 0.5) * dsm.cell
        self.z = dsm.values[rr, cc]
        self.a, self.b, self.k = A[at], B[at], curv[at]
        self.q = 1.0 / np.sqrt(self.a * self.a + self.b * self.b + 1.0)
        self.usable = np.isfinite(self.k)
        nb = np.full((self.size, len(NEIGH8)), self.size)
        for d, (i, j) in enumerate(_neighbour_positions(flat, rr, cc, shape, NEIGH8)):
            nb[i, d] = j
        self.neighbours = nb.tolist()
        # Python floats for the per-cell growth loop
        self.xs, self.ys, self.zs = self.x.tolist(), self.y.tolist(), self.z.tolist()


def grow_segments(component, dsm: RasterGrid, normal_tol_deg: float = 10.0,
                  residual_tol_m: float = 0.2, normals=None) -> list[RoofSegment]:
    """Split one connected component into planar segments.

    Seeds are picked flattest-first. A frontier cell joins when its local
    normal is within normal_tol_deg of the seed normal and its elevation is
    within residual_tol_m of the segment's running plane fit. After growth
    the fit is re-checked and outlier cells are evicted back into the pool
    until it holds every member.
    Cells with no usable local normal end up as singletons. The component's
    cells must be occupied cells of dsm; normals, if given, is what
    local_normals(dsm) returns.
    """
    if not component:
        return []
    if normals is None:
        normals = local_normals(dsm)
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
        rc = list(zip(cells.rr[members].tolist(), cells.cc[members].tolist()))
        segments.append(RoofSegment(rc, plane, slope, members.size * h * h))
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
        fit.rebuild(zip(dx[keep].tolist(), dy[keep].tolist(), z[keep].tolist()))
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


def segment_cell_centers(segment: RoofSegment, grid: RasterGrid | GridGeometry) -> np.ndarray:
    """World coordinates of the segment's cell centers, shape (m, 2)."""
    cols_rows = np.asarray(segment.cells, dtype=np.int64).reshape(-1, 2)[:, ::-1]
    return np.array([grid.origin_x, grid.origin_y]) + (cols_rows + 0.5) * grid.cell


# ---------------------------------------------------------------------------
# building assignment and the greening decision
# ---------------------------------------------------------------------------

def assign_segments(segments: list[RoofSegment], buildings: list[BuildingAttributes],
                    grid: RasterGrid) -> None:
    """Attach each segment to the building whose footprint holds its centroid.

    Segments whose centroid falls outside every footprint keep
    building_id None; callers usually drop those.
    """
    ordered = sorted(buildings, key=lambda b: b.id)
    boxes = [b.footprint.bounds() for b in ordered]
    for seg in segments:
        centers = segment_cell_centers(seg, grid)
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
    qualifying = [s for s in segments
                  if s.slope_deg < th.slope_max_deg and s.area_m2 > th.area_min_m2]
    greenable = sum(s.area_m2 for s in qualifying)
    if not qualifying:
        if segments:
            for s in segments:
                if s.slope_deg >= th.slope_max_deg:
                    reasons.add("slope")
                if s.area_m2 <= th.area_min_m2:
                    reasons.add("area")
        else:
            reasons.add("area")
    return PotentialDecision(building.id, len(reasons) == 0, frozenset(reasons), greenable)


# np.hypot and math.hypot may differ in the last bit, so a ground point whose
# vectorized ring distance lies within this of search_m is measured again by
# point_segment_distance; a last-bit difference of a distance below 1e6 m
# is under 2e-10 m
RING_DISTANCE_MARGIN_M = 1e-9


def _ring_distances(xy: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearest segment of the ring, with the
    arithmetic of point_segment_distance except for np.hypot."""
    px, py = xy[:, 0], xy[:, 1]
    best = np.full(xy.shape[0], np.inf)
    for (ax, ay), (bx, by) in zip(ring[:-1], ring[1:]):
        dx, dy = bx - ax, by - ay
        seg_len2 = dx * dx + dy * dy
        if seg_len2 == 0.0:
            d = np.hypot(px - ax, py - ay)
        else:
            t = np.clip(((px - ax) * dx + (py - ay) * dy) / seg_len2, 0.0, 1.0)
            d = np.hypot(px - (ax + t * dx), py - (ay + t * dy))
        np.minimum(best, d, out=best)
    return best


def _ground_level(footprint, ground_xyz: np.ndarray, search_m: float) -> float:
    """Lowest ground-class point inside the footprint or within search_m of
    its exterior ring; 0 when there is none."""
    x_min, y_min, x_max, y_max = footprint.bounds()
    near = ground_xyz[
        (ground_xyz[:, 0] >= x_min - search_m) & (ground_xyz[:, 0] <= x_max + search_m)
        & (ground_xyz[:, 1] >= y_min - search_m) & (ground_xyz[:, 1] <= y_max + search_m)]
    keep = points_in_polygon(near[:, :2], footprint)
    out = np.flatnonzero(~keep)
    ring = footprint.exterior
    d = _ring_distances(near[out, :2], ring)
    keep[out] = d <= search_m
    for i in out[np.abs(d - search_m) <= RING_DISTANCE_MARGIN_M]:
        x, y = near[i, :2]
        keep[i] = min(point_segment_distance(x, y, ax, ay, bx, by)
                      for (ax, ay), (bx, by) in zip(ring[:-1], ring[1:])) <= search_m
    return float(near[keep, 2].min()) if keep.any() else 0.0


def building_height(building: BuildingAttributes, dsm: RasterGrid,
                    ground_xyz: np.ndarray, search_m: float = 10.0) -> float:
    """Roof elevation (median of in-footprint cells) above local ground.

    Ground level is the lowest ground-class point within search_m of the
    footprint; with no such point it defaults to 0. Result is clamped at 0.
    """
    zs = dsm.values[cells_in_polygon(dsm, building.footprint)]
    zs = zs[np.isfinite(zs)]
    if not zs.size:
        raise ComputationError(f"building {building.id}: no roof cells inside footprint")
    ground_z = _ground_level(building.footprint, ground_xyz, search_m)
    return max(0.0, float(np.median(zs)) - ground_z)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

@dataclass
class RoofParams:
    cell: float = 1.0
    wall_diff_m: float = 1.0
    normal_tol_deg: float = 10.0
    residual_tol_m: float = 0.2
    thresholds: PotentialThresholds = field(default_factory=PotentialThresholds)


@dataclass
class RoofExtraction:
    dsm: RasterGrid  # wall-filtered surface model
    segments: list[RoofSegment]  # assigned to buildings, in id order
    decisions: dict[str, PotentialDecision]
    heights: dict[str, float]


def extract_all(pc: PointCloud, buildings: list[BuildingAttributes],
                params: RoofParams | None = None) -> RoofExtraction:
    """Run the full extraction chain for one scene."""
    p = params or RoofParams()
    raw = candidate_roof_points(pc, p.cell)
    dsm = filter_wall_edges(raw, p.wall_diff_m)
    del raw  # from here on only the filtered grid is scene-sized
    normals = local_normals(dsm)
    segments: list[RoofSegment] = []
    for comp in label_components(dsm):
        segments.extend(grow_segments(comp, dsm, p.normal_tol_deg, p.residual_tol_m, normals))
    assign_segments(segments, buildings, dsm)
    segments = [s for s in segments if s.building_id is not None]
    for i, seg in enumerate(segments, start=1):
        seg.seg_id = f"s{i:04d}"
    by_building: dict[str, list[RoofSegment]] = {}
    for seg in segments:
        by_building.setdefault(seg.building_id, []).append(seg)
    ground = pc.points_of(GROUND)
    decisions = {}
    heights = {}
    for b in sorted(buildings, key=lambda b: b.id):
        decisions[b.id] = decide_potential(b, by_building.get(b.id, []), p.thresholds)
        try:
            heights[b.id] = building_height(b, dsm, ground)
        except ComputationError:
            heights[b.id] = 0.0
    return RoofExtraction(dsm, segments, decisions, heights)
