"""Roof extraction from classified point clouds.

The chain is: rasterize building points into a surface model (max z per
cell), drop wall and edge cells by the neighbor elevation test, cluster the
survivors with 8-connected component labeling, split each cluster into
planar segments by region growing, and finally decide per building whether
any segment is worth greening.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.ndimage

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
from .ingest import BuildingAttributes

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


def _shift(values: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """out[r, c] = values[r+dr, c+dc], NaN where that index is off-grid."""
    n, m = values.shape
    out = np.full((n, m), np.nan)
    r0, r1 = max(0, -dr), min(n, n - dr)
    c0, c1 = max(0, -dc), min(m, m - dc)
    if r0 < r1 and c0 < c1:
        out[r0:r1, c0:c1] = values[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
    return out


def filter_wall_edges(dsm: RasterGrid, threshold: float = 1.0) -> RasterGrid:
    """Drop cells that sit against a vertical discontinuity.

    A cell survives iff every occupied 4-neighbor differs in elevation by
    less than the threshold. Missing neighbors pass vacuously, so roof
    borders and isolated cells are kept.
    """
    V = dsm.values
    keep = np.isfinite(V)
    for dr, dc in NEIGH4:
        nb = _shift(V, dr, dc)
        with np.errstate(invalid="ignore"):
            bad = np.abs(V - nb) >= threshold
        keep &= ~(np.isfinite(nb) & bad)
    out = np.where(keep, V, np.nan)
    return RasterGrid(dsm.origin_x, dsm.origin_y, dsm.cell, out)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------

def label_components(dsm: RasterGrid) -> list[list[tuple[int, int]]]:
    """Partition occupied cells into 8-connected components.

    Components are ordered by (min row, min col); cells within a component
    by (row, col).
    """
    occupied = np.isfinite(dsm.values)
    labels, count = scipy.ndimage.label(occupied, structure=np.ones((3, 3), dtype=int))
    # nonzero is row-major; a stable sort by label keeps that order per component
    rr, cc = np.nonzero(labels)
    labs = labels[rr, cc]
    order = np.argsort(labs, kind="stable")
    rr, cc = rr[order].tolist(), cc[order].tolist()
    ends = np.cumsum(np.bincount(labs, minlength=count + 1)).tolist()
    comps = [list(zip(rr[lo:hi], cc[lo:hi])) for lo, hi in zip(ends[:-1], ends[1:])]
    comps.sort(key=lambda cells: (min(r for r, _ in cells), min(c for _, c in cells)))
    return comps


# ---------------------------------------------------------------------------
# local plane estimates
# ---------------------------------------------------------------------------

def _quadrant_planes(V: np.ndarray, h: float) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Gradient and flatness residual of each one-sided 2x2 stencil.

    Returns, per quadrant, arrays (a, b, res): the least-squares plane
    gradient over the up-to-four stencil cells and the worst per-point
    deviation. Stencils with fewer than three cells yield NaN/inf.
    """
    occ = np.isfinite(V)
    out = []
    for dr, dc in QUADRANTS:
        Zx = _shift(V, 0, dc)
        Zy = _shift(V, dr, 0)
        Zxy = _shift(V, dr, dc)
        fx, fy, fxy = np.isfinite(Zx), np.isfinite(Zy), np.isfinite(Zxy)
        with np.errstate(invalid="ignore"):
            a = np.full(V.shape, np.nan)
            b = np.full(V.shape, np.nan)
            res = np.full(V.shape, np.inf)
            # all four corners: least-squares bilinear gradient
            m = occ & fx & fy & fxy
            a[m] = ((Zx + Zxy - V - Zy)[m] / 2.0) * dc / h
            b[m] = ((Zy + Zxy - V - Zx)[m] / 2.0) * dr / h
            res[m] = np.abs((V + Zxy - Zx - Zy)[m]) / 4.0
            # three corners: the plane through them is exact
            m = occ & fx & fy & ~fxy
            a[m] = (Zx - V)[m] * dc / h
            b[m] = (Zy - V)[m] * dr / h
            res[m] = 0.0
            m = occ & ~fx & fy & fxy
            a[m] = (Zxy - Zy)[m] * dc / h
            b[m] = (Zy - V)[m] * dr / h
            res[m] = 0.0
            m = occ & fx & ~fy & fxy
            a[m] = (Zx - V)[m] * dc / h
            b[m] = (Zxy - Zx)[m] * dr / h
            res[m] = 0.0
        out.append((a, b, res))
    return out


def _window_scores(V: np.ndarray, r, c, dr, dc) -> np.ndarray:
    """Worst plane-fit deviation over the one-sided 3x3 window of each
    (cell, quadrant) pair (arrays r, c, dr, dc), 0 under four cells. A 2x2
    stencil that straddles a crease can be coplanar by accident (a symmetric
    ridge, a two-level step); one cell deeper on the same side exposes the
    bend, while a stencil inside a true face stays exact. Deviations depend
    on neither cell size nor window direction: the fit uses the unit lattice.
    """
    i, j = np.divmod(np.arange(9), 3)
    z = np.pad(V, 2, constant_values=np.nan)[
        r[:, None] + 2 + i * dr[:, None], c[:, None] + 2 + j * dc[:, None]]
    occ = np.isfinite(z)
    z = np.where(occ, z - V[r, c][:, None], 0.0)
    design = np.column_stack([j, i, np.ones(9)])
    S = np.einsum("nk,ki,kj->nij", occ.astype(float), design, design)
    few = occ.sum(axis=1) < 4
    S[few] = np.eye(3)
    coef = np.linalg.solve(S, (z @ design)[..., None])[..., 0]
    dev = np.where(occ, np.abs(z - coef @ design.T), 0.0).max(axis=1)
    return np.where(few, 0.0, dev)


def local_normals(dsm: RasterGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell plane gradient (a, b) and flatness residual.

    Each occupied cell tries the four one-sided 2x2 stencils around it and
    keeps the flattest. One-sided stencils matter: a cell next to a roof
    ridge still gets the pure gradient of its own face instead of an
    average across the crease. When several stencils are equally flat but
    disagree on the gradient, the deeper-window score arbitrates; remaining
    ties fall to fixed quadrant order. Returns (a, b, curvature) arrays;
    curvature is +inf where no quadrant has three stencil cells.
    """
    V = dsm.values
    quads = _quadrant_planes(V, dsm.cell)
    best_a = np.full(V.shape, np.nan)
    best_b = np.full(V.shape, np.nan)
    best_res = np.full(V.shape, np.inf)
    for a, b, res in quads:
        upd = np.isfinite(a) & (res < best_res)
        best_a[upd] = a[upd]
        best_b[upd] = b[upd]
        best_res[upd] = res[upd]
    # find cells where another quadrant ties the minimum with a different
    # gradient; those need the deeper look
    ambiguous = np.zeros(V.shape, dtype=bool)
    for a, b, res in quads:
        with np.errstate(invalid="ignore"):
            tie = np.isfinite(a) & (res <= best_res + 1e-12)
            differs = (np.abs(a - best_a) > 1e-9) | (np.abs(b - best_b) > 1e-9)
        ambiguous |= tie & differs
    # score all tying quadrants of all ambiguous cells at once; rounding to
    # 1e-9 sends gaps at rounding-noise level to quadrant order on any build
    rr, cc = np.nonzero(ambiguous)
    tie = np.stack([np.isfinite(a[rr, cc]) & (res[rr, cc] <= best_res[rr, cc] + 1e-12)
                    for a, _, res in quads], axis=1)
    pair, q = np.nonzero(tie)
    dr, dc = np.array(QUADRANTS)[q].T
    score = np.full(tie.shape, np.inf)
    score[pair, q] = np.round(_window_scores(V, rr[pair], cc[pair], dr, dc), 9)
    pick = np.argmin(score, axis=1), np.arange(rr.size)
    best_a[rr, cc] = np.stack([a[rr, cc] for a, _, _ in quads])[pick]
    best_b[rr, cc] = np.stack([b[rr, cc] for _, b, _ in quads])[pick]
    return best_a, best_b, best_res


def _unit_normal(a: float, b: float) -> np.ndarray:
    n = np.array([-a, -b, 1.0])
    return n / np.linalg.norm(n)


# ---------------------------------------------------------------------------
# region growing
# ---------------------------------------------------------------------------

class _PlaneFit:
    """Running least-squares plane over cells, in seed-local coordinates."""

    def __init__(self, fallback_ab: tuple[float, float]):
        self.fallback_ab = fallback_ab
        self.S = np.zeros((3, 3))
        self.t = np.zeros(3)
        self.n = 0

    def add(self, dx: float, dy: float, z: float):
        v = np.array([dx, dy, 1.0])
        self.S += np.outer(v, v)
        self.t += z * v
        self.n += 1

    def rebuild(self, rows):
        self.S[:] = 0.0
        self.t[:] = 0.0
        self.n = 0
        for dx, dy, z in rows:
            self.add(dx, dy, z)

    def plane(self) -> tuple[float, float, float]:
        """(a, b, c) minimizing squared residuals; degenerate member sets
        keep the seed's local gradient and only fit the offset."""
        if self.n >= 3 and np.linalg.matrix_rank(self.S, tol=1e-8) == 3:
            a, b, c = np.linalg.solve(self.S, self.t)
            return float(a), float(b), float(c)
        # t[2], S[0, 2] and S[1, 2] are the sums of z, dx and dy
        a, b = self.fallback_ab
        c = (self.t[2] - a * self.S[0, 2] - b * self.S[1, 2]) / max(self.n, 1)
        return a, b, float(c)


def grow_segments(component, dsm: RasterGrid, normal_tol_deg: float = 10.0,
                  residual_tol_m: float = 0.2, normals=None) -> list[RoofSegment]:
    """Split one connected component into planar segments.

    Seeds are picked flattest-first. A frontier cell joins when its local
    normal is within normal_tol_deg of the seed normal and its elevation is
    within residual_tol_m of the segment's running plane fit. After growth
    the fit is re-checked and outlier cells are evicted back into the pool.
    Cells with no usable local normal end up as singletons.
    """
    if not component:
        return []
    if normals is None:
        normals = local_normals(dsm)
    A, B, curv = normals
    V = dsm.values
    h = dsm.cell
    comp = set(component)
    order = sorted(comp, key=lambda rc: (curv[rc], rc[0], rc[1]))
    cos_tol = math.cos(math.radians(normal_tol_deg))
    pool = set(comp)
    segments: list[RoofSegment] = []

    for seed in order:
        if seed not in pool:
            continue
        members = _grow_one(seed, pool, comp, dsm, A, B, curv, cos_tol, residual_tol_m)
        pool -= members
        cells = sorted(members)
        x0, y0 = dsm.cell_center(*seed)
        fallback = (float(A[seed]), float(B[seed])) if np.isfinite(curv[seed]) else (0.0, 0.0)
        fit = _PlaneFit(fallback)
        for r, c in cells:
            cx, cy = dsm.cell_center(r, c)
            fit.add(cx - x0, cy - y0, float(V[r, c]))
        a, b, c_loc = fit.plane()
        plane = (a, b, c_loc - a * x0 - b * y0)
        slope = math.degrees(math.atan(math.hypot(a, b)))
        segments.append(RoofSegment(cells, plane, slope, len(cells) * h * h))
    return segments


def _grow_one(seed, pool, comp, dsm, A, B, curv, cos_tol, residual_tol_m):
    V = dsm.values
    if not np.isfinite(curv[seed]):
        return {seed}
    seed_normal = _unit_normal(float(A[seed]), float(B[seed]))
    x0, y0 = dsm.cell_center(*seed)
    fit = _PlaneFit((float(A[seed]), float(B[seed])))
    members = {seed}
    rows = {seed: (0.0, 0.0, float(V[seed]))}
    fit.add(0.0, 0.0, float(V[seed]))
    a, b, c = fit.plane()

    queue = deque()
    for dr, dc in NEIGH8:
        nb = (seed[0] + dr, seed[1] + dc)
        if nb in comp:
            queue.append(nb)
    while queue:
        cell = queue.popleft()
        if cell in members or cell not in pool:
            continue
        if not np.isfinite(curv[cell]):
            continue
        if float(_unit_normal(float(A[cell]), float(B[cell])) @ seed_normal) < cos_tol:
            continue
        cx, cy = dsm.cell_center(*cell)
        dx, dy, z = cx - x0, cy - y0, float(V[cell])
        if abs(z - (a * dx + b * dy + c)) > residual_tol_m:
            continue
        members.add(cell)
        rows[cell] = (dx, dy, z)
        fit.add(dx, dy, z)
        a, b, c = fit.plane()
        for dr, dc in NEIGH8:
            nb = (cell[0] + dr, cell[1] + dc)
            if nb in comp and nb not in members:
                queue.append(nb)

    # evict cells the final fit cannot hold, then re-check
    for _ in range(50):
        a, b, c = fit.plane()
        bad = [cell for cell, (dx, dy, z) in rows.items()
               if cell != seed and abs(z - (a * dx + b * dy + c)) > residual_tol_m]
        if not bad:
            break
        for cell in bad:
            members.discard(cell)
            del rows[cell]
        fit.rebuild(rows.values())

    # eviction may have split the patch; keep only the part still touching the seed
    reachable = {seed}
    stack = [seed]
    while stack:
        r, c = stack.pop()
        for dr, dc in NEIGH8:
            nb = (r + dr, c + dc)
            if nb in members and nb not in reachable:
                reachable.add(nb)
                stack.append(nb)
    return reachable


def segment_cell_centers(segment: RoofSegment, grid: RasterGrid) -> np.ndarray:
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
    for seg in segments:
        centers = segment_cell_centers(seg, grid)
        cx, cy = float(centers[:, 0].mean()), float(centers[:, 1].mean())
        for b in ordered:
            x_min, y_min, x_max, y_max = b.footprint.bounds()
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


def building_height(building: BuildingAttributes, dsm: RasterGrid,
                    ground_xyz: np.ndarray, search_m: float = 10.0) -> float:
    """Roof elevation (median of in-footprint cells) above local ground.

    Ground level is the lowest ground-class point within search_m of the
    footprint; with no such point it defaults to 0. Result is clamped at 0.
    """
    x_min, y_min, x_max, y_max = building.footprint.bounds()
    zs = dsm.values[cells_in_polygon(dsm, building.footprint)]
    zs = zs[np.isfinite(zs)]
    if not zs.size:
        raise ComputationError(f"building {building.id}: no roof cells inside footprint")
    ground_z = 0.0
    if ground_xyz.shape[0]:
        near = ground_xyz[
            (ground_xyz[:, 0] >= x_min - search_m) & (ground_xyz[:, 0] <= x_max + search_m)
            & (ground_xyz[:, 1] >= y_min - search_m) & (ground_xyz[:, 1] <= y_max + search_m)]
        keep = []
        ring = building.footprint.exterior
        if near.shape[0]:
            inside = points_in_polygon(near[:, :2], building.footprint)
            for (x, y, z), ins in zip(near, inside):
                if ins:
                    keep.append(z)
                    continue
                d = min(point_segment_distance(x, y, ax, ay, bx, by)
                        for (ax, ay), (bx, by) in zip(ring[:-1], ring[1:]))
                if d <= search_m:
                    keep.append(z)
        if keep:
            ground_z = float(min(keep))
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
