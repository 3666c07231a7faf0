"""The full-grid wall filter, local normals and component labeling, kept
as oracles.

``roofs.filter_wall_edges``, ``roofs.local_normals`` and
``roofs.label_components`` visit only the occupied cells of the surface
model. The bodies below are their earlier versions, which shifted and
masked the whole grid once per neighbour and per quadrant, or labeled it
with ``scipy.ndimage``; the occupied-cell kernels must give the same float
bits and the same component lists. ``densify`` turns a surface the kernels
return into the dense grid these bodies read.
"""
import numpy as np
import scipy.ndimage

from greenprior.geocore import RasterGrid
from greenprior.roofs import NEIGH4, QUADRANTS
from greenprior.roofs import local_normals as occupied_local_normals


def shift(values, dr, dc):
    """out[r, c] = values[r+dr, c+dc], NaN where that index is off-grid."""
    n, m = values.shape
    out = np.full((n, m), np.nan)
    r0, r1 = max(0, -dr), min(n, n - dr)
    c0, c1 = max(0, -dc), min(m, m - dc)
    if r0 < r1 and c0 < c1:
        out[r0:r1, c0:c1] = values[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
    return out


def filter_wall_edges(dsm, threshold=1.0):
    V = dsm.values
    keep = np.isfinite(V)
    for dr, dc in NEIGH4:
        nb = shift(V, dr, dc)
        with np.errstate(invalid="ignore"):
            bad = np.abs(V - nb) >= threshold
        keep &= ~(np.isfinite(nb) & bad)
    out = np.where(keep, V, np.nan)
    return RasterGrid(dsm.origin_x, dsm.origin_y, dsm.cell, out)


def quadrant_planes(V, h):
    occ = np.isfinite(V)
    out = []
    for dr, dc in QUADRANTS:
        Zx = shift(V, 0, dc)
        Zy = shift(V, dr, 0)
        Zxy = shift(V, dr, dc)
        fx, fy, fxy = np.isfinite(Zx), np.isfinite(Zy), np.isfinite(Zxy)
        with np.errstate(invalid="ignore"):
            a = np.full(V.shape, np.nan)
            b = np.full(V.shape, np.nan)
            res = np.full(V.shape, np.inf)
            m = occ & fx & fy & fxy
            a[m] = ((Zx + Zxy - V - Zy)[m] / 2.0) * dc / h
            b[m] = ((Zy + Zxy - V - Zx)[m] / 2.0) * dr / h
            res[m] = np.abs((V + Zxy - Zx - Zy)[m]) / 4.0
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


def window_scores(V, r, c, dr, dc):
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


def local_normals(dsm):
    V = dsm.values
    quads = quadrant_planes(V, dsm.cell)
    best_a = np.full(V.shape, np.nan)
    best_b = np.full(V.shape, np.nan)
    best_res = np.full(V.shape, np.inf)
    for a, b, res in quads:
        upd = np.isfinite(a) & (res < best_res)
        best_a[upd] = a[upd]
        best_b[upd] = b[upd]
        best_res[upd] = res[upd]
    ambiguous = np.zeros(V.shape, dtype=bool)
    for a, b, res in quads:
        with np.errstate(invalid="ignore"):
            tie = np.isfinite(a) & (res <= best_res + 1e-12)
            differs = (np.abs(a - best_a) > 1e-9) | (np.abs(b - best_b) > 1e-9)
        ambiguous |= tie & differs
    rr, cc = np.nonzero(ambiguous)
    tie = np.stack([np.isfinite(a[rr, cc]) & (res[rr, cc] <= best_res[rr, cc] + 1e-12)
                    for a, _, res in quads], axis=1)
    pair, q = np.nonzero(tie)
    dr, dc = np.array(QUADRANTS)[q].T
    score = np.full(tie.shape, np.inf)
    score[pair, q] = np.round(window_scores(V, rr[pair], cc[pair], dr, dc), 9)
    pick = np.argmin(score, axis=1), np.arange(rr.size)
    best_a[rr, cc] = np.stack([a[rr, cc] for a, _, _ in quads])[pick]
    best_b[rr, cc] = np.stack([b[rr, cc] for _, b, _ in quads])[pick]
    return best_a, best_b, best_res


def scatter_normals(dsm):
    """roofs.local_normals' per-cell (a, b, curvature) scattered into grids
    of the surface model's shape, NaN, NaN and +inf off the occupied cells:
    the form local_normals above returns."""
    cells, *per_cell = occupied_local_normals(dsm)
    grids = []
    for values, fill in zip(per_cell, (np.nan, np.nan, np.inf)):
        grid = np.full((dsm.nrows, dsm.ncols), fill)
        grid.flat[cells] = values
        grids.append(grid)
    return tuple(grids)


def densify(surface):
    """A surface model held as its occupied cells (a SparseGrid) as the
    dense RasterGrid it stands for, NaN off those cells."""
    values = np.full((surface.nrows, surface.ncols), np.nan)
    values.flat[surface.flat] = surface.values
    return RasterGrid(surface.origin_x, surface.origin_y, surface.cell, values)


def label_components(dsm):
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
