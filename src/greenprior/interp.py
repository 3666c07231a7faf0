"""Scattered-data interpolation by ordinary kriging, plus the variogram
machinery it needs; the variogram model is spherical.

Sample sets are canonicalized on construction (exact duplicate coordinates
averaged, then sorted), which makes every downstream prediction independent
of input file ordering.

Every rule that reaches an output is stated here and computed with numpy
and Python floats, without scipy: the neighbours of a query are the k
nearest samples ordered by (distance, sample index) (SampleSet.nearest),
station pairs are taken in pdist order (_kept_pairs), and the variogram
is fitted by variable projection with golden-section searches over the
range (fit_variogram).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geocore import ComputationError, RasterGrid

MATCH_TOL = 1e-9  # queries closer than this to a sample return it exactly

# Query-sample pairs SampleSet.nearest measures at once; its buffers take
# 17 bytes per pair.
NEAREST_CHUNK_PAIRS = 1 << 15

# Sample pairs empirical_semivariogram measures at once.
PAIR_BLOCK = 1 << 15

# Lag bins of both semivariograms; nearest samples in each kriging system.
N_BINS = 15
KRIGING_NEIGHBOURS = 16

# Kriging systems built and solved together; each query holds about 8.5 kB
# of stacked arrays at KRIGING_NEIGHBOURS, the solver's copy included.
KRIGING_CHUNK_QUERIES = 1 << 8

# The range searches of fit_variogram stop when their bracket is narrower
# than this share of the range: within about sqrt(eps) of a minimum the
# profiled SSE is flat to rounding, so a narrower bracket follows noise.
RANGE_TOL = 2.0 ** -26

# Two SSEs of fit_variogram closer than this share of the larger are equal:
# the difference is the rounding of the subfit.
SSE_TOL = 2.0 ** -40

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # the golden section, 0.618...

# Lattice offsets of one row offset whose pairs grid_semivariogram sums
# together; its temporaries take 9 bytes per grid cell and offset.
OFFSET_BLOCK = 16


@dataclass
class SampleSet:
    """Scattered point samples of one quantity, in canonical order."""

    xy: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.xy = np.asarray(self.xy, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.xy.ndim != 2 or self.xy.shape[1] != 2 or self.xy.shape[0] == 0:
            raise ValueError("samples must be a non-empty (n, 2) array")
        if self.values.shape != (self.xy.shape[0],):
            raise ValueError("one value per sample required")
        if not (np.isfinite(self.xy).all() and np.isfinite(self.values).all()):
            raise ValueError("samples must be finite")

    @classmethod
    def from_points(cls, arr: np.ndarray) -> "SampleSet":
        """Build from (n, 3) rows of x, y, value.

        Rows at bit-identical coordinates are averaged; samples are then
        sorted by (x, y) so file order never leaks into predictions.
        """
        arr = np.asarray(arr, dtype=float)
        coords, inverse = np.unique(arr[:, :2], axis=0, return_inverse=True)
        sums = np.zeros(coords.shape[0])
        counts = np.zeros(coords.shape[0])
        np.add.at(sums, inverse, arr[:, 2])
        np.add.at(counts, inverse, 1.0)
        values = sums / counts
        order = np.lexsort((coords[:, 1], coords[:, 0]))
        return cls(coords[order], values[order])

    def __len__(self) -> int:
        return self.xy.shape[0]

    def nearest(self, x, y, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Distances and indices of the k nearest samples (k clamped to n),
        of shape x.shape + (k,), ordered by (distance, sample index).

        The distance from query (qx, qy) to sample (sx, sy) is
        sqrt(dx*dx + dy*dy) with dx = qx - sx and dy = qy - sy. Queries go
        NEAREST_CHUNK_PAIRS query-sample pairs at a time: the k-th distance
        of each query comes from a partition, and only the samples at or
        below it are sorted, by distance and then index.
        """
        qx, qy = np.ravel(x), np.ravel(y)
        n = len(self)
        k = min(k, n)
        d = np.empty((qx.size, k))
        idx = np.empty((qx.size, k), dtype=np.intp)
        step = max(1, min(qx.size, NEAREST_CHUNK_PAIRS // n))
        dist_buf, part_buf = np.empty((2, step, n))
        mask_buf = np.empty((step, n), dtype=bool)
        for start in range(0, qx.size, step):
            q = slice(start, start + step)
            m = qx[q].size
            dist, part, mask = dist_buf[:m], part_buf[:m], mask_buf[:m]
            np.subtract.outer(qx[q], self.xy[:, 0], out=dist)
            np.subtract.outer(qy[q], self.xy[:, 1], out=part)
            dist *= dist
            part *= part
            dist += part
            np.sqrt(dist, out=dist)
            np.copyto(part, dist)
            part.partition(k - 1, axis=1)
            flat = np.flatnonzero(np.less_equal(dist, part[:, k - 1:k], out=mask))
            rows = flat // n
            counts = np.bincount(rows, minlength=m)
            starts = np.cumsum(counts) - counts
            # each query's candidates (k or more) in index order, padded with inf
            cand = np.full((m, counts.max()), np.inf)
            cand[rows, np.arange(flat.size) - starts[rows]] = dist.ravel()[flat]
            pick = np.argsort(cand, axis=1, kind="stable")[:, :k]
            d[q] = np.take_along_axis(cand, pick, axis=1)
            idx[q] = flat[starts[:, None] + pick] % n
        shape = np.shape(x) + (k,)
        return d.reshape(shape), idx.reshape(shape)


# ---------------------------------------------------------------------------
# variograms
# ---------------------------------------------------------------------------

def empirical_semivariogram(samples: SampleSet, n_bins: int = N_BINS,
                            max_dist: float | None = None) -> list[tuple[float, float, int]]:
    """Binned semivariance of sample pairs.

    Returns (mean pair distance, semivariance, pair count) per nonempty
    bin, ordered by lag. max_dist defaults to half the bounding-box
    diagonal, the usual rule of thumb. Pairs at distance 0 or beyond
    max_dist are left out; bin b holds the pairs with
    edges[b] < d <= edges[b + 1].

    One pass: the pairs are stably sorted by bin, so each bin's pairs lie
    in one contiguous slice in their pair order, and its means sum the
    same values in the same order as a per-bin mask would.
    """
    if len(samples) < 2:
        raise ValueError("need at least 2 samples for a semivariogram")
    if max_dist is None:
        max_dist = _half_diagonal(samples.xy.max(axis=0) - samples.xy.min(axis=0))
    with np.errstate(over="ignore"):  # an inf square fails the fit, not here
        d, sq = _kept_pairs(samples, max_dist)
    edges = np.linspace(0.0, max_dist, n_bins + 1)
    if n_bins < 1:
        return []
    # d <= max_dist == edges[-1], so every bin index is below n_bins
    which = np.searchsorted(edges[1:], d)
    counts = np.bincount(which, minlength=n_bins)
    # a stable sort of small ints is numpy's radix sort
    which = which.astype(np.min_scalar_type(n_bins - 1))
    order = np.argsort(which, kind="stable")
    d = d[order]
    sq = sq[order]
    stops = np.cumsum(counts)
    out = []
    for b in np.flatnonzero(counts):
        s = slice(stops[b] - counts[b], stops[b])
        out.append((float(d[s].mean()), float(sq[s].mean()), int(counts[b])))
    return out


def _kept_pairs(samples: SampleSet, max_dist: float) -> tuple[np.ndarray, np.ndarray]:
    """Distance d and semivariance 0.5 * (v_i - v_j)**2 of the sample pairs
    i < j with 0 < d <= max_dist, in row-major order over (i, j), the order
    of scipy's pdist, whose distances these are bit for bit:
    d = sqrt(dx*dx + dy*dy) with dx = x_i - x_j and dy = y_i - y_j.

    Rows of pairs go at most PAIR_BLOCK pairs at a time (or one row). Squares
    past the largest float are inf, which fit_variogram refuses.
    """
    n = len(samples)
    d_out = np.empty(n * (n - 1) // 2)
    sq_out = np.empty_like(d_out)
    kept = 0
    i0 = 0
    while i0 < n - 1:
        i1 = min(n - 1, i0 + max(1, PAIR_BLOCK // (n - 1 - i0)))
        ii, jj = np.triu_indices(i1 - i0, 1, n - i0)
        ii += i0
        jj += i0
        dx = samples.xy[ii, 0] - samples.xy[jj, 0]
        dy = samples.xy[ii, 1] - samples.xy[jj, 1]
        d = np.sqrt(dx * dx + dy * dy)
        dv = samples.values[ii] - samples.values[jj]
        keep = (d > 0) & (d <= max_dist)
        m = np.count_nonzero(keep)
        d_out[kept:kept + m] = d[keep]
        sq_out[kept:kept + m] = 0.5 * (dv * dv)[keep]
        kept += m
        i0 = i1
    return d_out[:kept], sq_out[:kept]


def _half_diagonal(span) -> float:
    """Default max_dist: half the diagonal of a bounding box's (x, y) span."""
    max_dist = float(np.hypot(span[0], span[1])) / 2.0
    if max_dist <= 0:
        raise ValueError("all samples at one location")
    return max_dist


def grid_semivariogram(grid: RasterGrid) -> list[tuple[float, float, int]]:
    """Binned semivariance of the pairs of finite cells of a raster.

    The bins of empirical_semivariogram with its defaults over the finite
    cell centres (N_BINS bins, same max_dist, edges and bin rule), summed by
    lattice offset as in GSLIB's ``gam`` (Deutsch and Journel 1998), so
    memory grows with the cells, not the pairs. Time grows with the cells
    of the bounding box times the offsets within max_dist, whatever share
    of them are gaps. Each offset o = (drow, dcol) of the half plane
    (drow > 0, or drow = 0 and dcol > 0) has the distance
    d_o = hypot(dcol * cell, drow * cell), the count n_o of its pairs of
    finite cells and S_o, the sum of their squared differences (v_i - v_j)**2.
    An offset lies in the bin of d_o, and each bin gives

        count = sum n_o,  lag = fsum(n_o * d_o) / count,
        gamma = 0.5 * fsum(S_o) / count,

    so the result does not depend on the order of the offsets.
    """
    valid = np.isfinite(grid.values)
    if np.count_nonzero(valid) < 2:
        raise ValueError("need at least 2 samples for a semivariogram")
    rows = np.flatnonzero(valid.any(axis=1))
    cols = np.flatnonzero(valid.any(axis=0))
    xs = grid.x_centers()[cols[[0, -1]]]
    ys = grid.y_centers()[rows[[0, -1]]]
    max_dist = _half_diagonal((xs[1] - xs[0], ys[1] - ys[0]))
    with np.errstate(over="ignore"):  # as in empirical_semivariogram
        d, n, s = _offset_terms(grid, valid, rows, cols, max_dist)
    return _bin_offsets(np.linspace(0.0, max_dist, N_BINS + 1), d, n, s)


def _offset_terms(grid, valid, rows, cols, max_dist):
    """d_o, n_o and S_o of every offset with d_o <= max_dist and n_o > 0,
    over the bounding box of the finite cells. The gaps are NaN, so a pair
    counts where the difference of its cells is not NaN. Squares past the
    largest float are inf, as in _kept_pairs."""
    box = np.where(valid, grid.values, np.nan)[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    nr, nc = box.shape
    # padded[:, k:k + nc] is the box moved by dcols[k]
    padded = np.full((nr, 3 * nc - 2), np.nan)
    padded[:, nc - 1:2 * nc - 1] = box
    dcols = np.arange(1 - nc, nc)
    diff = np.empty(OFFSET_BLOCK * box.size)
    gap = np.empty(diff.size, dtype=bool)
    terms = [(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))]
    for drow in range(nr):
        d = np.hypot(dcols * grid.cell, drow * grid.cell)
        inside = (d <= max_dist) & ((drow > 0) | (dcols > 0))
        if not inside.any():
            continue
        top = box[:nr - drow]
        shifted = sliding_window_view(padded[drow:], nc, axis=1).transpose(1, 0, 2)
        first, last = np.flatnonzero(inside)[[0, -1]]
        for k in range(first, last + 1, OFFSET_BLOCK):
            ks = slice(k, min(k + OFFSET_BLOCK, last + 1))
            m = ks.stop - ks.start
            block = diff[:m * top.size].reshape(m, *top.shape)
            np.subtract(shifted[ks], top, out=block)
            isgap = np.isnan(block, out=gap[:block.size].reshape(block.shape))
            np.copyto(block, 0.0, where=isgap)
            np.square(block, out=block)
            n = top.size - np.count_nonzero(isgap.reshape(m, -1), axis=1)
            keep = inside[ks] & (n > 0)
            terms.append((d[ks][keep], n[keep], block.reshape(m, -1).sum(axis=1)[keep]))
    return [np.concatenate(t) for t in zip(*terms)]


def _bin_offsets(edges, d, n, s):
    """(lag, semivariance, pair count) of each nonempty bin from the offset
    terms d_o, n_o and S_o, by the sums of grid_semivariogram. A sum of
    squares past the largest float raises the ValueError of fit_variogram."""
    which = np.searchsorted(edges[1:], d)
    out = []
    for b in np.unique(which):
        sel = which == b
        count = int(n[sel].sum())
        try:
            gamma = 0.5 * math.fsum(s[sel].tolist()) / count
        except OverflowError:  # fsum's intermediate overflow
            raise ValueError("semivariances too large to fit: their sums overflow") from None
        out.append((math.fsum((n[sel] * d[sel]).tolist()) / count, gamma, count))
    return out


def _shape(ratio):
    """Unit-sill spherical variogram shape at lag ratio = h / range."""
    # the cube by products: numpy's power takes other bits at other SIMD
    # dispatch levels
    return np.where(ratio < 1.0, 1.5 * ratio - 0.5 * (ratio * ratio * ratio), 1.0)


@dataclass
class VariogramModel:
    """Isotropic spherical semivariogram: nugget + partial sill by range."""

    nugget: float
    sill: float
    range_m: float

    def __post_init__(self):
        if self.nugget < 0 or self.sill <= self.nugget or self.range_m <= 0:
            raise ValueError("variogram needs 0 <= nugget < sill and range > 0")

    def gamma(self, h):
        """Semivariance at lag h (array friendly); exactly 0 at h = 0."""
        h = np.asarray(h, dtype=float)
        partial = self.sill - self.nugget
        shape = _shape(h / self.range_m)
        out = np.where(h > 0, self.nugget + partial * shape, 0.0)
        return out if out.ndim else float(out)


def _linear_subfit(gammas, weights, shape):
    """(weighted SSE, nugget, partial) of the least-squares fit of
    nugget + partial * shape to the gammas with nugget >= 0 and
    partial >= 1e-12, in closed form and in Python floats, squares taken by
    products. A sum past the largest float raises OverflowError, as
    math.fsum does.

    The free fit regresses on the shape and gammas centred on their weighted
    means: where the shape is near 1 at every lag, the uncentred normal
    equations lose most of their digits to cancellation, and the range
    search then follows rounding noise instead of the SSE."""
    def sse(nugget, partial):
        residuals = [nugget + partial * f - g for f, g in zip(shape, gammas)]
        total = math.fsum([w * (r * r) for w, r in zip(weights, residuals)])
        if not math.isfinite(total):
            raise OverflowError("squared residuals overflow")
        return total

    s11 = math.fsum(weights)
    s1f = math.fsum([w * f for w, f in zip(weights, shape)])
    sff = math.fsum([w * f * f for w, f in zip(weights, shape)])
    s1g = math.fsum([w * g for w, g in zip(weights, gammas)])
    sfg = math.fsum([w * f * g for w, f, g in zip(weights, shape, gammas)])
    f_mean, g_mean = s1f / s11, s1g / s11
    centred = [f - f_mean for f in shape]
    cff = math.fsum([w * (c * c) for w, c in zip(weights, centred)])
    cfg = math.fsum([w * c * (g - g_mean) for w, c, g in zip(weights, centred, gammas)])
    # s11 * cff is the determinant s11 * sff - s1f**2 without its cancellation
    if s11 * cff >= 1e-12:
        partial = cfg / cff
        nugget = g_mean - partial * f_mean
        if nugget >= 0 and partial >= 1e-12:
            return sse(nugget, partial), nugget, partial
    # the constrained least squares lie on an edge: no nugget, or the
    # smallest partial sill
    edges = [(0.0, max(sfg / sff, 1e-12)), (max((s1g - 1e-12 * s1f) / s11, 0.0), 1e-12)]
    return min((sse(nugget, partial), nugget, partial) for nugget, partial in edges)


def fit_variogram(empirical: list[tuple[float, float, int]]) -> VariogramModel:
    """Fit the spherical nugget/sill/range to a binned semivariogram.

    Count-weighted least squares by variable projection (Golub and Pereyra
    1973): at each range, _linear_subfit gives the nugget and partial sill
    in closed form, so only the range is searched, within
    [0.01 * min lag, 2 * max lag]. A scan of 24 ranges, evenly spaced in log
    from 0.25 to 2 times the extreme lags, is extended by one step below
    and by the lags. Golden-section search (Kiefer 1953) then narrows the
    bracket between a scan point and each neighbour until it is narrower
    than RANGE_TOL of the range, from every local minimum of the scan that
    is not inside a plateau, from the best point and from the best of the
    24. The fit is the best range evaluated. Python floats and math.fsum
    throughout, the shape by products, so the fit is the same on every IEEE
    machine. All-zero curves come back as the flat model (nugget 0, sill
    1e-12, range the largest lag); curves too large for a finite SSE raise
    ValueError.
    """
    if len(empirical) < 3:
        raise ValueError("need at least 3 semivariogram bins to fit")
    lags = [float(e[0]) for e in empirical]
    gammas = [float(e[1]) for e in empirical]
    weights = [float(e[2]) for e in empirical]
    min_lag, max_lag = min(lags), max(lags)
    if all(g <= 1e-15 for g in gammas):
        return VariogramModel(0.0, 1e-12, max_lag)
    lag_array = np.array(lags)

    def fit_at(r):
        try:
            return (*_linear_subfit(gammas, weights, _shape(lag_array / r).tolist()), r)
        except OverflowError:  # no range can be told from another
            raise ValueError("semivariances too large to fit: their sums overflow") from None

    def sse(fit):
        return fit[0]

    def below(p, q):
        return p[0] < q[0] - SSE_TOL * q[0]

    # Where the subfit sits on an edge, or fits the only bin below a
    # spherical sill exactly, the SSE is flat in the range but for rounding,
    # and the best range may lie in a dip beside that plateau. Where the two
    # inner points of a search tie, the bracket keeps its lower end.
    def golden(a, b):
        c, d = fit_at(b[3] - _INVPHI * (b[3] - a[3])), fit_at(a[3] + _INVPHI * (b[3] - a[3]))
        while b[3] - a[3] > RANGE_TOL * b[3]:
            if below(c, d) or not below(d, c) and a[0] <= b[0]:
                b, d = d, c
                c = fit_at(b[3] - _INVPHI * (b[3] - a[3]))
            else:
                a, c = c, d
                d = fit_at(a[3] + _INVPHI * (b[3] - a[3]))
        return min((a, c, d, b), key=sse)

    # range capped at twice the largest lag: a larger value would make the
    # sill an extrapolation the data cannot support
    lo, hi = 0.25 * min_lag, 2.0 * max_lag
    step = (hi / lo) ** (1.0 / 23.0)
    log_scan = [fit_at(lo * step ** i) for i in range(23)] + [fit_at(hi)]
    # past each lag one more bin rises to the sill, and the SSE can turn
    extra = [max(0.01 * min_lag, lo / step)] + lags
    scan = sorted(log_scan + [fit_at(r) for r in extra], key=lambda fit: fit[3])
    starts = {scan.index(min(scan, key=sse)), scan.index(min(log_scan, key=sse))}
    for i, p in enumerate(scan):
        sides = scan[max(i - 1, 0):i] + scan[i + 1:i + 2]
        if not any(below(q, p) for q in sides) and any(below(p, q) for q in sides):
            starts.add(i)
    fits = []
    for i in sorted(starts):
        fits += [golden(scan[i - 1], scan[i])] if i > 0 else []
        fits += [golden(scan[i], scan[i + 1])] if i + 1 < len(scan) else []
    _, nugget, partial, range_m = min(fits + scan, key=sse)
    # a large nugget absorbs the smallest partial sill: the sill must still
    # lie above it
    return VariogramModel(nugget, max(nugget + partial, math.nextafter(nugget, math.inf)), range_m)


# ---------------------------------------------------------------------------
# ordinary kriging
# ---------------------------------------------------------------------------

def _ok_weights(samples: SampleSet, model: VariogramModel, d: np.ndarray,
                idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kriging weights and Lagrange multipliers for neighbor distances and
    indices of shape (..., k), from one stacked solve."""
    k = idx.shape[-1]
    # each neighbour pair i < j is measured once, sqrt(dx*dx + dy*dy) with
    # dx = x_i - x_j; pair (j, i) has the same bits, the diagonal gamma(0) = 0
    ii, jj = np.triu_indices(k, 1)
    px, py = samples.xy[idx, 0], samples.xy[idx, 1]
    off = px[..., ii] - px[..., jj]
    dy = py[..., ii] - py[..., jj]
    off *= off
    dy *= dy
    off += dy
    np.sqrt(off, out=off)
    dup = np.flatnonzero((off < MATCH_TOL).any(axis=-1))
    if dup.size:
        flat = int(np.argmin(off.reshape(-1, ii.size)[dup[0]]))
        a, b = idx.reshape(-1, k)[dup[0], [ii[flat], jj[flat]]]
        raise ComputationError(
            f"duplicate sample coordinates at {tuple(samples.xy[a])} "
            f"(samples {a} and {b}); kriging system is singular")
    A = np.zeros(idx.shape[:-1] + (k + 1, k + 1))
    A[..., ii, jj] = A[..., jj, ii] = model.gamma(off)
    A[..., :k, k] = A[..., k, :k] = 1.0
    rhs = np.append(model.gamma(d), np.ones_like(d[..., :1]), axis=-1)
    try:
        sol = np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise ComputationError("kriging system is singular") from None
    return sol[..., :k], sol[..., k]


def kriging_predict(samples: SampleSet, model: VariogramModel, x, y,
                    k_neighbors: int = KRIGING_NEIGHBOURS):
    """Ordinary-kriging estimate and variance at (x, y), each shaped like x.

    Queries that coincide with a sample short-circuit to (value, 0); the
    estimator is exact there anyway, this just avoids the solve. The others
    are solved KRIGING_CHUNK_QUERIES at a time, so working memory does not
    grow with the number of queries.
    """
    d, idx = samples.nearest(np.ravel(x), np.ravel(y), k_neighbors)
    value = samples.values[idx[:, 0]]
    variance = np.zeros(value.size)
    far = np.flatnonzero(d[:, 0] >= MATCH_TOL)
    for start in range(0, far.size, KRIGING_CHUNK_QUERIES):
        q = far[start:start + KRIGING_CHUNK_QUERIES]
        w, mu = _ok_weights(samples, model, d[q], idx[q])
        value[q] = np.sum(w * samples.values[idx[q]], axis=1)
        variance[q] = np.maximum(np.sum(w * model.gamma(d[q]), axis=1) + mu, 0.0)
    return value.reshape(np.shape(x))[()], variance.reshape(np.shape(x))[()]


# ---------------------------------------------------------------------------
# grid interpolation
# ---------------------------------------------------------------------------

def interpolate_grid(samples: SampleSet, template: RasterGrid,
                     model: VariogramModel | None = None,
                     kriging_k: int = KRIGING_NEIGHBOURS) -> RasterGrid:
    """Krige a full raster (every cell center) from scattered samples.

    Without a model, one is fitted; samples too few, too close together or
    too large for that fit raise ComputationError, as on any well-formed
    sample set that cannot be kriged.
    """
    if model is None:
        if len(samples) < 2:
            raise ComputationError(
                f"kriging needs at least 2 distinct sample locations, got {len(samples)}")
        try:
            model = fit_variogram(empirical_semivariogram(samples))
        except ValueError as exc:  # too few lag bins, or too large
            raise ComputationError(f"{len(samples)} distinct sample locations: {exc}") from None
    xs, ys = np.meshgrid(template.x_centers(), template.y_centers())
    out = kriging_predict(samples, model, xs, ys, kriging_k)[0]
    return RasterGrid(template.origin_x, template.origin_y, template.cell, out)


def fill_raster_nodata(grid: RasterGrid, k_neighbors: int = KRIGING_NEIGHBOURS) -> RasterGrid:
    """Krige the NaN cells of a raster from its valid cells.

    The valid cells become the sample set, and their semivariogram comes
    from grid_semivariogram; filled-in values land only where
    the input had gaps, everything else is untouched. A grid without gaps
    comes back as a copy. Valid cells too few, too close together or too
    large for a variogram fit raise ComputationError, as on any well-formed
    grid that cannot be filled.
    """
    valid = np.isfinite(grid.values)
    if valid.all():
        return grid.copy()
    # the valid cells in column-major order are the (x, y) order of
    # SampleSet.from_points, and + 0.0 turns -0.0 into its average 0.0
    cc, rr = np.nonzero(valid.T)
    if rr.size < 3:
        raise ComputationError(f"too few valid cells to fill gaps ({rr.size} of {valid.size})")
    try:
        model = fit_variogram(grid_semivariogram(grid))
    except ValueError as exc:  # too few lag bins, or too large
        raise ComputationError(f"{rr.size} valid cells: {exc}") from None
    samples = SampleSet(np.column_stack([grid.x_centers()[cc], grid.y_centers()[rr]]),
                        grid.values[rr, cc] + 0.0)
    rows, cols = np.nonzero(~valid)
    out = grid.values.copy()
    out[rows, cols], _ = kriging_predict(samples, model, grid.x_centers()[cols],
                                         grid.y_centers()[rows], k_neighbors)
    return RasterGrid(grid.origin_x, grid.origin_y, grid.cell, out)
