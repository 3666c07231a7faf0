"""The lattice-offset semivariogram of a grid against the pdist one.

``grid_semivariogram`` sums the pairs of each (drow, dcol) offset of a
raster; ``empirical_semivariogram`` takes the same bins from ``pdist`` over
the centres of the valid cells, which is what ``fill_raster_nodata`` used
before. Per bin the pair counts must be equal, and the mean lag and the
semivariance must agree within 1e-12 relative.

Edge ties are the one exception, and the only one. The grid function
measures an offset as ``hypot(dcol * cell, drow * cell)``; ``pdist``
measures the rounded cell centres. The two distances of a pair differ
by a few ULP of the distance, plus a few ULP of the coordinates where the
centres are not exact (a cell of 0.1, or an origin of 1e5). A pair whose
``pdist`` distance lies that close to a bin edge or to ``max_dist`` can fall
on the other side of it. ``_check`` requires every pair to be within that
bound, and compares the bins such a pair moves into or out of with the
lattice distances instead.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist
from test_semivariogram_oracle import N_BINS, grid_samples, lattice_grid, lattice_grids

from greenprior import interp
from greenprior.geocore import RasterGrid
from greenprior.interp import empirical_semivariogram, grid_semivariogram

REL = 1e-12
FEW = "ValueError", "need at least 2 samples for a semivariogram"
# how far a pair's pdist distance may lie from its lattice distance: in
# ULPs of the distance (sqrt of a sum of squares against hypot) and of
# the largest coordinates (rounded cell centres)
DIST_ULPS, COORD_ULPS = 4, 4


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _bins(dist, edges):
    """Each distance's bin by the rule of both functions; -1 if left out."""
    which = np.searchsorted(edges[1:], dist)
    return np.where((dist > 0) & (dist <= edges[-1]), which, -1)


def _default_max_dist(grid):
    xy = grid_samples(grid).xy
    return interp._half_diagonal(xy.max(axis=0) - xy.min(axis=0))


def _offset_bins(grid, edges):
    """The offset terms of grid_semivariogram binned by other edges."""
    valid = np.isfinite(grid.values)
    rows, cols = np.flatnonzero(valid.any(axis=1)), np.flatnonzero(valid.any(axis=0))
    return interp._bin_offsets(edges, *interp._offset_terms(grid, valid, rows, cols, edges[-1]))


def _check(grid, n_bins, max_dist):
    """grid_semivariogram against empirical_semivariogram; where n_bins or
    max_dist differs from the defaults, its offset terms in those bins."""
    if not np.isfinite(grid.values).any():  # no sample set to compare with
        ours = _outcome(grid_semivariogram, grid)
        assert ours == FEW
        return ours
    samples = grid_samples(grid)
    ref = _outcome(empirical_semivariogram, samples, n_bins=n_bins, max_dist=max_dist)
    if isinstance(ref, tuple):  # raised before any bin
        assert _outcome(grid_semivariogram, grid) == ref
        return ref
    edges = np.linspace(0.0, _default_max_dist(grid) if max_dist is None else max_dist,
                        n_bins + 1)
    if n_bins == 15 and max_dist is None:
        ours = grid_semivariogram(grid)
    else:
        ours = _offset_bins(grid, edges)

    # every pair of valid cells: its pdist distance and its lattice distance
    rr, cc = np.nonzero(np.isfinite(grid.values))
    i, j = np.triu_indices(rr.size, 1)
    xy = np.column_stack([grid.x_centers()[cc], grid.y_centers()[rr]])
    by_pdist = pdist(xy)
    by_lattice = np.hypot(np.abs(cc[i] - cc[j]) * grid.cell, np.abs(rr[i] - rr[j]) * grid.cell)
    bound = (DIST_ULPS * np.spacing(by_lattice)
             + COORD_ULPS * np.spacing(np.abs(xy).max(axis=0)).sum())
    assert np.all(np.abs(by_pdist - by_lattice) <= bound)

    bin_pdist, bin_lattice = _bins(by_pdist, edges), _bins(by_lattice, edges)
    moved = bin_pdist != bin_lattice  # the edge ties
    touched = set(bin_pdist[moved]) | set(bin_lattice[moved])

    kept = bin_lattice >= 0
    counts = np.bincount(bin_lattice[kept], minlength=n_bins)
    sq = 0.5 * (grid.values[rr[i], cc[i]] - grid.values[rr[j], cc[j]]) ** 2
    lags = np.bincount(bin_lattice[kept], by_lattice[kept], n_bins)
    gammas = np.bincount(bin_lattice[kept], sq[kept], n_bins)
    lattice_bins = {b: (lags[b] / counts[b], gammas[b] / counts[b], int(counts[b]))
                    for b in np.flatnonzero(counts)}
    assert [count for _, _, count in ours] == [count for _, _, count in lattice_bins.values()]
    pdist_bins = dict(zip(np.unique(bin_pdist[bin_pdist >= 0]), ref))
    # the largest pdist - lattice gap of each bin's pairs bounds its lag difference
    gap = np.zeros(n_bins)
    np.maximum.at(gap, bin_lattice[kept], np.abs(by_pdist - by_lattice)[kept])
    for b, (lag, gamma, count) in zip(lattice_bins, ours):
        want = lattice_bins[b] if b in touched else pdist_bins[b]
        assert count == want[2]
        assert abs(lag - want[0]) <= REL * want[0] + (0.0 if b in touched else gap[b])
        assert abs(gamma - want[1]) <= REL * want[1]
    return ours


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(scene=lattice_grids(), n_bins=N_BINS)
@example(scene=(RasterGrid(0.0, 0.0, 0.1, np.arange(12.0).reshape(1, 12)), 3 * 0.1), n_bins=15)
def test_lattice_with_holes_matches_pdist(scene, n_bins):
    grid, max_dist = scene
    _check(grid, n_bins, max_dist)


@settings(max_examples=60, deadline=None)
@given(nrows=st.integers(2, 40), ncols=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       gap_share=st.sampled_from([0.0, 0.05, 0.5]), n_bins=N_BINS)
def test_temperature_like_grid_matches_pdist(nrows, ncols, seed, gap_share, n_bins):
    # values near 30 degrees, where v**2 - 2*v*w + w**2 would cancel
    rng = np.random.default_rng(seed)
    values = 30.0 + rng.normal(0.0, 0.5, (nrows, ncols))
    values[rng.uniform(size=values.shape) < gap_share] = np.nan
    _check(RasterGrid(0.0, 0.0, 30.0, values), n_bins, None)


def test_pairs_of_one_offset_share_a_bin():
    # the grid of the example above: cell 0.1 and max_dist 3 * 0.1, so the
    # lattice distances of the offsets (0, 1), (0, 2) and (0, 3) are a third,
    # two thirds and all of max_dist, the upper edges of bins 4, 9 and 14.
    # The rounded centres (0.05, 0.15000000000000002, ...) put the pdist
    # distances of one offset on both sides of its edge.
    grid = RasterGrid(0.0, 0.0, 0.1, np.arange(12.0).reshape(1, 12))
    ours = _check(grid, 15, 3 * 0.1)
    assert [count for _, _, count in ours] == [11, 10, 9]
    ref = empirical_semivariogram(grid_samples(grid), n_bins=15, max_dist=3 * 0.1)
    assert [count for _, _, count in ref] == [7, 4, 7, 3, 9]


def test_errors_and_empty_bins_match_pdist():
    assert _check(RasterGrid(0.0, 0.0, 1.0, np.full((2, 2), np.nan)), 15, None) == FEW
    one = lattice_grid(2, 2, 1.0, (0.0, 0.0), [True, False, False, False], np.ones(4))
    assert _check(one, 15, None) == FEW
    assert _check(one, 15, 3.0) == FEW
    grid = lattice_grid(2, 3, 1.0, (0.0, 0.0), [True] * 6, np.arange(6.0))
    assert _check(grid, 15, 0.5) == []  # every pair beyond max_dist


def test_infinite_cells_are_gaps():
    values = np.arange(20.0).reshape(4, 5)
    values[1, 2], values[3, 0] = np.inf, -np.inf
    nan = values.copy()
    nan[~np.isfinite(nan)] = np.nan
    assert (grid_semivariogram(RasterGrid(5.0, 5.0, 2.0, values))
            == grid_semivariogram(RasterGrid(5.0, 5.0, 2.0, nan)))


# ---------------------------------------------------------------------------
# order of the offset terms
# ---------------------------------------------------------------------------


def _bits(out):
    return [(lag.hex(), gamma.hex(), count) for lag, gamma, count in out]


def _grid(shape, seed, gap_share=0.05):
    rng = np.random.default_rng(seed)
    values = 30.0 + rng.normal(0.0, 1.0, shape)
    values[rng.uniform(size=shape) < gap_share] = np.nan
    return RasterGrid(0.0, 0.0, 30.0, values)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_offset_order_leaves_every_bit_unchanged(seed):
    grid = _grid((23, 31), seed)
    valid = np.isfinite(grid.values)
    rows, cols = np.flatnonzero(valid.any(axis=1)), np.flatnonzero(valid.any(axis=0))
    max_dist = _default_max_dist(grid)
    d, n, s = interp._offset_terms(grid, valid, rows, cols, max_dist)
    edges = np.linspace(0.0, max_dist, 16)
    want = _bits(interp._bin_offsets(edges, d, n, s))
    assert want == _bits(grid_semivariogram(grid))
    order = np.random.default_rng(seed).permutation(d.size)
    assert _bits(interp._bin_offsets(edges, d[order], n[order], s[order])) == want
    assert _bits(interp._bin_offsets(edges, d[::-1], n[::-1], s[::-1])) == want


@pytest.mark.parametrize("block", [1, 3, 64])
def test_offset_block_size_leaves_every_bit_unchanged(monkeypatch, block):
    grid = _grid((17, 26), 9)
    want = _bits(grid_semivariogram(grid))
    monkeypatch.setattr(interp, "OFFSET_BLOCK", block)
    assert _bits(grid_semivariogram(grid)) == want


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("side", [80, 160])
def test_memory_follows_the_cells(side):
    # the pdist path peaks near 9,400 times the bytes of an 80 x 80 grid; this
    # one at about 30 times
    grid = _grid((side, side), 31)
    tracemalloc.start()
    try:
        grid_semivariogram(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * grid.values.nbytes
