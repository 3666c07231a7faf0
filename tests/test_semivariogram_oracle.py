"""The one-pass semivariogram against the per-bin mask loop it replaced.

``empirical_semivariogram`` takes the pairs in blocks of rows, sorts them
by bin once and takes each bin's means from one contiguous slice.
``_old_empirical_semivariogram`` below is its earlier body, with scipy's
``pdist`` for the distances, kept as an oracle: every (mean lag,
semivariance, count) tuple must match to the last bit, and bad input must
fail with the same ``ValueError`` message.
"""
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from greenprior import interp
from greenprior.geocore import RasterGrid
from greenprior.interp import SampleSet, empirical_semivariogram

# ---------------------------------------------------------------------------
# oracle: the earlier body, one boolean mask per bin
# ---------------------------------------------------------------------------


def _old_empirical_semivariogram(samples, n_bins=15, max_dist=None):
    n = len(samples)
    if n < 2:
        raise ValueError("need at least 2 samples for a semivariogram")
    if max_dist is None:
        span = samples.xy.max(axis=0) - samples.xy.min(axis=0)
        max_dist = float(np.hypot(span[0], span[1])) / 2.0
        if max_dist <= 0:
            raise ValueError("all samples at one location")
    d = pdist(samples.xy)
    iu, ju = np.triu_indices(n, k=1)
    sq = 0.5 * (samples.values[iu] - samples.values[ju]) ** 2
    keep = (d > 0) & (d <= max_dist)
    d, sq = d[keep], sq[keep]
    edges = np.linspace(0.0, max_dist, n_bins + 1)
    which = np.clip(np.searchsorted(edges, d, side="left") - 1, 0, n_bins - 1)
    out = []
    for b in range(n_bins):
        m = which == b
        if not m.any():
            continue
        out.append((float(d[m].mean()), float(sq[m].mean()), int(m.sum())))
    return out


def _outcome(fn, samples, n_bins, max_dist):
    """Each bin's floats as hex and its count, or the error's type and message."""
    try:
        out = fn(samples, n_bins=n_bins, max_dist=max_dist)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return [(lag.hex(), gamma.hex(), count) for lag, gamma, count in out]


def _agree(samples, n_bins, max_dist):
    new = _outcome(empirical_semivariogram, samples, n_bins, max_dist)
    assert new == _outcome(_old_empirical_semivariogram, samples, n_bins, max_dist)
    return new


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

N_BINS = st.sampled_from([1, 15, 300])  # 300 bins need a 16-bit bin code
# pairs come in blocks of whole rows: one row at a time, some rows, all rows
PAIR_BLOCKS = st.sampled_from([1, 100, interp.PAIR_BLOCK])
VALUES = st.one_of(st.floats(-50.0, 50.0), st.integers(-3, 3).map(float))


def lattice_grid(nrows, ncols, cell, origin, present, values):
    """A grid whose present cells hold the values in row-major order; the
    others are gaps (NaN)."""
    grid = np.full((nrows, ncols), np.nan)
    present = np.reshape(present, (nrows, ncols))
    grid[present] = values[:np.count_nonzero(present)]
    return RasterGrid(origin[0], origin[1], cell, grid)


def grid_samples(grid):
    """The valid cells of a grid as the samples fill_raster_nodata krigs from."""
    rr, cc = np.nonzero(np.isfinite(grid.values))
    return SampleSet.from_points(np.column_stack(
        [grid.x_centers()[cc], grid.y_centers()[rr], grid.values[rr, cc]]))


def _lattice(nrows, ncols, cell, origin, present, values):
    return grid_samples(lattice_grid(nrows, ncols, cell, origin, present, values))


@st.composite
def lattice_grids(draw):
    """A grid with holes and an explicit max_dist that may fall on a pair
    distance."""
    nrows, ncols = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    present = draw(st.lists(st.booleans(), min_size=nrows * ncols,
                            max_size=nrows * ncols).filter(any))
    values = np.array(draw(st.lists(VALUES, min_size=nrows * ncols, max_size=nrows * ncols)))
    cell = draw(st.sampled_from([1.0, 30.0, 0.1, 2.5]))
    origin = draw(st.sampled_from([(0.0, 0.0), (-15.0, 100.0), (0.3, 1e5)]))
    grid = lattice_grid(nrows, ncols, cell, origin, present, values)
    max_dist = draw(st.one_of(st.none(), st.integers(1, 20).map(lambda k: k * cell)))
    return grid, max_dist


def lattices():
    """Cell centres of a grid with holes, sampled as fill_raster_nodata samples
    its valid cells, and an explicit max_dist that may fall on a pair
    distance."""
    return lattice_grids().map(lambda scene: (grid_samples(scene[0]), scene[1]))


@st.composite
def coincident(draw):
    """Raw samples on a few lattice points, so exact duplicates survive."""
    xy = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                       max_size=20))
    values = draw(st.lists(VALUES, min_size=len(xy), max_size=len(xy)))
    max_dist = draw(st.sampled_from([None, 1.0, 2.0, 3.0]))
    return SampleSet(5.0 * np.array(xy, dtype=float), np.array(values)), max_dist


@st.composite
def on_edges(draw):
    """Points on a line at whole multiples of a step, with bin edges at whole
    multiples of the same step: pair distances fall exactly on edges and,
    for the default max_dist (half the span), exactly at max_dist."""
    step = draw(st.sampled_from([1.0, 0.5, 0.1, 3.0]))
    n_bins = draw(N_BINS)
    ks = draw(st.lists(st.integers(0, 2 * n_bins), min_size=2, max_size=30, unique=True))
    values = draw(st.lists(VALUES, min_size=len(ks), max_size=len(ks)))
    xy = np.column_stack([np.array(ks) * step, np.zeros(len(ks))])
    if draw(st.booleans()):
        xy = xy[:, ::-1]  # the same line along y
    max_dist = draw(st.sampled_from([None, n_bins * step, (n_bins // 2 + 1) * step]))
    return SampleSet(xy, np.array(values)), n_bins, max_dist


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(scene=lattices(), n_bins=N_BINS, block=PAIR_BLOCKS)
def test_lattice_with_holes_matches_mask_loop(scene, n_bins, block):
    samples, max_dist = scene
    with mock.patch.object(interp, "PAIR_BLOCK", block):
        _agree(samples, n_bins, max_dist)


@settings(max_examples=150, deadline=None)
@given(scene=coincident(), n_bins=N_BINS)
def test_coincident_points_match_mask_loop(scene, n_bins):
    samples, max_dist = scene
    _agree(samples, n_bins, max_dist)


@settings(max_examples=200, deadline=None)
@given(scene=on_edges())
def test_pairs_on_bin_edges_and_at_max_dist_match_mask_loop(scene):
    _agree(*scene)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(30, 120), seed=st.integers(0, 2**32 - 1), n_bins=N_BINS,
       scale=st.sampled_from([1.0, 1e-3, 1e4]), block=PAIR_BLOCKS)
def test_random_samples_match_mask_loop(n, seed, n_bins, scale, block):
    rng = np.random.default_rng(seed)
    samples = SampleSet(rng.uniform(0.0, 100.0 * scale, (n, 2)), rng.normal(20.0, 3.0, n))
    with mock.patch.object(interp, "PAIR_BLOCK", block):
        _agree(samples, n_bins, None)


def test_single_pair_and_one_location():
    pair = SampleSet(np.array([[0.0, 0.0], [3.0, 4.0]]), np.array([1.0, 4.0]))
    for n_bins in (1, 15, 300):  # the pair lies exactly at max_dist
        assert _agree(pair, n_bins, 5.0) == [(5.0.hex(), 4.5.hex(), 1)]
    assert _agree(pair, 15, None) == []  # beyond half the diagonal
    same = SampleSet(np.full((4, 2), 7.0), np.arange(4.0))
    assert _agree(same, 15, None) == ("ValueError", "all samples at one location")
    assert _agree(same, 15, 10.0) == []  # every pair at distance 0
    one = SampleSet(np.zeros((1, 2)), np.ones(1))
    assert _agree(one, 15, None) == ("ValueError",
                                     "need at least 2 samples for a semivariogram")


def test_degenerate_bin_counts_match_mask_loop():
    samples = SampleSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]), np.arange(3.0))
    assert _agree(samples, 0, None) == []
    assert _agree(samples, -1, None) == []
    assert _agree(samples, -2, None)[0] == "ValueError"  # from np.linspace


def test_memory_per_pair_is_bounded():
    # the mask loop peaked near 44 bytes per pair: two int64 pair indices,
    # two gathered value arrays and their difference
    rng = np.random.default_rng(31)
    values = 20.0 + rng.normal(0.0, 1.0, (40, 40))
    present = rng.uniform(size=values.shape) > 0.05
    samples = _lattice(40, 40, 30.0, (0.0, 0.0), present, values[present])
    pairs = len(samples) * (len(samples) - 1) // 2
    tracemalloc.start()
    try:
        empirical_semivariogram(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * pairs
