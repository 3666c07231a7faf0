import numpy as np
import pytest

from gate_oracles import idw_predict, ok_solve
from greenprior.geocore import ComputationError, RasterGrid, cell_centers
from greenprior.interp import (
    SampleSet,
    VariogramModel,
    empirical_semivariogram,
    fill_raster_nodata,
    fit_variogram,
    interpolate_grid,
    kriging_predict,
)


def samples_of(rows):
    return SampleSet.from_points(np.asarray(rows, dtype=float))


# ---------------------------------------------------------------------------
# SampleSet
# ---------------------------------------------------------------------------

def test_sample_set_averages_duplicates():
    s = samples_of([[0, 0, 10.0], [0, 0, 20.0], [5, 5, 7.0]])
    assert len(s) == 2
    i = int(np.argwhere((s.xy == [0.0, 0.0]).all(axis=1))[0, 0])
    assert s.values[i] == 15.0


def test_sample_set_canonical_order():
    a = samples_of([[3, 1, 1.0], [1, 2, 2.0], [1, 1, 3.0]])
    b = samples_of([[1, 1, 3.0], [3, 1, 1.0], [1, 2, 2.0]])
    np.testing.assert_array_equal(a.xy, b.xy)
    np.testing.assert_array_equal(a.values, b.values)


def test_sample_set_rejects_empty():
    with pytest.raises(ValueError):
        SampleSet(np.zeros((0, 2)), np.zeros(0))


# ---------------------------------------------------------------------------
# IDW
# ---------------------------------------------------------------------------

def test_idw_exact_at_sample():
    s = samples_of([[0, 0, 1.0], [10, 0, 9.0]])
    assert idw_predict(s, 0.0, 0.0) == 1.0
    assert idw_predict(s, 10.0, 0.0) == 9.0


def test_idw_equidistant_mean():
    s = samples_of([[-5, 0, 10.0], [5, 0, 20.0]])
    assert idw_predict(s, 0.0, 0.0) == pytest.approx(15.0)


def test_idw_three_sample_oracle():
    s = samples_of([[0, 0, 1.0], [4, 0, 5.0], [0, 3, 9.0]])
    got = idw_predict(s, 1.0, 1.0, power=2.0, k_neighbors=3)
    # direct summation oracle
    d2 = np.array([2.0, 10.0, 5.0])  # squared distances to (1,1)
    w = d2 ** -1.0
    vals = {(0.0, 0.0): 1.0, (4.0, 0.0): 5.0, (0.0, 3.0): 9.0}
    order = [vals[(x, y)] for x, y in [(0, 0), (4, 0), (0, 3)]]
    want = float(np.sum(w * order) / np.sum(w))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(3.5, abs=1e-12)


def test_idw_bounded_by_neighbors():
    rng = np.random.default_rng(17)
    for _ in range(50):
        pts = np.column_stack([rng.uniform(0, 100, 20), rng.uniform(0, 100, 20),
                               rng.uniform(-5, 5, 20)])
        s = SampleSet.from_points(pts)
        x, y = rng.uniform(0, 100, 2)
        v = idw_predict(s, float(x), float(y), power=2.0, k_neighbors=8)
        _, idx = s.nearest(float(x), float(y), 8)
        nb = s.values[idx]
        assert nb.min() - 1e-12 <= v <= nb.max() + 1e-12


# ---------------------------------------------------------------------------
# semivariogram
# ---------------------------------------------------------------------------

def test_semivariogram_two_samples():
    s = samples_of([[0, 0, 0.0], [1, 0, 2.0]])
    out = empirical_semivariogram(s, n_bins=15, max_dist=2.0)
    assert len(out) == 1
    lag, gamma, count = out[0]
    assert (lag, gamma, count) == (pytest.approx(1.0), pytest.approx(2.0), 1)


def test_semivariogram_equal_values():
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(0, 50, 30), rng.uniform(0, 50, 30), np.full(30, 7.0)])
    out = empirical_semivariogram(SampleSet.from_points(pts))
    assert out  # some bins exist
    assert all(g == 0.0 for _, g, _ in out)


def test_semivariogram_monotone_for_linear_field():
    xs = np.arange(30, dtype=float)
    s = samples_of(np.column_stack([xs, np.zeros(30), xs]))
    out = empirical_semivariogram(s, n_bins=10, max_dist=15.0)
    gammas = [g for _, g, _ in out]
    assert all(g2 > g1 for g1, g2 in zip(gammas, gammas[1:]))


def test_semivariogram_matches_pair_enumeration():
    rng = np.random.default_rng(29)
    pts = np.column_stack([rng.uniform(0, 40, 25), rng.uniform(0, 40, 25),
                           rng.normal(0, 2, 25)])
    s = SampleSet.from_points(pts)
    max_dist, n_bins = 30.0, 8
    out = empirical_semivariogram(s, n_bins=n_bins, max_dist=max_dist)
    # brute force over all pairs
    edges = np.linspace(0, max_dist, n_bins + 1)
    sums = np.zeros(n_bins)
    dsum = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=int)
    n = len(s)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.hypot(*(s.xy[i] - s.xy[j])))
            if d <= 0 or d > max_dist:
                continue
            b = min(int(np.searchsorted(edges, d, side="left")) - 1, n_bins - 1)
            sums[b] += 0.5 * (s.values[i] - s.values[j]) ** 2
            dsum[b] += d
            counts[b] += 1
    want = [(dsum[b] / counts[b], sums[b] / counts[b], int(counts[b]))
            for b in range(n_bins) if counts[b]]
    assert len(out) == len(want)
    for (lg, gg, cg), (lw, gw, cw) in zip(out, want):
        assert lg == pytest.approx(lw)
        assert gg == pytest.approx(gw)
        assert cg == cw


def test_semivariogram_needs_two_samples():
    with pytest.raises(ValueError):
        empirical_semivariogram(samples_of([[0, 0, 1.0]]))


# ---------------------------------------------------------------------------
# variogram model and fitting
# ---------------------------------------------------------------------------

def test_variogram_model_shape_invariants():
    m = VariogramModel(0.5, 4.0, 100.0)
    assert m.gamma(0.0) == 0.0
    hs = np.linspace(0.01, 400, 500)
    g = m.gamma(hs)
    assert (np.diff(g) >= -1e-12).all()  # monotone non-decreasing
    assert g.max() <= 4.0 + 1e-12
    assert m.gamma(100.0) == pytest.approx(4.0)
    assert m.gamma(250.0) == pytest.approx(4.0)


def test_variogram_model_validation():
    with pytest.raises(ValueError):
        VariogramModel(-0.1, 1.0, 10.0)
    with pytest.raises(ValueError):
        VariogramModel(1.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        VariogramModel(0.0, 1.0, 0.0)


def test_fit_recovers_known_spherical():
    true = VariogramModel(0.0, 4.0, 100.0)
    lags = np.linspace(5, 150, 12)
    empirical = [(float(h), float(true.gamma(h)), 100) for h in lags]
    m = fit_variogram(empirical)
    assert m.nugget == pytest.approx(0.0, abs=0.05)
    assert m.sill == pytest.approx(4.0, rel=0.05)
    assert m.range_m == pytest.approx(100.0, rel=0.05)


def test_fit_degenerate_flat_zero():
    empirical = [(5.0, 0.0, 10), (10.0, 0.0, 10), (15.0, 0.0, 10)]
    m = fit_variogram(empirical)
    assert (m.nugget, m.sill, m.range_m) == (0.0, 1e-12, 15.0)


def test_fit_flat_curve_at_income_scale():
    # a flat curve is all nugget: the sill must still lie above it, though
    # a nugget of 2.5e7 absorbs a partial sill of 1e-12
    empirical = [(100.0, 2.5e7, 40), (200.0, 2.5e7, 80), (300.0, 2.5e7, 120),
                 (400.0, 2.5e7, 90)]
    m = fit_variogram(empirical)
    assert m.sill > m.nugget
    assert m.sill == pytest.approx(2.5e7, rel=1e-12)


@pytest.mark.parametrize("empirical", [
    [(100.0, 1.0, 40), (200.0, 5e199, 80), (300.0, 2.0, 120)],  # a square overflows
    [(100.0, 1.0, 40), (200.0, 1e308, 80), (300.0, 2.0, 120)],
    [(100.0, 1.0, 100), (200.0, 2e153, 100), (300.0, 2e153, 100)],  # finite terms, not their sum
], ids=["square", "largest", "sum"])
def test_fit_refuses_sums_past_the_largest_float(empirical):
    # an SSE past the largest float tells no range from another: no fit
    with pytest.raises(ValueError, match="semivariances too large to fit: their sums overflow"):
        fit_variogram(empirical)


def test_fit_pure_nugget_statistics():
    rng = np.random.default_rng(101)
    sills = []
    ranges = []
    for _ in range(50):
        pts = np.column_stack([rng.uniform(0, 100, 60), rng.uniform(0, 100, 60),
                               rng.normal(0, 1.0, 60)])
        s = SampleSet.from_points(pts)
        emp = empirical_semivariogram(s, n_bins=10)
        m = fit_variogram(emp)
        sills.append(m.sill)
        ranges.append(m.range_m)
    # uncorrelated noise: sill near the variance, correlation length collapses
    # to the resolution floor of the empirical curve
    assert np.mean(sills) == pytest.approx(1.0, rel=0.2)
    span = s.xy.max(axis=0) - s.xy.min(axis=0)
    bin_width = float(np.hypot(span[0], span[1])) / 2.0 / 10
    assert np.median(ranges) <= 2.0 * bin_width


# ---------------------------------------------------------------------------
# kriging
# ---------------------------------------------------------------------------

MODEL = VariogramModel(0.1, 2.0, 60.0)


def test_kriging_exact_at_sample():
    s = samples_of([[0, 0, 3.0], [20, 0, 7.0], [0, 20, 5.0]])
    v, var = kriging_predict(s, MODEL, 0.0, 0.0)
    assert v == 3.0
    assert var <= 1e-6


def test_kriging_two_equidistant():
    s = samples_of([[-10, 0, 10.0], [10, 0, 30.0]])
    idx, w, _ = ok_solve(s, MODEL, 0.0, 0.0, 2)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)
    v, _ = kriging_predict(s, MODEL, 0.0, 0.0)
    assert v == pytest.approx(20.0)


def _dense_oracle(s, model, x, y):
    n = len(s)
    pair = np.linalg.norm(s.xy[:, None, :] - s.xy[None, :, :], axis=2)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = model.gamma(pair)
    A[n, :n] = 1.0
    A[:n, n] = 1.0
    rhs = np.append(model.gamma(np.linalg.norm(s.xy - [x, y], axis=1)), 1.0)
    sol = np.linalg.solve(A, rhs)
    return float(sol[:n] @ s.values)


def test_kriging_four_sample_dense_oracle():
    s = samples_of([[0, 0, 1.0], [30, 0, 4.0], [0, 30, 2.5], [30, 30, 6.0]])
    v, _ = kriging_predict(s, MODEL, 11.0, 17.0, k_neighbors=4)
    assert v == pytest.approx(_dense_oracle(s, MODEL, 11.0, 17.0), abs=1e-8)


def test_kriging_full_neighborhood_matches_oracle():
    rng = np.random.default_rng(57)
    for _ in range(5):
        n = int(rng.integers(10, 50))
        pts = np.column_stack([rng.uniform(0, 200, n), rng.uniform(0, 200, n),
                               rng.normal(5, 2, n)])
        s = SampleSet.from_points(pts)
        x, y = rng.uniform(0, 200, 2)
        v, _ = kriging_predict(s, MODEL, float(x), float(y), k_neighbors=len(s))
        assert v == pytest.approx(_dense_oracle(s, MODEL, float(x), float(y)), abs=1e-8)


def test_kriging_weights_sum_to_one():
    rng = np.random.default_rng(71)
    pts = np.column_stack([rng.uniform(0, 300, 40), rng.uniform(0, 300, 40),
                           rng.normal(0, 1, 40)])
    s = SampleSet.from_points(pts)
    for _ in range(100):
        x, y = rng.uniform(-20, 320, 2)
        _, w, _ = ok_solve(s, MODEL, float(x), float(y), 16)
        assert abs(float(w.sum()) - 1.0) <= 1e-9


def test_kriging_duplicate_coordinates_error():
    s = SampleSet(np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]]),
                  np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ComputationError, match="duplicate sample"):
        kriging_predict(s, MODEL, 5.0, 5.0)


def test_kriging_variance_nonnegative():
    rng = np.random.default_rng(83)
    pts = np.column_stack([rng.uniform(0, 100, 25), rng.uniform(0, 100, 25),
                           rng.normal(0, 1, 25)])
    s = SampleSet.from_points(pts)
    for _ in range(50):
        x, y = rng.uniform(0, 100, 2)
        _, var = kriging_predict(s, MODEL, float(x), float(y))
        assert var >= 0.0


# ---------------------------------------------------------------------------
# grid interpolation
# ---------------------------------------------------------------------------

def idw_grid(samples, template):
    """idw_predict at every cell center of the template."""
    return idw_predict(samples, *np.meshgrid(template.x_centers(), template.y_centers()))


def test_grid_single_sample_idw_constant():
    s = samples_of([[50, 50, 42.0]])
    template = RasterGrid(0.0, 0.0, 10.0, np.zeros((5, 5)))
    assert (idw_grid(s, template) == 42.0).all()


def test_grid_exact_at_cell_center_samples():
    template = RasterGrid(0.0, 0.0, 10.0, np.zeros((2, 2)))
    rows = []
    want = np.zeros((2, 2))
    for r in range(2):
        for c in range(2):
            cx, cy = cell_centers(template, np.array([[r, c]]))[0]
            v = float(10 + 3 * r + c)
            rows.append([cx, cy, v])
            want[r, c] = v
    s = samples_of(rows)
    np.testing.assert_array_equal(interpolate_grid(s, template, model=MODEL).values, want)
    np.testing.assert_array_equal(idw_grid(s, template), want)


def test_grid_kriging_within_neighbor_bounds_linear_trend():
    xs, ys = np.meshgrid(np.arange(0, 60, 10, dtype=float),
                         np.arange(0, 60, 10, dtype=float))
    s = SampleSet.from_points(np.column_stack([xs.ravel(), ys.ravel(), xs.ravel()]))
    template = RasterGrid(5.0, 5.0, 10.0, np.zeros((4, 4)))
    g = interpolate_grid(s, template, model=MODEL, kriging_k=8)
    for r in range(4):
        for c in range(4):
            cx, cy = cell_centers(template, np.array([[r, c]]))[0]
            _, idx = s.nearest(cx, cy, 8)
            nb = s.values[idx]
            assert nb.min() - 1e-9 <= g.values[r, c] <= nb.max() + 1e-9


def test_grid_reorder_invariance_bitwise():
    rng = np.random.default_rng(91)
    pts = np.column_stack([rng.uniform(0, 100, 30), rng.uniform(0, 100, 30),
                           rng.normal(20, 5, 30)])
    template = RasterGrid(10.0, 10.0, 15.0, np.zeros((5, 5)))
    perm = rng.permutation(30)
    for grid in (lambda s: interpolate_grid(s, template, model=MODEL).values,
                 lambda s: idw_grid(s, template)):
        g1 = grid(SampleSet.from_points(pts))
        g2 = grid(SampleSet.from_points(pts[perm]))
        assert np.array_equal(g1, g2)  # bit-identical


@pytest.mark.parametrize("rows, message", [
    ([[50, 50, 1.0]], "kriging needs at least 2 distinct sample locations, got 1"),
    ([[50, 50, 1.0], [50, 50, 3.0]],
     "kriging needs at least 2 distinct sample locations, got 1"),
    ([[50, 50, 1.0], [60, 50, 3.0]],
     "2 distinct sample locations: need at least 3 semivariogram bins to fit"),
])
def test_grid_kriging_too_few_samples_to_fit(rows, message):
    # a model can only be fitted from three lag bins; idw needs no model
    template = RasterGrid(0.0, 0.0, 10.0, np.zeros((3, 3)))
    with pytest.raises(ComputationError, match=f"^{message}$"):
        interpolate_grid(SampleSet.from_points(np.array(rows, dtype=float)), template)
    assert idw_grid(samples_of(rows), template).shape == (3, 3)


def test_fill_raster_nodata_leaves_valid_cells():
    rng = np.random.default_rng(7)
    vals = 15.0 + rng.normal(0, 0.5, (12, 12))
    vals[4:7, 5:8] = np.nan
    g = RasterGrid(0.0, 0.0, 30.0, vals)
    filled = fill_raster_nodata(g)
    assert np.isfinite(filled.values).all()
    keep = np.isfinite(g.values)
    np.testing.assert_array_equal(filled.values[keep], g.values[keep])
    # filled cells stay in a plausible range
    assert filled.values[~keep].min() >= vals[keep].min() - 3.0
    assert filled.values[~keep].max() <= vals[keep].max() + 3.0


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2)])
def test_fill_raster_nodata_gapless_grid_comes_back_as_copy(shape):
    # fewer than 3 cells is too few to krige, but a grid without gaps needs none
    g = RasterGrid(5.0, -5.0, 30.0, np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape))
    filled = fill_raster_nodata(g)
    assert (filled.origin_x, filled.origin_y, filled.cell) == (g.origin_x, g.origin_y, g.cell)
    assert np.array_equal(filled.values, g.values, equal_nan=True)
    assert filled.values is not g.values


def test_fill_raster_nodata_too_few_valid_cells():
    g = RasterGrid(0.0, 0.0, 30.0, np.array([[1.0, np.nan], [2.0, np.nan]]))
    with pytest.raises(ComputationError, match=r"too few valid cells to fill gaps \(2 of 4\)"):
        fill_raster_nodata(g)


@pytest.mark.parametrize("big, message", [
    (1e100, "semivariances too large to fit: their sums overflow"),
    # the semivariogram's sum of squares overflows, where the squares do not
    (4e153, "semivariances too large to fit: their sums overflow"),
])
def test_fill_raster_nodata_values_too_large_to_fit(big, message):
    values = 15.0 + np.arange(64.0).reshape(8, 8) * 0.1
    values[0, 0] = np.nan
    values[4, 4] = big
    with pytest.raises(ComputationError, match=f"^63 valid cells: {message}$"):
        fill_raster_nodata(RasterGrid(0.0, 0.0, 10.0, values))
