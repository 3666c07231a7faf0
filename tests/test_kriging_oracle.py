"""Whole-array kriging and IDW against the per-cell loops they replaced,
and the neighbour rule against a plain sort.

``interpolate_grid`` and ``fill_raster_nodata`` make one call each to
``kriging_predict`` for all their cells: one ``SampleSet.nearest`` call
and one stacked ``np.linalg.solve`` per ``KRIGING_CHUNK_QUERIES`` cells.
``idw_predict``, which no stage calls, takes a grid's cells in one call
too. The per-point predictors and the per-cell
grid loops below are their earlier bodies, kept as oracles: grids and gap
fills must match to the last bit, and damaged sample sets must fail with
the same ``ComputationError`` message. Their neighbours come from
``_sorted_nearest``, the neighbour rule written as a sort of every sample
by (distance, index).
"""
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenprior import interp
from greenprior.geocore import ComputationError, RasterGrid
from greenprior.interp import (
    MATCH_TOL,
    SampleSet,
    VariogramModel,
    _ok_weights,
    fill_raster_nodata,
    fit_variogram,
    grid_semivariogram,
    idw_predict,
    interpolate_grid,
    kriging_predict,
)

# ---------------------------------------------------------------------------
# oracles: the earlier per-point bodies
# ---------------------------------------------------------------------------


def _sorted_nearest(samples, x, y, k):
    """The neighbour rule: every sample sorted by (distance, index), with the
    distance sqrt(dx*dx + dy*dy), dx = x - sx, in Python floats."""
    x, y = float(x), float(y)
    dist = [math.sqrt((x - sx) * (x - sx) + (y - sy) * (y - sy))
            for sx, sy in samples.xy.tolist()]
    order = sorted(range(len(dist)), key=lambda i: (dist[i], i))[:k]
    return np.array([dist[i] for i in order]), np.array(order)


def _old_idw_predict(samples, x, y, power, k_neighbors):
    d, idx = _sorted_nearest(samples, x, y, k_neighbors)
    if d[0] < MATCH_TOL:
        return float(samples.values[idx[0]])
    w = d ** (-power)
    return float(np.sum(w * samples.values[idx]) / np.sum(w))


def _old_ok_solve(samples, model, x, y, k_neighbors):
    d, idx = _sorted_nearest(samples, x, y, k_neighbors)
    pts = samples.xy[idx]
    k = len(idx)
    pair = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    off = pair[np.triu_indices(k, 1)]
    if off.size and off.min() < MATCH_TOL:
        ii, jj = np.triu_indices(k, 1)
        flat = int(np.argmin(off))
        a, b = idx[ii[flat]], idx[jj[flat]]
        raise ComputationError(
            f"duplicate sample coordinates at {tuple(samples.xy[a])} "
            f"(samples {a} and {b}); kriging system is singular")
    A = np.empty((k + 1, k + 1))
    A[:k, :k] = model.gamma(pair)
    A[k, :] = 1.0
    A[:, k] = 1.0
    A[k, k] = 0.0
    rhs = np.empty(k + 1)
    rhs[:k] = model.gamma(d)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise ComputationError("kriging system is singular") from None
    return idx, sol[:k], float(sol[k])


def _old_kriging_predict(samples, model, x, y, k_neighbors):
    d, idx = _sorted_nearest(samples, x, y, k_neighbors)
    if d[0] < MATCH_TOL:
        return float(samples.values[idx[0]]), 0.0
    nb_idx, w, mu = _old_ok_solve(samples, model, x, y, k_neighbors)
    dist = np.linalg.norm(samples.xy[nb_idx] - [x, y], axis=1)
    value = float(np.sum(w * samples.values[nb_idx]))
    variance = float(np.sum(w * model.gamma(dist)) + mu)
    return value, max(variance, 0.0)


def _old_interpolate_grid(samples, template, method, model, k):
    out = np.empty((template.nrows, template.ncols))
    for row in range(template.nrows):
        cy = template.origin_y + (row + 0.5) * template.cell
        for col in range(template.ncols):
            cx = template.origin_x + (col + 0.5) * template.cell
            if method == "idw":
                out[row, col] = _old_idw_predict(samples, cx, cy, 2.0, k)
            else:
                out[row, col], _ = _old_kriging_predict(samples, model, cx, cy, k)
    return out


def _idw_grid(samples, template, k=12):
    """idw_predict at every cell center of the template, in one call."""
    xs, ys = np.meshgrid(template.x_centers(), template.y_centers())
    return idw_predict(samples, xs, ys, 2.0, k)


def _old_fill_raster_nodata(grid, k_neighbors):
    # the error contract is the current one: a gapless grid comes back
    # before the cell count is checked, and a fit with too few bins is a
    # ComputationError, not fit_variogram's ValueError. The variogram is the
    # current one too: this oracle checks the per-cell kriging loop, and the
    # lattice-offset sums of grid_semivariogram differ from the pdist means
    # of empirical_semivariogram in the last bits (tests/test_grid_semivariogram.py)
    gaps = ~np.isfinite(grid.values)
    if not gaps.any():
        return grid.values.copy()
    rr, cc = np.nonzero(np.isfinite(grid.values))
    if rr.size < 3:
        raise ComputationError(
            f"too few valid cells to fill gaps ({rr.size} of {grid.values.size})")
    xs = grid.origin_x + (cc + 0.5) * grid.cell
    ys = grid.origin_y + (rr + 0.5) * grid.cell
    samples = SampleSet.from_points(np.column_stack([xs, ys, grid.values[rr, cc]]))
    try:
        model = fit_variogram(grid_semivariogram(grid))
    except ValueError as exc:
        raise ComputationError(f"{rr.size} valid cells: {exc}") from None
    out = grid.values.copy()
    for row, col in zip(*np.nonzero(gaps)):
        cx, cy = grid.cell_center(int(row), int(col))
        out[row, col], _ = _old_kriging_predict(samples, model, cx, cy, k_neighbors)
    return out


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _outcome(fn, *args):
    """Float bits of the result, or the type and message of the error."""
    try:
        return _bits(fn(*args))
    except (ComputationError, ValueError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def scenes(draw):
    """Samples, some on template cell centers and some duplicated, a
    template of up to 8 x 8 cells, a variogram model and a neighbor count
    that may exceed the sample count."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    template = RasterGrid(5.0, -5.0, 20.0, np.zeros((nrows, ncols)))
    coord = st.one_of(st.floats(-20.0, 200.0), st.integers(-1, 10).map(lambda k: 20.0 * k))
    xy = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=24))
    on_centre = draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
                              max_size=3))
    xy += [template.cell_center(r, c) for r, c in on_centre]
    values = draw(st.lists(st.floats(-50.0, 50.0), min_size=len(xy), max_size=len(xy)))
    if draw(st.booleans()):
        samples = SampleSet.from_points(np.column_stack([np.array(xy), values]))
    else:  # raw, so exact duplicates survive
        samples = SampleSet(np.array(xy), np.array(values))
    nugget = draw(st.sampled_from([0.0, 0.1, 1.0]))
    model = VariogramModel(nugget, nugget + draw(st.sampled_from([0.5, 2.0, 30.0])),
                           draw(st.sampled_from([15.0, 60.0, 400.0])))
    k = draw(st.sampled_from([1, 2, 5, 16, 40]))
    return samples, template, model, k


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(scene=scenes(), method=st.sampled_from(["idw", "kriging"]))
def test_grid_matches_per_cell_loop(scene, method):
    samples, template, model, k = scene

    def new(samples, template):
        if method == "idw":
            return _idw_grid(samples, template, k)
        return interpolate_grid(samples, template, model=model, kriging_k=k).values

    def old(samples, template):
        return _old_interpolate_grid(samples, template, method, model, k)

    assert _outcome(new, samples, template) == _outcome(old, samples, template)


@settings(max_examples=100, deadline=None)
@given(nrows=st.integers(2, 9), ncols=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
       gap_share=st.sampled_from([0.0, 0.1, 0.4, 0.9]), k=st.sampled_from([1, 4, 16, 100]))
def test_gap_fill_matches_per_cell_loop(nrows, ncols, seed, gap_share, k):
    rng = np.random.default_rng(seed)
    values = 15.0 + rng.normal(0.0, 1.5, (nrows, ncols)) + np.arange(ncols) * 0.3
    values[rng.uniform(size=values.shape) < gap_share] = np.nan
    grid = RasterGrid(100.0, 200.0, 30.0, values)
    assert (_outcome(lambda g: fill_raster_nodata(g, k).values, grid)
            == _outcome(_old_fill_raster_nodata, grid, k))


def test_duplicate_sample_message_names_the_first_failing_cell():
    samples = SampleSet(np.array([[0.0, 0.0], [40.0, 40.0], [40.0, 40.0], [100.0, 0.0]]),
                        np.array([1.0, 2.0, 3.0, 4.0]))
    model = VariogramModel(0.1, 2.0, 60.0)
    template = RasterGrid(0.0, 0.0, 10.0, np.zeros((6, 6)))
    with pytest.raises(ComputationError) as new:
        interpolate_grid(samples, template, model=model, kriging_k=2)
    with pytest.raises(ComputationError) as old:
        _old_interpolate_grid(samples, template, "kriging", model, 2)
    assert str(new.value) == str(old.value)
    assert "duplicate sample coordinates at" in str(new.value)


def test_scalar_and_array_queries_agree():
    rng = np.random.default_rng(5)
    samples = SampleSet.from_points(np.column_stack([rng.uniform(0, 100, (30, 2)),
                                                     rng.normal(0, 1, 30)]))
    model = VariogramModel(0.0, 1.0, 50.0)
    xs, ys = rng.uniform(0, 100, (2, 3, 4))
    values, variances = kriging_predict(samples, model, xs, ys)
    assert values.shape == variances.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            v, var = kriging_predict(samples, model, float(xs[i, j]), float(ys[i, j]))
            assert isinstance(v, float) and isinstance(var, float)
            assert _bits(v) == _bits(values[i, j])
            assert (v, var) == pytest.approx(
                _old_kriging_predict(samples, model, float(xs[i, j]), float(ys[i, j]), 16),
                rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("shape", [(1, 1), (4, 5), (12, 15)])
def test_grid_work_does_not_grow_with_cells(monkeypatch, shape):
    # one stacked solve and one neighbour search per call, whatever the cell count
    calls = {"solve": 0, "nearest": 0}
    solve = np.linalg.solve
    nearest = SampleSet.nearest

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    def counted_nearest(*args, **kwargs):
        calls["nearest"] += 1
        return nearest(*args, **kwargs)

    model = VariogramModel(0.1, 2.0, 60.0)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(SampleSet, "nearest", counted_nearest)
    monkeypatch.setattr(interp, "fit_variogram", lambda empirical: model)
    rng = np.random.default_rng(11)
    pts = np.column_stack([rng.uniform(0, 300, (25, 2)), rng.normal(0, 1, 25)])
    template = RasterGrid(0.0, 0.0, 300.0 / max(shape), np.zeros(shape))
    samples = SampleSet.from_points(pts)
    for grid, solves in ((lambda: _idw_grid(samples, template), 0),
                         (lambda: interpolate_grid(samples, template, model=model), 1)):
        calls["nearest"], calls["solve"] = 0, 0
        grid()
        assert calls["nearest"] == 1
        assert calls["solve"] == solves
    values = 10.0 + rng.normal(0, 1, (shape[0] + 2, shape[1] + 2))
    values[::2, ::2] = np.nan
    calls["nearest"], calls["solve"] = 0, 0
    fill_raster_nodata(RasterGrid(0.0, 0.0, 10.0, values))
    assert calls["nearest"] == 1
    assert calls["solve"] == 1


@pytest.mark.parametrize("duplicate", [False, True])
def test_grid_over_several_chunks_matches_per_cell_loop(duplicate):
    rng = np.random.default_rng(17)
    xy = rng.uniform(0.0, 500.0, (40, 2))
    if duplicate:  # near the last rows, so the first failing cell is in a late chunk
        xy[-2:] = [[250.0, 490.0], [250.0, 490.0]]
    samples = SampleSet(xy, rng.normal(0.0, 1.0, len(xy)))
    model = VariogramModel(0.1, 2.0, 150.0)
    template = RasterGrid(0.0, 0.0, 10.0, np.zeros((50, 50)))
    assert template.values.size > 2 * interp.KRIGING_CHUNK_QUERIES
    k = 2 if duplicate else 16

    def new(samples, template):
        return interpolate_grid(samples, template, model=model, kriging_k=k).values

    def old(samples, template):
        return _old_interpolate_grid(samples, template, "kriging", model, k)

    assert _outcome(new, samples, template) == _outcome(old, samples, template)


def test_kriging_memory_does_not_grow_with_cells():
    rng = np.random.default_rng(23)
    samples = SampleSet.from_points(np.column_stack([rng.uniform(0, 2000, (30, 2)),
                                                     rng.normal(0, 1, 30)]))
    model = VariogramModel(0.1, 2.0, 600.0)
    template = RasterGrid(0.0, 0.0, 10.0, np.zeros((200, 200)))
    tracemalloc.start()
    try:
        interpolate_grid(samples, template, model=model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# interpolate_grid of a 625-cell station surface from 24 stations peaked at
# 2.34 MiB (numpy 2.4), the kriging systems KRIGING_CHUNK_QUERIES = 256 at a
# time with each neighbour pair measured once; the bound allows 1.5 times
# that. Stacked (k, k) pair arrays over 1,024 queries peaked at 8.7 MiB.
STATION_SURFACE_PEAK_BYTES = 3.5 * 2**20


def test_station_surface_peak_memory():
    rng = np.random.default_rng(5)
    samples = SampleSet.from_points(np.column_stack([rng.uniform(0, 1200, (24, 2)),
                                                     rng.normal(0, 1, 24)]))
    model = VariogramModel(0.1, 2.0, 800.0)
    template = RasterGrid(0.0, 0.0, 48.0, np.zeros((25, 25)))
    tracemalloc.start()
    try:
        interpolate_grid(samples, template, model=model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= STATION_SURFACE_PEAK_BYTES


@pytest.mark.parametrize("chunk", [1, 7, 1 << 30])
def test_chunk_size_does_not_move_a_bit(monkeypatch, chunk):
    rng = np.random.default_rng(29)
    samples = SampleSet.from_points(np.column_stack([rng.uniform(0, 500, (30, 2)),
                                                     rng.normal(0, 1, 30)]))
    xs, ys = np.meshgrid(np.arange(5.0, 500.0, 20.0), np.arange(5.0, 500.0, 20.0))
    gappy = 10.0 + rng.normal(0, 1, (20, 20))
    gappy[rng.random(gappy.shape) < 0.2] = np.nan

    def run():
        model = fit_variogram(interp.empirical_semivariogram(samples))
        return [*kriging_predict(samples, model, xs, ys),
                fill_raster_nodata(RasterGrid(0.0, 0.0, 25.0, gappy)).values]

    want = run()
    monkeypatch.setattr(interp, "KRIGING_CHUNK_QUERIES", chunk)
    for got, expected in zip(run(), want):
        assert _bits(got) == _bits(expected)


def test_gap_fill_samples_match_from_points(monkeypatch):
    # the samples of a gap fill come straight from the lattice: the bits of
    # SampleSet.from_points over the valid cells, -0.0 read as 0.0
    rng = np.random.default_rng(31)
    values = rng.choice([-0.0, 0.0, -1.5, 2.25, np.nan, np.inf], (13, 17))
    values[0, :3] = [np.nan, -0.0, 0.0]
    grid = RasterGrid(-123.4, 567.8, 2.5, values)
    seen = []
    predict = interp.kriging_predict

    def kept(samples, *args):
        seen.append(samples)
        return predict(samples, *args)

    monkeypatch.setattr(interp, "kriging_predict", kept)
    fill_raster_nodata(grid)
    rr, cc = np.nonzero(np.isfinite(values))
    want = SampleSet.from_points(np.column_stack(
        [grid.x_centers()[cc], grid.y_centers()[rr], values[rr, cc]]))
    (got,) = seen
    assert _bits(got.xy) == _bits(want.xy)
    assert _bits(got.values) == _bits(want.values)
    assert np.signbit(values[values == 0]).any()
    assert not np.signbit(want.values[want.values == 0]).any()


# ---------------------------------------------------------------------------
# the neighbour rule
# ---------------------------------------------------------------------------

COORD = st.one_of(st.floats(-20.0, 200.0), st.integers(-1, 10).map(lambda k: 20.0 * k))
LATTICE = [(20.0 * i, 20.0 * j) for i in range(5) for j in range(5)]


@settings(max_examples=300, deadline=None)
@given(xy=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=40),
       queries=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=12),
       k=st.integers(1, 45), chunk=st.sampled_from([1, 7, interp.NEAREST_CHUNK_PAIRS]))
# a lattice: every query has rings of equidistant samples, cut by k
@example(xy=LATTICE, queries=[(40.0, 40.0), (50.0, 50.0), (10.0, 40.0), (-20.0, -20.0),
                              (40.0, 30.0), (0.0, 0.0)], k=5, chunk=interp.NEAREST_CHUNK_PAIRS)
@example(xy=LATTICE, queries=[(40.0, 40.0), (50.0, 50.0), (10.0, 40.0)], k=8, chunk=7)
@example(xy=LATTICE, queries=[(50.0, 50.0), (30.0, 30.0)], k=2, chunk=1)
@example(xy=LATTICE + LATTICE[::-1], queries=[(40.0, 40.0), (50.0, 50.0)], k=9, chunk=1)
@example(xy=LATTICE, queries=[(40.0, 40.0)], k=25, chunk=interp.NEAREST_CHUNK_PAIRS)
def test_nearest_matches_sorted_rule(xy, queries, k, chunk):
    samples = SampleSet(np.array(xy, dtype=float), np.zeros(len(xy)))
    qx, qy = np.array(queries, dtype=float).T
    with mock.patch.object(interp, "NEAREST_CHUNK_PAIRS", chunk):
        d, idx = samples.nearest(qx, qy, k)
    assert d.shape == idx.shape == (len(queries), min(k, len(xy)))
    for (x, y), got_d, got_idx in zip(queries, d, idx):
        want_d, want_idx = _sorted_nearest(samples, x, y, k)
        assert _bits(got_d) == _bits(want_d)
        assert got_idx.tolist() == want_idx.tolist()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_shuffled_rows_give_the_same_bits(seed):
    # a lattice with repeated rows: the queries' neighbour rings tie, and
    # rows at one location are averaged
    rng = np.random.default_rng(seed)
    xy = np.array(LATTICE + LATTICE[:7])
    rows = np.column_stack([xy, rng.normal(10.0, 2.0, len(xy))])
    template = RasterGrid(-15.0, -15.0, 10.0, np.zeros((11, 11)))
    outputs = []
    for perm in (np.arange(len(rows)), rng.permutation(len(rows)), rng.permutation(len(rows))):
        samples = SampleSet.from_points(rows[perm])
        d, idx = samples.nearest(*np.meshgrid(template.x_centers(), template.y_centers()), 9)
        grids = [_idw_grid(samples, template), interpolate_grid(samples, template).values]
        outputs.append([_bits(d), idx.tolist(), *map(_bits, grids)])
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def _norm_ok_weights(samples, model, d, idx):
    """The kriging systems with neighbour pair distances from np.linalg.norm
    over a stacked (..., k, k, 2) array, the form _ok_weights replaced."""
    k = idx.shape[-1]
    pts = samples.xy[idx]
    pair = np.linalg.norm(pts[..., :, None, :] - pts[..., None, :, :], axis=-1)
    A = np.ones(idx.shape[:-1] + (k + 1, k + 1))
    A[..., :k, :k] = model.gamma(pair)
    A[..., k, k] = 0.0
    rhs = np.append(model.gamma(d), np.ones_like(d[..., :1]), axis=-1)
    sol = np.linalg.solve(A, rhs[..., None])[..., 0]
    return sol[..., :k], sol[..., k]


@settings(max_examples=100, deadline=None)
@given(scene=scenes())
def test_pair_distances_match_norm_form(scene):
    samples, template, model, k = scene
    xs, ys = np.meshgrid(template.x_centers(), template.y_centers())
    d, idx = samples.nearest(np.ravel(xs), np.ravel(ys), k)
    try:
        got = _ok_weights(samples, model, d, idx)
    except ComputationError:  # duplicate neighbours, checked against the loop above
        return
    want = _norm_ok_weights(samples, model, d, idx)
    assert _bits(got[0]) == _bits(want[0])
    assert _bits(got[1]) == _bits(want[1])
