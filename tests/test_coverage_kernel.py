"""The batched coverage-disk kernel against the per-query code it replaced.

``greenspace_coverage`` counts each disk from row-wise prefix sums, and
``greenspace_exposure`` and ``building_coverage_rate`` call it once for all
their query points. The scalar window scan and the per-cell exposure loop
below are their earlier bodies, kept as oracles: the new code must return
the same floats to the last bit, including for pixels whose centers lie
exactly on the circle. The kernel settles only the (query, row) pairs whose
sqrt estimate lies within a proven rounding margin of a column; the margin
checks below require every other pair's estimate to be the exact run.
"""
import math
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenprior import benefits, cli, indicators, ingest
from greenprior.benefits import greenspace_exposure
from greenprior.geocore import RasterGrid, cell_centers
from greenprior.indicators import _disk_runs, greenspace_coverage

# ---------------------------------------------------------------------------
# scalar oracles
# ---------------------------------------------------------------------------


def _coverage_oracle(mask, x, y, radius):
    cell = mask.cell
    row_lo = max(0, int(math.floor((y - radius - mask.origin_y) / cell)))
    row_hi = min(mask.nrows, int(math.floor((y + radius - mask.origin_y) / cell)) + 1)
    col_lo = max(0, int(math.floor((x - radius - mask.origin_x) / cell)))
    col_hi = min(mask.ncols, int(math.floor((x + radius - mask.origin_x) / cell)) + 1)
    if row_lo >= row_hi or col_lo >= col_hi:
        return 0.0
    sub = mask.values[row_lo:row_hi, col_lo:col_hi]
    ys = mask.origin_y + (np.arange(row_lo, row_hi) + 0.5) * cell
    xs = mask.origin_x + (np.arange(col_lo, col_hi) + 0.5) * cell
    d2 = (ys[:, None] - y) ** 2 + (xs[None, :] - x) ** 2
    count = float(np.sum((sub > 0) & (d2 <= radius * radius)))
    return min(1.0, count * cell * cell / (math.pi * radius * radius))


def _exposure_oracle(mask, population, radius):
    pop = np.nan_to_num(population.values, nan=0.0)
    total = float(pop.sum())
    weighted = 0.0
    for row, col in zip(*np.nonzero(pop > 0)):
        x, y = cell_centers(population, np.array([[int(row), int(col)]]))[0]
        weighted += pop[row, col] * _coverage_oracle(mask, x, y, radius)
    return weighted / total


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

# 0.1 and 0.3 are not binary fractions, so centers and radii that meet
# exactly in decimal meet only up to rounding in floats
CELLS = (5.0, 1.0, 2.5, 0.1, 0.3)
MASK_VALUES = (0.0, 1.0, 0.5, -1.0, float("nan"))


@st.composite
def masks(draw):
    cell = draw(st.sampled_from(CELLS))
    nrows = draw(st.integers(1, 24))
    ncols = draw(st.integers(1, 24))
    values = draw(st.lists(st.sampled_from(MASK_VALUES),
                           min_size=nrows * ncols, max_size=nrows * ncols))
    origin = draw(st.sampled_from((0.0, -3.0, 12.5, 0.1)))
    return RasterGrid(origin, -origin, cell, np.array(values).reshape(nrows, ncols))


@st.composite
def radii(draw, cell):
    # 3-4-5 and 5-12-13 multiples put pixel centers on the circle; 0.4 cells
    # is smaller than one pixel
    k = draw(st.sampled_from((5.0, 13.0, 2.5, 0.4, 1.0)))
    scale = draw(st.sampled_from((1.0, 2.0)))
    return draw(st.sampled_from((k * scale * cell,
                                 draw(st.floats(0.05, 30.0)) * cell)))


@st.composite
def queries(draw, mask, n):
    """Points on pixel centers, on grid lines, at random offsets, or beyond
    the mask on any side."""
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(("center", "grid", "offset")))
        c = draw(st.integers(-6, mask.ncols + 6))
        r = draw(st.integers(-6, mask.nrows + 6))
        if kind == "center":
            out.append(cell_centers(mask, np.array([[r, c]]))[0])
        elif kind == "grid":
            out.append((mask.origin_x + c * mask.cell, mask.origin_y + r * mask.cell))
        else:
            fx, fy = draw(st.tuples(st.floats(0, 1), st.floats(0, 1)))
            out.append((mask.origin_x + (c + fx) * mask.cell,
                        mask.origin_y + (r + fy) * mask.cell))
    return np.array(out)


@st.composite
def coverage_cases(draw):
    mask = draw(masks())
    return mask, draw(radii(mask.cell)), draw(queries(mask, draw(st.integers(1, 12))))


# a 5 m mask, radius 500, query on a pixel center: the pixels at
# (+-300, +-400), (+-400, +-300), (+-500, 0) and (0, +-500) lie on the circle
_ON_CIRCLE = RasterGrid(0.0, 0.0, 5.0, np.ones((220, 220)))
_ON_CIRCLE_QUERY = cell_centers(_ON_CIRCLE, np.array([[110, 110]]))
# the same triples at a 0.1 m pitch, where the sums round
_ON_CIRCLE_DECIMAL = RasterGrid(0.1, -0.1, 0.1, np.ones((24, 24)))
_ON_CIRCLE_DECIMAL_QUERIES = cell_centers(_ON_CIRCLE_DECIMAL, np.array(
    [(r, c) for r in range(4, 20) for c in range(4, 20)]))


# ---------------------------------------------------------------------------
# coverage kernel
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(coverage_cases())
@example((_ON_CIRCLE, 500.0, _ON_CIRCLE_QUERY))
@example((_ON_CIRCLE_DECIMAL, 0.5, _ON_CIRCLE_DECIMAL_QUERIES))
@example((_ON_CIRCLE_DECIMAL, 1.3, _ON_CIRCLE_DECIMAL_QUERIES))
@example((_ON_CIRCLE_DECIMAL, 1e-155, _ON_CIRCLE_DECIMAL_QUERIES))  # radius**2 subnormal
def test_coverage_matches_scalar_oracle_bits(case):
    mask, radius, pts = case
    got = greenspace_coverage(mask, pts[:, 0], pts[:, 1], radius)
    want = [_coverage_oracle(mask, x, y, radius) for x, y in pts]
    assert got.shape == (len(pts),)
    assert _bits(got) == _bits(want)


def test_coverage_counts_pixels_on_the_circle():
    x, y = _ON_CIRCLE_QUERY[0]
    # every pixel of the disk counts, the 12 on the circle included: the
    # lattice points within 100 cells of the query
    inside = sum(1 for i in range(-100, 101) for j in range(-100, 101)
                 if i * i + j * j <= 100 * 100)
    assert inside == 31417
    want = inside * 25.0 / (math.pi * 500.0 * 500.0)
    got = greenspace_coverage(_ON_CIRCLE, x, y, 500.0)
    assert got == min(1.0, want) == _coverage_oracle(_ON_CIRCLE, x, y, 500.0)


def test_scalar_query_returns_python_float():
    x, y = (float(v) for v in _ON_CIRCLE_QUERY[0])
    got = greenspace_coverage(_ON_CIRCLE, x, y, 500.0)
    assert type(got) is float
    assert got == _coverage_oracle(_ON_CIRCLE, x, y, 500.0)
    assert type(greenspace_coverage(_ON_CIRCLE, -5000.0, 0.0, 500.0)) is float
    arr = greenspace_coverage(_ON_CIRCLE, np.array([[x]]), np.array([[y]]), 500.0)
    assert isinstance(arr, np.ndarray) and arr.shape == (1, 1)
    assert arr[0, 0] == got


def test_coverage_rejects_bad_radius_and_queries():
    with pytest.raises(ValueError):
        greenspace_coverage(_ON_CIRCLE, 550.0, 550.0, 0.0)
    with pytest.raises(ValueError):
        greenspace_coverage(_ON_CIRCLE, np.array([550.0, np.nan]), 550.0)


def test_coverage_independent_of_chunking(monkeypatch):
    rng = np.random.default_rng(4)
    vals = rng.choice(np.array(MASK_VALUES), size=(200, 200), p=[0.5, 0.3, 0.1, 0.05, 0.05])
    mask = RasterGrid(-3.0, 12.5, 5.0, vals)
    n = 2000
    cols = rng.integers(-20, 220, n)
    rows = rng.integers(-20, 220, n)
    offset = np.where(rng.random(n) < 0.5, 0.5, rng.random(n))
    xs = mask.origin_x + (cols + offset) * mask.cell
    ys = mask.origin_y + (rows + offset) * mask.cell
    # about 400k (query, row) pairs: several default chunks
    whole = greenspace_coverage(mask, xs, ys, 500.0)
    assert _bits(whole) == _bits([_coverage_oracle(mask, x, y, 500.0) for x, y in zip(xs, ys)])
    halves = np.concatenate([greenspace_coverage(mask, xs[:777], ys[:777], 500.0),
                             greenspace_coverage(mask, xs[777:], ys[777:], 500.0)])
    assert _bits(halves) == _bits(whole)
    for pairs in (1, 97, 4099):
        monkeypatch.setattr(indicators, "COVERAGE_CHUNK_PAIRS", pairs)
        assert _bits(greenspace_coverage(mask, xs[:300], ys[:300], 500.0)) == _bits(whole[:300])


# a 30 x 30 mask with green and nodata pixels, and radius 4 cells: each disk
# window spans at most 9 mask rows
_CHUNK_MASK = RasterGrid(-3.0, 12.5, 5.0, np.random.default_rng(8).choice(
    np.array(MASK_VALUES), size=(30, 30), p=[0.5, 0.3, 0.1, 0.05, 0.05]))


def _chunk_queries(rows):
    """Queries on pixel centers at the given mask rows, two columns apart."""
    return cell_centers(_CHUNK_MASK, np.array([(r, 2 * i - 3) for i, r in enumerate(rows)]))


def _assert_oracle_bits(mask, pts, radius):
    got = greenspace_coverage(mask, pts[:, 0], pts[:, 1], radius)
    assert _bits(got) == _bits([_coverage_oracle(mask, x, y, radius) for x, y in pts])


@pytest.mark.parametrize("pairs", [1, 4, 9, 10, 23])
def test_coverage_zero_row_queries_among_inside_ones(monkeypatch, pairs):
    # disks wholly below or above the mask have no (query, row) pair at all,
    # and sit among the queries of a tile or at either end of one
    monkeypatch.setattr(indicators, "COVERAGE_CHUNK_PAIRS", pairs)
    rows = [-40, 5, -40, -40, 12, 80, 29, 80, -6, 0, 35, 15, -40]
    _assert_oracle_bits(_CHUNK_MASK, _chunk_queries(rows), 20.0)
    _assert_oracle_bits(_CHUNK_MASK, _chunk_queries([-40, 80, -40]), 20.0)


@pytest.mark.parametrize("pairs", [1, 2, 8])
def test_coverage_single_query_larger_than_a_chunk(monkeypatch, pairs):
    # a disk of 29 rows spans several tiles of consecutive rows, whatever
    # the tile size
    monkeypatch.setattr(indicators, "COVERAGE_CHUNK_PAIRS", pairs)
    _assert_oracle_bits(_CHUNK_MASK, _chunk_queries([14]), 70.0)
    _assert_oracle_bits(_CHUNK_MASK, _chunk_queries([14, 3, 14, 26]), 70.0)


@pytest.mark.parametrize("pairs", [12, 13, 17, 20])
def test_coverage_queries_across_a_chunk_boundary(monkeypatch, pairs):
    # 9 rows per inside query: a tile ends in the middle of a query's rows,
    # and the next tile goes on from there
    monkeypatch.setattr(indicators, "COVERAGE_CHUNK_PAIRS", pairs)
    pts = _chunk_queries([10, 11, 12, 13, 14, 15, 16, 17])
    _assert_oracle_bits(_CHUNK_MASK, pts, 20.0)
    monkeypatch.setattr(indicators, "COVERAGE_CHUNK_PAIRS", 1 << 14)
    whole = greenspace_coverage(_CHUNK_MASK, pts[:, 0], pts[:, 1], 20.0)
    monkeypatch.setattr(indicators, "COVERAGE_CHUNK_PAIRS", pairs)
    assert _bits(greenspace_coverage(_CHUNK_MASK, pts[:, 0], pts[:, 1], 20.0)) == _bits(whole)


# ---------------------------------------------------------------------------
# row sweep: estimates, margin and query order
# ---------------------------------------------------------------------------

# origins far from 0 make the column centers round, as projected
# coordinates of about 2.3e6 m do
FAR_ORIGINS = (0.0, -3.0, 12.5, 0.1, 2.3e6, -7.1e5 + 0.3)


def _nudged(draw, v):
    """v moved by up to 4 units in the last place, either way"""
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        v = float(np.nextafter(v, math.copysign(math.inf, steps)))
    return v


@st.composite
def run_cases(draw):
    cell = draw(st.sampled_from(CELLS))
    nrows, ncols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    origin = draw(st.sampled_from(FAR_ORIGINS))
    mask = RasterGrid(origin, -origin, cell, np.zeros((nrows, ncols)))
    radius = _nudged(draw, draw(radii(cell)))
    pts = draw(queries(mask, draw(st.integers(1, 12))))
    pts = np.array([[_nudged(draw, x), _nudged(draw, y)] for x, y in pts])
    return mask, radius, pts[np.argsort(pts[:, 1], kind="stable")]


def _window_rows(mask, y, radius):
    lo = max(0, int(math.floor((y - radius - mask.origin_y) / mask.cell)))
    return lo, min(mask.nrows, int(math.floor((y + radius - mask.origin_y) / mask.cell)) + 1)


def _exact_run(mask, x, y, row, radius):
    """[a, b): the window columns of the mask row whose pixel centers the
    disk test puts inside, from a scan of the whole window row"""
    cell = mask.cell
    col_lo = min(max(0, int(math.floor((x - radius - mask.origin_x) / cell))), mask.ncols)
    col_hi = min(mask.ncols, int(math.floor((x + radius - mask.origin_x) / cell)) + 1)
    xs = mask.origin_x + (np.arange(col_lo, max(col_lo, col_hi)) + 0.5) * cell
    yc = mask.origin_y + (row + 0.5) * cell
    inside = (yc - y) ** 2 + (xs - x) ** 2 <= radius * radius
    west = int(np.sum(xs < x))
    # false then true west of the query, true then false from it on
    assert list(inside[:west]) == sorted(inside[:west])
    assert list(inside[west:]) == sorted(inside[west:], reverse=True)
    mid = col_lo + west
    return mid - int(inside[:west].sum()), mid + int(inside[west:].sum())


# row 0 of a 1 m mask, radius 10: the query lies 1.7e-7 m east of column 10's
# center and 10 m less two units in the last place north of the row, so
# r2 - dy2 is 2.8e-14 and the exact sum rounds down to r2: column 10 is
# inside, while the sqrt estimate puts the run's west end 1.7e-9 columns
# east of it. Only the sqrt(eps) * rho term of the margin settles the pair.
_TANGENT_ROW = (RasterGrid(0.0, 0.0, 1.0, np.zeros((21, 21))), 10.0,
                np.array([[10.500000170273267, 10.499999999999998]]))


# a 0.1 m mask at 2.3e6 m, radius half a tenth of a cell: the disk's east
# end lies on column 5's center in decimal; the estimate puts it 7.5e-10
# columns east of that center, which the exact test leaves outside. Only the
# rounding of the column centers and of the query, far from the origin,
# make the margin wide enough to settle the pair.
_FAR_TIE_MASK = RasterGrid(2.3e6, -2.3e6, 0.1, np.zeros((4, 24)))
_FAR_TIE = (_FAR_TIE_MASK, 0.05 * 0.1,
            np.array([[2300000.455, cell_centers(_FAR_TIE_MASK, np.array([[1, 0]]))[0, 1]]]))


@settings(max_examples=300, deadline=None)
@given(run_cases(), st.sampled_from((1, 7, 40, 1 << 14)))
@example(_TANGENT_ROW, 1 << 14)
@example(_FAR_TIE, 1 << 14)
@example((_ON_CIRCLE, 500.0, _ON_CIRCLE_QUERY), 1 << 14)
def test_runs_off_the_margin_are_exact(case, tile_pairs):
    # every (query, row) pair of a window comes once; a pair the kernel does
    # not settle already has the exact test's run
    mask, radius, pts = case
    seen = []
    with mock.patch.object(indicators, "COVERAGE_CHUNK_PAIRS", tile_pairs):
        for rows, queries, a, b, near in _disk_runs(mask, pts[:, 0], pts[:, 1], radius):
            assert a.shape == b.shape == near.shape
            assert near.shape == (rows.stop - rows.start, queries.stop - queries.start)
            assert near.size <= tile_pairs
            for i, row in enumerate(range(rows.start, rows.stop)):
                for j, q in enumerate(range(queries.start, queries.stop)):
                    x, y = pts[q]
                    lo, hi = _window_rows(mask, y, radius)
                    if not lo <= row < hi:
                        assert a[i, j] == b[i, j] and not near[i, j]
                        continue
                    seen.append((q, row))
                    if not near[i, j]:
                        assert (a[i, j], b[i, j]) == _exact_run(mask, x, y, row, radius)
    want = [(q, row) for q, (x, y) in enumerate(pts)
            for row in range(*_window_rows(mask, y, radius))]
    assert sorted(seen) == want


@settings(max_examples=100, deadline=None)
@given(coverage_cases(), st.data())
def test_permuted_queries_give_permuted_results(case, data):
    mask, radius, pts = case
    perm = data.draw(st.permutations(range(len(pts))))
    whole = greenspace_coverage(mask, pts[:, 0], pts[:, 1], radius)
    got = greenspace_coverage(mask, pts[perm, 0], pts[perm, 1], radius)
    assert _bits(got) == _bits(whole[perm])


def test_permuted_queries_across_tiles():
    # 2000 queries over a 200-row mask, many sharing a y: many tiles, and
    # ties the sort by y must not let into the result
    rng = np.random.default_rng(5)
    mask = RasterGrid(2.3e6, -1.1e5, 5.0, (rng.random((200, 200)) < 0.4).astype(float))
    xs = mask.origin_x + (rng.integers(-20, 220, 2000) + 0.5) * mask.cell
    ys = mask.origin_y + (rng.integers(-20, 220, 2000) + rng.choice([0.0, 0.5], 2000)) * mask.cell
    whole = greenspace_coverage(mask, xs, ys, 300.0)
    perm = rng.permutation(2000)
    assert _bits(greenspace_coverage(mask, xs[perm], ys[perm], 300.0)) == _bits(whole[perm])
    assert _bits(whole[:200]) == _bits([_coverage_oracle(mask, x, y, 300.0)
                                        for x, y in zip(xs[:200], ys[:200])])


def test_exposure_shaped_call_matches_oracle():
    # the population call of the 60-building benchmark city: 60 cells of a
    # 100 m grid over a 241-row, 5 m mask, each disk spanning about 201 rows,
    # so one tile holds every row of those few queries
    rng = np.random.default_rng(23)
    mask = RasterGrid(0.0, 0.0, 5.0, (rng.random((241, 241)) < 0.3).astype(float))
    cells = rng.choice(144, 60, replace=False)
    xs = (cells % 12 + 0.5) * 100.0
    ys = (cells // 12 + 0.5) * 100.0
    tiles = list(_disk_runs(mask, np.sort(xs), np.sort(ys), 500.0))
    assert len(tiles) == 1 and tiles[0][0] == slice(0, 241)
    _assert_oracle_bits(mask, np.column_stack([xs, ys]), 500.0)


# ---------------------------------------------------------------------------
# callers
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(masks(), st.integers(1, 8), st.integers(1, 8), st.floats(0.5, 20.0),
       st.lists(st.sampled_from((0.0, 1.0, 3.0, 17.5, 0.1, float("nan"))),
                min_size=64, max_size=64))
def test_exposure_matches_loop_oracle_bits(mask, nrows, ncols, radius_cells, pops):
    pop_values = np.array(pops[:nrows * ncols]).reshape(nrows, ncols)
    pop_values[0, 0] = 2.0  # never an empty population
    population = RasterGrid(mask.origin_x - 7 * mask.cell, mask.origin_y,
                            3.5 * mask.cell, pop_values)
    radius = radius_cells * mask.cell
    got = greenspace_exposure(mask, population, radius)
    assert _bits([got]) == _bits([_exposure_oracle(mask, population, radius)])


def test_building_coverage_is_mean_of_scalar_oracle():
    rng = np.random.default_rng(11)
    mask = RasterGrid(0.0, 0.0, 5.0, (rng.random((60, 60)) < 0.4).astype(float))
    roof_grid = RasterGrid(0.5, -0.5, 1.0, np.zeros((300, 300)))
    # each building's cells, its segments' one after another
    buildings = [np.concatenate([rng.integers(0, 300, (k, 2)) for k in ks])
                 for ks in ((5, 1, 30), (1,), (17, 4))]
    got = indicators.building_coverage_rate(buildings, mask, roof_grid, radius=120.0)
    want = [float(np.mean([_coverage_oracle(mask, x, y, 120.0)
                           for x, y in cell_centers(roof_grid, cells).tolist()]))
            for cells in buildings]
    assert _bits(got) == _bits(want)
    assert all(type(rate) is float for rate in got)
    assert indicators.building_coverage_rate([], mask, roof_grid) == []
    with pytest.raises(ValueError, match="building has no segments to evaluate"):
        indicators.building_coverage_rate([buildings[0], np.empty((0, 2), dtype=np.int64)],
                                          mask, roof_grid)


def test_coverage_work_is_one_call_per_mask(small_city, tmp_path, monkeypatch):
    # guards against per-building or per-cell coverage queries coming back:
    # one kernel call for every roof cell of every potential building in the
    # indicators stage, one per mask in greenspace_exposure
    out = tmp_path / "out"
    shutil.copytree(small_city / "out", out)
    buildings = ingest.read_table(out / "buildings.csv", cli.TABLES["buildings.csv"].columns)
    segments = ingest.read_table(out / "segments.csv", cli.TABLES["segments.csv"].columns)
    potential = {bid for bid, p in zip(buildings["id"], buildings["potential"]) if p}
    assert len(potential) > 1
    roof_cells = sum(n for bid, chosen, n in zip(segments["building_id"], segments["qualifying"],
                                                 segments["n_cells"])
                     if chosen and bid in potential)
    calls = []
    kernel = indicators.greenspace_coverage

    def counted(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(indicators, "greenspace_coverage", counted)
    monkeypatch.setattr(benefits, "greenspace_coverage", counted)
    config = str(small_city / "config.txt")
    assert cli.main(["indicators", "--config", config, "--out", str(out)]) == 0
    assert [np.size(x) for x in calls] == [roof_cells]

    calls.clear()
    mask = RasterGrid(0.0, 0.0, 5.0, np.ones((40, 40)))
    population = RasterGrid(0.0, 0.0, 20.0, np.ones((6, 6)))
    for m in (mask, RasterGrid(0.0, 0.0, 5.0, np.zeros((40, 40)))):
        greenspace_exposure(m, population, radius=50.0)
    assert [np.size(x) for x in calls] == [36, 36]
