"""The surface model held as its occupied cells (``geocore.SparseGrid``)
against the dense grid it stands for.

``roofs.candidate_roof_points`` takes each cell's maximum by a stable sort
of the points' flat indices and ``np.maximum.reduceat``, where the dense
code ran ``np.maximum.at`` over a grid of the whole scene; it must give the
same cells and bits, signed zeros included, whatever the point order.
The lookups of a SparseGrid (``positions``, ``neighbours``, ``subset``)
must agree with indexing the dense grid. (``tests/test_ingest.py`` checks
that a raster written from its occupied cells has the bytes of the
per-element writer of the dense grid.)
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgrid_kernels import densify
from greenprior.geocore import (BUILDING, GROUND, NEIGH8, PointCloud, RasterGrid, cells_of,
                               snapped_grid)
from greenprior.roofs import candidate_roof_points


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# rasterize: the same bits as np.maximum.at on a dense grid
# ---------------------------------------------------------------------------

def _dense_max(pc, cell):
    """The dense rasterization: np.maximum.at over the snapped grid."""
    pts = pc.points_of(BUILDING)
    grid = snapped_grid(pts, cell)
    grid.values[:] = -np.inf
    np.maximum.at(grid.values, cells_of(grid, pts), pts[:, 2])
    grid.values[np.isinf(grid.values)] = np.nan
    return grid


def _assert_same_raster(pc, cell):
    got, want = densify(candidate_roof_points(pc, cell)), _dense_max(pc, cell)
    assert (got.origin_x, got.origin_y, got.cell) == (want.origin_x, want.origin_y, want.cell)
    assert _bits(got.values) == _bits(want.values)


# few distinct elevations, so that cells hold ties, and both zeros
ELEVATIONS = (-0.0, 0.0, 3.5, 12.25, -7.0)


@st.composite
def clouds(draw):
    """Points on a few cells of a small grid, in shuffled order, some of
    them ground points, with elevations that tie."""
    cell = draw(st.sampled_from((0.5, 1.0, 3.0)))
    n = draw(st.integers(1, 60))
    xy = np.array(draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                                min_size=n, max_size=n)), dtype=float) * 0.7
    z = draw(st.lists(st.sampled_from(ELEVATIONS), min_size=n, max_size=n))
    cls = draw(st.lists(st.sampled_from((BUILDING, BUILDING, GROUND)), min_size=n, max_size=n))
    cls[0] = BUILDING
    order = draw(st.permutations(range(n)))
    xyz = np.column_stack([xy, z])[order]
    return PointCloud(xyz, np.array(cls, dtype=np.uint8)[order]), cell


@settings(max_examples=200, deadline=None)
@given(cloud=clouds())
def test_rasterize_matches_dense_maximum_at(cloud):
    _assert_same_raster(*cloud)


@pytest.mark.parametrize("zs", [(-0.0, 0.0), (0.0, -0.0), (-0.0, 0.0, -0.0), (0.0, -0.0, 0.0)])
def test_rasterize_keeps_the_file_order_of_signed_zeros(zs):
    # one cell holds both zeros; which one a running maximum keeps depends
    # on the order it meets them, and np.maximum.at meets them in file order
    xyz = [(0.5 + 0.1 * k, 0.5, z) for k, z in enumerate(zs)] + [(3.5, 0.5, 1.0)]
    pc = PointCloud(np.array(xyz), np.full(len(xyz), BUILDING, dtype=np.uint8))
    _assert_same_raster(pc, 1.0)


def test_rasterize_of_a_large_random_cloud_matches_dense_maximum_at():
    rng = np.random.default_rng(5)
    xyz = np.column_stack([rng.uniform(0, 300, 20000), rng.uniform(0, 200, 20000),
                           np.round(rng.normal(10.0, 5.0, 20000), 1)])
    pc = PointCloud(xyz, rng.choice([BUILDING, GROUND], 20000).astype(np.uint8))
    _assert_same_raster(pc, 1.0)


# ---------------------------------------------------------------------------
# lookups against the dense grid
# ---------------------------------------------------------------------------

@st.composite
def occupancies(draw):
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    occ = np.array(draw(st.lists(st.booleans(), min_size=nrows * ncols,
                                 max_size=nrows * ncols))).reshape(nrows, ncols)
    return RasterGrid(0.0, 0.0, 1.0, np.where(occ, np.arange(occ.size).reshape(occ.shape), np.nan))


def _dense_position(grid, r, c):
    """The position of cell (r, c) among the occupied cells in row-major
    order, or their count where it is empty or off the grid."""
    occ = ~np.isnan(grid.values)
    if 0 <= r < grid.nrows and 0 <= c < grid.ncols and occ[r, c]:
        return int(occ.ravel()[:r * grid.ncols + c].sum())
    return int(occ.sum())


@settings(max_examples=200, deadline=None)
@given(grid=occupancies(), data=st.data())
def test_lookups_match_the_dense_grid(grid, data):
    surf = grid.occupied_cells()
    assert surf.values.tolist() == grid.values[~np.isnan(grid.values)].tolist()
    rr, cc = np.mgrid[-2:grid.nrows + 2, -2:grid.ncols + 2]
    want = [[_dense_position(grid, r, c) for c in range(-2, grid.ncols + 2)]
            for r in range(-2, grid.nrows + 2)]
    assert surf.positions(rr, cc).tolist() == want

    rows, cols = np.divmod(surf.flat, grid.ncols)
    table = surf.neighbours()
    assert table.shape == (surf.flat.size, len(NEIGH8))
    assert table.tolist() == [[_dense_position(grid, r + dr, c + dc) for dr, dc in NEIGH8]
                              for r, c in zip(rows.tolist(), cols.tolist())]

    # a subset renumbers the table it has; the kept cells' own search agrees
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=surf.flat.size,
                                       max_size=surf.flat.size)), dtype=bool)
    part = surf.subset(keep)
    assert part.flat.tolist() == surf.flat[keep].tolist()
    assert part.values.tolist() == surf.values[keep].tolist()
    fresh = densify(part).occupied_cells()
    assert fresh.table is None
    assert part.table.tolist() == fresh.neighbours().tolist()
