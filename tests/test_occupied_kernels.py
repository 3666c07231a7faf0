"""The occupied-cell wall filter, local normals and component labeling
against the full-grid kernels they replaced (kept in ``fullgrid_kernels``).

``roofs.filter_wall_edges`` and ``roofs.local_normals`` read the
neighbours of each occupied cell through the surface's neighbour table,
instead of shifting and masking the whole grid; ``filter_wall_edges``
returns the kept cells and ``local_normals`` one value per occupied cell,
made dense here. Over generated
scenes, with roofs 1-3 cells apart, touching each grid edge, single cells
and one-cell-wide strips, they must give the same float bits; and a roof
must get the same bits wherever it lies in a large empty grid.
``roofs.label_components`` hooks and compresses the occupied cells instead
of labeling the grid with ``scipy.ndimage``; read back as (row, col)
cells, it must give the same component lists, in the same order.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fullgrid_kernels
from greenprior.geocore import RasterGrid
from fullgrid_kernels import densify
from gate_oracles import component_cells
from greenprior.roofs import QUADRANTS, _quadrant_planes, filter_wall_edges


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# generated scenes
# ---------------------------------------------------------------------------

PITCHES = (0.0, 0.25, 0.5, -0.3333, 1.0)


@st.composite
def roof_patch(draw, h, w):
    """Elevations of an h x w roof: a plane, a gable or a step, rounded to
    centimetres so that equally flat stencils tie, with optional holes."""
    y, x = np.mgrid[0:h, 0:w].astype(float)
    base = draw(st.sampled_from((5.0, 12.34, 30.0)))
    pa, pb = draw(st.sampled_from(PITCHES)), draw(st.sampled_from(PITCHES))
    kind = draw(st.sampled_from(("plane", "gable", "step")))
    if kind == "gable":
        z = base - pa * np.abs(x - draw(st.integers(0, w - 1))) + pb * y
    elif kind == "step":
        z = base + pa * x + draw(st.sampled_from((0.5, 1.0, 2.5))) * (x >= draw(st.integers(0, w)))
    else:
        z = base + pa * x + pb * y
    if draw(st.booleans()):
        z = z + np.reshape(draw(st.lists(st.integers(-3, 3), min_size=z.size,
                                         max_size=z.size)), z.shape) * 0.01
    z = np.round(z, 2)
    for r, c in draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(0, w - 1)),
                              max_size=2)):
        z[r, c] = np.nan
    return z


@st.composite
def scenes(draw):
    """A NaN grid holding a few roofs: each a single cell, a one-cell strip
    or a block, placed against a grid edge or 1-3 cells from the last one."""
    nrows, ncols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    V = np.full((nrows, ncols), np.nan)
    r0 = c0 = h = w = 0
    for _ in range(draw(st.integers(0, 5))):
        last = r0, c0, r0 + h, c0 + w
        shape = draw(st.sampled_from(("cell", "row", "column", "block")))
        h = 1 if shape in ("cell", "row") else draw(st.integers(1, nrows))
        w = 1 if shape in ("cell", "column") else draw(st.integers(1, ncols))
        place = draw(st.sampled_from(("near", "top", "bottom", "left", "right", "anywhere")))
        if place == "near":  # beside or above the last roof, 1-3 empty cells between
            gap = draw(st.integers(1, 3))
            r0, c0 = (last[0], last[3] + gap) if draw(st.booleans()) else (last[2] + gap, last[1])
        else:
            r0, c0 = draw(st.integers(0, nrows - h)), draw(st.integers(0, ncols - w))
            r0 = {"top": nrows - h, "bottom": 0}.get(place, r0)
            c0 = {"left": 0, "right": ncols - w}.get(place, c0)
        r0, c0 = min(r0, nrows - h), min(c0, ncols - w)
        V[r0:r0 + h, c0:c0 + w] = draw(roof_patch(h, w))
    return RasterGrid(0.0, 0.0, draw(st.sampled_from((0.5, 1.0, 2.0))), V)


# ---------------------------------------------------------------------------
# same bits as the full-grid kernels
# ---------------------------------------------------------------------------

EMPTY = RasterGrid(0.0, 0.0, 1.0, np.full((3, 4), np.nan))
SINGLE = RasterGrid(0.0, 0.0, 1.0, np.array([[7.0]]))


@settings(max_examples=300, deadline=None)
@given(dsm=scenes(), threshold=st.sampled_from((0.5, 1.0, 3.0)))
@example(dsm=EMPTY, threshold=1.0)
@example(dsm=SINGLE, threshold=1.0)
def test_wall_filter_matches_full_grid(dsm, threshold):
    got = densify(filter_wall_edges(dsm, threshold))
    want = fullgrid_kernels.filter_wall_edges(dsm, threshold)
    assert _bits(got.values) == _bits(want.values)
    assert (got.origin_x, got.origin_y, got.cell) == (want.origin_x, want.origin_y, want.cell)


@settings(max_examples=300, deadline=None)
@given(dsm=scenes(), filtered=st.booleans())
@example(dsm=EMPTY, filtered=False)
@example(dsm=SINGLE, filtered=False)
def test_local_normals_match_full_grid(dsm, filtered):
    surf = dsm
    if filtered:  # as extract_all calls it: on the kept cells, their table renumbered
        surf = filter_wall_edges(dsm)
        dsm = densify(surf)
    want_grids = fullgrid_kernels.local_normals(dsm)
    for got, want in zip(fullgrid_kernels.scatter_normals(surf), want_grids):
        assert got.shape == want.shape
        assert _bits(got) == _bits(want)


@settings(max_examples=150, deadline=None)
@given(dsm=scenes())
def test_quadrant_planes_match_full_grid_on_occupied_cells(dsm):
    surf = dsm.occupied_cells()
    got = _quadrant_planes(surf.values, surf.neighbours(), dsm.cell)
    want = fullgrid_kernels.quadrant_planes(dsm.values, dsm.cell)
    assert len(got) == len(want) == len(QUADRANTS)
    for g, w in zip(got, want):
        for g_arr, w_arr in zip(g, w):
            assert _bits(g_arr) == _bits(w_arr.flat[surf.flat])


# ---------------------------------------------------------------------------
# component labeling: the same lists as scipy.ndimage
# ---------------------------------------------------------------------------


def _occupied(*rows):
    """A grid from rows of '#' (occupied) and '.' (empty), top row first as
    row 0."""
    return RasterGrid(0.0, 0.0, 1.0, np.array([[1.0 if ch == "#" else np.nan for ch in row]
                                               for row in rows]))


@st.composite
def occupancies(draw):
    """A grid of random occupancy, of any density."""
    nrows, ncols = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    density = draw(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)))
    bits = draw(st.lists(st.floats(0.0, 1.0), min_size=nrows * ncols, max_size=nrows * ncols))
    occ = np.reshape(bits, (nrows, ncols)) < density
    return RasterGrid(0.0, 0.0, 1.0, np.where(occ, 1.0, np.nan))


SPIRAL = _occupied("#########",
                   "........#",
                   "#######.#",
                   "#.....#.#",
                   "#.###.#.#",
                   "#.#...#.#",
                   "#.#####.#",
                   "#.......#",
                   "#########")
# both components start at (min row, min col) = (0, 5); the lone cell comes
# first in row-major order, and so first in the list
TIE = _occupied(".....#....#",
                ".........#.",
                "........#..",
                ".......#...",
                "......#....",
                ".....#.....")


@settings(max_examples=300, deadline=None)
@given(dsm=st.one_of(occupancies(), scenes()))
@example(dsm=EMPTY)
@example(dsm=SINGLE)
@example(dsm=_occupied("#######", "#######", "#######", "#######"))
@example(dsm=_occupied("..#..", "#...#", ".....", "..#..", "#...#"))  # cells on every edge
@example(dsm=_occupied("#...#.", ".#.#..", "..#...", ".#.#..", "#...#."))  # diagonals only
@example(dsm=_occupied("#.#.#.#", "#.#.#.#", "#.#.#.#", "#######"))  # U shapes joined at the bottom
@example(dsm=_occupied("#####", "....#", "#####", "#....", "#####"))  # a serpentine
@example(dsm=SPIRAL)
@example(dsm=TIE)
def test_components_match_scipy_labeling(dsm):
    assert component_cells(dsm) == fullgrid_kernels.label_components(dsm)


def test_tied_components_keep_row_major_order():
    comps = component_cells(TIE)
    assert [min(comp) for comp in comps] == [(0, 5), (0, 10)]
    assert [(min(r for r, _ in comp), min(c for _, c in comp)) for comp in comps] == [(0, 5)] * 2
    assert len(component_cells(SPIRAL)) == 1


# ---------------------------------------------------------------------------
# a roof gives the same bits wherever it lies
# ---------------------------------------------------------------------------


def _hip_roof():
    y, x = np.mgrid[0:9, 0:13].astype(float)
    z = 20.0 - 0.5 * np.maximum(np.abs(x - 6.0) - 2.0, np.abs(y - 4.0))
    z[4, 2] = np.nan  # a hole next to the ridge
    z[0, 12] = 27.0  # a chimney cell the wall filter drops
    return z


@pytest.mark.parametrize("where", ["south-west", "north-east", "west edge", "north edge",
                                   "middle"])
def test_roof_bits_do_not_depend_on_its_place_in_the_grid(where):
    roof = _hip_roof()
    h, w = roof.shape
    nrows, ncols = 300, 400
    r0, c0 = {"south-west": (0, 0), "north-east": (nrows - h, ncols - w),
              "west edge": (140, 0), "north edge": (nrows - h, 190),
              "middle": (150, 200)}[where]
    big = np.full((nrows, ncols), np.nan)
    big[r0:r0 + h, c0:c0 + w] = roof
    alone = RasterGrid(0.0, 0.0, 1.0, roof)
    placed = RasterGrid(0.0, 0.0, 1.0, big)
    own = np.s_[r0:r0 + h, c0:c0 + w]
    outside = np.ones(big.shape, dtype=bool)
    outside[own] = False

    got = densify(filter_wall_edges(placed)).values
    assert _bits(got[own]) == _bits(densify(filter_wall_edges(alone)).values)
    assert np.isnan(got[outside]).all()

    for dsm_alone, dsm_placed in ((alone, placed),
                                  (filter_wall_edges(alone), filter_wall_edges(placed))):
        a, b, curvature = fullgrid_kernels.scatter_normals(dsm_placed)
        for got, want in zip((a, b, curvature), fullgrid_kernels.scatter_normals(dsm_alone)):
            assert _bits(got[own]) == _bits(want)
        assert np.isnan(a[outside]).all() and np.isnan(b[outside]).all()
        assert (curvature[outside] == np.inf).all()
    # and the roof alone matches the full-grid oracle
    want_grids = fullgrid_kernels.local_normals(alone)
    for got, want in zip(fullgrid_kernels.scatter_normals(alone), want_grids):
        assert _bits(got) == _bits(want)
