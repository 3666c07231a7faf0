"""The whole-array normal tie-break against the per-cell loop it replaced.

``roofs.local_normals`` scores every tying quadrant of every ambiguous cell
in whole-array blocks (``roofs._window_scores``): each window's plane is
solved by the cofactors of ``_PlaneFit.plane``, elementwise over a block's
windows, and the score is rounded to 1e-9. The per-cell ``lstsq`` loop below is its earlier
body, kept as an oracle with the same rounding: the quadrant choices, and
so the gradients, must match to the last bit. The unrounded scores must
agree with ``lstsq`` within 1e-10. The stencil planes come from the
full-grid oracle in ``fullgrid_kernels``. Extract calls no LAPACK solver
and no ``einsum``.
"""
import filecmp
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgrid_kernels import quadrant_planes, scatter_normals
from greenprior import cli, roofs
from greenprior.geocore import RasterGrid
from greenprior.roofs import QUADRANTS, _window_scores, local_normals

# ---------------------------------------------------------------------------
# oracle: the earlier per-cell body
# ---------------------------------------------------------------------------


def _old_window_score(V, h, r, c, dr, dc):
    n, m = V.shape
    pts = []
    for i in (0, 1, 2):
        for j in (0, 1, 2):
            rr, cc = r + i * dr, c + j * dc
            if 0 <= rr < n and 0 <= cc < m and np.isfinite(V[rr, cc]):
                pts.append((j * dc * h, i * dr * h, V[rr, cc]))
    if len(pts) < 4:
        return 0.0
    arr = np.array(pts)
    design = np.column_stack([arr[:, 0], arr[:, 1], np.ones(len(pts))])
    coef, *_ = np.linalg.lstsq(design, arr[:, 2], rcond=None)
    return float(np.max(np.abs(design @ coef - arr[:, 2])))


def _old_local_normals(dsm):
    V = dsm.values
    h = dsm.cell
    quads = quadrant_planes(V, h)
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
    for r, c in zip(*np.nonzero(ambiguous)):
        scored = []
        for q, (a, b, res) in enumerate(quads):
            if not np.isfinite(a[r, c]) or res[r, c] > best_res[r, c] + 1e-12:
                continue
            dr, dc = QUADRANTS[q]
            scored.append((round(_old_window_score(V, h, int(r), int(c), dr, dc), 9), q))
        _, q = min(scored)
        best_a[r, c] = quads[q][0][r, c]
        best_b[r, c] = quads[q][1][r, c]
    return best_a, best_b, best_res


# ---------------------------------------------------------------------------
# roof surfaces
# ---------------------------------------------------------------------------


@st.composite
def roofs_dsm(draw):
    """A gable, hip or stepped roof on a small grid, optionally with
    centimetre noise and holes, in a cell size of 0.5, 1 or 2 m."""
    kind = draw(st.sampled_from(["gable", "hip", "stepped"]))
    nrows, ncols = draw(st.integers(3, 16)), draw(st.integers(3, 16))
    cell = draw(st.sampled_from([0.5, 1.0, 2.0]))
    base = draw(st.sampled_from([0.0, 12.34, 57.1]))
    pitch = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 0.3333]))
    y, x = np.mgrid[0:nrows, 0:ncols] * cell
    if kind == "gable":
        ridge = draw(st.integers(0, ncols - 1)) * cell + draw(st.sampled_from([0.0, 0.5])) * cell
        z = base - pitch * np.abs(x - ridge)
        if draw(st.booleans()):
            z = z.T.copy()
    elif kind == "hip":
        cy, cx = (nrows - 1) * cell / 2.0, (ncols - 1) * cell / 2.0
        half = draw(st.sampled_from([0.0, 1.0, 2.5])) * cell
        z = base - pitch * np.maximum(np.abs(x - cx) - half, np.abs(y - cy))
    else:
        steps = draw(st.lists(st.integers(1, ncols - 1), min_size=1, max_size=3))
        height = draw(st.sampled_from([0.5, 1.5, 3.0]))
        z = base + height * sum((x >= k * cell).astype(float) for k in steps)
    if draw(st.booleans()):
        noise = draw(st.lists(st.integers(-3, 3), min_size=z.size, max_size=z.size))
        z = z + np.reshape(noise, z.shape) * 0.01
    holes = draw(st.lists(st.tuples(st.integers(0, z.shape[0] - 1),
                                    st.integers(0, z.shape[1] - 1)), max_size=6))
    for r, c in holes:
        z[r, c] = np.nan
    return RasterGrid(0.0, 0.0, cell, z)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=150, deadline=None)
@given(dsm=roofs_dsm())
def test_tie_break_matches_per_cell_loop(dsm):
    new = scatter_normals(dsm)
    old = _old_local_normals(dsm)
    for got, want in zip(new, old):
        assert _bits(got) == _bits(want)


@settings(max_examples=60, deadline=None)
@given(dsm=roofs_dsm())
def test_window_scores_match_lstsq(dsm):
    V = dsm.values
    rr, cc = np.nonzero(np.isfinite(V))
    surf = dsm.occupied_cells()
    for dr, dc in QUADRANTS:
        got = _window_scores(surf, np.append(surf.values, np.nan), rr, cc,
                             np.full(rr.size, dr), np.full(rr.size, dc))
        want = [_old_window_score(V, dsm.cell, int(r), int(c), dr, dc) for r, c in zip(rr, cc)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def test_extract_calls_no_solve_lstsq_or_einsum(small_city, tmp_path, monkeypatch):
    # a symmetric gable has ambiguous cells along its ridge
    _, x = np.mgrid[0:12, 0:15].astype(float)
    dsm = RasterGrid(0.0, 0.0, 1.0, 20.0 - 0.5 * np.abs(x - 7.0))

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"extract must not call {name}")
        return call

    monkeypatch.setattr(np.linalg, "solve", refuse("np.linalg.solve"))
    monkeypatch.setattr(np.linalg, "lstsq", refuse("np.linalg.lstsq"))
    monkeypatch.setattr(np, "einsum", refuse("np.einsum"))
    got = scatter_normals(dsm)
    out = tmp_path / "out"
    code = cli.main(["extract", "--config", str(small_city / "config.txt"), "--out", str(out)])
    monkeypatch.undo()
    assert code == 0
    for new, old in zip(got, _old_local_normals(dsm)):
        assert _bits(new) == _bits(old)
    for name in ("segments.csv", "cells.csv", "buildings.csv", "dsm.asc"):
        assert filecmp.cmp(out / name, small_city / "out" / name, shallow=False), name


def _gables(side, period):
    """Gables of the given period across a side x side surface; at a short
    period nearly every cell ties quadrants with different gradients."""
    _, x = np.mgrid[0:side, 0:side].astype(float)
    return RasterGrid(0.0, 0.0, 1.0, 20.0 - 0.5 * np.abs(x % period - period / 2)).occupied_cells()


def _tie_pairs(surf, monkeypatch):
    """The (cell, quadrant) pairs local_normals scores on surf."""
    pairs = []

    def counted(surf, padded, r, *rest):
        pairs.append(r.size)
        return _window_scores(surf, padded, r, *rest)

    monkeypatch.setattr(roofs, "_window_scores", counted)
    local_normals(surf)
    monkeypatch.undo()
    return sum(pairs)


@pytest.mark.parametrize("block", [1, 7, 1 << 30])
def test_window_block_size_does_not_move_a_bit(monkeypatch, block):
    surf = _gables(24, 6)
    assert _tie_pairs(surf, monkeypatch) > 7 * 20
    want = local_normals(surf)
    monkeypatch.setattr(roofs, "WINDOW_BLOCK_PAIRS", block)
    for got, expected in zip(local_normals(surf), want):
        assert _bits(got) == _bits(expected)


# local_normals peaked at 288 bytes per cell on _gables(300, 4) (numpy 2.4),
# with two tie pairs per cell; the bound allows about 1.4 times that.
# Scoring every tie pair in one batch peaked at 996.
NORMALS_PEAK_BYTES_PER_CELL = 400


def test_local_normals_peak_memory_follows_the_cells(monkeypatch):
    surf = _gables(300, 4)
    surf.neighbours()
    assert _tie_pairs(surf, monkeypatch) >= 1.9 * surf.flat.size
    tracemalloc.start()
    try:
        local_normals(surf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= NORMALS_PEAK_BYTES_PER_CELL * surf.flat.size
