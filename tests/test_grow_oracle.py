"""Region growing against the numpy-per-cell code it replaced.

``roofs._grow_one`` decides growth and eviction on a plane solved by
cofactors from the fit's nine running sums, and on a cosine computed in
Python floats; a guard sends a decision to the numpy solve or the numpy
unit normals wherever the two could disagree. ``_OldPlaneFit``,
``_old_grow_one`` and ``_old_grow_segments`` below are the earlier bodies
(one ``np.outer``, ``matrix_rank`` and ``solve`` per grown cell, eviction
capped at 50 rounds), kept as oracles: every segment must have the same
member cells and the same plane and slope bits. The eviction sweep tests
all members at once (``roofs._misfits``); it is also checked against
``_PlaneFit.holds`` called row by row.
"""
import copy
import filecmp
import math
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fullgrid_kernels import scatter_normals
from greenprior import cli, roofs
from greenprior.geocore import RasterGrid
from greenprior.roofs import (
    NEIGH8,
    RoofSegment,
    _normals_agree,
    _PlaneFit,
    _unit_normal,
    grow_segments,
    label_components,
    local_normals,
)

# ---------------------------------------------------------------------------
# oracles: the earlier bodies
# ---------------------------------------------------------------------------


class _OldPlaneFit:
    def __init__(self, fallback_ab):
        self.fallback_ab = fallback_ab
        self.S = np.zeros((3, 3))
        self.t = np.zeros(3)
        self.n = 0

    def add(self, dx, dy, z):
        v = np.array([dx, dy, 1.0])
        self.S += np.outer(v, v)
        self.t += z * v
        self.n += 1

    def rebuild(self, rows):
        self.S[:] = 0.0
        self.t[:] = 0.0
        self.n = 0
        for dx, dy, z in rows:
            self.add(dx, dy, z)

    def plane(self):
        if self.n >= 3 and np.linalg.matrix_rank(self.S, tol=1e-8) == 3:
            a, b, c = np.linalg.solve(self.S, self.t)
            return float(a), float(b), float(c)
        a, b = self.fallback_ab
        c = (self.t[2] - a * self.S[0, 2] - b * self.S[1, 2]) / max(self.n, 1)
        return a, b, float(c)


def _old_grow_segments(component, dsm, normal_tol_deg=10.0, residual_tol_m=0.2, normals=None):
    if not component:
        return []
    if normals is None:
        normals = local_normals(dsm)
    A, B, curv = normals
    V = dsm.values
    h = dsm.cell
    comp = set(component)
    order = sorted(comp, key=lambda rc: (curv[rc], rc[0], rc[1]))
    cos_tol = math.cos(math.radians(normal_tol_deg))
    pool = set(comp)
    segments = []
    for seed in order:
        if seed not in pool:
            continue
        members = _old_grow_one(seed, pool, comp, dsm, A, B, curv, cos_tol, residual_tol_m)
        pool -= members
        cells = sorted(members)
        x0, y0 = dsm.cell_center(*seed)
        fallback = (float(A[seed]), float(B[seed])) if np.isfinite(curv[seed]) else (0.0, 0.0)
        fit = _OldPlaneFit(fallback)
        for r, c in cells:
            cx, cy = dsm.cell_center(r, c)
            fit.add(cx - x0, cy - y0, float(V[r, c]))
        a, b, c_loc = fit.plane()
        plane = (a, b, c_loc - a * x0 - b * y0)
        slope = math.degrees(math.atan(math.hypot(a, b)))
        segments.append(RoofSegment(cells, plane, slope, len(cells) * h * h))
    return segments


def _old_grow_one(seed, pool, comp, dsm, A, B, curv, cos_tol, residual_tol_m):
    V = dsm.values
    if not np.isfinite(curv[seed]):
        return {seed}
    seed_normal = _unit_normal(float(A[seed]), float(B[seed]))
    x0, y0 = dsm.cell_center(*seed)
    fit = _OldPlaneFit((float(A[seed]), float(B[seed])))
    members = {seed}
    rows = {seed: (0.0, 0.0, float(V[seed]))}
    fit.add(0.0, 0.0, float(V[seed]))
    a, b, c = fit.plane()

    queue = deque()
    for dr, dc in NEIGH8:
        nb = (seed[0] + dr, seed[1] + dc)
        if nb in comp:
            queue.append(nb)
    while queue:
        cell = queue.popleft()
        if cell in members or cell not in pool:
            continue
        if not np.isfinite(curv[cell]):
            continue
        if float(_unit_normal(float(A[cell]), float(B[cell])) @ seed_normal) < cos_tol:
            continue
        cx, cy = dsm.cell_center(*cell)
        dx, dy, z = cx - x0, cy - y0, float(V[cell])
        if abs(z - (a * dx + b * dy + c)) > residual_tol_m:
            continue
        members.add(cell)
        rows[cell] = (dx, dy, z)
        fit.add(dx, dy, z)
        a, b, c = fit.plane()
        for dr, dc in NEIGH8:
            nb = (cell[0] + dr, cell[1] + dc)
            if nb in comp and nb not in members:
                queue.append(nb)

    for _ in range(50):
        a, b, c = fit.plane()
        bad = [cell for cell, (dx, dy, z) in rows.items()
               if cell != seed and abs(z - (a * dx + b * dy + c)) > residual_tol_m]
        if not bad:
            break
        for cell in bad:
            members.discard(cell)
            del rows[cell]
        fit.rebuild(rows.values())

    reachable = {seed}
    stack = [seed]
    while stack:
        r, c = stack.pop()
        for dr, dc in NEIGH8:
            nb = (r + dr, c + dc)
            if nb in members and nb not in reachable:
                reachable.add(nb)
                stack.append(nb)
    return reachable


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _segments(grow, dsm, normal_tol_deg=10.0, residual_tol_m=0.2):
    # the oracle indexes full grids; grow_segments takes the per-cell form
    normals = local_normals(dsm) if grow is grow_segments else scatter_normals(dsm)
    return [(s.cells, _bits(s.plane), _bits(s.slope_deg), s.area_m2)
            for comp in label_components(dsm)
            for s in grow(comp, dsm, normal_tol_deg, residual_tol_m, normals)]


# ---------------------------------------------------------------------------
# roofs
# ---------------------------------------------------------------------------

# a noisy flat roof, in centimetres, on which growth takes cells that the
# final fit cannot hold, so eviction runs
EVICTING_ROOF = [[9.97, 10.13, 10.17], [10.19, 10.04, 9.86], [10.07, 10.03, 10.09],
                 [9.97, 9.96, 10.14], [9.94, 10.11, 9.98]]
ORIGINS = ((0.0, 0.0), (-3.0, 10.5), (512345.25, 5432109.75))
KINDS = ("gable", "hip", "step", "noisy_flat", "strip")


@st.composite
def roof_grids(draw):
    """A gable, hip, two-level step or noisy flat roof with optional noise
    and holes, or a one-cell-wide strip between two stepped lines."""
    kind = draw(st.sampled_from(KINDS))
    cell = draw(st.sampled_from((0.5, 1.0, 2.0)))
    ox, oy = draw(st.sampled_from(ORIGINS))
    z0 = draw(st.floats(5.0, 60.0))
    pitch = draw(st.floats(0.0, 0.8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "strip":
        # the middle line of three, offset from the outer two by a step
        n = draw(st.integers(3, 20))
        values = np.tile(z0 + pitch * cell * np.arange(n), (3, 1))
        values[1] -= draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 1.0))
        if draw(st.booleans()):
            values = values.T
    else:
        nrows, ncols = draw(st.integers(3, 14)), draw(st.integers(3, 14))
        ys, xs = (np.indices((nrows, ncols)) + 0.5) * cell
        width, height = ncols * cell, nrows * cell
        if kind == "gable":
            ridge = draw(st.integers(1, ncols - 1)) * cell
            values = z0 - pitch * np.abs(xs - ridge)
        elif kind == "hip":
            values = z0 + pitch * np.minimum(np.minimum(xs, width - xs),
                                             np.minimum(ys, height - ys))
        elif kind == "step":
            split = draw(st.integers(1, ncols - 1)) * cell
            values = np.where(xs < split, z0, z0 + draw(st.floats(0.05, 2.0)))
        else:
            values = z0 + pitch * 0.1 * xs + rng.uniform(-0.2, 0.2, xs.shape)
        values = values + draw(st.sampled_from((0.0, 0.01, 0.05))) * rng.standard_normal(xs.shape)
        holes = rng.random(xs.shape) < draw(st.sampled_from((0.0, 0.1)))
        values = np.where(holes, np.nan, values)
    return RasterGrid(ox, oy, cell, np.asarray(values, dtype=float))


_EVICTING = RasterGrid(0.0, 0.0, 1.0, np.array(EVICTING_ROOF))
# a one-cell-wide valley: its cells grow as one collinear segment
_STRIP = RasterGrid(0.0, 0.0, 1.0, np.array([[10.5] * 6, [10.0] * 6, [10.5] * 6]))
_SLOPED_STRIP = RasterGrid(*ORIGINS[2], 0.5, (20.0 + 0.1 * np.arange(8))[:, None]
                           + np.array([[0.0, 0.6, 0.0]]))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(dsm=roof_grids(), normal_tol_deg=st.sampled_from((5.0, 10.0, 20.0)),
       residual_tol_m=st.sampled_from((0.05, 0.2, 0.5)))
@example(dsm=_EVICTING, normal_tol_deg=10.0, residual_tol_m=0.2)
@example(dsm=_STRIP, normal_tol_deg=10.0, residual_tol_m=0.2)
@example(dsm=_SLOPED_STRIP, normal_tol_deg=10.0, residual_tol_m=0.2)
def test_grow_segments_matches_numpy_oracle(dsm, normal_tol_deg, residual_tol_m):
    assert _segments(grow_segments, dsm, normal_tol_deg, residual_tol_m) == \
        _segments(_old_grow_segments, dsm, normal_tol_deg, residual_tol_m)


def test_evicting_roof_evicts(monkeypatch):
    rebuilt = []
    rebuild = _PlaneFit.rebuild

    def counted(self, rows):
        rows = list(rows)
        rebuilt.append(len(rows))
        rebuild(self, rows)

    monkeypatch.setattr(_PlaneFit, "rebuild", counted)
    assert _segments(grow_segments, _EVICTING) == _segments(_old_grow_segments, _EVICTING)
    assert any(rebuilt)  # a rebuild over remaining members is an eviction round


@pytest.mark.parametrize("dsm", [_STRIP, _SLOPED_STRIP], ids=["valley", "sloped_ridge"])
def test_strip_takes_rank_guard(dsm, monkeypatch):
    guarded = []
    refit = _PlaneFit.refit

    def counted(self):
        refit(self)
        guarded.append(self.slack is None and self.n >= 3)

    monkeypatch.setattr(_PlaneFit, "refit", counted)
    assert _segments(grow_segments, dsm) == _segments(_old_grow_segments, dsm)
    assert any(guarded)


def _scalar_checked_misfits(switched_at):
    """roofs._misfits, checked against fit.holds called row by row on a copy
    of the fit; appends to switched_at the row at which the copy left the
    cofactor plane for the numpy one."""
    misfits = roofs._misfits

    def checked(fit, dx, dy, z, residual_tol_m):
        twin = copy.copy(fit)
        expected = []
        for i, row in enumerate(zip(dx.tolist(), dy.tolist(), z.tolist())):
            cofactor = twin.slack is not None
            expected.append(not twin.holds(*row, residual_tol_m))
            if cofactor and twin.slack is None:
                switched_at.append(i)
        bad = misfits(fit, dx, dy, z, residual_tol_m)
        assert bad.tolist() == expected
        assert (fit.coef, fit.slack) == (twin.coef, twin.slack)
        return bad

    return checked


@pytest.mark.parametrize("margin", [0.0, 0.01, 0.05, 0.1])
@settings(max_examples=40, deadline=None)
@given(dsm=roof_grids(), residual_tol_m=st.sampled_from((0.05, 0.2, 0.5)))
@example(dsm=_EVICTING, residual_tol_m=0.2)
def test_wide_residual_margin_matches_numpy_oracle(margin, dsm, residual_tol_m):
    # a wide margin sends many residual tests to the numpy plane, so close
    # calls land inside the vectorized eviction sweeps too
    with mock.patch.object(roofs, "RESIDUAL_MARGIN_M", margin), \
            mock.patch.object(roofs, "_misfits", _scalar_checked_misfits([])):
        assert _segments(grow_segments, dsm, 10.0, residual_tol_m) == \
            _segments(_old_grow_segments, dsm, 10.0, residual_tol_m)


@pytest.mark.parametrize("margin", [0.01, 0.05])
def test_evicting_roof_switches_plane_inside_a_sweep(margin, monkeypatch):
    # an eviction sweep of the noisy roof meets a close call after its first
    # row, so the rows before it keep the cofactor plane's verdict
    switched_at = []
    monkeypatch.setattr(roofs, "RESIDUAL_MARGIN_M", margin)
    monkeypatch.setattr(roofs, "_misfits", _scalar_checked_misfits(switched_at))
    assert _segments(grow_segments, _EVICTING) == _segments(_old_grow_segments, _EVICTING)
    assert any(i > 0 for i in switched_at)


@settings(max_examples=100, deadline=None)
@given(dsm=roof_grids(), shuffle=st.randoms(use_true_random=False))
def test_grow_segments_ignores_cell_order(dsm, shuffle):
    normals = local_normals(dsm)
    for comp in label_components(dsm):
        shuffled = list(comp)
        shuffle.shuffle(shuffled)
        assert [(s.cells, _bits(s.plane)) for s in grow_segments(shuffled, dsm, normals=normals)] \
            == [(s.cells, _bits(s.plane)) for s in grow_segments(comp, dsm, normals=normals)]


COORD = st.floats(-30.0, 30.0)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(COORD, COORD, st.floats(-5.0, 60.0)), min_size=3, max_size=12),
       probe=st.tuples(COORD, COORD, st.floats(-5.0, 60.0)))
@example(rows=[(0.0, 0.0, 10.0), (1.0, 0.0, 10.1), (0.0, 1.0, 9.95), (1.0, 1.0, 10.07),
               (2.0, 1.0, 10.13)], probe=(2.0, 2.0, 10.2))
def test_residual_decision_matches_numpy_at_the_tolerance(rows, probe):
    new, old = _PlaneFit((0.0, 0.0)), _OldPlaneFit((0.0, 0.0))
    for row in rows:
        new.add(*row)
        old.add(*row)
    a, b, c = old.plane()
    dx, dy, z = probe
    res = abs(z - (a * dx + b * dy + c))
    for tol in (np.nextafter(res, -np.inf), res, np.nextafter(res, np.inf)):
        new.refit()
        assert new.holds(dx, dy, z, float(tol)) == (not res > tol)


GRADIENT = st.floats(-2.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(cell=st.tuples(GRADIENT, GRADIENT), seed=st.tuples(GRADIENT, GRADIENT))
@example(cell=(0.1, -0.05), seed=(0.0, 0.0))
def test_normal_decision_matches_numpy_at_the_tolerance(cell, seed):
    (a, b), (sa, sb) = cell, seed
    q, sq = (1.0 / np.sqrt(np.array([a * a + b * b + 1.0, sa * sa + sb * sb + 1.0]))).tolist()
    cos = float(_unit_normal(a, b) @ _unit_normal(sa, sb))
    for tol in (np.nextafter(cos, -np.inf), cos, np.nextafter(cos, np.inf)):
        assert _normals_agree(a, b, q, sa, sb, sq, float(tol)) == (not cos < tol)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(COORD, COORD, st.floats(-5.0, 60.0)), min_size=3, max_size=12),
       coef=st.tuples(GRADIENT, GRADIENT, st.floats(-5.0, 60.0)), slack=st.floats(0.0, 0.1),
       residual_tol_m=st.sampled_from((0.05, 0.2, 0.5)))
@example(rows=[(0.0, 0.0, 10.0), (1.0, 0.0, 9.7), (0.0, 1.0, 10.0), (1.0, 1.0, 10.0),
               (2.0, 2.0, 10.0)], coef=(0.0, 0.0, 9.5), slack=0.0, residual_tol_m=0.2)
def test_eviction_sweep_copies_holds_row_by_row(rows, coef, slack, residual_tol_m):
    # a made-up plane stands in for the cofactor one; it can disagree with
    # the numpy plane outside the margin, so each verdict shows which plane
    # gave it (in the example, the first row is decided before the close
    # call on the second)
    fit = _PlaneFit((0.0, 0.0))
    for row in rows:
        fit.add(*row)
    fit.coef, fit.slack = coef, slack
    dx, dy, z = np.array(rows).T
    _scalar_checked_misfits([])(fit, dx, dy, z, residual_tol_m)


def test_close_normal_calls_go_to_numpy(monkeypatch):
    # an infinite margin makes every usable cell's normal test a close call
    asked = []
    agree = roofs._normals_agree

    def spied(*args):
        asked.append(args)
        return agree(*args)

    monkeypatch.setattr(roofs, "COS_MARGIN", math.inf)
    monkeypatch.setattr(roofs, "_normals_agree", spied)
    assert _segments(grow_segments, _EVICTING) == _segments(_old_grow_segments, _EVICTING)
    assert asked


def test_numpy_path_alone_gives_the_same_segments(small_city, tmp_path, monkeypatch):
    # infinite margins send every growth and eviction decision to numpy
    monkeypatch.setattr(roofs, "RESIDUAL_MARGIN_M", math.inf)
    monkeypatch.setattr(roofs, "COS_MARGIN", math.inf)
    out = tmp_path / "out"
    code = cli.main(["extract", "--config", str(small_city / "config.txt"), "--out", str(out)])
    assert code == 0
    for name in ("segments.csv", "cells.csv", "buildings.csv"):
        assert filecmp.cmp(out / name, small_city / "out" / name, shallow=False), name
