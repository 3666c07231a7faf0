"""Region growing against the numpy-per-cell code it replaced, and against
exact arithmetic.

``roofs._grow_one`` decides growth and eviction on a plane solved by
cofactors from the fit's nine running sums, and the normal test on a cosine
computed in Python floats. Two oracles check those decisions:

* The earlier bodies, ``_OldPlaneFit``, ``_old_grow_one`` and
  ``_old_grow_segments`` (one ``np.outer``, ``matrix_rank`` and ``solve``
  per grown cell, unit normals by ``np.linalg.norm``, eviction capped at 50
  rounds). Wherever each of their decisions lies farther than the
  close-call bounds below from its tolerance, every segment must have the
  same member cells and the same plane and slope bits. Closer calls may go
  either way on either side: there the numpy plane, the cofactor plane and
  the exact plane each disagree somewhere.
* The exact least-squares plane of the fit's float rows, in
  ``fractions.Fraction`` arithmetic. A residual decision must equal the
  exact one whenever the exact residual lies more than
  ``RESIDUAL_BOUND_M`` from the tolerance; a normal decision must equal
  the exact cosine test, decided by comparing squares, whenever the exact
  cosine lies more than ``COS_BOUND`` from it.

The eviction sweep calls ``_PlaneFit.holds`` on arrays of members; it is
checked against ``holds`` called row by row.
"""
import filecmp
import math
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from fullgrid_kernels import scatter_normals
from greenprior import cli, roofs
from greenprior.geocore import RasterGrid
from greenprior.roofs import (
    NEIGH8,
    RoofSegment,
    _PlaneFit,
    grow_segments,
    label_components,
    local_normals,
)

# Close-call bounds. Over 80,000 cofactor-plane decisions on the roof grids
# below, and on growth-shaped rows (connected cells around the seed,
# roof-like elevations), the float residual stayed within 1.1e-12 m of the
# exact one. The float cosine takes about ten roundings on terms whose
# magnitudes sum to at most 1, so it is within 3e-15 of the exact one.
RESIDUAL_BOUND_M = 1e-9
COS_BOUND = 1e-12

# ---------------------------------------------------------------------------
# oracles: the earlier bodies
# ---------------------------------------------------------------------------


def _unit_normal(a, b):
    n = np.array([-a, -b, 1.0])
    return n / np.linalg.norm(n)


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


def _old_grow_segments(component, dsm, normal_tol_deg=10.0, residual_tol_m=0.2, normals=None, *,
                       closest):
    """The earlier grow_segments; closest, a dict, gets the smallest gap
    between a residual ("residual") or a cosine ("cos") and its tolerance
    over all decisions."""
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
        members = _old_grow_one(seed, pool, comp, dsm, A, B, curv, cos_tol, residual_tol_m,
                                closest)
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


def _old_grow_one(seed, pool, comp, dsm, A, B, curv, cos_tol, residual_tol_m, closest):
    V = dsm.values
    if not np.isfinite(curv[seed]):
        return {seed}

    def note(kind, gap):
        closest[kind] = min(closest.get(kind, math.inf), gap)

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
        cos = float(_unit_normal(float(A[cell]), float(B[cell])) @ seed_normal)
        note("cos", abs(cos - cos_tol))
        if cos < cos_tol:
            continue
        cx, cy = dsm.cell_center(*cell)
        dx, dy, z = cx - x0, cy - y0, float(V[cell])
        res = abs(z - (a * dx + b * dy + c))
        note("residual", abs(res - residual_tol_m))
        if res > residual_tol_m:
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
        bad = []
        for cell, (dx, dy, z) in rows.items():
            if cell != seed:
                res = abs(z - (a * dx + b * dy + c))
                note("residual", abs(res - residual_tol_m))
                if res > residual_tol_m:
                    bad.append(cell)
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


def _segments(grow, dsm, normal_tol_deg=10.0, residual_tol_m=0.2, **kwargs):
    # the oracle indexes full grids; grow_segments takes the per-cell form
    normals = local_normals(dsm) if grow is grow_segments else scatter_normals(dsm)
    return [(s.cells, _bits(s.plane), _bits(s.slope_deg), s.area_m2)
            for comp in label_components(dsm)
            for s in grow(comp, dsm, normal_tol_deg, residual_tol_m, normals, **kwargs)]


def _oracle_segments(dsm, normal_tol_deg=10.0, residual_tol_m=0.2):
    """The oracle's segments, and whether each of its decisions lay outside
    the close-call bounds, so that grow_segments must match them."""
    closest = {}
    segments = _segments(_old_grow_segments, dsm, normal_tol_deg, residual_tol_m,
                         closest=closest)
    clear = (closest.get("residual", math.inf) > RESIDUAL_BOUND_M
             and closest.get("cos", math.inf) > COS_BOUND)
    return segments, clear


# ---------------------------------------------------------------------------
# oracle: the exact plane
# ---------------------------------------------------------------------------


def _exact_terms(dx, dy, z):
    """One row's terms of the nine sums, in _PlaneFit's order (n as 1)."""
    dx, dy, z = Fraction(dx), Fraction(dy), Fraction(z)
    return dx * dx, dx * dy, dx, dy * dy, dy, 1, z * dx, z * dy, z


def _exact_plane(sums):
    """The least-squares plane (a, b, c) of the exact sums, by Cramer's
    rule; None when the sums fix no single plane."""
    sxx, sxy, sx, syy, sy, n, tx, ty, tz = sums
    c00 = syy * n - sy * sy
    c01 = sy * sx - sxy * n
    c02 = sxy * sy - syy * sx
    det = sxx * c00 + sxy * c01 + sx * c02
    if det == 0:
        return None
    c11 = sxx * n - sx * sx
    c12 = sxy * sx - sxx * sy
    c22 = sxx * syy - sxy * sxy
    return ((c00 * tx + c01 * ty + c02 * tz) / det,
            (c01 * tx + c11 * ty + c12 * tz) / det,
            (c02 * tx + c12 * ty + c22 * tz) / det)


def _exact_residual(plane, dx, dy, z):
    a, b, c = plane
    return abs(Fraction(z) - (a * Fraction(dx) + b * Fraction(dy) + c))


@contextmanager
def _holds_checked_against_exact_plane():
    """Patch _PlaneFit so that every holds verdict, on one cell or on an
    array of them, is checked against the exact residual of its plane.

    The plane is the exact least-squares plane of the rows added so far
    where refit solved by cofactors; where the rank guard handed refit the
    numpy plane, that plane's own float coefficients (the check then covers
    only the residual arithmetic). Yields counts of the checked verdicts
    and of the close calls left unchecked.
    """
    counts = {"checked": 0, "close": 0}
    rebuild, add, plane, refit, holds = (_PlaneFit.rebuild, _PlaneFit.add, _PlaneFit.plane,
                                         _PlaneFit.refit, _PlaneFit.holds)

    def exact_rebuild(self, rows):
        self.exact = [Fraction(0)] * 9
        rebuild(self, rows)

    def exact_add(self, dx, dy, z):
        add(self, dx, dy, z)
        self.exact = [s + t for s, t in zip(self.exact, _exact_terms(dx, dy, z))]

    def spied_plane(self):
        self.numpy_plane = True
        return plane(self)

    def exact_refit(self):
        self.numpy_plane = False
        refit(self)
        self.exact_coef = (tuple(map(Fraction, self.coef)) if self.numpy_plane
                           else _exact_plane(self.exact))

    def checked_holds(self, dx, dy, z, residual_tol_m):
        verdict = holds(self, dx, dy, z, residual_tol_m)
        rows = zip(*(np.atleast_1d(v).tolist() for v in (dx, dy, z)))
        tol = Fraction(residual_tol_m)
        for row, got in zip(rows, np.atleast_1d(verdict).tolist()):
            res = _exact_residual(self.exact_coef, *row)
            if abs(res - tol) > RESIDUAL_BOUND_M:
                assert got == (res <= tol), row
                counts["checked"] += 1
            else:
                counts["close"] += 1
        return verdict

    with mock.patch.object(_PlaneFit, "rebuild", exact_rebuild), \
            mock.patch.object(_PlaneFit, "add", exact_add), \
            mock.patch.object(_PlaneFit, "plane", spied_plane), \
            mock.patch.object(_PlaneFit, "refit", exact_refit), \
            mock.patch.object(_PlaneFit, "holds", checked_holds):
        yield counts


def _cos_at_least(cell, seed, t):
    """Whether the cosine between the normals (-a, -b, 1) of the gradients
    cell and seed is at least t, in exact arithmetic: the signs and squares
    of dot and t * |n1| * |n2| decide it, with no square root."""
    (a, b), (sa, sb) = [map(Fraction, g) for g in (cell, seed)]
    t = Fraction(t)
    dot = a * sa + b * sb + 1
    norms2 = (a * a + b * b + 1) * (sa * sa + sb * sb + 1)
    if dot >= 0:
        return t <= 0 or dot * dot >= t * t * norms2
    return t < 0 and dot * dot <= t * t * norms2


def _normal_test(cell, seed, cos_tol):
    """Whether _grow_one takes a cell with gradient cell into the segment of
    a seed with gradient seed: a flat two-cell component with those local
    normals, and no residual limit, so that only the normal test decides."""
    dsm = RasterGrid(0.0, 0.0, 1.0, np.full((1, 2), 10.0))
    gradients = np.array([seed, cell], dtype=float)
    normals = (np.arange(2), gradients[:, 0], gradients[:, 1], np.zeros(2))
    cells = roofs._ComponentCells([(0, 0), (0, 1)], dsm, normals)
    return roofs._grow_one(0, cells, bytearray(b"\x01\x01"), cos_tol, math.inf) == [0, 1]


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
# a one-cell-wide diagonal valley at a cell size that is no binary
# fraction: cell centres are rounded, so its collinear fits have a tiny
# nonzero determinant, which only the rank guard's bound stops
_DIAGONAL = np.subtract.outer(np.arange(8), np.arange(8))
_DIAGONAL_STRIP = RasterGrid(*ORIGINS[1], 0.3, np.where(
    np.abs(_DIAGONAL) <= 1, 20.0 + 0.1 * np.add.outer(np.arange(8), np.arange(8))
    - 0.5 * (_DIAGONAL == 0), np.nan))
# a sloped strip whose middle line lies 0.1 m below the outer two: at normal
# tolerance 5 degrees and residual tolerance 0.2 m, dozens of residual
# decisions lie within 2.1e-15 m of the tolerance, close calls on which the
# numpy, cofactor and exact planes each disagree somewhere
_OUTER_LINE = [5.976592264867729, 7.236565711063296, 8.496539157258862, 9.75651260345443,
               11.016486049649998, 12.276459495845565, 13.536432942041131, 14.7964063882367,
               16.056379834432267]
_CLOSE_CALL_STRIP = RasterGrid(0.0, 0.0, 2.0, np.array(
    [_OUTER_LINE, [z - 0.1 for z in _OUTER_LINE], _OUTER_LINE]))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(dsm=roof_grids(), normal_tol_deg=st.sampled_from((5.0, 10.0, 20.0)),
       residual_tol_m=st.sampled_from((0.05, 0.2, 0.5)))
@example(dsm=_EVICTING, normal_tol_deg=10.0, residual_tol_m=0.2)
@example(dsm=_STRIP, normal_tol_deg=10.0, residual_tol_m=0.2)
@example(dsm=_SLOPED_STRIP, normal_tol_deg=10.0, residual_tol_m=0.2)
@example(dsm=_DIAGONAL_STRIP, normal_tol_deg=10.0, residual_tol_m=0.2)
@example(dsm=_CLOSE_CALL_STRIP, normal_tol_deg=5.0, residual_tol_m=0.2)
def test_grow_segments_matches_numpy_oracle(dsm, normal_tol_deg, residual_tol_m):
    expected, clear = _oracle_segments(dsm, normal_tol_deg, residual_tol_m)
    if not clear:
        event("close call: segments not compared")
        return
    assert _segments(grow_segments, dsm, normal_tol_deg, residual_tol_m) == expected


def test_close_call_strip_is_left_to_the_exact_oracle():
    # the numpy oracle sees the close calls and so compares nothing here;
    # the exact oracle leaves out only the close calls and checks the rest
    assert not _oracle_segments(_CLOSE_CALL_STRIP, 5.0, 0.2)[1]
    with _holds_checked_against_exact_plane() as counts:
        _segments(grow_segments, _CLOSE_CALL_STRIP, 5.0, 0.2)
    assert counts["close"] and counts["checked"]


@settings(max_examples=200, deadline=None)
@given(dsm=roof_grids(), normal_tol_deg=st.sampled_from((5.0, 10.0, 20.0)),
       residual_tol_m=st.sampled_from((0.05, 0.2, 0.5)))
@example(dsm=_CLOSE_CALL_STRIP, normal_tol_deg=5.0, residual_tol_m=0.2)
@example(dsm=_EVICTING, normal_tol_deg=10.0, residual_tol_m=0.2)
@example(dsm=_SLOPED_STRIP, normal_tol_deg=10.0, residual_tol_m=0.2)
def test_growth_decisions_match_exact_plane(dsm, normal_tol_deg, residual_tol_m):
    with _holds_checked_against_exact_plane() as counts:
        _segments(grow_segments, dsm, normal_tol_deg, residual_tol_m)
    if counts["close"]:
        event("close call: some residual decisions not checked")


def test_evicting_roof_evicts(monkeypatch):
    rebuilt = []
    rebuild = _PlaneFit.rebuild

    def counted(self, rows):
        rows = list(rows)
        rebuilt.append(len(rows))
        rebuild(self, rows)

    monkeypatch.setattr(_PlaneFit, "rebuild", counted)
    expected, clear = _oracle_segments(_EVICTING)
    assert clear
    assert _segments(grow_segments, _EVICTING) == expected
    assert any(rebuilt)  # a rebuild over remaining members is an eviction round


def test_numpy_path_alone_gives_the_same_segments(small_city, tmp_path, monkeypatch):
    # extract with the numpy-per-cell oracle growing every segment of the
    # city: none of its decisions is a close call, so every file must match
    closest, grids = {}, []

    def oracle(component, dsm, normal_tol_deg, residual_tol_m, normals):
        if not grids:  # extract grows every component on one surface model
            grids.append(scatter_normals(dsm))
        return _old_grow_segments(component, dsm, normal_tol_deg, residual_tol_m, grids[0],
                                  closest=closest)

    monkeypatch.setattr(roofs, "grow_segments", oracle)
    out = tmp_path / "out"
    code = cli.main(["extract", "--config", str(small_city / "config.txt"), "--out", str(out)])
    assert code == 0
    assert closest["residual"] > RESIDUAL_BOUND_M and closest["cos"] > COS_BOUND
    for name in ("segments.csv", "cells.csv", "buildings.csv", "dsm.asc"):
        assert filecmp.cmp(out / name, small_city / "out" / name, shallow=False), name


@pytest.mark.parametrize("dsm", [_STRIP, _SLOPED_STRIP, _DIAGONAL_STRIP],
                         ids=["valley", "sloped_ridge", "diagonal_valley"])
def test_strip_takes_rank_guard(dsm, monkeypatch):
    # a collinear segment fails the rank guard, so refit takes the numpy
    # plane: plane runs inside refit on a fit of three or more cells
    guarded = []
    refit, plane = _PlaneFit.refit, _PlaneFit.plane
    in_refit = []

    def spied_refit(self):
        in_refit.append(True)
        try:
            refit(self)
        finally:
            in_refit.pop()

    def spied_plane(self):
        if in_refit:
            guarded.append(self.n)
        return plane(self)

    monkeypatch.setattr(_PlaneFit, "refit", spied_refit)
    monkeypatch.setattr(_PlaneFit, "plane", spied_plane)
    expected, clear = _oracle_segments(dsm)
    assert clear
    assert _segments(grow_segments, dsm) == expected
    assert any(n >= 3 for n in guarded)


@settings(max_examples=100, deadline=None)
@given(dsm=roof_grids(), shuffle=st.randoms(use_true_random=False))
def test_grow_segments_ignores_cell_order(dsm, shuffle):
    normals = local_normals(dsm)
    for comp in label_components(dsm):
        shuffled = list(comp)
        shuffle.shuffle(shuffled)
        assert [(s.cells, _bits(s.plane)) for s in grow_segments(shuffled, dsm, normals=normals)] \
            == [(s.cells, _bits(s.plane)) for s in grow_segments(comp, dsm, normals=normals)]


@st.composite
def grown_rows(draw):
    """Rows (dx, dy, z) of cells as growth adds them, and a probe cell:
    8-connected lattice cells around the seed at (0, 0), elevations on a
    pitched plane plus noise, the probe a neighbour of some member."""
    cell = draw(st.sampled_from((0.5, 1.0, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = [(0, 0)]
    for pick, (dr, dc) in draw(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(NEIGH8)),
                                        min_size=2, max_size=24)):
        r, c = cells[pick % len(cells)]
        if (r + dr, c + dc) not in cells:
            cells.append((r + dr, c + dc))
    pick, (dr, dc) = draw(st.tuples(st.integers(0, 10**6), st.sampled_from(NEIGH8)))
    r, c = cells[pick % len(cells)]
    z0, pa, pb = draw(st.floats(5.0, 60.0)), draw(st.floats(-0.8, 0.8)), draw(st.floats(-0.8, 0.8))
    noise = draw(st.sampled_from((0.0, 0.01, 0.2, 0.5)))

    def row(r, c, spread):
        dx, dy = c * cell, r * cell
        return dx, dy, z0 + pa * dx + pb * dy + float(rng.uniform(-spread, spread))

    return [row(r, c, noise) for r, c in cells], row(r + dr, c + dc, 1.0)


@settings(max_examples=300, deadline=None)
@given(rows_probe=grown_rows(), residual_tol_m=st.sampled_from((0.05, 0.2, 0.5)))
@example(rows_probe=([(0.0, 0.0, 10.0), (1.0, 0.0, 10.1), (0.0, 1.0, 9.95), (1.0, 1.0, 10.07),
                      (2.0, 1.0, 10.13)], (2.0, 2.0, 10.2)), residual_tol_m=0.2)
def test_residual_decision_matches_exact_plane(rows_probe, residual_tol_m):
    # the tolerance is set at the stated bound from the exact residual, on
    # either side, as well as at its usual values
    rows, probe = rows_probe
    fit = _PlaneFit((0.0, 0.0))
    sums = [Fraction(0)] * 9
    for row in rows:
        fit.add(*row)
        sums = [s + t for s, t in zip(sums, _exact_terms(*row))]
    guarded = []
    plane = _PlaneFit.plane
    with mock.patch.object(_PlaneFit, "plane", lambda self: guarded.append(True) or plane(self)):
        fit.refit()
    assume(not guarded)  # the rank guard's numpy plane: see test_strip_takes_rank_guard
    res = _exact_residual(_exact_plane(sums), *probe)
    checked = 0
    for tol in (residual_tol_m, float(res) - 2 * RESIDUAL_BOUND_M,
                float(res) + 2 * RESIDUAL_BOUND_M):
        if tol > 0 and abs(res - Fraction(tol)) > RESIDUAL_BOUND_M:
            assert fit.holds(*probe, tol) == (res <= tol)
            checked += 1
    assert checked >= 2


GRADIENT = st.floats(-2.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(cell=st.tuples(GRADIENT, GRADIENT), seed=st.tuples(GRADIENT, GRADIENT),
       normal_tol_deg=st.floats(0.5, 60.0))
@example(cell=(0.1, -0.05), seed=(0.0, 0.0), normal_tol_deg=10.0)
def test_normal_decision_matches_exact_cosine(cell, seed, normal_tol_deg):
    # the tolerance is set at the stated bound from the cosine, on either
    # side, as well as at the cosine of normal_tol_deg
    (a, b), (sa, sb) = cell, seed
    cos = (a * sa + b * sb + 1.0) / math.sqrt((a * a + b * b + 1.0) * (sa * sa + sb * sb + 1.0))
    checked = 0
    for tol in (math.cos(math.radians(normal_tol_deg)), cos - 2 * COS_BOUND, cos + 2 * COS_BOUND):
        if _cos_at_least(cell, seed, tol + COS_BOUND):
            assert _normal_test(cell, seed, tol)
            checked += 1
        elif not _cos_at_least(cell, seed, tol - COS_BOUND):
            assert not _normal_test(cell, seed, tol)
            checked += 1
    assert checked >= 2


COORD = st.floats(-30.0, 30.0)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(COORD, COORD, st.floats(-5.0, 60.0)), min_size=1, max_size=12),
       coef=st.tuples(GRADIENT, GRADIENT, st.floats(-5.0, 60.0)),
       residual_tol_m=st.sampled_from((0.05, 0.2, 0.5)))
@example(rows=[(0.0, 0.0, 10.0), (1.0, 0.0, 9.7), (0.0, 1.0, 10.0), (1.0, 1.0, 10.0),
               (2.0, 2.0, 10.0)], coef=(0.0, 0.0, 9.5), residual_tol_m=0.2)
def test_eviction_sweep_copies_holds_row_by_row(rows, coef, residual_tol_m):
    # the sweep calls holds on arrays: each row must get the verdict of the
    # scalar call, also with the tolerance set to a row's scalar residual
    # or one bit below it
    fit = _PlaneFit((0.0, 0.0))
    fit.coef = coef
    dx, dy, z = np.array(rows).T
    a, b, c = coef
    tols = [residual_tol_m]
    for x, y, zz in rows:
        res = abs(zz - (a * x + b * y + c))
        tols += [res, math.nextafter(res, -math.inf)]
    for tol in tols:
        assert fit.holds(dx, dy, z, tol).tolist() == [fit.holds(*row, tol) for row in rows]
