"""Region growing against the numpy-per-cell code it replaced, and against
exact arithmetic.

``roofs._grow_one`` decides growth and eviction on a plane solved by
cofactors from the fit's nine running sums, and the normal test on a cosine
computed in Python floats; each segment's final plane comes from the same
cofactor solve. Where the rank guard stops a fit, the plane keeps the
seed's gradient. Three oracles check this:

* The earlier growth bodies, ``_OldPlaneFit``, ``_old_grow_one`` and
  ``_old_grow_segments`` (one ``np.outer``, ``matrix_rank`` and ``solve``
  per grown cell, unit normals by ``np.linalg.norm``, eviction capped at 50
  rounds). Wherever each of their decisions lies farther than the
  close-call bounds below from its tolerance, every segment must have the
  same member cells. Closer calls may go either way on either side: there
  the numpy plane, the cofactor plane and the exact plane each disagree
  somewhere.
* The exact least-squares plane of the fit's float rows, in
  ``fractions.Fraction`` arithmetic. A residual decision must equal the
  exact one whenever the exact residual lies more than
  ``RESIDUAL_BOUND_M`` from the tolerance; a normal decision must equal
  the exact cosine test, decided by comparing squares, whenever the exact
  cosine lies more than ``COS_BOUND`` from it. A segment's final plane
  must lie within ``PLANE_BOUND`` and ``PLANE_BOUND_M`` of the exact one
  where numpy finds its normal matrix of rank 3, and keep the fallback's
  bits where it does not.
* numpy's ``matrix_rank`` decides the rank guard: on member sets as growth
  builds them, the guard stops a fit exactly where numpy finds rank below 3.

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
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from exact_plane import exact_plane, exact_residual, exact_terms, fit_sums, rank_guard_stops
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
# Final-plane bounds. Over 5,400 segments with an exact oracle plane on
# the roof grids below, the cofactor gradient stayed within 1.9e-13 of the
# exact one, and the plane's elevation at member cell centres within
# 8.1e-10 m, most of that from rounding the world-coordinate offset at
# origins near 5e6 m.
PLANE_BOUND = 1e-11
PLANE_BOUND_M = 1e-8

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

    def full_rank(self):
        return self.n >= 3 and np.linalg.matrix_rank(self.S, tol=1e-8) == 3

    def plane(self):
        if self.full_rank():
            a, b, c = np.linalg.solve(self.S, self.t)
            return float(a), float(b), float(c)
        a, b = self.fallback_ab
        c = (self.t[2] - a * self.S[0, 2] - b * self.S[1, 2]) / max(self.n, 1)
        return a, b, float(c)


def _old_grow_segments(component, dsm, normal_tol_deg=10.0, residual_tol_m=0.2, normals=None, *,
                       closest):
    """The earlier grow_segments, but each final plane is the exact
    least-squares plane, as Fractions, where numpy finds the normal matrix
    of rank 3; closest, a dict, gets the smallest gap between a residual
    ("residual") or a cosine ("cos") and its tolerance over all
    decisions."""
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
        exact = [Fraction(0)] * 9
        for r, c in cells:
            cx, cy = dsm.cell_center(r, c)
            row = (cx - x0, cy - y0, float(V[r, c]))
            fit.add(*row)
            exact = [s + t for s, t in zip(exact, exact_terms(*row))]
        if fit.full_rank():
            a, b, c_loc = exact_plane(exact, fallback)
            plane = (a, b, c_loc - a * Fraction(x0) - b * Fraction(y0))
        else:
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
    return [s for comp in label_components(dsm)
            for s in grow(comp, dsm, normal_tol_deg, residual_tol_m, normals, **kwargs)]


def _assert_same_segments(got, want, dsm):
    """got, grow_segments' segments of dsm, against want, the oracle's: the
    same member cells and areas. Where the oracle's plane is exact, got's
    gradient lies within PLANE_BOUND of it, its slope within 100 *
    PLANE_BOUND degrees, and its elevation within PLANE_BOUND_M at every
    member cell centre; elsewhere got has the fallback's plane and slope
    bits."""
    assert [(s.cells, s.area_m2) for s in got] == [(s.cells, s.area_m2) for s in want]
    for g, w in zip(got, want):
        if not isinstance(w.plane[0], Fraction):
            assert _bits(g.plane) == _bits(w.plane) and _bits(g.slope_deg) == _bits(w.slope_deg)
            continue
        (a, b, c), (ea, eb, ec) = map(Fraction, g.plane), w.plane
        assert max(abs(a - ea), abs(b - eb)) <= PLANE_BOUND
        assert abs(g.slope_deg - w.slope_deg) <= 100 * PLANE_BOUND
        for x, y in (map(Fraction, dsm.cell_center(*rc)) for rc in g.cells):
            assert abs((a - ea) * x + (b - eb) * y + c - ec) <= PLANE_BOUND_M


def _oracle_segments(dsm, normal_tol_deg=10.0, residual_tol_m=0.2):
    """The oracle's segments, and whether each of its decisions lay outside
    the close-call bounds, so that grow_segments must match them."""
    closest = {}
    segments = _segments(_old_grow_segments, dsm, normal_tol_deg, residual_tol_m,
                         closest=closest)
    clear = (closest.get("residual", math.inf) > RESIDUAL_BOUND_M
             and closest.get("cos", math.inf) > COS_BOUND)
    return segments, clear


@contextmanager
def _holds_checked_against_exact_plane():
    """Patch _PlaneFit so that every holds verdict, on one cell or on an
    array of them, is checked against the exact residual of its plane, the
    exact plane (exact_plane) of the rows added so far. Yields counts of
    the checked verdicts and of the close calls left unchecked.
    """
    counts = {"checked": 0, "close": 0}
    rebuild, add, refit, holds = _PlaneFit.rebuild, _PlaneFit.add, _PlaneFit.refit, _PlaneFit.holds

    def exact_rebuild(self, rows):
        self.exact = [Fraction(0)] * 9
        rebuild(self, rows)

    def exact_add(self, dx, dy, z):
        add(self, dx, dy, z)
        self.exact = [s + t for s, t in zip(self.exact, exact_terms(dx, dy, z))]

    def exact_refit(self):
        refit(self)
        self.exact_coef = exact_plane(self.exact, self.fallback_ab)

    def checked_holds(self, dx, dy, z, residual_tol_m):
        verdict = holds(self, dx, dy, z, residual_tol_m)
        rows = zip(*(np.atleast_1d(v).tolist() for v in (dx, dy, z)))
        tol = Fraction(residual_tol_m)
        for row, got in zip(rows, np.atleast_1d(verdict).tolist()):
            res = exact_residual(self.exact_coef, *row)
            if abs(res - tol) > RESIDUAL_BOUND_M:
                assert got == (res <= tol), row
                counts["checked"] += 1
            else:
                counts["close"] += 1
        return verdict

    with mock.patch.object(_PlaneFit, "rebuild", exact_rebuild), \
            mock.patch.object(_PlaneFit, "add", exact_add), \
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
    _assert_same_segments(_segments(grow_segments, dsm, normal_tol_deg, residual_tol_m), expected,
                          dsm)


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
    _assert_same_segments(_segments(grow_segments, _EVICTING), expected, _EVICTING)
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
    # a collinear segment of three or more cells fails the rank guard, read
    # off the fit's sums, and its refit keeps the seed's gradient
    guarded = []
    refit = _PlaneFit.refit

    def spied_refit(self):
        refit(self)
        if self.n >= 3 and rank_guard_stops(fit_sums(self)):
            assert _bits(self.coef[:2]) == _bits(self.fallback_ab)
            guarded.append(self.n)

    monkeypatch.setattr(_PlaneFit, "refit", spied_refit)
    expected, clear = _oracle_segments(dsm)
    assert clear
    _assert_same_segments(_segments(grow_segments, dsm), expected, dsm)
    assert guarded


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
    """Rows (dx, dy, z) of cells as growth adds them, some of them evicted
    again, and a probe cell: 8-connected lattice cells around the seed, the
    probe a neighbour of some member, elevations on a pitched plane plus
    noise. Cell centres and their offsets from the seed's are computed as
    _ComponentCells and _grow_one compute them, on grids of cell size 0.1
    to 2 m with origins up to 1e6 m."""
    cell = draw(st.floats(0.1, 2.0))
    ox, oy = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    r0, c0 = draw(st.integers(60, 10**4)), draw(st.integers(60, 10**4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = [(0, 0)]
    for pick, (dr, dc) in draw(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(NEIGH8)),
                                        min_size=2, max_size=60)):
        r, c = cells[pick % len(cells)]
        if (r + dr, c + dc) not in cells:
            cells.append((r + dr, c + dc))
    pick, (dr, dc) = draw(st.tuples(st.integers(0, 10**6), st.sampled_from(NEIGH8)))
    r, c = cells[pick % len(cells)]
    evicted = rng.random(len(cells)) < draw(st.sampled_from((0.0, 0.3)))
    z0, pa, pb = draw(st.floats(5.0, 60.0)), draw(st.floats(-0.8, 0.8)), draw(st.floats(-0.8, 0.8))
    noise = draw(st.sampled_from((0.0, 0.01, 0.2, 0.5)))
    x0, y0 = ox + (c0 + 0.5) * cell, oy + (r0 + 0.5) * cell

    def row(r, c, spread):
        dx, dy = ox + (c0 + c + 0.5) * cell - x0, oy + (r0 + r + 0.5) * cell - y0
        return dx, dy, z0 + pa * dx + pb * dy + float(rng.uniform(-spread, spread))

    rows = [row(r, c, noise) for k, (r, c) in enumerate(cells) if k == 0 or not evicted[k]]
    return rows, row(r + dr, c + dc, 1.0)


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
        sums = [s + t for s, t in zip(sums, exact_terms(*row))]
    fit.refit()
    res = exact_residual(exact_plane(sums, fit.fallback_ab), *probe)
    checked = 0
    for tol in (residual_tol_m, float(res) - 2 * RESIDUAL_BOUND_M,
                float(res) + 2 * RESIDUAL_BOUND_M):
        if tol > 0 and abs(res - Fraction(tol)) > RESIDUAL_BOUND_M:
            assert fit.holds(*probe, tol) == (res <= tol)
            checked += 1
    assert checked >= 2


@settings(max_examples=500, deadline=None)
@given(rows_probe=grown_rows())
def test_rank_guard_stops_where_numpy_finds_rank_below_3(rows_probe):
    # a NaN fallback gradient marks the fits the guard stops
    fit = _PlaneFit((math.nan, math.nan))
    fit.rebuild(rows_probe[0])
    S = np.array([[fit.sxx, fit.sxy, fit.sx], [fit.sxy, fit.syy, fit.sy],
                  [fit.sx, fit.sy, float(fit.n)]])
    stopped = math.isnan(fit.plane()[0])
    event(f"stopped: {stopped}")
    assert stopped == (np.linalg.matrix_rank(S, tol=1e-8) < 3)


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
