"""The least-squares plane of a plane fit's rows in exact arithmetic, kept
as an oracle of ``roofs._PlaneFit``.

A fit keeps its rows (dx, dy, z) as nine sums, in the order of
``exact_terms``. ``exact_plane`` solves the same normal equations as
``_PlaneFit.plane`` with the same rank guard, but over ``Fraction`` sums, so
its plane carries no rounding error.
"""
from fractions import Fraction

from greenprior.roofs import RANK_GUARD


def exact_terms(dx, dy, z):
    """One row's terms of the nine sums, in _PlaneFit's order (n as 1)."""
    dx, dy, z = Fraction(dx), Fraction(dy), Fraction(z)
    return dx * dx, dx * dy, dx, dy * dy, dy, 1, z * dx, z * dy, z


def fit_sums(fit):
    """A _PlaneFit's nine float sums, in exact_terms' order."""
    return fit.sxx, fit.sxy, fit.sx, fit.syy, fit.sy, fit.n, fit.tx, fit.ty, fit.tz


def cofactors(sums):
    """The determinant of the normal matrix of the sums, and the cofactor
    solution with that determinant not yet divided out, in exact
    arithmetic."""
    sxx, sxy, sx, syy, sy, n, tx, ty, tz = map(Fraction, sums)
    c00 = syy * n - sy * sy
    c01 = sy * sx - sxy * n
    c02 = sxy * sy - syy * sx
    c11 = sxx * n - sx * sx
    c12 = sxy * sx - sxx * sy
    c22 = sxx * syy - sxy * sxy
    return (sxx * c00 + sxy * c01 + sx * c02,
            (c00 * tx + c01 * ty + c02 * tz, c01 * tx + c11 * ty + c12 * tz,
             c02 * tx + c12 * ty + c22 * tz))


def rank_guard_stops(sums):
    """Whether the rank guard stops a fit of these sums: fewer than three
    rows, or 4 * det / trace**2 at most RANK_GUARD, in exact arithmetic."""
    sxx, syy, n = (Fraction(sums[k]) for k in (0, 3, 5))
    trace = sxx + syy + n
    return n < 3 or 4 * cofactors(sums)[0] <= Fraction(RANK_GUARD) * trace * trace


def exact_plane(sums, fallback_ab):
    """The plane _PlaneFit.plane solves for, in exact arithmetic over the
    sums: the least-squares plane by Cramer's rule where the rank guard
    passes, else the fallback gradient with its least-squares offset."""
    if rank_guard_stops(sums):
        a, b = map(Fraction, fallback_ab)
        _, _, sx, _, sy, n, _, _, tz = map(Fraction, sums)
        return a, b, (tz - a * sx - b * sy) / max(n, 1)
    det, num = cofactors(sums)
    return tuple(v / det for v in num)


def exact_residual(plane, dx, dy, z):
    a, b, c = plane
    return abs(Fraction(z) - (a * Fraction(dx) + b * Fraction(dy) + c))
