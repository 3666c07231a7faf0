"""The variable-projection variogram fit against scipy's bounded least squares.

``fit_variogram`` searches the range alone, each range's nugget and partial
sill coming in closed form from ``_linear_subfit``. ``_trf_fit`` below is
the fit it replaced, kept as an oracle: the same 24-range scan, then
``scipy.optimize.least_squares`` (method ``trf``) over nugget, partial
sill and range within the same bounds. The new fit's count-weighted SSE
must be no larger than the oracle's, within

    SSE_new <= SSE_trf * (1 + REL_TOL) + ABS_TOL * sum(w * gamma**2).

The absolute term is the rounding floor: residuals are differences of
numbers of the size of gamma, so no float fit resolves an SSE much below
eps * sum(w * gamma**2), and on noise-free curves the oracle's SSE sits at
that floor. On the variograms of the synthetic cities the relative bound
holds alone.
"""
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenprior import interp
from greenprior.ingest import read_raster_asc, read_xy_value
from greenprior.interp import (
    SampleSet,
    VariogramModel,
    empirical_semivariogram,
    fit_variogram,
    grid_semivariogram,
)
from greenprior.synth import SyntheticCitySpec, generate_city

REL_TOL = 1e-9
ABS_TOL = 1e-13

# ---------------------------------------------------------------------------
# oracle: the earlier fit
# ---------------------------------------------------------------------------


def _old_linear_subfit(weights, gammas, shape):
    w = weights
    s11 = np.sum(w)
    s1f = np.sum(w * shape)
    sff = np.sum(w * shape * shape)
    s1g = np.sum(w * gammas)
    sfg = np.sum(w * shape * gammas)
    det = s11 * sff - s1f * s1f
    if abs(det) < 1e-12:
        nugget, partial = 0.0, max(s1g / s11, 1e-12)
    else:
        nugget = (sff * s1g - s1f * sfg) / det
        partial = (s11 * sfg - s1f * s1g) / det
    if nugget < 0:
        nugget = 0.0
        partial = sfg / sff if sff > 0 else 1e-12
    return nugget, max(partial, 1e-12)


def _trf_fit(empirical):
    lags = np.array([e[0] for e in empirical])
    gammas = np.array([e[1] for e in empirical])
    weights = np.array([float(e[2]) for e in empirical])
    max_lag = float(lags.max())
    best = None
    for r in np.geomspace(0.25 * float(lags.min()), 2.0 * max_lag, 24):
        shape = interp._shape(lags / r)
        nugget, partial = _old_linear_subfit(weights, gammas, shape)
        sse = float(np.sum(weights * (nugget + partial * shape - gammas) ** 2))
        if best is None or sse < best[0]:
            best = (sse, nugget, partial, r)
    _, n0, p0, r0 = best

    def residuals(theta):
        nugget, partial, r = theta
        return np.sqrt(weights) * (nugget + partial * interp._shape(lags / r) - gammas)

    sol = scipy.optimize.least_squares(
        residuals, [n0, max(p0, 1e-10), r0], method="trf",
        bounds=([0.0, 1e-12, 0.01 * float(lags.min())], [np.inf, np.inf, 2.0 * max_lag]))
    nugget, partial, range_m = sol.x
    return VariogramModel(float(nugget), float(nugget + max(partial, 1e-12)), float(range_m))


def _sse(model, empirical):
    return math.fsum(c * (float(model.gamma(h)) - g) ** 2 for h, g, c in empirical)


def _scale(empirical):
    return math.fsum(c * g * g for _, g, c in empirical)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@st.composite
def curves(draw):
    """Binned curves of a drawn spherical model, with multiplicative noise
    of up to 100 % and counts from 1 to 2000, at scales from 1e-3 to 1e6."""
    n = draw(st.integers(3, 15))
    span = 10.0 ** draw(st.floats(0.0, 4.0))
    lags = sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n, unique=True)))
    nugget = draw(st.sampled_from([0.0, 0.1, 1.0]))
    model = VariogramModel(nugget, nugget + draw(st.floats(0.01, 5.0)),
                           span * 10.0 ** draw(st.floats(-1.5, 1.0)))
    noise = draw(st.sampled_from([0.0, 0.01, 0.2, 1.0]))
    scale = 10.0 ** draw(st.floats(-3.0, 6.0))
    out = []
    for lag in lags:
        h = lag * span
        g = abs(model.gamma(h) * (1.0 + noise * draw(st.floats(-1.0, 1.0)))) * scale
        out.append((h, g, draw(st.integers(1, 2000))))
    return out


# an exponential curve, flat at its sill from the first lag: the uncentred
# normal equations of the subfit lost the SSE to cancellation there
FLAT_AT_SILL = [(0.25, 0.999954664072634, 1), (0.3125, 0.9999962799127161, 5),
                (0.375, 0.9999996947443186, 1), (0.4375, 0.9999999749519235, 2),
                (0.5, 0.9999999979446537, 1), (0.5625, 0.9999999998313464, 1),
                (0.625, 0.999999999986161, 1), (0.75, 0.9999999999999069, 1),
                (0.875, 0.9999999999999993, 1), (0.890625, 0.9999999999999997, 142),
                (0.90625, 0.9999999999999998, 1), (0.9375, 1.0, 1), (0.96875, 1.0, 1),
                (1.0, 1.0, 1)]
# one bin below the sill for spherical ranges up to the second lag: a flat
# SSE there, beside the dip of the best fit
ONE_BIN_BELOW_SILL = [(0.08776703929616426, 0.25210973134314985, 1),
                      (0.5, 0.47262499999999996, 2), (0.625, 0.475, 1), (0.75, 0.47025, 1),
                      (0.875, 0.475, 52), (1.0, 0.47321874999999997, 197)]
# the best spherical range a hair above a lag, beside a plateau where the
# partial sill sits at its bound
DIP_AT_LAG = [(0.5, 0.6875, 1), (0.625, 1.630859375, 50), (0.75, 0.9140625, 1),
              (0.875, 0.9775390625, 1), (1.0, 0.0, 60)]
# a narrow spherical dip just above the second lag, between the scan's best
# and the plateau below it
DIP_BELOW_SCAN = [(0.015625, 0.6026492202641168, 1), (0.04296875, 1.0, 1),
                  *((h, 1.0, 1) for h in (0.25, 0.375, 0.5, 0.5625, 0.625, 0.6875,
                                          0.75, 0.8125, 0.875)),
                  (1.0, 1.01, 1)]
# two spherical dips either side of a lag, the scan's best between them
TWO_DIPS = [(0.010000000000000002, 0.950056218998905, 259),
            (0.08708493522908516, 2.1263145221793796, 966), (0.125, 1.8877135642677592, 338),
            (0.5, 2.099999999994793, 202), (0.75, 2.454375, 330),
            (0.84375, 2.4675000000000002, 750)]


@settings(max_examples=300, deadline=None)
@given(empirical=curves())
@example(empirical=FLAT_AT_SILL)
@example(empirical=ONE_BIN_BELOW_SILL)
@example(empirical=DIP_AT_LAG)
@example(empirical=DIP_BELOW_SCAN)
@example(empirical=TWO_DIPS)
def test_fit_is_no_worse_than_trf(empirical):
    try:
        old = _trf_fit(empirical)
    except ValueError:  # its nugget absorbed the 1e-12 partial sill
        return
    new = fit_variogram(empirical)
    assert 0.01 * empirical[0][0] <= new.range_m <= 2.0 * empirical[-1][0]
    assert _sse(new, empirical) <= (_sse(old, empirical) * (1.0 + REL_TOL)
                                    + ABS_TOL * _scale(empirical))


@pytest.fixture(scope="module", params=[(7, 15), (42, 60)], ids=["7-15", "42-60"])
def city_variograms(request, tmp_path_factory):
    """Every variogram indicators fits on a synthetic city: the income and
    precipitation stations, and the temperature rasters with gaps."""
    seed, n = request.param
    city = tmp_path_factory.mktemp(f"fit{seed}") / "city"
    generate_city(SyntheticCitySpec(seed=seed, n_buildings=n), str(city))
    found = {name: empirical_semivariogram(SampleSet.from_points(read_xy_value(city / name)))
             for name in ("income_stations.csv", "precip_stations.csv")}
    for season in ("spring", "summer", "autumn", "winter"):
        grid = read_raster_asc(city / f"temp_{season}.asc")
        if np.isnan(grid.values).any():
            found[season] = grid_semivariogram(grid)
    assert len(found) == 4
    return found


def test_city_fits_are_no_worse_than_trf(city_variograms):
    for name, empirical in city_variograms.items():
        new, old = fit_variogram(empirical), _trf_fit(empirical)
        assert _sse(new, empirical) <= _sse(old, empirical) * (1.0 + REL_TOL), name
