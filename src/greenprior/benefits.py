"""City-level benefit accounting for a roof greening programme.

Covers population-weighted greenspace exposure, direct carbon uptake by the
new vegetation, cooling-driven electricity savings with their indirect
emission cut, the money value of both, and the income-versus-greenspace
regression used to examine equity of access.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .geocore import ComputationError, RasterGrid, cells_of, check_tunables, snapped_grid, tunable
from .indicators import GC_RADIUS_DEFAULT, greenspace_coverage

KWH_PER_JOULE = 1.0 / 3.6e6

# continued-fraction terms _betainc evaluates at most; about sqrt(a + b)
# of them converge
_BETA_MAX_TERMS = 10_000


@dataclass(frozen=True)
class CoolingParams:
    """Seasonal cooling assumptions behind the energy-saving estimate.

    Temperature reductions are per-hour values by day type; rainy days
    contribute nothing. The non-rainy remainder of the season is split
    between sunny and cloudy days by sunny_fraction.
    """

    dt_sunny: float = tunable(0.15, zero_ok=True)
    dt_cloudy: float = tunable(0.10, zero_ok=True)
    dt_rainy: float = tunable(0.0, zero_ok=True)
    c_air: float = tunable(1004.0)
    d_air: float = tunable(1.29)
    season_days: int = tunable(180, zero_ok=True)
    rainy_days: int = tunable(30, zero_ok=True)
    sunny_fraction: float = tunable(0.5, zero_ok=True, high=1)
    hours_per_day: float = tunable(24.0, zero_ok=True, high=24)

    def __post_init__(self):
        check_tunables(self)
        if self.rainy_days > self.season_days:
            raise ValueError(f"rainy_days ({self.rainy_days}) cannot exceed "
                             f"season_days ({self.season_days})")

    def degree_hours(self):
        """Season total of temperature reduction times time, in degC*h."""
        non_rainy = self.season_days - self.rainy_days
        sunny = non_rainy * self.sunny_fraction
        cloudy = non_rainy - sunny
        per_day_split = (sunny * self.dt_sunny + cloudy * self.dt_cloudy
                         + self.rainy_days * self.dt_rainy)
        return per_day_split * self.hours_per_day


@dataclass(frozen=True)
class EconParams:
    """Conversion factors from physical savings to emissions and money."""

    co2_uptake_kg_per_m2: float = tunable(1.46)
    co2_kg_per_kwh: float = tunable(0.785)
    tariff_hkd_per_kwh: float = tunable(1.29)
    carbon_price_hkd_per_ton: float = tunable(65.0)

    def __post_init__(self):
        check_tunables(self)


@dataclass(frozen=True)
class BenefitReport:
    greenable_area_m2: float
    exposure_baseline: float
    exposure_greened: float
    carbon_direct_kg: float
    energy_joules: float
    energy_kwh: float
    carbon_indirect_kg: float
    carbon_total_kg: float
    value_energy_hkd: float
    value_carbon_hkd: float
    value_total_hkd: float

    def __post_init__(self):
        # finite inputs whose products or sums pass the largest float
        for field in fields(self):
            v = getattr(self, field.name)
            if not math.isfinite(v):
                raise ComputationError(f"benefit {field.name} overflows to {v!r}")
        for name in ("exposure_baseline", "exposure_greened"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if self.carbon_total_kg != self.carbon_direct_kg + self.carbon_indirect_kg:
            raise ValueError("carbon_total_kg must equal the sum of its parts")
        if self.value_total_hkd != self.value_energy_hkd + self.value_carbon_hkd:
            raise ValueError("value_total_hkd must equal the sum of its parts")


def greenspace_exposure(mask, population, radius=GC_RADIUS_DEFAULT):
    """Population-weighted mean greenspace coverage over populated cells.

    Each populated cell of the population grid contributes its coverage at
    the cell center, weighted by its head count. NaN population cells are
    treated as empty.
    """
    if not isinstance(population, RasterGrid):
        raise TypeError("population must be a RasterGrid")
    pop = np.nan_to_num(population.values, nan=0.0)
    if pop.min() < 0:
        raise ValueError("population grid contains negative counts")
    with np.errstate(over="ignore"):
        total = float(pop.sum())
    if not math.isfinite(total):
        raise ComputationError(f"population grid total overflows to {total!r}")
    if total <= 0:
        raise ComputationError("population grid has zero total population")
    rows, cols = np.nonzero(pop > 0)
    cov = greenspace_coverage(mask, population.x_centers()[cols],
                              population.y_centers()[rows], radius)
    # a plain left-to-right sum in row-major order, not numpy's pairwise
    # one, so the exposure keeps its last bits
    weighted = 0.0
    for w in pop[rows, cols] * cov:
        weighted += w
    return weighted / total


def carbon_sequestration(greenable_area_m2,
                         co2_uptake_kg_per_m2=EconParams.co2_uptake_kg_per_m2):
    """Annual CO2 uptake (kg) of the greened area: plain product."""
    if greenable_area_m2 < 0:
        raise ValueError("greenable area must be non-negative")
    return greenable_area_m2 * co2_uptake_kg_per_m2


def energy_savings(buildings, params=None):
    """Seasonal cooling energy saved over a set of (area_m2, height_m) pairs.

    The seasonal degree-hour total times the volumetric heat capacity of air
    times total building volume. Returns (joules, kilowatt_hours).
    """
    params = params or CoolingParams()
    volume = 0.0
    for area, height in buildings:
        if area < 0 or height < 0:
            raise ValueError("building area and height must be non-negative")
        volume += area * height
    joules = params.degree_hours() * params.c_air * params.d_air * volume
    return joules, joules * KWH_PER_JOULE


def indirect_carbon(energy_kwh, co2_kg_per_kwh=EconParams.co2_kg_per_kwh):
    """Avoided emissions (kg CO2) for energy no longer generated."""
    if energy_kwh < 0:
        raise ValueError("energy must be non-negative")
    return energy_kwh * co2_kg_per_kwh


def economic_value(energy_kwh, carbon_total_kg, econ=None):
    """Money value of the savings: (energy HK$, carbon HK$, total HK$)."""
    econ = econ or EconParams()
    value_energy = energy_kwh * econ.tariff_hkd_per_kwh
    value_carbon = (carbon_total_kg / 1000.0) * econ.carbon_price_hkd_per_ton
    return value_energy, value_carbon, value_energy + value_carbon


def assemble_report(greenable_area_m2, exposure_baseline, exposure_greened,
                    buildings, cooling=None, econ=None):
    """Run the whole benefit chain and package it with exact totals."""
    econ = econ or EconParams()
    carbon_direct = carbon_sequestration(greenable_area_m2,
                                         econ.co2_uptake_kg_per_m2)
    joules, kwh = energy_savings(buildings, cooling)
    carbon_indirect = indirect_carbon(kwh, econ.co2_kg_per_kwh)
    carbon_total = carbon_direct + carbon_indirect
    value_energy, value_carbon, value_total = economic_value(
        kwh, carbon_total, econ)
    return BenefitReport(
        greenable_area_m2=greenable_area_m2,
        exposure_baseline=exposure_baseline,
        exposure_greened=exposure_greened,
        carbon_direct_kg=carbon_direct,
        energy_joules=joules,
        energy_kwh=kwh,
        carbon_indirect_kg=carbon_indirect,
        carbon_total_kg=carbon_total,
        value_energy_hkd=value_energy,
        value_carbon_hkd=value_carbon,
        value_total_hkd=value_total,
    )


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    pearson_r: float
    p_value: float
    n: int


def income_greenspace_regression(pairs):
    """Ordinary least squares of coverage on income with significance.

    Returns slope, intercept, Pearson r, and the two-sided p-value of the
    t-statistic t = r * sqrt((n - 2) / (1 - r^2)) with n - 2 degrees of
    freedom, computed through the regularized incomplete beta function.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ValueError("need at least 3 (income, coverage) pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("pairs contain non-finite values")
    x, y = arr[:, 0], arr[:, 1]
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ValueError("zero variance in regression input")
    n = len(x)
    xc = x - x.mean()
    yc = y - y.mean()
    sxy, sxx, syy = (math.fsum((u * v).tolist()) for u, v in ((xc, yc), (xc, xc), (yc, yc)))
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        dof = n - 2
        t2 = r * r * dof / (1.0 - r * r)
        p = _betainc(dof / 2.0, 0.5, dof / (dof + t2))
    return RegressionResult(slope, intercept, r, p, n)


def _betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b), for a, b > 0 and
    x in [0, 1]: its continued fraction (Numerical Recipes, 2nd ed., section
    6.4) by the modified Lentz method, on the side of the symmetry
    I_x(a, b) = 1 - I_(1-x)(b, a) where the fraction converges fast, that
    is for x below (a + 1) / (a + b + 2)."""
    if x == 0.0 or x == 1.0:
        return x
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    tiny = 1e-300  # keeps the Lentz denominators off zero
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, _BETA_MAX_TERMS + 1):
        # the even and the odd coefficient of term m
        for coef in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) > tiny else tiny
            fraction *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return front * fraction / a
    raise ComputationError(f"incomplete beta I_{x}({a}, {b}) did not converge")


def population_grid_from_points(points, cell):
    """Accumulate (x, y, count) triples into a population raster.

    The grid is the :func:`snapped_grid` of the points, and each cell sums
    the counts of the points that fall in it.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise ValueError("expected a non-empty array of (x, y, count) rows")
    if arr[:, 2].min() < 0:
        raise ValueError("population counts must be non-negative")
    grid = snapped_grid(arr, cell)
    with np.errstate(over="ignore"):  # greenspace_exposure refuses an inf total
        np.add.at(grid.values, cells_of(grid, arr), arr[:, 2])
    return grid
