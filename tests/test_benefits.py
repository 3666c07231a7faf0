import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenprior.benefits import (
    BenefitReport,
    CoolingParams,
    EconParams,
    assemble_report,
    carbon_sequestration,
    economic_value,
    energy_savings,
    greenspace_exposure,
    income_greenspace_regression,
    indirect_carbon,
    population_grid_from_points,
)
from greenprior.benefits import _betainc
from greenprior.geocore import ComputationError, RasterGrid, cell_centers
from greenprior.indicators import greenspace_coverage


def test_cooling_defaults_degree_hours():
    # 75 sunny days at 0.15 and 75 cloudy at 0.10, 24 h each
    assert CoolingParams().degree_hours() == pytest.approx(450.0)


def test_cooling_validation():
    with pytest.raises(ValueError):
        CoolingParams(rainy_days=200)
    with pytest.raises(ValueError):
        CoolingParams(dt_sunny=-0.1)
    with pytest.raises(ValueError):
        CoolingParams(sunny_fraction=1.5)


def test_econ_validation():
    with pytest.raises(ValueError):
        EconParams(tariff_hkd_per_kwh=0.0)


# ---------------------------------------------------------------------------
# exposure
# ---------------------------------------------------------------------------

def _random_mask(seed, shape=(80, 80)):
    rng = np.random.default_rng(seed)
    return RasterGrid(0.0, 0.0, 5.0, (rng.random(shape) < 0.3).astype(float))


def test_exposure_uniform_population_is_mean_gc():
    mask = _random_mask(3)
    pop = RasterGrid(50.0, 50.0, 100.0, np.ones((3, 3)))
    got = greenspace_exposure(mask, pop, radius=150.0)
    gcs = [greenspace_coverage(mask, *cell_centers(pop, np.array([[r, c]]))[0], 150.0)
           for r in range(3) for c in range(3)]
    assert got == pytest.approx(np.mean(gcs), abs=1e-12)


def test_exposure_single_populated_cell():
    mask = _random_mask(4)
    vals = np.zeros((3, 3))
    vals[1, 2] = 37.0
    pop = RasterGrid(0.0, 0.0, 100.0, vals)
    got = greenspace_exposure(mask, pop, radius=200.0)
    assert got == pytest.approx(
        greenspace_coverage(mask, *cell_centers(pop, np.array([[1, 2]]))[0], 200.0), abs=1e-12)


def test_exposure_weighted_mean():
    mask = _random_mask(5)
    vals = np.zeros((1, 2))
    vals[0, 0] = 1.0
    vals[0, 1] = 3.0
    pop = RasterGrid(0.0, 0.0, 150.0, vals)
    g1 = greenspace_coverage(mask, *cell_centers(pop, np.array([[0, 0]]))[0], 120.0)
    g2 = greenspace_coverage(mask, *cell_centers(pop, np.array([[0, 1]]))[0], 120.0)
    assert g1 != g2
    got = greenspace_exposure(mask, pop, radius=120.0)
    assert got == pytest.approx((1.0 * g1 + 3.0 * g2) / 4.0, abs=1e-12)
    # the same rule on round numbers: counts {1, 3} with coverage {0.2, 0.6}
    assert (1 * 0.2 + 3 * 0.6) / 4 == pytest.approx(0.5)


def test_exposure_population_scale_invariant():
    mask = _random_mask(6)
    rng = np.random.default_rng(7)
    pop = RasterGrid(0.0, 0.0, 100.0, rng.integers(0, 50, (4, 4)).astype(float))
    base = greenspace_exposure(mask, pop, radius=180.0)
    scaled = RasterGrid(0.0, 0.0, 100.0, pop.values * 7.0)
    assert greenspace_exposure(mask, scaled, radius=180.0) == pytest.approx(base, abs=1e-12)


def test_exposure_zero_population_errors():
    mask = _random_mask(8)
    pop = RasterGrid(0.0, 0.0, 100.0, np.zeros((2, 2)))
    with pytest.raises(ComputationError, match="zero total population"):
        greenspace_exposure(mask, pop)
    with pytest.raises(ValueError, match="negative"):
        greenspace_exposure(mask, RasterGrid(0.0, 0.0, 100.0, np.array([[-1.0]])))


# ---------------------------------------------------------------------------
# carbon / energy / money chain
# ---------------------------------------------------------------------------

def test_carbon_sequestration_values():
    assert carbon_sequestration(0.0) == 0.0
    assert carbon_sequestration(1000.0) == pytest.approx(1460.0)
    # citywide figure: 63.9 km2 of greenable roof -> about 93,000 tons
    tons = carbon_sequestration(63.9e6) / 1000.0
    assert tons == pytest.approx(93294.0, rel=1e-9)
    assert tons == pytest.approx(93000.0, rel=0.005)
    with pytest.raises(ValueError):
        carbon_sequestration(-1.0)


def test_energy_savings_hand_chain():
    joules, kwh = energy_savings([(100.0, 10.0)])
    assert joules == pytest.approx(5.82822e8, rel=1e-9)
    assert kwh == pytest.approx(161.895, rel=1e-5)


def test_energy_savings_zero_and_validation():
    assert energy_savings([]) == (0.0, 0.0)
    with pytest.raises(ValueError):
        energy_savings([(-1.0, 5.0)])
    with pytest.raises(ValueError):
        energy_savings([(10.0, -0.5)])


def test_energy_savings_citywide_consistency():
    # back-inferred citywide building volume reproduces the reported total
    joules, kwh = energy_savings([(1.4395e9, 1.0)])
    assert kwh == pytest.approx(2.33e8, rel=0.01)


def test_energy_savings_linear_in_volume_and_dt():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, h = rng.uniform(10, 500), rng.uniform(3, 80)
        j1, _ = energy_savings([(a, h)])
        j2, _ = energy_savings([(a, h), (a, h)])
        assert j2 == pytest.approx(2 * j1, rel=1e-12)
        k = rng.uniform(0.5, 3.0)
        p = CoolingParams()
        scaled = CoolingParams(dt_sunny=p.dt_sunny * k, dt_cloudy=p.dt_cloudy * k,
                               dt_rainy=p.dt_rainy * k)
        j3, _ = energy_savings([(a, h)], scaled)
        assert j3 == pytest.approx(k * j1, rel=1e-12)


def test_indirect_carbon_values():
    assert indirect_carbon(0.0) == 0.0
    assert indirect_carbon(1000.0) == pytest.approx(785.0)
    tons = indirect_carbon(2.33e8) / 1000.0
    assert tons == pytest.approx(183000.0, rel=0.005)


def test_economic_value_citywide():
    v_energy, v_carbon, v_total = economic_value(2.33e8, 2.76e8)
    assert v_energy == pytest.approx(3.006e8, rel=1e-3)
    assert v_carbon == pytest.approx(1.794e7, rel=1e-9)
    assert v_total == v_energy + v_carbon
    assert v_total == pytest.approx(3.18e8, rel=2e-3)


def test_full_chain_reproduces_city_aggregates():
    report = assemble_report(
        greenable_area_m2=63.9e6,
        exposure_baseline=0.353,
        exposure_greened=0.567,
        buildings=[(1.4395e9, 1.0)],
    )
    assert report.carbon_direct_kg / 1000 == pytest.approx(93000, rel=0.005)
    assert report.carbon_indirect_kg / 1000 == pytest.approx(183000, rel=0.005)
    assert report.carbon_total_kg / 1000 == pytest.approx(276000, rel=0.005)
    # about 0.8 percent of the 34.7 Mt citywide annual emissions
    share = 100.0 * report.carbon_total_kg / 34.7e9
    assert share == pytest.approx(0.796, abs=0.005)
    assert report.value_total_hkd == pytest.approx(3.18e8, rel=0.005)
    # totals are exact sums, not approximations
    assert report.carbon_total_kg == report.carbon_direct_kg + report.carbon_indirect_kg
    assert report.value_total_hkd == report.value_energy_hkd + report.value_carbon_hkd


def test_benefit_report_invariants_enforced():
    with pytest.raises(ValueError):
        BenefitReport(100.0, 0.3, 0.5, 10.0, 0.0, 0.0, 5.0, 14.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        BenefitReport(100.0, 1.3, 0.5, 10.0, 0.0, 0.0, 5.0, 15.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------

def test_regression_exact_line():
    pairs = [(x, 2.0 * x + 1.0) for x in (0.0, 1.0, 2.0, 5.0)]
    res = income_greenspace_regression(pairs)
    assert res.slope == pytest.approx(2.0, abs=1e-12)
    assert res.intercept == pytest.approx(1.0, abs=1e-12)
    assert res.pearson_r == pytest.approx(1.0, abs=1e-12)
    assert res.p_value == 0.0


def test_regression_matches_scipy_pearsonr():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(5, 60))
        x = rng.normal(30000, 8000, n)
        y = 0.4 - 1e-6 * x + rng.normal(0, 0.05, n)
        res = income_greenspace_regression(np.column_stack([x, y]))
        ref_r, ref_p = scipy.stats.pearsonr(x, y)
        assert res.pearson_r == pytest.approx(ref_r, abs=1e-12)
        assert res.p_value == pytest.approx(ref_p, abs=1e-12)
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        assert res.slope == pytest.approx(ref_slope, rel=1e-9)
        assert res.intercept == pytest.approx(ref_intercept, rel=1e-9)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 5000), st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(0.0, 1.0))
@example(1, 0.0, 0.0)
@example(2, 0.999999, 1.0)
@example(5000, 1e-9, 0.5)
@example(4977, -0.020760622460629777, 0.9995689965550473)
@example(1, 0.0, 0.9999999999999999)
def test_p_value_beta_matches_scipy(dof, r, x):
    # the p-value's incomplete beta, at the x of a correlation r with dof
    # degrees of freedom and at any x
    # Above one half the reference is taken on the mirrored side,
    # I_x(a, b) = 1 - I_(1-x)(b, a), where 1 - x is exact: scipy's betainc
    # itself is off by 2.8e-9 at (0.5, 0.5, 1 - 2**-53), while the mirrored
    # betaincc agrees with a 30-digit mpmath reference there
    t2 = r * r * dof / (1.0 - r * r)
    for at in (dof / (dof + t2), x):
        if at >= 0.5:
            want = float(scipy.special.betaincc(0.5, dof / 2.0, 1.0 - at))
        else:
            want = float(scipy.special.betainc(dof / 2.0, 0.5, at))
        assert _betainc(dof / 2.0, 0.5, at) == pytest.approx(want, rel=0, abs=1e-10)


def test_regression_independent_data_r_near_zero():
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(0, 1, 1000)
        y = rng.normal(0, 1, 1000)
        res = income_greenspace_regression(np.column_stack([x, y]))
        if abs(res.pearson_r) < 0.1:
            hits += 1
    assert hits >= 48  # 95 percent of replicates, with head room


def test_regression_recovers_weak_negative_correlation():
    within = 0
    for seed in range(5):
        rng = np.random.default_rng(2000 + seed)
        n = 540
        x = rng.normal(0, 1, n)
        y = -0.25 * x + math.sqrt(1 - 0.25 ** 2) * rng.normal(0, 1, n)
        res = income_greenspace_regression(np.column_stack([x, y]))
        assert res.p_value < 0.001
        assert res.pearson_r < 0
        if abs(res.pearson_r - (-0.25)) <= 0.08:
            within += 1
    assert within >= 4


def test_regression_validation():
    with pytest.raises(ValueError):
        income_greenspace_regression([(1.0, 2.0), (2.0, 3.0)])
    with pytest.raises(ValueError, match="zero variance"):
        income_greenspace_regression([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])
    with pytest.raises(ValueError, match="zero variance"):
        income_greenspace_regression([(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)])


# ---------------------------------------------------------------------------
# population grid
# ---------------------------------------------------------------------------

def test_population_grid_accumulates():
    pts = [(10.0, 10.0, 5.0), (20.0, 15.0, 3.0), (150.0, 10.0, 7.0)]
    grid = population_grid_from_points(pts, cell=100.0)
    assert grid.origin_x == 0.0 and grid.origin_y == 0.0
    assert grid.values.shape == (1, 2)
    assert grid.values[0, 0] == 8.0  # two buildings share the first cell
    assert grid.values[0, 1] == 7.0
    with pytest.raises(ValueError):
        population_grid_from_points([(0.0, 0.0, -2.0)], cell=100.0)


def test_population_grid_total_preserved():
    rng = np.random.default_rng(31)
    pts = np.column_stack([rng.uniform(0, 900, 40), rng.uniform(0, 900, 40),
                           rng.integers(1, 200, 40).astype(float)])
    grid = population_grid_from_points(pts, cell=100.0)
    assert grid.values.sum() == pytest.approx(pts[:, 2].sum())
