"""Acceptance gate: one test per release criterion.

Every test here re-derives its expectations independently (hand values,
brute-force oracles, or the committed golden outputs) and prints a single
summary line when its criterion holds. A pytest failure is the fail line.
"""

import csv
import filecmp
import hashlib
import math
import time
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gate_oracles import (
    IndicatorVector,
    component_cells,
    equal_weight_priority,
    idw_predict,
)
from gate_oracles import ok_solve as _ok_solve
from greenprior import cli
from greenprior.benefits import (
    CoolingParams,
    carbon_sequestration,
    economic_value,
    energy_savings,
    income_greenspace_regression,
    indirect_carbon,
)
from greenprior.geocore import RasterGrid
from greenprior.indicators import greenspace_coverage
from greenprior.interp import (
    SampleSet,
    empirical_semivariogram,
    fit_variogram,
    kriging_predict,
)
from greenprior.priority import (
    WEIGHT_SCHEMES,
    compute_weights,
)
from greenprior.synth import SyntheticCitySpec, generate_city, read_ground_truth

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# shared seed-42 pipeline run (criteria 4 and 8)
# ---------------------------------------------------------------------------

STAGES = ("extract", "indicators", "prioritize", "benefits", "report")


@pytest.fixture(scope="session")
def pipeline42(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept42")
    times = {}

    def run_chain(city, out):
        t0 = time.perf_counter()
        generate_city(SyntheticCitySpec(seed=42, n_buildings=60), str(city))
        elapsed = time.perf_counter() - t0
        config = str(city / "config.txt")
        for command in STAGES:
            t0 = time.perf_counter()
            code = cli.main([command, "--config", config, "--out", str(out)])
            assert code == 0, command
            stage = time.perf_counter() - t0
            times.setdefault(command, stage)
            elapsed += stage
        return elapsed

    total1 = run_chain(root / "city1", root / "out1")
    total2 = run_chain(root / "city2", root / "out2")
    return SimpleNamespace(root=root, city1=root / "city1",
                           out1=root / "out1", city2=root / "city2",
                           out2=root / "out2", times=times,
                           total1=total1, total2=total2)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# criterion 1: carbon and money chain from citywide reference inputs
# ---------------------------------------------------------------------------

def test_criterion_1_benefit_chain():
    area_m2 = 63.9e6
    energy_kwh = 2.33e8

    carbon_direct = carbon_sequestration(area_m2)
    carbon_indirect = indirect_carbon(energy_kwh)
    assert carbon_direct / 1000.0 == pytest.approx(93294.0, rel=5e-3)
    assert carbon_indirect / 1000.0 == pytest.approx(182905.0, rel=5e-3)

    carbon_total = carbon_direct + carbon_indirect
    assert carbon_total / 1e6 == pytest.approx(276.2, rel=5e-3)
    share_pct = 100.0 * (carbon_total / 1000.0) / 34.7e6
    assert share_pct == pytest.approx(0.795, abs=0.005)

    v_energy, v_carbon, v_total = economic_value(energy_kwh, carbon_total)
    assert v_energy == pytest.approx(300.6e6, rel=5e-3)
    assert v_carbon == pytest.approx(17.9e6, rel=5e-3)
    assert v_total == pytest.approx(318e6, rel=5e-3)

    print(f"\ncriterion 1 PASS: 63.9 km2 + {energy_kwh:.3g} kWh -> "
          f"{carbon_direct / 1e6:.1f} + {carbon_indirect / 1e6:.1f} = "
          f"{carbon_total / 1e6:.1f} kt CO2 ({share_pct:.3f} % of 34.7 Mt), "
          f"HK${v_total / 1e6:.1f}M")


# ---------------------------------------------------------------------------
# criterion 2: cooling energy from the citywide greenable volume
# ---------------------------------------------------------------------------

def test_criterion_2_energy_from_volume():
    volume_m3 = 1.4395e9
    joules, kwh = energy_savings([(volume_m3, 1.0)], CoolingParams())
    assert kwh == pytest.approx(2.33e8, rel=0.01)
    assert joules == pytest.approx(kwh * 3.6e6, rel=1e-12)
    print(f"\ncriterion 2 PASS: {volume_m3:.4g} m3 -> {kwh:.4g} kWh/yr "
          f"(target 2.33e8, off by {abs(kwh / 2.33e8 - 1) * 100:.2f} %)")


# ---------------------------------------------------------------------------
# criterion 3: disk coverage against a brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_3_coverage_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    radius = 500.0
    cell = 5.0
    values = (rng.random((200, 200)) < 0.3).astype(float)
    mask = RasterGrid(-100.0, 250.0, cell, values)

    ys = mask.origin_y + (np.arange(200) + 0.5) * cell
    xs = mask.origin_x + (np.arange(200) + 0.5) * cell
    gx, gy = np.meshgrid(xs, ys)
    green = values > 0

    worst = 0.0
    for _ in range(100):
        qx = float(rng.uniform(-200, 1000))
        qy = float(rng.uniform(150, 1350))
        inside = (gx - qx) ** 2 + (gy - qy) ** 2 <= radius * radius
        expected = min(1.0, float(np.sum(green & inside)) * cell * cell
                       / (math.pi * radius * radius))
        got = greenspace_coverage(mask, qx, qy, radius)
        worst = max(worst, abs(got - expected))
    assert worst <= 1e-12

    solid = RasterGrid(0.0, 0.0, 1.0, np.ones((3000, 1500)))
    half = greenspace_coverage(solid, 1500.0, 1500.0, radius)
    assert half == pytest.approx(0.5, abs=0.01)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\ncriterion 3 PASS: 100 random queries within {worst:.2e} of the "
          f"pixel-counting oracle, half-plane {half:.4f}, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# criterion 4: roof extraction against ground truth and a flood-fill oracle
# ---------------------------------------------------------------------------

def _flood_fill_labels(finite):
    """8-connected component cells by brute-force BFS, scan ordered."""
    nrows, ncols = finite.shape
    seen = np.zeros_like(finite, dtype=bool)
    comps = []
    for r in range(nrows):
        for c in range(ncols):
            if not finite[r, c] or seen[r, c]:
                continue
            queue = deque([(r, c)])
            seen[r, c] = True
            cells = []
            while queue:
                cr, cc = queue.popleft()
                cells.append((cr, cc))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        nr, nc = cr + dr, cc + dc
                        if (0 <= nr < nrows and 0 <= nc < ncols
                                and finite[nr, nc] and not seen[nr, nc]):
                            seen[nr, nc] = True
                            queue.append((nr, nc))
            comps.append(sorted(cells))
    comps.sort(key=lambda cells: (min(r for r, _ in cells),
                                  min(c for _, c in cells)))
    return comps


def test_criterion_4_extraction_ground_truth(pipeline42):
    t0 = time.perf_counter()
    truths = read_ground_truth(str(pipeline42.city1 / "groundtruth.csv"))
    assert len(truths) >= 50

    buildings = {r["id"]: r
                 for r in _read_rows(pipeline42.out1 / "buildings.csv")}
    seg_rows = _read_rows(pipeline42.out1 / "segments.csv")
    min_slope = {}
    for r in seg_rows:
        s = float(r["slope_deg"])
        bid = r["building_id"]
        if bid not in min_slope or s < min_slope[bid]:
            min_slope[bid] = s

    flag_errors = 0
    worst_slope = 0.0
    for gt in truths:
        got = buildings[gt.building_id]["potential"] == "true"
        if got != gt.potential:
            flag_errors += 1
        if gt.potential:
            worst_slope = max(worst_slope,
                              abs(min_slope[gt.building_id] - gt.true_slope_deg))
    assert flag_errors == 0
    assert worst_slope <= 0.5

    rng = np.random.default_rng(911)
    for _ in range(50):
        finite = rng.random((64, 64)) < rng.uniform(0.2, 0.6)
        vals = np.where(finite, 1.0, np.nan)
        grid = RasterGrid(0.0, 0.0, 1.0, vals)
        got = [sorted(comp) for comp in component_cells(grid)]
        assert got == _flood_fill_labels(finite)

    elapsed = (time.perf_counter() - t0) + pipeline42.times["extract"]
    assert elapsed < 30.0
    n_pot = sum(1 for gt in truths if gt.potential)
    print(f"\ncriterion 4 PASS: {len(truths)} buildings, potential flags "
          f"{len(truths)}/{len(truths)} exact ({n_pot} positive), slope off "
          f"by at most {worst_slope:.3f} deg, labeling matches flood fill "
          f"on 50 grids, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 5: kriging against a dense direct solve, plus exactness
# ---------------------------------------------------------------------------

def test_criterion_5_kriging_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst_pred = 0.0
    worst_sum = 0.0
    worst_exact = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 51))
        xy = rng.uniform(0, 100, size=(n, 2))
        z = (np.sin(xy[:, 0] / 18.0) + 0.05 * xy[:, 1]
             + rng.normal(0, 0.05, n))
        samples = SampleSet.from_points(
            np.column_stack([xy, z]))
        n = len(samples)
        model = fit_variogram(empirical_semivariogram(samples))

        qx = float(rng.uniform(5, 95))
        qy = float(rng.uniform(5, 95))
        got, _ = kriging_predict(samples, model, qx, qy, k_neighbors=n)

        pts = samples.xy
        pair = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = model.gamma(pair)
        A[n, :n] = 1.0
        A[:n, n] = 1.0
        rhs = np.append(
            model.gamma(np.linalg.norm(pts - [qx, qy], axis=1)), 1.0)
        w = np.linalg.solve(A, rhs)[:n]
        worst_pred = max(worst_pred,
                         abs(got - float(w @ samples.values)))

        _, wlib, _ = _ok_solve(samples, model, qx, qy, n)
        worst_sum = max(worst_sum, abs(float(np.sum(wlib)) - 1.0))

        j = int(rng.integers(0, n))
        sx, sy = samples.xy[j]
        back, var = kriging_predict(samples, model, float(sx), float(sy),
                                    k_neighbors=n)
        worst_exact = max(worst_exact, abs(back - float(samples.values[j])))
        assert var == pytest.approx(0.0, abs=1e-9)

        idw_back = idw_predict(samples, float(sx), float(sy))
        assert idw_back == pytest.approx(float(samples.values[j]), abs=1e-6)
        idw_mid = idw_predict(samples, qx, qy)
        assert samples.values.min() - 1e-12 <= idw_mid
        assert idw_mid <= samples.values.max() + 1e-12

    assert worst_pred <= 1e-8
    assert worst_sum <= 1e-9
    assert worst_exact <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\ncriterion 5 PASS: 20 instances, dense-solve gap {worst_pred:.2e}, "
          f"weight-sum gap {worst_sum:.2e}, sample exactness {worst_exact:.2e}, "
          f"{elapsed:.2f} s")


# ---------------------------------------------------------------------------
# criterion 6: priority scores and objective weighting schemes
# ---------------------------------------------------------------------------

HAND_MATRIX = np.array([
    [0.2, 0.4, 0.9, 0.1, 0.55, 0.3],
    [0.8, 0.4, 0.1, 0.5, 0.35, 0.3],
    [0.5, 0.7, 0.3, 0.9, 0.15, 0.6],
])
HAND_ENTROPY = np.array([0.143598705072, 0.042477856962, 0.344584043461,
                         0.274215207456, 0.129311146291, 0.065813040758])
HAND_CV = np.array([0.161654464137, 0.093331248385, 0.258854308967,
                    0.215539285517, 0.153956632512, 0.116664060482])
CRITIC_MATRIX = np.array([
    [0.1, 0.9, 0.3],
    [0.4, 0.2, 0.3],
    [0.7, 0.6, 0.9],
    [1.0, 0.1, 0.5],
])
HAND_CRITIC = np.array([0.378673021133, 0.442787444049, 0.178539534818])


def test_criterion_6_priority_and_weights():
    t0 = time.perf_counter()
    assert equal_weight_priority(
        IndicatorVector(*np.ones(6))) == pytest.approx(1.0, abs=1e-12)
    assert equal_weight_priority(
        IndicatorVector(*np.zeros(6))) == pytest.approx(0.0, abs=1e-12)
    assert equal_weight_priority(
        IndicatorVector(0.3, 0.6, 0.9, 0.0, 0.45, 0.75)) == pytest.approx(
            0.5, abs=1e-12)

    rng = np.random.default_rng(606)
    for _ in range(1000):
        base = rng.random(6)
        j = int(rng.integers(0, 6))
        delta = float(rng.uniform(1e-6, 1.0 - base[j] + 1e-9))
        delta = min(delta, 1.0 - base[j])
        bumped = base.copy()
        bumped[j] += delta
        p0 = equal_weight_priority(IndicatorVector(*base))
        p1 = equal_weight_priority(IndicatorVector(*bumped))
        assert p1 > p0
        assert p1 - p0 == pytest.approx(delta / 6.0, abs=1e-12)

    np.testing.assert_allclose(compute_weights(HAND_MATRIX, "entropy"),
                               HAND_ENTROPY, atol=1e-9)
    np.testing.assert_allclose(compute_weights(HAND_MATRIX, "cv"),
                               HAND_CV, atol=1e-9)
    np.testing.assert_allclose(compute_weights(CRITIC_MATRIX, "critic"),
                               HAND_CRITIC, atol=1e-9)

    for trial in range(30):
        n = int(rng.integers(3, 40))
        matrix = rng.random((n, 6))
        for scheme in WEIGHT_SCHEMES:
            w = compute_weights(matrix, scheme)
            assert np.all(w >= 0)
            assert abs(float(np.sum(w)) - 1.0) <= 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\ncriterion 6 PASS: hand weight vectors to 1e-9, monotone on "
          f"1000 perturbation pairs, all schemes proper on 30 random "
          f"matrices, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# criterion 7: income regression recovers a known correlation
# ---------------------------------------------------------------------------

def test_criterion_7_regression_recovery():
    t0 = time.perf_counter()
    reg = income_greenspace_regression([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0),
                                        (3.0, 7.0)])
    assert reg.slope == pytest.approx(2.0, abs=1e-12)
    assert reg.intercept == pytest.approx(1.0, abs=1e-12)
    assert reg.pearson_r == pytest.approx(1.0, abs=1e-12)
    assert reg.p_value == 0.0

    true_r = -0.25
    n = 540
    hits = 0
    rs = []
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        x = rng.standard_normal(n)
        y = true_r * x + math.sqrt(1.0 - true_r ** 2) * rng.standard_normal(n)
        pairs = list(zip(30000.0 + 8000.0 * x, 0.3 + 0.1 * y))
        fit = income_greenspace_regression(pairs)
        rs.append(fit.pearson_r)
        if abs(fit.pearson_r - true_r) <= 0.08 and fit.p_value < 0.001:
            hits += 1
    assert hits >= 90

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\ncriterion 7 PASS: exact line recovered, r = -0.25 within "
          f"0.08 with p < 0.001 in {hits}/100 replicates "
          f"(mean r {np.mean(rs):.3f}), {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# criterion 8: determinism and the committed golden outputs
# ---------------------------------------------------------------------------

def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def test_criterion_8_determinism_and_goldens(pipeline42):
    assert pipeline42.total1 < 60.0

    out_files = sorted(p.name for p in pipeline42.out1.iterdir())
    assert out_files == sorted(p.name for p in pipeline42.out2.iterdir())
    for name in out_files:
        assert filecmp.cmp(pipeline42.out1 / name, pipeline42.out2 / name,
                           shallow=False), f"rerun differs: {name}"
    city_files = sorted(p.name for p in pipeline42.city1.iterdir())
    for name in city_files:
        assert filecmp.cmp(pipeline42.city1 / name, pipeline42.city2 / name,
                           shallow=False), f"regeneration differs: {name}"

    n_golden = 0
    for golden in sorted((GOLDEN / "city").iterdir()):
        assert filecmp.cmp(golden, pipeline42.city1 / golden.name,
                           shallow=False), f"golden differs: city/{golden.name}"
        n_golden += 1
    for golden in sorted((GOLDEN / "out").iterdir()):
        assert filecmp.cmp(golden, pipeline42.out1 / golden.name,
                           shallow=False), f"golden differs: out/{golden.name}"
        n_golden += 1

    n_hashed = 0
    for line in (GOLDEN / "sha256.txt").read_text().splitlines():
        expected, rel = line.split()
        top, name = rel.split("/")
        base = pipeline42.city1 if top == "city" else pipeline42.out1
        assert _sha256(base / name) == expected, f"hash differs: {rel}"
        n_hashed += 1

    print(f"\ncriterion 8 PASS: two full runs byte-identical, {n_golden} "
          f"golden files matched, {n_hashed} large artifacts matched by "
          f"hash, chain ran in {pipeline42.total1:.1f} s")
