import filecmp
import math
import os
import re

import numpy as np
import pytest

from greenprior.ingest import (
    FormatError,
    read_footprints,
    read_point_cloud,
    read_raster_asc,
    read_roads,
    read_xy_value,
)
from greenprior.roofs import RoofParams, extract_all
from greenprior.synth import (
    ROOF_TYPES,
    SyntheticCitySpec,
    TYPE_SHARES,
    generate_city,
    read_ground_truth,
)

EXPECTED_FILES = (
    "points.csv",
    "footprints.geojson",
    "roads.geojson",
    "income_stations.csv",
    "precip_stations.csv",
    "population.csv",
    "temp_spring.asc",
    "temp_summer.asc",
    "temp_autumn.asc",
    "temp_winter.asc",
    "groundtruth.csv",
    "config.txt",
)


def _generate(tmp_path, name, **kw):
    out = tmp_path / name
    spec = SyntheticCitySpec(**kw)
    truths = generate_city(spec, str(out))
    return out, truths


def test_all_files_written(tmp_path):
    out, truths = _generate(tmp_path, "a", seed=5, n_buildings=12)
    for fname in EXPECTED_FILES:
        assert (out / fname).is_file(), fname
    assert len(truths) == 12


def test_same_seed_byte_identical(tmp_path):
    out1, _ = _generate(tmp_path, "a", seed=11, n_buildings=14)
    out2, _ = _generate(tmp_path, "b", seed=11, n_buildings=14)
    for fname in EXPECTED_FILES:
        assert filecmp.cmp(out1 / fname, out2 / fname, shallow=False), fname


def test_different_seed_differs(tmp_path):
    out1, _ = _generate(tmp_path, "a", seed=1, n_buildings=10)
    out2, _ = _generate(tmp_path, "b", seed=2, n_buildings=10)
    assert not filecmp.cmp(out1 / "points.csv", out2 / "points.csv",
                           shallow=False)


def test_footprint_count_matches_request(tmp_path):
    out, truths = _generate(tmp_path, "a", seed=3, n_buildings=20)
    feats = read_footprints(str(out / "footprints.geojson"))
    assert len(feats) == 20
    assert len(truths) == 20
    ids = {b.id for b in feats}
    assert ids == {t.building_id for t in truths}


def test_type_mix_roughly_matches_shares(tmp_path):
    _, truths = _generate(tmp_path, "a", seed=4, n_buildings=40)
    counts = {t: 0 for t in ROOF_TYPES}
    for gt in truths:
        counts[gt.roof_type] += 1
    assert sum(counts.values()) == 40
    for rtype, share in TYPE_SHARES.items():
        assert counts[rtype] == pytest.approx(40 * share, abs=1.0)


def test_ground_truth_round_trip(tmp_path):
    out, truths = _generate(tmp_path, "a", seed=6, n_buildings=15)
    back = read_ground_truth(str(out / "groundtruth.csv"))
    assert len(back) == len(truths)
    for a, b in zip(truths, back):
        assert a.building_id == b.building_id
        assert a.roof_type == b.roof_type
        assert a.age_years == b.age_years
        assert a.potential == b.potential
        assert a.true_greenable_m2 == pytest.approx(b.true_greenable_m2,
                                                    abs=1e-5)
        assert a.true_slope_deg == pytest.approx(b.true_slope_deg, abs=1e-5)


@pytest.mark.parametrize("column, value, message", [
    ("potential", "yes", "line 3: column potential: 'yes' is not a valid flag"),
    ("true_slope_deg", "steep", "line 3: column true_slope_deg: 'steep' is not a valid float"),
    ("category", None, "line 1: missing column(s) category"),
])
def test_ground_truth_is_read_with_checks(tmp_path, column, value, message):
    out, _ = _generate(tmp_path, "a", seed=6, n_buildings=4)
    path = out / "groundtruth.csv"
    lines = [line.split(",") for line in path.read_text().splitlines()]
    at = lines[0].index(column)
    if value is None:
        lines = [line[:at] + line[at + 1:] for line in lines]
    else:
        lines[2][at] = value
    path.write_text("".join(",".join(line) + "\n" for line in lines))
    with pytest.raises(FormatError) as info:
        read_ground_truth(str(path))
    assert str(info.value) == f"{path}: {message}"


def test_ground_truth_internal_rules(tmp_path):
    _, truths = _generate(tmp_path, "a", seed=7, n_buildings=30)
    for gt in truths:
        if gt.roof_type == "small":
            assert gt.true_greenable_m2 == 0.0
            assert not gt.potential
        if gt.age_years > 60:
            assert not gt.potential
        if gt.roof_type == "gabled" and gt.true_slope_deg >= 15.0:
            assert gt.true_greenable_m2 == 0.0
        if gt.potential:
            assert gt.age_years <= 60
            assert gt.true_greenable_m2 > 0.0
        if gt.roof_type == "flat":
            assert gt.true_slope_deg == 0.0


def test_old_share_controls_age(tmp_path):
    _, truths = _generate(tmp_path, "a", seed=8, n_buildings=40,
                          old_share=0.0)
    assert all(gt.age_years <= 60 for gt in truths)
    _, truths = _generate(tmp_path, "b", seed=8, n_buildings=40,
                          old_share=1.0)
    assert all(gt.age_years > 60 for gt in truths)


def test_empty_city_still_valid(tmp_path):
    out, truths = _generate(tmp_path, "a", seed=9, n_buildings=0)
    assert truths == []
    pc = read_point_cloud(str(out / "points.csv"))
    assert pc.xyz.shape[0] > 0
    assert len(read_footprints(str(out / "footprints.geojson"))) == 0


@pytest.mark.parametrize("n_buildings", [-3, 200])
def test_building_count_out_of_range_writes_nothing(tmp_path, n_buildings):
    # checked before out_dir is made, not left to numpy's sampling
    out = tmp_path / "a"
    message = f"n_buildings must be from 0 to 144 (one per parcel), got {n_buildings}"
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_city(SyntheticCitySpec(n_buildings=n_buildings), str(out))
    assert not out.exists()


def test_roads_parse_with_both_classes(tmp_path):
    out, _ = _generate(tmp_path, "a", seed=10, n_buildings=5)
    roads = read_roads(str(out / "roads.geojson"))
    tags = sorted({r.tag for r in roads})
    assert tags == ["main", "minor"]
    assert len(roads) == 5


def test_station_files_parse(tmp_path):
    out, _ = _generate(tmp_path, "a", seed=12, n_buildings=5)
    income = read_xy_value(str(out / "income_stations.csv"))
    precip = read_xy_value(str(out / "precip_stations.csv"))
    assert income.shape == (24, 3)
    assert precip.shape == (16, 3)
    assert np.all(income[:, 2] > 0)
    assert np.all(precip[:, 2] > 0)


def test_temperature_rasters_have_gaps(tmp_path):
    out, _ = _generate(tmp_path, "a", seed=13, n_buildings=5)
    summer = read_raster_asc(str(out / "temp_summer.asc"))
    autumn = read_raster_asc(str(out / "temp_autumn.asc"))
    spring = read_raster_asc(str(out / "temp_spring.asc"))
    assert np.isnan(summer.values).any()
    assert np.isnan(autumn.values).any()
    assert not np.isnan(spring.values).any()
    assert np.nanmean(summer.values) > np.nanmean(spring.values)


def test_extraction_recovers_ground_truth(tmp_path):
    out, truths = _generate(tmp_path, "a", seed=21, n_buildings=18)
    pc = read_point_cloud(str(out / "points.csv"))
    feats = read_footprints(str(out / "footprints.geojson"))
    result = extract_all(pc, feats, RoofParams(cell=1.0))
    for gt in truths:
        dec = result.decisions[gt.building_id]
        assert dec.potential == gt.potential, gt.building_id
        assert dec.greenable_m2 == pytest.approx(gt.true_greenable_m2,
                                                 abs=1e-6)
        if gt.potential:
            best = min(s.slope_deg for s in result.segments
                       if s.building_id == gt.building_id)
            assert abs(best - gt.true_slope_deg) <= 0.5


def test_population_counts_positive(tmp_path):
    out, truths = _generate(tmp_path, "a", seed=14, n_buildings=8)
    pop = read_xy_value(str(out / "population.csv"))
    assert pop.shape[0] == 8
    assert np.all(pop[:, 2] >= 20)
    assert np.all(pop[:, 2] < 400)
