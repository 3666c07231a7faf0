import os

import pytest

from greenprior import cli
from greenprior.benefits import CoolingParams, EconParams
from greenprior.config import (
    NUMBER_KEYS,
    PATH_KEYS,
    ConfigError,
    PipelineConfig,
    default_config_text,
    load_config,
    parse_config_text,
)
from greenprior.roofs import PotentialThresholds, RoofParams


def test_defaults_without_file():
    cfg = PipelineConfig()
    assert cfg.dsm_cell == 1.0
    assert cfg.mask_cell == 5.0
    assert cfg.gc_radius == 500.0
    assert cfg.slope_max_deg == 15.0
    assert cfg.area_min_m2 == 10.0
    assert cfg.age_max_yr == 60
    assert cfg.road_cap_m == 500.0
    assert cfg.scheme == "equal"
    th = cfg.thresholds()
    assert (th.slope_max_deg, th.area_min_m2, th.age_max_yr) == (15.0, 10.0, 60)
    cool = cfg.cooling()
    assert cool.degree_hours() == pytest.approx(450.0)
    econ = cfg.econ()
    assert econ.tariff_hkd_per_kwh == 1.29


def test_parse_paths_resolve_relative(tmp_path):
    (tmp_path / "pts.csv").write_text("x\n")
    cfg = parse_config_text("points = pts.csv\ndsm_cell = 0.5\n",
                            base_dir=str(tmp_path))
    assert cfg.points == str(tmp_path / "pts.csv")
    assert cfg.dsm_cell == 0.5


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("cell_size = 2\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("dsm_cell = 1\ndsm_cell = 2\n")


def test_parse_rejects_bad_number():
    with pytest.raises(ConfigError, match="needs a number"):
        parse_config_text("dsm_cell = tiny\n")
    with pytest.raises(ConfigError, match="needs an integer"):
        parse_config_text("age_max_yr = 60.5\n")


def test_parse_rejects_missing_file():
    with pytest.raises(ConfigError, match="missing file"):
        parse_config_text("points = nowhere.csv\n", base_dir="/tmp")


def test_parse_rejects_bad_scheme_and_nonpositive():
    with pytest.raises(ConfigError, match="unknown weighting scheme"):
        parse_config_text("scheme = subjective\n")
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config_text("gc_radius = 0\n")


def test_parse_skips_comments_and_blanks():
    cfg = parse_config_text("# a comment\n\nmask_cell = 10\n")
    assert cfg.mask_cell == 10.0


def test_parse_line_without_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\n")


def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("dsm_cell = 1.0\nscheme = equal\n")
    cfg = load_config(str(path), overrides={"scheme": "critic",
                                            "out_dir": str(tmp_path / "o")})
    assert cfg.scheme == "critic"
    assert cfg.out_dir == str(tmp_path / "o")
    with pytest.raises(ConfigError):
        load_config(str(path), overrides={"scheme": "bogus"})


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.cfg"))


def test_require_names_missing_keys():
    cfg = PipelineConfig()
    with pytest.raises(ConfigError, match="points, roads"):
        cfg.require("points", "roads")


def test_default_config_text_parses_back(tmp_path):
    (tmp_path / "points.csv").write_text("x\n")
    (tmp_path / "roads.geojson").write_text("{}\n")
    text = default_config_text({"points": "points.csv", "roads": "roads.geojson"})
    cfg = parse_config_text(text, base_dir=str(tmp_path))
    assert os.path.basename(cfg.points) == "points.csv"
    assert cfg.scheme == "equal"
    assert cfg.dsm_cell == 1.0
    assert cfg.out_dir == os.path.join(str(tmp_path), "out")


# ---------------------------------------------------------------------------
# one declaration per tunable, every value checked at load
# ---------------------------------------------------------------------------

STAGES = ("extract", "indicators", "prioritize", "benefits", "report")
GOLDEN_CONFIG = os.path.join(os.path.dirname(__file__), "golden", "city", "config.txt")


def _city_config(city, tmp_path, line):
    """The city's config with the line of line's key replaced by line."""
    key = line.partition("=")[0].strip()
    lines = []
    for raw in (city / "config.txt").read_text().splitlines():
        k, _, v = (part.strip() for part in raw.partition("="))
        if k in PATH_KEYS:
            raw = f"{k} = {city / v}"
        elif k == key:
            raw = line
        lines.append(raw)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("line, message", [
    ("dt_sunny = -1", "config key 'dt_sunny' must be non-negative, got -1.0"),
    ("season_days = 10", "rainy_days (30) cannot exceed season_days (10)"),
    ("co2_kg_per_kwh = 0", "config key 'co2_kg_per_kwh' must be positive, got 0.0"),
    ("dsm_cell = 0", "config key 'dsm_cell' must be positive, got 0.0"),
    ("carbon_price_hkd_per_ton = inf",
     "config key 'carbon_price_hkd_per_ton' must be finite, got inf"),
    ("dt_sunny = nan", "config key 'dt_sunny' must be finite, got nan"),
    ("c_air = 0", "config key 'c_air' must be positive, got 0.0"),
], ids=["negative", "cross-field", "zero", "renamed-field", "inf", "nan", "zero-heat-capacity"])
def test_bad_value_stops_every_stage_at_load(small_city, tmp_path, capsys, line, message):
    config = _city_config(small_city, tmp_path, line)
    out = tmp_path / "out"
    for stage in STAGES:
        assert cli.main([stage, "--config", config, "--out", str(out)]) == 1, stage
        assert capsys.readouterr().err == f"error: {message}\n", stage
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("key", list(NUMBER_KEYS))
def test_non_finite_numbers_are_rejected(key):
    for value in ("nan", "inf", "-inf", "1e309"):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config_text(f"{key} = {value}\n")
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be finite"):
            PipelineConfig(numbers={key: value})


def test_int_past_the_float_range_is_rejected():
    with pytest.raises(ConfigError, match="config key 'season_days' must be finite"):
        parse_config_text("season_days = 1" + "0" * 400 + "\n")


@pytest.mark.parametrize("cls, kwargs, message", [
    (RoofParams, {"normal_tol_deg": -5}, "normal_tol_deg must lie in (0, 180], got -5"),
    (RoofParams, {"normal_tol_deg": 365}, "normal_tol_deg must lie in (0, 180], got 365"),
    (RoofParams, {"residual_tol_m": -0.2}, "residual_tol_m must be positive, got -0.2"),
    (RoofParams, {"cell": float("nan")}, "cell must be finite, got nan"),
    (PotentialThresholds, {"area_min_m2": -1}, "area_min_m2 must be positive, got -1"),
    (PotentialThresholds, {"age_max_yr": -1}, "age_max_yr must be non-negative, got -1"),
    (CoolingParams, {"dt_sunny": -0.1}, "dt_sunny must be non-negative, got -0.1"),
    (CoolingParams, {"sunny_fraction": 1.5}, "sunny_fraction must lie in [0, 1], got 1.5"),
    (CoolingParams, {"c_air": 0.0}, "c_air must be positive, got 0.0"),
    (CoolingParams, {"d_air": 0.0}, "d_air must be positive, got 0.0"),
    (CoolingParams, {"hours_per_day": 48.0}, "hours_per_day must lie in [0, 24], got 48.0"),
    (EconParams, {"carbon_price_hkd_per_ton": float("inf")},
     "carbon_price_hkd_per_ton must be finite, got inf"),
], ids=["normal_tol_deg-negative", "normal_tol_deg-wraps", "residual_tol_m-negative",
        "cell-nan", "area_min_m2-negative", "age_max_yr-negative", "dt_sunny-negative",
        "sunny_fraction-above-1", "c_air-zero", "d_air-zero", "hours_per_day-above-24",
        "carbon_price-inf"])
def test_parameter_classes_check_their_bounds(cls, kwargs, message):
    with pytest.raises(ValueError) as info:
        cls(**kwargs)
    assert str(info.value) == message


def test_config_defaults_are_the_parameter_class_defaults():
    cfg = PipelineConfig()
    assert cfg.roof_params() == RoofParams()
    assert cfg.thresholds() == PotentialThresholds()
    assert cfg.cooling() == CoolingParams()
    assert cfg.econ() == EconParams()


def test_default_config_text_parses_back_every_key(tmp_path):
    cfg = parse_config_text(default_config_text({}), base_dir=str(tmp_path))
    for key, (cls, f) in NUMBER_KEYS.items():
        value = cfg.numbers[key]
        assert value == getattr(cls(), f.name), key
        assert type(value) is type(f.default), key


def test_default_config_text_matches_the_golden():
    with open(GOLDEN_CONFIG, encoding="utf-8") as fh:
        golden = fh.read()
    paths = {}
    for line in golden.splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        if key in PATH_KEYS:
            paths[key] = value
    assert default_config_text(paths) == golden
