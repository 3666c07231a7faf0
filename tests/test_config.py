import os

import pytest

from greenprior.config import (
    ConfigError,
    PipelineConfig,
    default_config_text,
    load_config,
    parse_config_text,
)


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
