"""Flat key=value configuration for the pipeline commands.

One committed file describes a full run: input paths, grid resolutions,
screening thresholds, cooling and economic assumptions, and the weighting
scheme. Paths are resolved relative to the directory holding the config
file so a dataset directory stays portable. Unknown keys are rejected so
typos fail fast instead of silently falling back to defaults.
"""

import os
from dataclasses import dataclass, field, fields

from .benefits import CoolingParams, EconParams
from .roofs import PotentialThresholds, RoofParams


class ConfigError(ValueError):
    """Raised for unreadable, unknown, or inconsistent configuration."""


PATH_KEYS = (
    "points",
    "footprints",
    "roads",
    "income_stations",
    "precip_stations",
    "population",
    "temp_spring",
    "temp_summer",
    "temp_autumn",
    "temp_winter",
)

FLOAT_KEYS = {
    "dsm_cell": 1.0,
    "mask_cell": 5.0,
    "gc_radius": 500.0,
    "interp_cell": 50.0,
    "population_cell": 100.0,
    "slope_max_deg": 15.0,
    "area_min_m2": 10.0,
    "road_cap_m": 500.0,
    "wall_diff_m": 1.0,
    "normal_tol_deg": 10.0,
    "residual_tol_m": 0.2,
    "dt_sunny": 0.15,
    "dt_cloudy": 0.10,
    "dt_rainy": 0.0,
    "c_air": 1004.0,
    "d_air": 1.29,
    "sunny_fraction": 0.5,
    "hours_per_day": 24.0,
    "co2_uptake_kg_per_m2": 1.46,
    "co2_kg_per_kwh": 0.785,
    "tariff_hkd_per_kwh": 1.29,
    "carbon_price_hkd_per_ton": 65.0,
}

INT_KEYS = {
    "age_max_yr": 60,
    "season_days": 180,
    "rainy_days": 30,
}

STR_KEYS = {
    "scheme": "equal",
    "interp_method": "kriging",
    "out_dir": "out",
}

_POSITIVE = ("dsm_cell", "mask_cell", "gc_radius", "interp_cell",
             "population_cell", "slope_max_deg", "area_min_m2", "road_cap_m",
             "wall_diff_m", "normal_tol_deg", "residual_tol_m")


@dataclass
class PipelineConfig:
    points: str | None = None
    footprints: str | None = None
    roads: str | None = None
    income_stations: str | None = None
    precip_stations: str | None = None
    population: str | None = None
    temp_spring: str | None = None
    temp_summer: str | None = None
    temp_autumn: str | None = None
    temp_winter: str | None = None
    out_dir: str = "out"
    scheme: str = "equal"
    interp_method: str = "kriging"
    numbers: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(FLOAT_KEYS)
        merged.update(INT_KEYS)
        merged.update(self.numbers)
        self.numbers = merged
        from .priority import WEIGHT_SCHEMES
        if self.scheme not in WEIGHT_SCHEMES:
            raise ConfigError(f"unknown weighting scheme {self.scheme!r}")
        if self.interp_method not in ("kriging", "idw"):
            raise ConfigError(f"unknown interp_method {self.interp_method!r}")
        for key in _POSITIVE:
            if self.numbers[key] <= 0:
                raise ConfigError(f"config key {key!r} must be positive")
        if self.numbers["age_max_yr"] < 0:
            raise ConfigError("age_max_yr must be non-negative")

    def __getattr__(self, name):
        numbers = self.__dict__.get("numbers")
        if numbers and name in numbers:
            return numbers[name]
        raise AttributeError(name)

    def require(self, *keys):
        """Fail with the missing key names unless all path keys are set."""
        missing = [k for k in keys if getattr(self, k) is None]
        if missing:
            raise ConfigError(
                "config is missing required path keys: " + ", ".join(missing))

    def thresholds(self):
        return PotentialThresholds(
            slope_max_deg=self.numbers["slope_max_deg"],
            area_min_m2=self.numbers["area_min_m2"],
            age_max_yr=self.numbers["age_max_yr"],
        )

    def roof_params(self):
        return RoofParams(
            cell=self.numbers["dsm_cell"],
            wall_diff_m=self.numbers["wall_diff_m"],
            normal_tol_deg=self.numbers["normal_tol_deg"],
            residual_tol_m=self.numbers["residual_tol_m"],
            thresholds=self.thresholds(),
        )

    def cooling(self):
        n = self.numbers
        return CoolingParams(
            dt_sunny=n["dt_sunny"], dt_cloudy=n["dt_cloudy"],
            dt_rainy=n["dt_rainy"], c_air=n["c_air"], d_air=n["d_air"],
            season_days=n["season_days"], rainy_days=n["rainy_days"],
            sunny_fraction=n["sunny_fraction"], hours_per_day=n["hours_per_day"])

    def econ(self):
        n = self.numbers
        return EconParams(
            co2_uptake_kg_per_m2=n["co2_uptake_kg_per_m2"],
            co2_kg_per_kwh=n["co2_kg_per_kwh"],
            tariff_hkd_per_kwh=n["tariff_hkd_per_kwh"],
            carbon_price_hkd_per_ton=n["carbon_price_hkd_per_ton"])


def _known_keys():
    keys = set(PATH_KEYS) | set(FLOAT_KEYS) | set(INT_KEYS) | set(STR_KEYS)
    return keys


def parse_config_text(text, base_dir="."):
    """Parse key=value lines into a PipelineConfig.

    Blank lines and lines starting with # are skipped. Path values resolve
    relative to base_dir. Duplicate or unknown keys are errors.
    """
    known = _known_keys()
    seen = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        seen[key] = (lineno, value)

    paths = {}
    numbers = {}
    strings = dict(STR_KEYS)
    for key, (lineno, value) in seen.items():
        if key in PATH_KEYS:
            paths[key] = os.path.normpath(os.path.join(base_dir, value))
        elif key in FLOAT_KEYS:
            try:
                numbers[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: key {key!r} needs a number, got {value!r}") from None
        elif key in INT_KEYS:
            try:
                numbers[key] = int(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: key {key!r} needs an integer, got {value!r}") from None
        else:
            strings[key] = value

    out_dir = strings.pop("out_dir")
    if "out_dir" in seen:
        out_dir = os.path.normpath(os.path.join(base_dir, seen["out_dir"][1]))
    cfg = PipelineConfig(out_dir=out_dir, numbers=numbers, **paths, **strings)
    for key in PATH_KEYS:
        p = getattr(cfg, key)
        if p is not None and not os.path.isfile(p):
            raise ConfigError(f"config key {key!r} points to a missing file: {p}")
    return cfg


def load_config(path, overrides=None):
    """Read a config file and apply command-line overrides on top."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    cfg = parse_config_text(text, base_dir=os.path.dirname(os.path.abspath(path)))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "out_dir":
            cfg.out_dir = value
        elif key == "scheme":
            from .priority import WEIGHT_SCHEMES
            if value not in WEIGHT_SCHEMES:
                raise ConfigError(f"unknown weighting scheme {value!r}")
            cfg.scheme = value
        else:
            raise ConfigError(f"unsupported override {key!r}")
    return cfg


def default_config_text(paths):
    """Render a ready-to-run config file body for a dataset directory."""
    lines = ["# pipeline configuration", ""]
    for key in PATH_KEYS:
        if key in paths:
            lines.append(f"{key} = {paths[key]}")
    lines.append("out_dir = out")
    lines.append("")
    lines.append("# analysis parameters (defaults written out for visibility)")
    for key, default in FLOAT_KEYS.items():
        lines.append(f"{key} = {default!r}")
    for key, default in INT_KEYS.items():
        lines.append(f"{key} = {default}")
    lines.append("scheme = equal")
    lines.append("interp_method = kriging")
    return "\n".join(lines) + "\n"
