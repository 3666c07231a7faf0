"""Flat key=value configuration for the pipeline commands.

One committed file describes a full run: input paths, grid resolutions,
screening thresholds, cooling and economic assumptions, and the weighting
scheme. Paths are resolved relative to the directory holding the config
file so a dataset directory stays portable. Unknown keys are rejected so
typos fail fast instead of silently falling back to defaults.

Each numeric key is a tunable field of one parameter class, which holds
its type, default and range; every value is checked when the config is
built, so a bad one stops every stage, not only the stage that uses it.
"""

import os
from dataclasses import dataclass, field, fields, replace

from .benefits import CoolingParams, EconParams
from .geocore import check_tunable, tunable
from .indicators import GC_RADIUS_DEFAULT, MASK_CELL_DEFAULT, ROAD_CAP_DEFAULT
from .priority import WEIGHT_SCHEMES
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


@dataclass(frozen=True)
class StageParams:
    """Tunables the stages read from the config itself: the cells of the
    greenspace mask, the kriged surfaces and the population grid, the
    coverage radius and the road distance cap."""

    mask_cell: float = tunable(MASK_CELL_DEFAULT)
    gc_radius: float = tunable(GC_RADIUS_DEFAULT)
    interp_cell: float = tunable(50.0)
    population_cell: float = tunable(100.0)
    road_cap_m: float = tunable(ROAD_CAP_DEFAULT)


_PARAM_CLASSES = (RoofParams, PotentialThresholds, CoolingParams, EconParams, StageParams)

# the order default_config_text writes the numeric keys in; a tunable
# field missing here fails the import (ValueError from .index)
_NUMBER_ORDER = (
    "dsm_cell", "mask_cell", "gc_radius", "interp_cell", "population_cell",
    "slope_max_deg", "area_min_m2", "road_cap_m", "wall_diff_m", "normal_tol_deg",
    "residual_tol_m", "dt_sunny", "dt_cloudy", "dt_rainy", "c_air", "d_air",
    "sunny_fraction", "hours_per_day", "co2_uptake_kg_per_m2", "co2_kg_per_kwh",
    "tariff_hkd_per_kwh", "carbon_price_hkd_per_ton", "age_max_yr", "season_days",
    "rainy_days",
)

# config key -> (parameter class, tunable field); RoofParams.cell is dsm_cell
NUMBER_KEYS = dict(sorted(
    (("dsm_cell" if f.name == "cell" else f.name, (cls, f))
     for cls in _PARAM_CLASSES for f in fields(cls) if "bound" in f.metadata),
    key=lambda item: _NUMBER_ORDER.index(item[0])))


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
        if self.scheme not in WEIGHT_SCHEMES:
            raise ConfigError(f"unknown weighting scheme {self.scheme!r}")
        if self.interp_method not in ("kriging", "idw"):
            raise ConfigError(f"unknown interp_method {self.interp_method!r}")
        self.numbers = {key: self.numbers.get(key, f.default)
                        for key, (_, f) in NUMBER_KEYS.items()}
        try:
            for key, (_, f) in NUMBER_KEYS.items():
                check_tunable(f"config key {key!r}", self.numbers[key], f)
            for cls in _PARAM_CLASSES:  # the rules that tie fields together
                self._params(cls)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

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

    def _params(self, cls, **extra):
        return cls(**{f.name: self.numbers[key]
                      for key, (owner, f) in NUMBER_KEYS.items() if owner is cls}, **extra)

    def thresholds(self):
        return self._params(PotentialThresholds)

    def roof_params(self):
        return self._params(RoofParams, thresholds=self.thresholds())

    def cooling(self):
        return self._params(CoolingParams)

    def econ(self):
        return self._params(EconParams)


def parse_config_text(text, base_dir="."):
    """Parse key=value lines into a PipelineConfig.

    Blank lines and lines starting with # are skipped. Path values resolve
    relative to base_dir. Duplicate or unknown keys are errors.
    """
    known = {f.name for f in fields(PipelineConfig)} - {"numbers"} | set(NUMBER_KEYS)
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

    numbers = {}
    strings = {}
    for key, (lineno, value) in seen.items():
        if key in PATH_KEYS or key == "out_dir":
            strings[key] = os.path.normpath(os.path.join(base_dir, value))
        elif key in NUMBER_KEYS:
            kind = type(NUMBER_KEYS[key][1].default)
            try:
                numbers[key] = kind(value)
            except ValueError:
                need = "an integer" if kind is int else "a number"
                raise ConfigError(
                    f"line {lineno}: key {key!r} needs {need}, got {value!r}") from None
        else:
            strings[key] = value

    cfg = PipelineConfig(numbers=numbers, **strings)
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
        if key not in ("out_dir", "scheme"):
            raise ConfigError(f"unsupported override {key!r}")
        cfg = replace(cfg, **{key: value})  # checked again on the way in
    return cfg


def default_config_text(paths):
    """Render a ready-to-run config file body for a dataset directory."""
    lines = ["# pipeline configuration", ""]
    lines += [f"{key} = {paths[key]}" for key in PATH_KEYS if key in paths]
    lines += [f"out_dir = {PipelineConfig.out_dir}", "",
              "# analysis parameters (defaults written out for visibility)"]
    lines += [f"{key} = {f.default!r}" for key, (_, f) in NUMBER_KEYS.items()]
    lines += [f"scheme = {PipelineConfig.scheme}",
              f"interp_method = {PipelineConfig.interp_method}"]
    return "\n".join(lines) + "\n"
