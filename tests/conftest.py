import pytest

from greenprior import cli
from greenprior.synth import SyntheticCitySpec, generate_city


@pytest.fixture(scope="session")
def small_city(tmp_path_factory):
    """One 12-building city with the whole pipeline already run, shared by
    every test module that reads it."""
    root = tmp_path_factory.mktemp("smallcity")
    city = root / "city"
    generate_city(SyntheticCitySpec(seed=7, n_buildings=12), str(city))
    config = str(city / "config.txt")
    out = str(city / "out")
    for command in ("extract", "indicators", "prioritize", "benefits",
                    "report"):
        code = cli.main([command, "--config", config, "--out", out])
        assert code == 0, command
    return city
