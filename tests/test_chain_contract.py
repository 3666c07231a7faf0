"""The chain as the benchmark runs it: shuffled inputs, stage files deleted.

``perfbench/worker.py`` permutes the point rows and footprint features of
its city by a seed (``shuffle_inputs``) and compares each seed's outputs only
with its own first run, so it relies on the program not depending on input
order. Before each stage it deletes the files that stage writes
(``STAGE_FILES``) and counts the stage failed unless it exits 0 and writes
every one of them again; so no stage may read back a file it writes itself.

Here the 12-building city's chain runs again over its finished ``out/``,
after the worker's shuffle plus a seeded shuffle of the station and
population rows, each stage the worker's way. Every stage must exit 0 and
write its files, and every ``out/`` file must have the bytes of the run on
the inputs as generated. The worker module is loaded by file path, as
``test_benchmark_names`` loads the tracer.
"""
import importlib.util
import os
import random
import shutil
from pathlib import Path

import pytest

from greenprior import cli

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

SEED = 3601

# x,y,value tables shuffled by row on top of the worker's shuffle
ROW_TABLES = ("income_stations.csv", "precip_stations.csv", "population.csv")


def _load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def shuffled_chain(small_city, tmp_path_factory):
    """The worker module, the shuffled copy of the small city, and per stage
    its exit code and the files of its STAGE_FILES it did not write."""
    worker = _load_worker()
    city = tmp_path_factory.mktemp("shuffled") / "city"
    shutil.copytree(small_city, city)
    worker.shuffle_inputs(str(city), SEED)
    rng = random.Random(SEED)
    for name in ROW_TABLES:
        header, *rows = (city / name).read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(rows)
        (city / name).write_text(header + "".join(rows), encoding="utf-8")
    for name in ("points.csv", "footprints.geojson", *ROW_TABLES):
        assert (city / name).read_bytes() != (small_city / name).read_bytes(), name
    out = city / "out"
    results = {}
    for stage in worker.STAGES:
        for name in worker.STAGE_FILES[stage]:
            (out / name).unlink(missing_ok=True)
        code = cli.main([stage, "--config", str(city / "config.txt")])
        results[stage] = code, [n for n in worker.STAGE_FILES[stage] if not (out / n).is_file()]
    return worker, city, results


def test_each_stage_writes_its_stage_files(shuffled_chain):
    worker, _, results = shuffled_chain
    assert results == {stage: (0, []) for stage in worker.STAGES}


def test_shuffled_inputs_give_the_same_out_bytes(small_city, shuffled_chain):
    worker, city, _ = shuffled_chain
    names = sorted(os.listdir(small_city / "out"))
    # every output is one the worker deletes and checks
    assert names == sorted(name for files in worker.STAGE_FILES.values() for name in files)
    assert sorted(os.listdir(city / "out")) == names
    for name in names:
        assert (city / "out" / name).read_bytes() == (small_city / "out" / name).read_bytes(), name
