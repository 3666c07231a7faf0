"""Every function the traced benchmark wraps still exists under its name,
and the stages call it.

``perfbench/tracer.py`` looks each of its TARGETS up by module and attribute
name, so deleting or renaming one of them would break the benchmark's
``--trace 1`` runs without failing any other test. A target that exists but
that no stage calls any more reads 0 in every traced run: the traced chain
of a small city must call each of them at least once.
"""
import importlib
import importlib.util
from pathlib import Path

from greenprior import cli, synth

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = []
    for module_name, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        *classes, name = attr.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name, None)
        # a method is looked up in its class's own namespace, as the tracer does
        found = vars(owner).get(name) if owner is not None else None
        if not callable(found):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
    assert [b[0] for b in tracer.bindings()] == tracer.layer_names()


def test_every_traced_layer_runs(tmp_path):
    tracer = _load_tracer()
    trace = tracer.Tracer()
    trace.install()
    try:
        city = tmp_path / "city"
        synth.generate_city(synth.SyntheticCitySpec(seed=1, n_buildings=5), str(city))
        for stage in ("extract", "indicators", "prioritize", "benefits", "report"):
            assert cli.main([stage, "--config", str(city / "config.txt")]) == 0, stage
    finally:
        trace.restore()
    never = [name for name in tracer.layer_names() if trace.stats.get(name, [0])[0] == 0]
    assert never == []
