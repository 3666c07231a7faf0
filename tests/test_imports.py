"""No stage loads scipy, and the stages after extract do not import roofs.

Importing the CLI, and running ``synth``, ``extract``, ``indicators``,
``prioritize``, ``benefits`` or ``report``, must leave scipy unloaded, so
that each of those processes starts in the time numpy takes and holds no
scipy module in memory. scipy serves only the tests' oracles. Each stage
runs in a fresh interpreter on a tiny city.

The modules of the stages after extract take roof cells as arrays from
the extract tables; none imports anything from ``greenprior.roofs``, which
an AST scan of their sources checks.

Only ``interp`` calls linear algebra (its kriging solves, whose outputs are
written at 6 decimals): another AST scan checks that no other module uses
``@``, numpy's products or ``numpy.linalg``, whose last bits follow the
BLAS and LAPACK builds of the machine.

Only ``synth`` calls numpy's transcendental functions (exp, log, power, the
trigonometric and hyperbolic ones, cbrt), whose last bits follow the SIMD
code numpy dispatches to; synth writes the same files at every level. A
third scan checks the other modules. ``sqrt`` and ``hypot`` give the same
bits at every level and are allowed. The scan sees attributes and imports,
not operators: ``x ** y`` on arrays is numpy's power unseen. The last such
power was in ``idw_predict``, which now lives with the tests' oracles
(``gate_oracles``): a fourth scan checks that no package module names it,
so no stage can reach it.
"""
import ast
import os
import subprocess
import sys

import pytest

import greenprior

SRC = os.path.dirname(os.path.dirname(os.path.abspath(greenprior.__file__)))

# runs the CLI with the given arguments (none: only imports it), then prints
# its exit code and whether any scipy module was loaded
PROBE = ("import sys\n"
         "from greenprior import cli\n"
         "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
         "print(code, any(name.partition('.')[0] == 'scipy' for name in sys.modules))\n")


def _run(*args, before=""):
    """Whether the probe saw scipy loaded, with the code ``before`` run first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", before + PROBE, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    code, scipy_loaded = done.stdout.split()[-2:]
    assert code == "0", done.stderr
    return scipy_loaded == "True"


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """Whether each stage of a tiny city's chain loaded scipy, stage by stage
    in pipeline order, plus the bare CLI import."""
    city = tmp_path_factory.mktemp("imports") / "city"
    loaded = {"import": _run(),
              "synth": _run("synth", "--out", str(city), "--seed", "7", "--buildings", "4")}
    config = str(city / "config.txt")
    for stage in ("extract", "indicators", "prioritize", "benefits", "report"):
        loaded[stage] = _run(stage, "--config", config)
    return loaded


@pytest.mark.parametrize("stage", ["import", "synth", "extract", "indicators", "prioritize",
                                   "benefits", "report"])
def test_stage_does_not_load_scipy(stages, stage):
    assert not stages[stage]


def test_probe_sees_scipy_it_imported():
    # the probe sees modules that are loaded: without this the checks above
    # could pass on a probe that never sees any
    assert _run(before="import scipy.spatial\n")


def _tree(module):
    """The AST of the source of greenprior.module."""
    path = os.path.join(SRC, "greenprior", module + ".py")
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _imported_modules(module):
    """The absolute names of the modules and of the module attributes that
    the source of greenprior.module imports, at any depth of its tree: an
    import from greenprior.roofs, or of it, yields a name in that module."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("greenprior" if node.level else "", node.module)))
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["indicators", "interp", "priority", "benefits"])
def test_stage_module_imports_nothing_from_roofs(module):
    names = _imported_modules(module)
    assert "greenprior.geocore.ComputationError" in names  # the scan sees the package
    assert not [name for name in names if name.startswith("greenprior.roofs")]


LINEAR_ALGEBRA = ("dot", "matmul", "einsum", "inner", "tensordot", "vdot", "linalg")

MODULES = sorted(name[:-3] for name in os.listdir(os.path.join(SRC, "greenprior"))
                 if name.endswith(".py") and name != "__init__.py")


def _numpy_uses(module, names):
    """What the source of greenprior.module uses of numpy's attributes in
    names: "np.<name>" for an attribute of numpy, and the numpy imports that
    name one."""
    found = {name for name in _imported_modules(module)
             if name.split(".")[0] == "numpy" and set(name.split(".")) & set(names)}
    for node in ast.walk(_tree(module)):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.add(f"np.{node.attr}")
    return found


def _linear_algebra(module):
    """What the source of greenprior.module uses of linear algebra: "@" for
    the matrix product operator, and its uses of numpy named in
    LINEAR_ALGEBRA."""
    found = _numpy_uses(module, LINEAR_ALGEBRA)
    if any(isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
           for node in ast.walk(_tree(module))):
        found.add("@")
    return found


def test_linear_algebra_scan_sees_interp_solves():
    # the scan sees linear algebra where it is: without this the check below
    # could pass on a scan that finds nothing
    assert "np.linalg" in _linear_algebra("interp")


@pytest.mark.parametrize("module", [m for m in MODULES if m != "interp"])
def test_only_interp_uses_linear_algebra(module):
    assert not _linear_algebra(module)


TRANSCENDENTAL = ("exp", "expm1", "exp2", "log", "log1p", "log2", "log10", "power",
                  "float_power", "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
                  "sinh", "cosh", "tanh", "cbrt")


def test_transcendental_scan_sees_synth_sines():
    # the scan sees numpy's transcendental functions where they are: without
    # this the check below could pass on a scan that finds nothing
    assert "np.sin" in _numpy_uses("synth", TRANSCENDENTAL)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "synth"])
def test_only_synth_uses_numpy_transcendental_functions(module):
    assert not _numpy_uses(module, TRANSCENDENTAL)


def _mentions(module, name):
    """How the source of greenprior.module names ``name``: "def" for its
    definition, "name" or "attribute" for a use, "import" for an import."""
    found = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            found.append("def")
        elif isinstance(node, ast.Name) and node.id == name:
            found.append("name")
        elif isinstance(node, ast.Attribute) and node.attr == name:
            found.append("attribute")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += ["import" for alias in node.names if alias.name.split(".")[-1] == name]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_stage_reaches_idw(module):
    assert _mentions(module, "idw_predict") == []
