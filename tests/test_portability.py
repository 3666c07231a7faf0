"""The pipeline writes the same files whichever kernel OpenBLAS picks, and
whichever SIMD code numpy dispatches to.

Region growing decides, and fits each segment's final plane, in
Python-float arithmetic, and each building's priority is a correctly
rounded sum, so none of the 16 files of a chain from extract through
report may depend on the BLAS kernel. Each run forces a kernel with
``OPENBLAS_CORETYPE`` in a fresh process, because OpenBLAS reads it when it
loads, and reports the kernel OpenBLAS then ran, so a variable that took no
effect fails the test. The kernels run on any x86-64 CPU with AVX2.

numpy picks its SIMD code when it loads, by the CPU's features, and
``NPY_DISABLE_CPU_FEATURES`` turns groups of them off. The chain runs with
numpy held to the X86_V3 (AVX2) level and to the X86_V2 baseline, and
reports the groups numpy then had on, so a variable that took no effect
fails the test. Files hold rounded values, so values before rounding are
compared bit for bit at those levels too: the spherical variogram, which
every kriged value passes through, the 42/60 city's kriged station
surfaces and gap fills, and the weights of every scheme on its indicators.
"""
import ctypes
import filecmp
import glob
import hashlib
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import greenprior
from greenprior import cli
from greenprior.config import load_config
from greenprior.indicators import SEASONS
from greenprior.ingest import read_raster_asc, read_xy_value
from greenprior.interp import SampleSet, VariogramModel, fill_raster_nodata, interpolate_grid
from greenprior.priority import WEIGHT_SCHEMES, compute_weights
from greenprior.synth import SyntheticCitySpec, generate_city

SRC = os.path.dirname(os.path.dirname(os.path.abspath(greenprior.__file__)))
STAGES = ("extract", "indicators", "prioritize", "benefits", "report")
CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                    "openblas_get_corename64_", "openblas_get_corename")

# runs the CLI stages named in argv[3] with the options that follow, then
# prints the name of the kernel OpenBLAS ran
CHILD = """\
import ctypes, sys
from greenprior import cli
for command in sys.argv[3].split(","):
    if cli.main([command, *sys.argv[4:]]) != 0:
        sys.exit(command)
get = getattr(ctypes.CDLL(sys.argv[1]), sys.argv[2])
get.restype = ctypes.c_char_p
print(get().decode())
"""

# runs the CLI stages named in argv[1] with the options that follow, then
# prints the CPU feature groups numpy had on
DISPATCH_CHILD = """\
import sys
from numpy._core._multiarray_umath import __cpu_features__
from greenprior import cli
for command in sys.argv[1].split(","):
    if cli.main([command, *sys.argv[2:]]) != 0:
        sys.exit(command)
print(" ".join(sorted(f for f, on in __cpu_features__.items() if on)))
"""

# prints value_digest of the city in argv[2], then the CPU feature groups
# numpy had on
DIGEST_CHILD = """\
import sys
from numpy._core._multiarray_umath import __cpu_features__
sys.path.insert(0, sys.argv[1])
from test_portability import value_digest
print(value_digest(sys.argv[2]))
print(" ".join(sorted(f for f, on in __cpu_features__.items() if on)))
"""

# numpy's x86-64 dispatch groups above each level, to turn off to hold it
# at that level
ABOVE = {"X86_V3": ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
         "X86_V2": ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")}


def _openblas():
    """numpy's OpenBLAS library and its core-name function, or why not."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in CORENAME_SYMBOLS:
            if hasattr(lib, symbol):
                return (path, symbol), None
    return None, f"no OpenBLAS library with a core-name function in {libs}"


def _why_not_forceable():
    """Why OPENBLAS_CORETYPE cannot pick the kernels here; None if it can."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"OpenBLAS x86-64 kernels need an x86-64 machine, not {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS build"
    config = blas.get("openblas configuration", "")
    if "openblas" not in blas.get("name", "").lower() or "DYNAMIC_ARCH" not in config:
        return f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS: {blas.get('name')} {config}"
    try:
        with open("/proc/cpuinfo") as f:
            if "avx2" not in f.read().split():
                return "the Haswell kernel needs a CPU with AVX2"
    except OSError:
        return "cannot read the CPU flags to check for AVX2"
    return _openblas()[1]


NOT_FORCEABLE = _why_not_forceable()


def _dispatch_on():
    """The dispatch groups numpy runs here, or None where it is not an
    x86-64 numpy that reports them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return None
    return {f for f in __cpu_dispatch__ if __cpu_features__.get(f)}


DISPATCH_ON = _dispatch_on()


@pytest.fixture(scope="module")
def city_42_60(tmp_path_factory):
    """The seed-42 60-building city, run from extract through report under
    the default kernel."""
    city = tmp_path_factory.mktemp("city42") / "city"
    generate_city(SyntheticCitySpec(seed=42, n_buildings=60), str(city))
    for command in STAGES:
        code = cli.main([command, "--config", str(city / "config.txt"),
                         "--out", str(city / "out")])
        assert code == 0, command
    return city


@pytest.mark.skipif(NOT_FORCEABLE is not None, reason=str(NOT_FORCEABLE))
@pytest.mark.parametrize("city_fixture", ["small_city", "city_42_60"])
@pytest.mark.parametrize("kernel", ["Haswell", "Nehalem", "Sandybridge"])
def test_chain_files_do_not_depend_on_the_blas_kernel(request, tmp_path, kernel, city_fixture):
    city = request.getfixturevalue(city_fixture)
    reported = _chain_in_child(city, tmp_path / "out", {"OPENBLAS_CORETYPE": kernel},
                               CHILD, *_openblas()[0])
    assert reported == kernel


@pytest.mark.parametrize("city_fixture", ["small_city", "city_42_60"])
@pytest.mark.parametrize("level", ["X86_V3", "X86_V2"])
def test_chain_files_do_not_depend_on_numpy_dispatch(request, tmp_path, level, city_fixture):
    off = [group for group in ABOVE[level] if group in (DISPATCH_ON or ())]
    if not off:
        pytest.skip(f"numpy dispatches no group above {level} here")
    city = request.getfixturevalue(city_fixture)
    reported = _chain_in_child(city, tmp_path / "out",
                               {"NPY_DISABLE_CPU_FEATURES": " ".join(off)}, DISPATCH_CHILD)
    on = set(reported.split())
    assert level in on and not on & set(off), reported


def value_digest(city):
    """sha256 of the bits, before rounding, of: the spherical
    VariogramModel.gamma at 200,001 lags from 0 to 1.5 times the range
    (products of exact steps); the city's kriged station surfaces; its
    temperature grids with gaps, filled; and compute_weights of every scheme
    on its indicators. Reads the city's config and its out/ tables."""
    model = VariogramModel(0.25, 2.0, 700.3)
    lags = np.arange(200_001) * (1.5 * model.range_m / 200_000)
    values = [model.gamma(lags)]
    cfg = load_config(os.path.join(city, "config.txt"))
    template = read_raster_asc(os.path.join(cfg.out_dir, "income_surface.asc"))
    for path in (cfg.income_stations, cfg.precip_stations):
        values.append(interpolate_grid(SampleSet.from_points(read_xy_value(path)),
                                       template).values)
    grids = [read_raster_asc(getattr(cfg, f"temp_{season}")) for season in SEASONS]
    values += [fill_raster_nodata(g).values for g in grids if np.isnan(g.values).any()]
    _, matrix = cli._read_indicator_vectors(cfg)
    values += [compute_weights(matrix, scheme) for scheme in WEIGHT_SCHEMES]
    assert len(values) == 3 + 2 + len(WEIGHT_SCHEMES)
    digest = hashlib.sha256()
    for v in values:
        digest.update(np.ascontiguousarray(v, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("level", ["X86_V3", "X86_V2"])
def test_variogram_bits_do_not_depend_on_numpy_dispatch(city_42_60, level):
    # the cube of the spherical shape is taken by products, and the entropy
    # weights' logs by math.log: numpy's power and log give other bits below
    # the CPU's own level
    off = [group for group in ABOVE[level] if group in (DISPATCH_ON or ())]
    if not off:
        pytest.skip(f"numpy dispatches no group above {level} here")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", DIGEST_CHILD, os.path.dirname(__file__),
                           str(city_42_60)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    digest, reported = done.stdout.splitlines()[-2:]
    on = set(reported.split())
    assert level in on and not on & set(off), reported
    assert digest == value_digest(city_42_60)


def _chain_in_child(city, out, variables, child, *child_args):
    """Run the chain of city in a fresh process with the environment
    variables added, writing to out; every one of the 16 files must equal
    city's. Returns the last line the child printed."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", child, *child_args, ",".join(STAGES),
         "--config", str(city / "config.txt"), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    names = sorted(os.listdir(city / "out"))
    assert len(names) == 16 and sorted(os.listdir(out)) == names
    for name in names:
        assert filecmp.cmp(out / name, city / "out" / name, shallow=False), name
    return done.stdout.splitlines()[-1]
