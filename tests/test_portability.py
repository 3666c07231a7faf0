"""Extract gives the same files whichever kernel OpenBLAS picks.

Region growing decides on Python-float arithmetic, so which cells each
segment holds, and with that ``cells.csv``, ``buildings.csv`` and
``dsm.asc``, must not depend on the BLAS kernel. Each run forces a kernel
with ``OPENBLAS_CORETYPE`` in a fresh process, because OpenBLAS reads it
when it loads, and reports the kernel OpenBLAS then ran, so a variable
that took no effect fails the test. The kernels run on any x86-64 CPU with
AVX2.

``segments.csv`` is compared by value, not byte for byte: each segment's
final plane still comes from LAPACK's ``solve``, whose last bits follow the
kernel, and the file prints ``-0.000000`` as it is, so on the seed-42
60-building city a few signed zeros in ``plane_a`` and ``plane_b`` differ
between kernels. The seed-7 12-building city shows no such difference.
"""
import csv
import ctypes
import filecmp
import glob
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import greenprior
from greenprior import cli
from greenprior.synth import SyntheticCitySpec, generate_city

SRC = os.path.dirname(os.path.dirname(os.path.abspath(greenprior.__file__)))
COMPARED = ("cells.csv", "buildings.csv", "dsm.asc")
CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                    "openblas_get_corename64_", "openblas_get_corename")

# runs one CLI command, then prints the name of the kernel OpenBLAS ran
CHILD = """\
import ctypes, sys
from greenprior import cli
code = cli.main(sys.argv[3:])
get = getattr(ctypes.CDLL(sys.argv[1]), sys.argv[2])
get.restype = ctypes.c_char_p
print(get().decode())
sys.exit(code)
"""


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


@pytest.fixture(scope="module")
def city_42_60(tmp_path_factory):
    """The seed-42 60-building city, extracted under the default kernel."""
    city = tmp_path_factory.mktemp("city42") / "city"
    generate_city(SyntheticCitySpec(seed=42, n_buildings=60), str(city))
    code = cli.main(["extract", "--config", str(city / "config.txt"),
                     "--out", str(city / "out")])
    assert code == 0
    return city


def _values(path):
    """The rows of a CSV file, numbers as floats, so -0.0 equals 0.0."""
    def value(field):
        try:
            return float(field)
        except ValueError:
            return field
    with open(path, newline="") as f:
        return [[value(field) for field in row] for row in csv.reader(f)]


@pytest.mark.skipif(NOT_FORCEABLE is not None, reason=str(NOT_FORCEABLE))
@pytest.mark.parametrize("city_fixture", ["small_city", "city_42_60"])
@pytest.mark.parametrize("kernel", ["Haswell", "Nehalem", "Sandybridge"])
def test_extract_files_do_not_depend_on_the_blas_kernel(request, tmp_path, kernel, city_fixture):
    city = request.getfixturevalue(city_fixture)
    out = tmp_path / "out"
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *_openblas()[0], "extract",
         "--config", str(city / "config.txt"), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == kernel
    for name in COMPARED:
        assert filecmp.cmp(out / name, city / "out" / name, shallow=False), name
    assert _values(out / "segments.csv") == _values(city / "out" / "segments.csv")
