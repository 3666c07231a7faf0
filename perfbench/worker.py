"""One process of a benchmark run: set up a workload, run its stages, check them.

``run.py`` starts this file as a child process, once per set-up it measures:

    python3 perfbench/worker.py REQUEST.json RESULT.json

The request names the checkout root, the workload, the seed, the role
(``timed``, ``setup`` or ``trace``) and the seconds to measure.  The result
holds the timestamp at which set-up ended, the stage times, the failure
counts and, for the timed and traced roles, the machine record.

The program is driven only through ``greenprior.cli.main`` and
``greenprior.synth.generate_city``, imported from the checkout's ``src``.
"""
import contextlib
import csv
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
import traceback
from dataclasses import asdict, dataclass

STAGES = ("extract", "indicators", "prioritize", "benefits", "report")
SCHEMES = ("equal", "entropy", "cv", "critic")
RESCORE_STAGES = ("prioritize", "benefits", "report")

# The files each stage writes into out/; each must exist after the stage.
STAGE_FILES = {
    "extract": ("dsm.asc", "segments.csv", "cells.csv", "buildings.csv"),
    "indicators": ("greenspace_base.asc", "greenspace_greened.asc",
                   "income_surface.asc", "precip_surface.asc", "indicators.csv"),
    "prioritize": ("weights.csv", "priorities.csv"),
    "benefits": ("benefits.csv", "regression.csv"),
    "report": ("buildings_report.csv", "buildings_report.geojson", "report.md"),
}
SYNTH_FILES = ("points.csv", "footprints.geojson", "groundtruth.csv", "config.txt")

# Largest allowed distance between a potential building's flattest extracted
# segment and its true roof slope, as in the acceptance gate's criterion 4.
SLOPE_TOL_DEG = 0.5


@dataclass(frozen=True)
class Workload:
    """A fixed synthetic city and the stage sequence timed on it.

    ``chain`` times extract through report on a fresh output directory.
    ``rescore`` runs extract once during set-up, then times indicators once
    and prioritize, benefits and report under each weighting scheme.
    """
    name: str
    kind: str
    city_seed: int
    buildings: int


WORKLOADS = {w.name: w for w in (
    # Grid-sized fixed costs dominate: the scene extent, hence the DSM, is
    # the same at every building count.
    Workload("chain-sparse-15", "chain", 7, 15),
    # Per-building and per-roof-cell kernels dominate.
    Workload("chain-dense-120", "chain", 7, 120),
    # The analyst loop on a finished extract: raster reads, not writes, and
    # the coverage disk on roof and population cells; roofs is bypassed.
    Workload("rescore-60", "rescore", 42, 60),
)}


def load_program(root):
    """Import greenprior from ``root/src`` and return its cli and synth modules."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "greenprior", "cli.py")):
        raise SystemExit(f"perfbench: no greenprior sources under {src}")
    sys.path.insert(0, src)
    from greenprior import cli, synth
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported greenprior from {cli.__file__}, not {src}")
    return cli, synth


def code_digest(root):
    """sha256 over the program's sources, naming "the same code"."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def shuffle_inputs(city, seed):
    """Permute the point rows and footprint features of a city by ``seed``.

    The workload fixes the city, so every seed asks for the same work; the
    program must not depend on the order of its input records.
    """
    rng = random.Random(seed)
    path = os.path.join(city, "points.csv")
    with open(path, "r", encoding="utf-8") as fh:
        header, *rows = fh.readlines()
    rng.shuffle(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(rows)
    path = os.path.join(city, "footprints.geojson")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    rng.shuffle(doc["features"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def check_extraction(city, out):
    """Compare buildings.csv and segments.csv with the city's ground truth.

    Returns a description of the first problems found, or None.
    """
    buildings = {r["id"]: r for r in _read_rows(os.path.join(out, "buildings.csv"))}
    min_slope = {}
    for r in _read_rows(os.path.join(out, "segments.csv")):
        bid, slope = r["building_id"], float(r["slope_deg"])
        min_slope[bid] = min(slope, min_slope.get(bid, slope))
    problems = []
    for truth in _read_rows(os.path.join(city, "groundtruth.csv")):
        bid = truth["id"]
        row = buildings.get(bid)
        if row is None:
            problems.append(f"{bid} missing from buildings.csv")
            continue
        if row["potential"] != truth["potential"]:
            problems.append(f"{bid} potential {row['potential']}, truth {truth['potential']}")
        if truth["potential"] != "true":
            continue
        slope = min_slope.get(bid)
        if slope is None or abs(slope - float(truth["true_slope_deg"])) > SLOPE_TOL_DEG:
            problems.append(f"{bid} slope {slope}, truth {truth['true_slope_deg']}")
        if float(row["height_m"]) == 0.0:
            problems.append(f"{bid} height_m is 0")
    return "; ".join(problems[:5]) or None


class Session:
    """Runs one workload's stages in this process and checks every output.

    Each stage invocation counts as attempted; it fails when it raises,
    exits nonzero, leaves out a file it should write, fails the
    ground-truth check (extract), or writes files whose sha256 differ from
    the first run of the same code, workload and seed.  Those first digests
    live in ``refs_path``.
    """

    def __init__(self, cli, synth, workload, seed, work_dir, refs_path):
        self.cli, self.synth = cli, synth
        self.workload, self.seed = workload, seed
        self.city = os.path.join(work_dir, "city")
        self.config = os.path.join(self.city, "config.txt")
        self.out = os.path.join(self.city, "out")
        self.refs_path = refs_path
        self.refs = {}
        if os.path.isfile(refs_path):
            with open(refs_path, "r", encoding="utf-8") as fh:
                self.refs = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tracer = None

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _record(self, key, problem):
        if problem:
            print(f"{key}: {problem}", file=sys.stderr)
            self.failed += 1
            self.failures.append(f"{key}: {problem.strip().splitlines()[-1]}")

    def _compare(self, key, digests):
        ref = self.refs.setdefault(key, digests)
        changed = sorted(n for n in digests if ref.get(n) != digests[n])
        if changed:
            return "outputs differ from the first run of this code: " + ", ".join(changed)
        return None

    def setup(self):
        """Generate the city (and, for rescore, extract it); returns extract seconds."""
        self.attempted += 1
        problem = None
        try:
            shutil.rmtree(self.city, ignore_errors=True)
            spec = self.synth.SyntheticCitySpec(seed=self.workload.city_seed,
                                                n_buildings=self.workload.buildings)
            self.synth.generate_city(spec, self.city)
            shuffle_inputs(self.city, self.seed)
            problem = self._compare("synth", {n: file_digest(os.path.join(self.city, n))
                                              for n in SYNTH_FILES})
        except Exception:
            problem = traceback.format_exc()
        self._record("synth", problem)
        if self.workload.kind == "rescore":
            return self.stage("extract")
        return None

    def stage(self, stage, scheme=None):
        """Run one subcommand through ``cli.main``; returns its wall seconds."""
        key = stage if scheme is None else f"{stage}:{scheme}"
        for name in STAGE_FILES[stage]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.out, name))
        argv = [stage, "--config", self.config]
        if scheme is not None:
            argv += ["--scheme", scheme]
        self.attempted += 1
        problem = None
        with self._span(f"cli.cmd_{stage}"):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:
                code, problem = None, traceback.format_exc()
            seconds = time.perf_counter() - start
        if problem is None and code != 0:
            problem = f"exit code {code}"
        if problem is None:
            problem = self._check(key, stage)
        self._record(key, problem)
        return seconds

    def _check(self, key, stage):
        digests = {}
        for name in STAGE_FILES[stage]:
            path = os.path.join(self.out, name)
            if not os.path.isfile(path):
                return f"{name} was not written"
            digests[name] = file_digest(path)
        if stage == "extract":
            problem = check_extraction(self.city, self.out)
            if problem:
                return problem
        return self._compare(key, digests)

    def iteration(self):
        """One pass of the timed stage sequence; returns seconds per stage."""
        if self.workload.kind == "chain":
            return {stage: self.stage(stage) for stage in STAGES}
        times = {"indicators": self.stage("indicators")}
        for scheme in SCHEMES:
            for stage in RESCORE_STAGES:
                times[stage] = times.get(stage, 0.0) + self.stage(stage, scheme)
        return times

    def save_refs(self):
        os.makedirs(os.path.dirname(self.refs_path), exist_ok=True)
        tmp = self.refs_path + f".{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.refs, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.refs_path)

    def output_bytes(self):
        return {name: os.path.getsize(os.path.join(self.out, name))
                for stage in STAGES for name in STAGE_FILES[stage]
                if os.path.isfile(os.path.join(self.out, name))}


def _filesystem(path):
    """Type of the filesystem holding ``path``, from the mount table."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", "r", encoding="utf-8") as fh:
            mounts = [line.split()[1:3] for line in fh]
    except OSError:
        return fstype
    for mount_point, kind in mounts:
        inside = path == mount_point or path.startswith(mount_point.rstrip("/") + "/")
        if inside and len(mount_point) > len(best):
            best, fstype = mount_point, kind
    return fstype


def machine_record(out_dir):
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "filesystem": _filesystem(out_dir),
    }


def trace_run(session):
    """Untraced pass, then a traced set-up and pass; returns the trace summary.

    The traced window covers set-up (synth, and extract for rescore) and one
    timed pass, so every layer shows on every workload.  The self times of
    all wrapped functions and stage spans add up to the program's share of
    that window: ``setup_work_s + wall_s``.
    """
    from tracer import Tracer
    session.setup()
    untraced = session.iteration()
    tracer = Tracer()
    tracer.install()
    session.tracer = tracer
    try:
        extract_s = session.setup()
        traced = session.iteration()
    finally:
        session.tracer = None
        tracer.restore()
    synth_s = tracer.stats.get("synth.generate_city", [0, 0.0, 0.0])[1]
    return {
        "untraced_wall_s": sum(untraced.values()),
        "wall_s": sum(traced.values()),
        "setup_work_s": synth_s + (extract_s or 0.0),
        "stats": tracer.stats,
        "counters": dict(tracer.counters),
        "spans": tracer.spans,
        "output_bytes": session.output_bytes(),
    }


def serve(request):
    """Carry out one worker request and return its result."""
    cli, synth = load_program(request["root"])
    workload = Workload(**request["workload"])
    session = Session(cli, synth, workload, request["seed"], request["work_dir"],
                      request["refs_path"])
    result = {}
    if request["role"] == "trace":
        result["trace"] = trace_run(session)
    else:
        result["extract_setup_s"] = session.setup()
        result["setup_done"] = time.perf_counter()
        if request["role"] == "timed":
            iterations = []
            start = time.perf_counter()
            while not iterations or time.perf_counter() - start < request["seconds"]:
                iterations.append(session.iteration())
            result["iterations"] = iterations
    session.save_refs()
    if request["role"] != "setup":
        result["machine"] = machine_record(session.out)
    result.update(attempted=session.attempted, failed=session.failed,
                  failures=session.failures,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return result


def request_for(root, workload, seed, role, seconds, work_dir, refs_path):
    return {"root": root, "workload": asdict(workload), "seed": seed, "role": role,
            "seconds": seconds, "work_dir": work_dir, "refs_path": refs_path}


if __name__ == "__main__":
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        req = json.load(fh)
    res = serve(req)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(res, fh)
