"""Self-time tracing of greenprior's public functions, wrapped from outside.

The tracer replaces each target function by a timing wrapper in every
namespace that holds it, because modules bind several of them with
``from ... import`` (``cli.extract_all``, ``benefits.greenspace_coverage``,
``roofs.points_in_polygon``).  A call's self time is its duration minus the
durations of the wrapped calls nested inside it.  Hot per-cell functions are
only aggregated (calls, total, self); the others also record one span each,
kept in memory until the caller writes them out.  ``restore`` puts every
original back.
"""
import contextlib
import functools
import os
import sys
import time
from collections import Counter

import numpy as np


def _count_extract_all(counters, args, kwargs, result):
    counters["roofs.assign_segments.assigned"] += len(result.segments)
    counters["roofs.dsm.finite_cells"] += int(np.isfinite(result.dsm.values).sum())


def _count_grow_segments(counters, args, kwargs, result):
    counters["roofs.segments.count"] += len(result)


def _count_raster_read(counters, args, kwargs, result):
    counters["ingest.read_raster_asc.bytes"] += os.path.getsize(args[0])


def _count_raster_write(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counters["ingest.write_raster_asc.bytes"] += os.path.getsize(path)


def _count_interpolate_grid(counters, args, kwargs, result):
    counters["interp.kriged_cells"] += result.values.size


def _count_fill_nodata(counters, args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    counters["interp.kriged_cells"] += int(np.isnan(grid.values).sum())


PACKAGE = "greenprior"

# (module, attribute, hot, counter).  "Polygon.contains" names a method.
TARGETS = (
    ("geocore", "Polygon.contains", True, None),
    ("geocore", "points_in_polygon", True, None),
    ("ingest", "read_point_cloud", False, None),
    ("ingest", "read_raster_asc", False, _count_raster_read),
    ("ingest", "write_raster_asc", False, _count_raster_write),
    ("roofs", "candidate_roof_points", False, None),
    ("roofs", "filter_wall_edges", False, None),
    ("roofs", "local_normals", False, None),
    ("roofs", "label_components", False, None),
    ("roofs", "grow_segments", False, _count_grow_segments),
    ("roofs", "assign_segments", False, None),
    ("roofs", "building_height", False, None),
    ("roofs", "extract_all", False, _count_extract_all),
    ("indicators", "build_greenspace_mask", False, None),
    ("indicators", "greenspace_coverage", True, None),
    ("indicators", "building_coverage_rate", False, None),
    ("indicators", "sample_surface_at_building", False, None),
    ("interp", "fit_variogram", False, None),
    ("interp", "interpolate_grid", False, _count_interpolate_grid),
    ("interp", "fill_raster_nodata", False, _count_fill_nodata),
    ("benefits", "greenspace_exposure", False, None),
    ("priority", "compute_weights", False, None),
    ("priority", "rank_buildings", False, None),
    ("synth", "generate_city", False, None),
)


# Wrapped functions whose call count is reported, and the work counters.
CALL_COUNTS = ("geocore.Polygon.contains", "geocore.points_in_polygon",
               "indicators.greenspace_coverage", "roofs.grow_segments")
COUNTERS = ("roofs.dsm.finite_cells", "roofs.segments.count",
            "roofs.assign_segments.assigned", "ingest.read_raster_asc.bytes",
            "ingest.write_raster_asc.bytes", "interp.kriged_cells")


def layer_names():
    return [f"{module}.{attr}" for module, attr, _, _ in TARGETS]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def bindings():
    """Each target as (name, hot, counter, original, [(owner, attribute)]).

    The owners are every namespace of the package through which the
    original is reachable, so a wrapper installed in all of them reaches
    every caller.
    """
    modules = _package_modules()
    found = []
    for mod_name, attr, hot, counter in TARGETS:
        module = sys.modules[f"{PACKAGE}.{mod_name}"]
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            found.append((name, hot, counter, cls.__dict__[method], [(cls, method)]))
            continue
        original = getattr(module, attr)
        owners = [(m, attr) for m in modules if m.__dict__.get(attr) is original]
        found.append((name, hot, counter, original, owners))
    return found


class Tracer:
    """Aggregated self times, call counts, work counters and spans."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = Counter()
        self.spans = []  # (name, start, end, parent span index or -1)
        self._stack = []  # [child_s, span index] per open wrapped call
        self._patches = []

    def _enter(self, name, record_span):
        index = -1
        if record_span:
            parent = self._stack[-1][1] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append([0.0, index])
        return index

    def _exit(self, name, index, start, end):
        child_s, _ = self._stack.pop()
        elapsed = end - start
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += elapsed
        stats[2] += elapsed - child_s
        if self._stack:
            self._stack[-1][0] += elapsed
        if index >= 0:
            self.spans[index][1:3] = [start, end]

    @contextlib.contextmanager
    def span(self, name):
        """Time a block as one traced call of ``name``."""
        index = self._enter(name, True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, index, start, time.perf_counter())

    def _wrap(self, name, fn, hot, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(name, not hot)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, index, start, time.perf_counter())
            if counter is not None:
                counter(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every namespace of the package holding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, hot, counter, original, owners in bindings():
            wrapper = self._wrap(name, original, hot, counter)
            for owner, attr in owners:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def restore(self):
        """Put every original function back where install found it."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
