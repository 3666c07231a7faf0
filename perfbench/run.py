"""Benchmark of the greenprior pipeline, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-sparse-15 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it starts one timed worker process and further set-up
workers, and reports the end-to-end metrics.  With ``--trace 1`` it starts one
worker that makes an untraced and a traced pass, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files, result
records and the first-run output digests live under ``.perfbench/``.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import CALL_COUNTS, COUNTERS, layer_names
from worker import STAGE_FILES, STAGES, WORKLOADS, code_digest, request_for

# Set-ups per timed run; setup_s is their median.
SETUPS = 3
# Wall-clock budget of one run, kept under the 180 s a run may take.
TIME_LIMIT_S = 170.0
STATE_DIR = ".perfbench"
HERE = os.path.dirname(os.path.abspath(__file__))


class WorkerError(RuntimeError):
    pass


def _spawn(request, deadline):
    """Run one worker process to completion; returns (spawn time, result)."""
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    req_path = os.path.join(request["work_dir"], f"request-{tag}.json")
    res_path = os.path.join(request["work_dir"], f"result-{tag}.json")
    with open(req_path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), req_path, res_path],
            cwd=request["root"], capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{request['role']} worker exceeded the time limit") from None
    if proc.returncode != 0 or not os.path.isfile(res_path):
        raise WorkerError(f"{request['role']} worker exited {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    with open(res_path, "r", encoding="utf-8") as fh:
        return spawned, json.load(fh)


def _timed_metrics(workload, results):
    """End-to-end metrics from the timed worker (first) and the set-up workers.

    Stage times are means: the run's total time in a stage over its passes.
    On a shared machine, speed can switch between two levels for tens of
    seconds at a time.  The median of a few passes then jumps between the
    levels, while the mean moves in proportion to the time spent at each.
    """
    timed = results[0][1]
    iterations = timed["iterations"]
    wall = statistics.fmean(sum(it.values()) for it in iterations)
    if workload.kind == "chain":
        extract = statistics.fmean(it["extract"] for it in iterations)
    else:
        extract = statistics.fmean(r["extract_setup_s"] for _, r in results)
    setup = statistics.median(r["setup_done"] - t for t, r in results)
    return {
        "wall_s": (wall, "s"),
        "extract_s": (extract, "s"),
        "indicators_s": (statistics.fmean(it["indicators"] for it in iterations), "s"),
        "buildings_per_s": (workload.buildings / wall, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (timed["maxrss_kb"] / 1024.0, "MB"),
    }


def _layer_metrics(trace):
    """Per-layer metrics of the traced pass; see perfbench/README.md."""
    stats, counters = trace["stats"], trace["counters"]
    metrics = {}
    for name in layer_names() + [f"cli.cmd_{s}" for s in STAGES]:
        metrics[f"{name}.self_s"] = (stats.get(name, [0, 0.0, 0.0])[2], "s")
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = (stats.get(name, [0])[0], "count")
    for name in COUNTERS:
        unit = "bytes" if name.endswith(".bytes") else "count"
        metrics[name] = (counters.get(name, 0), unit)
    for stage in STAGES:
        for fname in STAGE_FILES[stage]:
            metrics[f"out.{fname}.bytes"] = (trace["output_bytes"].get(fname, 0), "bytes")
    metrics["trace.wall_s"] = (trace["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (trace["untraced_wall_s"], "s")
    metrics["trace.overhead_s"] = (trace["wall_s"] - trace["untraced_wall_s"], "s")
    metrics["trace.setup_work_s"] = (trace["setup_work_s"], "s")
    metrics["trace.accounted_s"] = (sum(s[2] for s in stats.values()), "s")
    return metrics


def measure(workload, seed, seconds, trace, root, state_dir=None):
    """One benchmark run; returns (result line, full record)."""
    root = os.path.abspath(root)
    deadline = time.monotonic() + TIME_LIMIT_S
    state_dir = state_dir or os.path.join(root, STATE_DIR)
    work_dir = os.path.join(state_dir, "work", f"{workload.name}-{os.getpid()}")
    refs_path = os.path.join(state_dir, "digests",
                             f"{code_digest(root)[:16]}-{workload.name}-seed{seed}.json")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        if trace:
            _, result = _spawn(request_for(root, workload, seed, "trace", seconds,
                                           work_dir, refs_path), deadline)
            results = [(None, result)]
            metrics = _layer_metrics(result["trace"])
        else:
            roles = ["timed"] + ["setup"] * (SETUPS - 1)
            results = [_spawn(request_for(root, workload, seed, role, seconds,
                                          work_dir, refs_path), deadline)
                       for role in roles]
            metrics = _timed_metrics(workload, results)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": results[0][1]["machine"],
        "fail_ratio": failed / attempted,
        "failures": [f for _, r in results for f in r["failures"]],
        "workers": [r for _, r in results],
        "result": line,
    }
    return line, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "greenprior", "cli.py")):
        print(f"perfbench: run from a greenprior checkout; {root}/src/greenprior "
              "is missing", file=sys.stderr)
        return 2
    try:
        line, record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                               args.trace, root)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    results = os.path.join(root, STATE_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for failure in record["failures"]:
        print("FAILED " + failure)
    print(f"fail_ratio = {record['fail_ratio']:.6g} "
          f"({line['failed']} of {line['attempted']} stage invocations)")
    for metric, m in line["metrics"].items():
        print(f"{metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
