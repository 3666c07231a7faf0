"""Smoke test of the benchmark itself, on a tiny city (seed 1, 5 buildings).

Run from the root of a checkout (about a minute):

    python3 perfbench/smoke.py

It checks that every metric named in BENCHMARK.json is emitted on each kind
of workload, that a traced run puts every wrapped function back, and that a
failing stage is counted as failed instead of stopping the benchmark.
"""
import json
import os
import re
import shutil
import sys

import run
import tracer
import worker

TINY = (worker.Workload("smoke-chain-5", "chain", 1, 5),
        worker.Workload("smoke-rescore-5", "rescore", 1, 5))
SEED = 3


def check(ok, message):
    if not ok:
        raise SystemExit(f"smoke: FAILED: {message}")


def check_metric_names(root, state_dir):
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in TINY:
        for trace in (0, 1):
            line, _ = run.measure(workload, SEED, 0.1, trace, root, state_dir)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            check(got == expected[trace],
                  f"{workload.name} trace {trace}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            check(line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
                  f"{workload.name} trace {trace}: {line['failed']} of "
                  f"{line['attempted']} stage invocations failed")
            if not trace:
                zero = [n for n, m in line["metrics"].items() if not m["value"] > 0]
                check(not zero, f"{workload.name}: end-to-end metrics not positive: {zero}")
    print("smoke: every metric in BENCHMARK.json is emitted on both workload kinds")


def _snapshot():
    return [(owner, attr, owner.__dict__[attr])
            for _, _, _, _, owners in tracer.bindings() for owner, attr in owners]


def check_restored(root, state_dir):
    cli, synth = worker.load_program(root)
    before = _snapshot()
    session = worker.Session(cli, synth, TINY[0], SEED, os.path.join(state_dir, "restore"),
                             os.path.join(state_dir, "restore-refs.json"))
    summary = worker.trace_run(session)
    after = _snapshot()
    check(len(before) == len(after) and all(
        a[0] is b[0] and a[1] == b[1] and a[2] is b[2] for a, b in zip(before, after)),
        "a wrapped function was not restored after the traced run")
    missed = [name for name in tracer.layer_names() if summary["stats"].get(name, [0])[0] == 0]
    check(not missed, f"wrapped functions never called in the traced pass: {missed}")
    check(session.failed == 0, f"traced run failed: {session.failures}")
    accounted = sum(s[2] for s in summary["stats"].values())
    program = summary["setup_work_s"] + summary["wall_s"]
    check(abs(accounted - program) <= 0.01 * program,
          f"self times add up to {accounted:.4f} s, the program ran {program:.4f} s")
    print(f"smoke: {len(after)} bindings restored after the traced run")
    return cli, synth


def check_failing_stage(cli, synth, state_dir):
    session = worker.Session(cli, synth, TINY[0], SEED, os.path.join(state_dir, "broken"),
                             os.path.join(state_dir, "broken-refs.json"))
    session.setup()
    broken = os.path.join(session.city, "config_broken.txt")
    with open(session.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    with open(broken, "w", encoding="utf-8") as fh:
        fh.write(re.sub(r"(?m)^points\s*=.*$", "points = missing.csv", text))
    session.config = broken
    session.iteration()
    check(session.attempted == 1 + len(worker.STAGES),
          f"expected {1 + len(worker.STAGES)} attempts, got {session.attempted}")
    check(session.failed == len(worker.STAGES),
          f"a missing input should fail every stage, {session.failed} failed")
    print(f"smoke: a missing input counts {session.failed} of {session.attempted} "
          "stage invocations as failed")


def main():
    root = os.getcwd()
    state_dir = os.path.join(root, run.STATE_DIR, "smoke")
    shutil.rmtree(state_dir, ignore_errors=True)
    try:
        check_metric_names(root, state_dir)
        cli, synth = check_restored(root, state_dir)
        check_failing_stage(cli, synth, state_dir)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
