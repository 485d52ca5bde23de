#!/usr/bin/env python3
"""Fast self-check of the benchmark command.

usage: python3 perfbench/selfcheck.py

Run from the root of a source checkout. Checks BENCHMARK.json against the
metric names the benchmark prints, runs every workload in both modes on tiny
trials, and checks that the result line has the agreed shape, that a
corrupted answer fails the run, and that the single-client workload meters
the same cost on a repeated seed. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def fail(message):
    print("selfcheck: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def run(workload, trace, seed=7, extra=()):
    command = RUN + ["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace), "--smoke"]
    command += list(extra)
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def check_config(bench):
    if set(bench) != {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}:
        fail("BENCHMARK.json keys: %s" % sorted(bench))
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if len(names) != len(set(names)):
        fail("metric names repeat")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if "setup_s" not in bounds or max(bounds.values()) != bounds["setup_s"]:
        fail("setup_s must be present with the largest bound")
    if any(b > 0.25 for b in bounds.values()):
        fail("a bound exceeds 0.25")


def check_result(bench, workload, trace):
    code, result, stderr = run(workload, trace)
    where = "%s --trace %d" % (workload, trace)
    if code != 0 or result is None:
        fail("%s exited %d without a result:\n%s" % (where, code, stderr))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s result keys: %s" % (where, sorted(result)))
    if result["correct"] is not True or result["attempted"] < 1:
        fail("%s: correct=%s attempted=%s" % (where, result["correct"],
                                               result["attempted"]))
    if result["failed"] != 0:
        fail("%s: %d requests failed" % (where, result["failed"]))
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        fail("%s metrics differ from BENCHMARK.json: %s" %
             (where, sorted(set(got) ^ set(units))))
    print("selfcheck: %s ok (%d requests)" % (where, result["attempted"]))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_config(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = check_result(bench, workload, trace)
            if workload == "cold-paced" and trace == 0:
                cold = result

    code, result, _ = run("wide-churn-fleet", 0,
                         extra=["--inject-divergence"])
    if code == 0 or (result is not None and result["correct"] is not False):
        fail("a corrupted answer did not fail the run")
    print("selfcheck: injected divergence fails the run")

    # One sequential client replays the same schedule, so metered counts
    # repeat exactly on a repeated seed.
    again = check_result(bench, "cold-paced", 0)
    for name in ("metered_cost_per_query", "items_moved_per_query"):
        if cold["metrics"][name]["value"] != again["metrics"][name]["value"]:
            fail("cold-paced %s differs on a repeated seed" % name)
    print("selfcheck: cold-paced counts repeat on a repeated seed")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
