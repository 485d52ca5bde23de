#!/usr/bin/env python3
"""The serving benchmark: builds the binary, runs trials, prints the metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1

Run from the root of a source checkout. The first run configures and builds
perfbench/ (which compiles the libraries from src/) into .bench_build/ with
CMake in Release mode; later runs only re-check the build. Build output goes
to stderr.

A run is a fixed number of fixed-work trials, round(S / measured trial
length) of them and at least four, each in a fresh fusion_perfbench
process. --trace 0 reports the end-to-end metrics; --trace 1 runs one
untraced trial as the baseline, then traced trials, and reports the
per-layer metrics from those. The last line of stdout is {"correct",
"attempted", "failed", "metrics"}. Exits 1 after printing correct=false
when an answer diverged from the oracle, and non-zero without printing a
result when the build or a trial fails or the open-loop generator fell
behind its schedule.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "fusion_perfbench")
# Seconds one trial process takes, set-up and oracle check included, as
# measured on a 4-vCPU VM.
TRIAL_SECONDS = {"cold-paced": 8.5, "wide-churn-fleet": 8.3}
MIN_TRIALS = 4
SETUP_SAMPLES = 5
TRIAL_TIMEOUT_S = 60
LAYERS = ("protocol", "router", "mediator", "query", "optimizer", "exec",
          "source")


class BenchError(Exception):
    pass


def build():
    env = dict(os.environ, TMPDIR=BUILD)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "--target", "fusion_perfbench",
             "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            raise BenchError("build failed")


def trial(args, index, *flags):
    """Runs one trial process. Trial k of a run sends part k of the
    workload's requests, so every run sends the same ones, in an order
    drawn from seed * 1000 + k."""
    command = [BINARY, "--workload", args.workload, "--part", str(index),
               "--seed", str(args.seed * 1000 + index)]
    command += [f for f in flags if f]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("trial timed out")
    if proc.returncode != 0:
        raise BenchError("trial exited %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Linear interpolation between closest ranks; 0 when empty."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def median(values):
    return percentile(values, 0.5)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(trials, setups):
    """Timings are the median over the run's trials (at least four) of the
    trial's value, so one trial slowed by a noisy neighbour does not move
    them. A p99 needs 1000 latencies to have ten beyond it: when a trial
    has fewer, latency_p99_ms is instead taken over the latencies of all
    the run's trials, which together have at least 1000. Counts are not
    slowed by neighbours but vary with how concurrent requests interleave,
    so count ratios are over the run's totals."""
    def per_trial(value):
        return median([value(t) for t in trials])

    def total(key):
        return sum(t[key] for t in trials)

    answered = total("ok") + total("incomplete")
    if all(len(t["latency_ms"]) >= 1000 for t in trials):
        p99 = per_trial(lambda t: percentile(t["latency_ms"], 0.99))
    else:
        p99 = percentile([v for t in trials for v in t["latency_ms"]], 0.99)

    return [
        ("qps", per_trial(lambda t: t["ok"] / t["elapsed_s"]), "1/s"),
        ("latency_p50_ms",
         per_trial(lambda t: percentile(t["latency_ms"], 0.5)), "ms"),
        ("latency_p99_ms", p99, "ms"),
        ("slo_attainment",
         per_trial(lambda t: ratio(t["within_slo"], t["queries_attempted"])),
         "ratio"),
        ("metered_cost_per_query", ratio(total("cost"), answered), "cost"),
        ("items_moved_per_query",
         ratio(total("items_sent") + total("items_received"), answered),
         "items"),
        ("success_rate",
         1.0 - ratio(total("errors") + total("shed") + total("incomplete"),
                     total("attempted")), "ratio"),
        ("setup_s", median(setups), "s"),
        ("peak_rss_mb", per_trial(lambda t: t["peak_rss_mb"]), "MB"),
    ]


def per_layer(baseline, traced):
    def total(key):
        return sum(t[key] for t in traced)

    def ttotal(key):
        return sum(t["traced"][key] for t in traced)

    def tlist(key):
        return [v for t in traced for v in t["traced"][key]]

    n = ttotal("requests")
    answered = sum(t["ok"] + t["incomplete"] for t in traced)
    trials = len(traced)
    latency = ttotal("latency_ms")
    layer = {name: sum(t["traced"]["layer_ms"][name] for t in traced)
             for name in LAYERS + ("unattributed",)}
    lookups = (total("cache_hits") + total("cache_containment_hits") +
               total("cache_misses"))
    traced_p50 = median([percentile(t["latency_ms"], 0.5) for t in traced])
    metrics = [
        ("router.hop_p50_ms", percentile(tlist("router_hop_ms"), 0.5), "ms"),
        ("router.hop_p99_ms", percentile(tlist("router_hop_ms"), 0.99), "ms"),
        ("router.warm_hit_locality",
         ratio(total("router_warm_hits"), total("router_warm_forwards")),
         "ratio"),
        ("router.invalidate_fanouts",
         total("router_invalidate_fanouts") / trials, "count"),
        ("router.failovers", total("router_failovers") / trials, "count"),
        ("router.forward_bytes_per_query",
         ratio(total("router_forward_bytes"), answered), "bytes"),
        ("protocol.wire_ms", ratio(ttotal("wire_ms"), n), "ms"),
        ("protocol.codec_us_per_query", ratio(ttotal("codec_us"), n), "us"),
        ("protocol.reconnects", total("reconnects") / trials, "count"),
        ("mediator.queue_wait_p50_ms",
         percentile(tlist("queue_wait_ms"), 0.5), "ms"),
        ("mediator.queue_wait_p99_ms",
         percentile(tlist("queue_wait_ms"), 0.99), "ms"),
        ("mediator.shed", total("service_shed") / trials, "count"),
        ("mediator.learn_ms", ratio(ttotal("learn_ms"), n), "ms"),
        ("mediator.plan_prep_ms", ratio(ttotal("plan_prep_ms"), n), "ms"),
        ("mediator.plan_memo_reuse_rate",
         ratio(ttotal("plan_memo_reused"), n), "ratio"),
        ("mediator.observed_conditions",
         median([t["observed_conditions"] for t in traced]), "count"),
        ("query.parse_us", ratio(ttotal("parse_us"), n), "us"),
        ("optimizer.ms_p50", percentile(tlist("optimizer_ms"), 0.5), "ms"),
        ("optimizer.ms_p99", percentile(tlist("optimizer_ms"), 0.99), "ms"),
        ("optimizer.estimate_error",
         ratio(ttotal("estimate_error_abs"), ttotal("estimate_metered")),
         "ratio"),
        ("exec.setops_ms", ratio(ttotal("setops_ms"), n), "ms"),
        ("exec.hit_path_ms", ratio(ttotal("hit_path_ms"), n), "ms"),
        ("exec.self_ms", ratio(layer["exec"] - ttotal("setops_ms"), n), "ms"),
        ("exec.cache.hit_rate", ratio(total("cache_hits"), lookups), "ratio"),
        ("exec.cache.containment_rate",
         ratio(total("cache_containment_hits"), lookups), "ratio"),
        ("exec.cache.evictions", total("cache_evictions") / trials, "count"),
        ("exec.cache.invalidations", total("cache_invalidations") / trials,
         "count"),
        ("exec.cache.flights_deduplicated",
         total("cache_flights_deduplicated") / trials, "count"),
        ("exec.retries", total("retries") / trials, "count"),
        ("exec.breaker_fast_fails", total("breaker_fast_fails") / trials,
         "count"),
        ("source.ms_per_query", ratio(layer["source"], n), "ms"),
        ("source.sq_per_query", ratio(ttotal("sq_calls"), n), "count"),
        ("source.sjq_per_query", ratio(ttotal("sjq_calls"), n), "count"),
        ("source.lq_per_query", ratio(ttotal("lq_calls"), n), "count"),
        ("source.items_sent_per_query", ratio(total("items_sent"), answered),
         "items"),
        ("source.items_received_per_query",
         ratio(total("items_received"), answered), "items"),
        ("relational.batch_rows_per_query", ratio(total("batch_rows"),
                                                  answered), "rows"),
        ("relational.semijoin_probes_skipped",
         total("probes_skipped") / trials, "count"),
        ("loadgen.lag_p99_ms",
         percentile([v for t in traced for v in t["lag_ms"]], 0.99), "ms"),
        ("unattributed_share", ratio(layer["unattributed"], latency), "ratio"),
        ("obs.trace_overhead",
         ratio(traced_p50, percentile(baseline["latency_ms"], 0.5)) - 1.0,
         "ratio"),
    ]
    metrics += [("share." + name, ratio(layer[name], latency), "ratio")
                for name in LAYERS]
    return metrics


def run(args):
    build()
    count = max(MIN_TRIALS,
                round(args.seconds / TRIAL_SECONDS[args.workload]))
    trials = []
    for i in range(count):
        traced = args.trace == "1" and i > 0
        # The traced run's first traced trial replays the baseline's draw.
        index = i - 1 if traced else i
        trials.append(trial(args, index, "--trace", "1" if traced else "0",
                            "--inject-divergence" if args.inject_divergence
                            else None))
        t = trials[-1]
        print("perfbench: trial %d%s: %d/%d answered in %.3fs, p50 %.3f ms, "
              "p99 %.3f ms, set-up %.3fs, %d sampled, %d divergences" % (
                  i, " (traced)" if traced else "", t["ok"],
                  t["queries_attempted"], t["elapsed_s"],
                  percentile(t["latency_ms"], 0.5),
                  percentile(t["latency_ms"], 0.99), t["setup_s"],
                  t["sampled"], t["divergences"]))
    first = trials[0]
    print("perfbench: workload %s, seed %d, %d trials; nproc %d, build %s, "
          "compiler %s" % (args.workload, args.seed, count, first["nproc"],
                           first["build"], first["compiler"]))
    # An open-loop generator that ran more than a second (or a tenth of
    # the schedule) late no longer offers the rate it claims.
    for t in trials:
        lag_max = max(t["lag_ms"], default=0.0)
        if lag_max > max(1000.0, 100.0 * t["elapsed_s"]):
            raise BenchError("run invalid: the open-loop generator fell "
                             "behind its schedule (%.0f ms late)" % lag_max)
    if args.trace == "1":
        metrics = per_layer(trials[0], trials[1:])
    else:
        setups = [t["setup_s"] for t in trials]
        while len(setups) < SETUP_SAMPLES:
            setups.append(trial(args, len(setups), "--setup-only")["setup_s"])
        metrics = end_to_end(trials, setups)
    for name, value, unit in metrics:
        print("perfbench:   %-36s %14.6f %s" % (name, value, unit))
    divergences = sum(t["divergences"] for t in trials)
    result = {
        "correct": divergences == 0,
        "attempted": sum(t["attempted"] for t in trials),
        "failed": sum(t["errors"] + t["shed"] + t["incomplete"]
                      for t in trials),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in metrics},
    }
    print(json.dumps(result))
    return 0 if divergences == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=TRIAL_SECONDS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny trials, for the self-check")
    parser.add_argument("--inject-divergence", action="store_true",
                        help="corrupt one sampled answer (self-check)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        return run(args)
    except BenchError as error:
        print("perfbench: " + str(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
