#!/usr/bin/env python3
"""The repository benchmark: one seeded command.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. It builds aqo_serve (from the
repository's own CMakeLists, Release) and aqo_perfbench (this
directory's CMakeLists) into .bench_build/, runs one workload, checks every
output, and prints one JSON object as its last line. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics from a traced run.
Workloads, metrics and what each layer should move: README.md here.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
AQO_BUILD = os.path.join(BUILD, "aqo")
HARNESS_BUILD = os.path.join(BUILD, "perfbench")
RUN_DIR = os.path.join(BUILD, "run")

WORKLOADS = ("serve_hot", "serve_cold", "gap_tables")
# gap_tables set-ups timed per run; setup_s is their median (the serve
# workloads time theirs inside the harness).
SETUP_REPS = 31
# The whole command ends within 180 s once the build is done.
RUN_BUDGET_S = 170.0

# A request is a round trip on the serve workloads and an E1+E3 table
# pass on gap_tables, where req_p50_us is tables_s. The wall-clock rate,
# plain median and tail are printed as notes, not reported as metrics:
# host steal and the seed's request mix move them too much from run to run
# on a shared VM (README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("req_p50_us", "us"),
    ("req_cpu_us", "us"),
    ("plan_log2_mean", "log2"),
    ("peak_rss_mb", "MB"),
)

# (metric name, unit); timings get .p50/.p99 appended.
TIMED_LAYERS = (
    ("io.frame_read_us", "io.frame_read"),
    ("io.parse_us.qon", "io.parse.qon"),
    ("io.parse_us.qoh", "io.parse.qoh"),
    ("io.frame_write_us", "io.frame_write"),
    ("fingerprint.canon_us.qon", "fingerprint.canon.qon"),
    ("fingerprint.canon_us.qoh", "fingerprint.canon.qoh"),
    ("plan_cache.probe_us", "plan_cache.probe"),
    ("plan_cache.insert_us", "plan_cache.insert"),
    ("registry.run_us.qon.greedy", "registry.run.qon.greedy"),
    ("registry.run_us.qon.ii", "registry.run.qon.ii"),
    ("registry.run_us.qon.dp", "registry.run.qon.dp"),
    ("registry.run_us.qoh.greedy", "registry.run.qoh.greedy"),
    ("registry.run_us.qoh.ii", "registry.run.qoh.ii"),
    ("registry.run_us.qoh.random", "registry.run.qoh.random"),
    ("persist.append_us", "persist.append"),
    ("graph.generate_us", "graph.generate"),
    ("reductions.reduce_us", "reductions.reduce"),
    ("reductions.floor_us", "reductions.floor"),
)
SELF_TIMED_LAYERS = (
    ("service.batch_us.qon", "service.batch.qon"),
    ("service.batch_us.qoh", "service.batch.qoh"),
)
ENTRIES = ("qon.greedy", "qon.ii", "qon.dp", "qoh.greedy", "qoh.ii",
           "qoh.random")
OTHER_LAYERS = (
    ("io.request_bytes", "bytes"),
    ("fingerprint.dup_recall", "ratio"),
    ("fingerprint.duplicates_sent", "count"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.probes", "count"),
    ("cost_eval.ns_per_candidate.qon", "ns"),
    ("cost_eval.ns_per_candidate.qoh", "ns"),
    ("fast_eval.ns_per_candidate.qon", "ns"),
    ("fast_eval.ns_per_candidate.qoh", "ns"),
    ("fast_eval.reject_ratio.qon", "ratio"),
    ("fast_eval.reject_ratio.qoh", "ratio"),
    ("fast_eval.candidates.qon", "count"),
    ("fast_eval.candidates.qoh", "count"),
    ("persist.bytes_per_insert", "bytes"),
    ("persist.appends", "count"),
    ("persist.recover_ms", "ms"),
    ("thread_pool.sweep_efficiency", "ratio"),
    ("serve.residue_share", "ratio"),
    ("trace.overhead_share", "ratio"),
) + tuple(("registry.evaluations." + e, "count") for e in ENTRIES)


def per_layer_units():
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for name, _ in TIMED_LAYERS + SELF_TIMED_LAYERS:
        units[name + ".p50"] = "us"
        units[name + ".p99"] = "us"
    for name, unit in OTHER_LAYERS:
        units[name] = unit
    return units


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


class Budget:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 1.0:
            fail("out of time")
        return left


def build():
    """Builds aqo_serve and the harness; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "aqo_serve.cc"))):
        fail("no repository sources next to perfbench/ to build", code=2)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        def step(*cmd):
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                fail("build step failed: %s (see %s)"
                     % (" ".join(cmd), os.path.join(BUILD, "build.log")))

        if not os.path.isfile(os.path.join(AQO_BUILD, "CMakeCache.txt")):
            step("cmake", "-S", ROOT, "-B", AQO_BUILD,
                 "-DCMAKE_BUILD_TYPE=Release")
        step("cmake", "--build", AQO_BUILD, "--target", "aqo_serve",
             "-j", jobs)
        if not os.path.isfile(os.path.join(HARNESS_BUILD, "CMakeCache.txt")):
            step("cmake", "-S", HERE, "-B", HARNESS_BUILD,
                 "-DAQO_BUILD_DIR=" + AQO_BUILD, "-DCMAKE_BUILD_TYPE=Release")
        step("cmake", "--build", HARNESS_BUILD, "-j", jobs)
    return (os.path.join(AQO_BUILD, "tools", "aqo_serve"),
            os.path.join(HARNESS_BUILD, "aqo_perfbench"))


def host_steal():
    """Jiffies the host has stolen from all of the VM's CPUs so far."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def steal_share(jiffies, seconds):
    ticks = seconds * os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1)
    return jiffies / ticks


def run_harness(cmd, budget):
    with open(os.path.join(RUN_DIR, "harness.log"), "a") as log:
        try:
            code = subprocess.run(cmd, stdout=log, stderr=log,
                                  timeout=budget.left()).returncode
        except subprocess.TimeoutExpired:
            fail("harness timed out: " + " ".join(cmd))
    if code != 0:
        fail("harness exited with %d: %s" % (code, " ".join(cmd)))


def gap_setup(harness, budget):
    """Process start until the first gap-table cell starts, per spawn."""
    samples = []
    for _ in range(SETUP_REPS):
        start = time.monotonic()
        done = subprocess.run(
            [harness, "gap", "--setup-only=1"],
            capture_output=True, text=True, timeout=budget.left())
        if done.returncode != 0 or not done.stdout.startswith("first_cell "):
            fail("gap set-up run failed: " + done.stderr.strip())
        samples.append(float(done.stdout.split()[1]) - start)
    return samples


def run_workload(args, server, harness, budget):
    out = os.path.join(RUN_DIR, args.workload + ".json")
    spans = out + ".spans.tsv"
    for path in (out, spans):
        if os.path.exists(path):
            os.remove(path)
    common = ["--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
              "--out=" + out, "--trace=%d" % args.trace]
    if args.workload == "gap_tables":
        setup = gap_setup(harness, budget)
        run_harness([harness, "gap"] + common, budget)
    else:
        setup = None
        run_harness([harness, "serve", "--workload=" + args.workload,
                    "--server=" + server,
                    "--dir=" + os.path.join(RUN_DIR, args.workload)]
                    + common, budget)
    with open(out) as f:
        result = json.load(f)
    if setup is not None:
        result["setup_s"] = setup
    result["spans"] = read_spans(spans) if args.trace else []
    return result


def read_spans(path):
    spans = []
    with open(path) as f:
        next(f)
        for line in f:
            sid, parent, request, shadow, name, start, end = \
                line.rstrip("\n").split("\t")
            spans.append({"id": int(sid), "parent": int(parent),
                          "request": int(request), "shadow": shadow == "1",
                          "name": name,
                          "us": float(end) - float(start)})
    return spans


def end_to_end(result, notes):
    gap = result["workload"] == "gap_tables"
    timing = stats.summarize(result["latency_us"])
    if gap:
        cpu_us = float(statistics.median(result["cpu_us"]))
        wall_us = timing["p50"]
    else:
        cpu_us = result["cpu_s"] * 1e6 / result["completed"]
        wall_us = stats.class_median(result["latency_us"],
                                     result["latency_class"],
                                     result["class_share"])
    metrics = {
        "setup_s": statistics.median(result["setup_s"]),
        "req_p50_us": wall_us,
        "req_cpu_us": cpu_us,
        "plan_log2_mean": result["plan_log2_sum"] / result["plans"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes.append("setup_s: median of %d set-ups" % len(result["setup_s"]))
    if gap:
        notes.append("req_cpu_us: median gap-harness CPU (all threads) per "
                     "E1+E3 pass over %d passes" % timing["count"])
    else:
        notes.append("req_cpu_us: aqo_serve CPU (all threads) over the window"
                     " / %d requests" % result["completed"])
    notes.append("plan_log2_mean: over %d plans" % result["plans"])
    if gap:
        notes.append("req_p50_us: median over %d passes" % timing["count"])
    else:
        notes.append("req_p50_us: median round trip of each of %d request "
                     "classes, weighted by the class's expected share; %d "
                     "samples" % (len(set(result["latency_class"])),
                                  timing["count"]))
    # Wall clock, which host steal moves (see END_TO_END).
    unit_of_work = "E1+E3 table pass" if gap else "request round trip"
    notes.append("wall: req_per_s %.6g; req_p50_us %.6g; req_%s_us %.6g; "
                 "one %s; %d samples"
                 % (result["completed"] / result["wall_s"], timing["p50"],
                    timing["tail_at"], timing["tail"], unit_of_work,
                    timing["count"]))
    if gap:
        notes.append("tables_s: %.6f s (median pass)" % (timing["p50"] / 1e6))
        notes.append("checks: %d rows per pass; tables byte-identical at "
                     "%d threads and at 1" % (result["rows"], result["threads"]))
    else:
        hits, misses = result["cache_hits"], result["cache_misses"]
        notes.append("hit ratio: %d/%d (server cache stats)"
                     % (hits, hits + misses))
        notes.append("checks: %d responses, %d replayed byte-equal, %d cost "
                     "bit-equal, %d equal to DpQonOptimizer"
                     % (result["check_responses"],
                        result["check_replay_bytes"],
                        result["check_cost_bits"], result["check_dp_equal"]))
    return metrics


def per_layer(result, notes):
    spans = result["spans"]
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)
    metrics = {}

    def timing(metric, samples):
        metrics[metric + ".p50"] = (statistics.median(samples)
                                    if samples else 0.0)
        metrics[metric + ".p99"] = (stats.percentile(samples, 99)
                                    if samples else 0.0)
        notes.append("%s: %d spans" % (metric, len(samples)))

    for metric, name in TIMED_LAYERS:
        timing(metric, [s["us"] for s in by_name.get(name, [])])
    # Self time: a batch minus the canonicalize and probe spans of its
    # shadow decomposition, on batches whose shadow hit the cache. A miss
    # batch's optimizer run and its shadow rerun are two runs of the same
    # search, whose difference is noise larger than the self time, so
    # miss batches give no sample (serve_cold has none: n/a, reported 0).
    for metric, name in SELF_TIMED_LAYERS:
        samples, misses = [], 0
        for s in by_name.get(name, []):
            spans = children.get(s["id"], [])
            if any(c["name"].startswith("registry.run.") for c in spans):
                misses += 1
            else:
                samples.append(s["us"] - sum(c["us"] for c in spans))
        timing(metric, samples)
        notes.append("%s: self time on hit batches; %d miss batches n/a"
                     % (metric, misses))

    runs = result.get("trace_runs", {})
    for entry in ENTRIES:
        r = runs.get(entry, {"runs": 0, "evaluations": 0})
        metrics["registry.evaluations." + entry] = stats.ratio(
            r["evaluations"], r["runs"])["value"]
    for family in ("qon", "qoh"):
        e = result["trace_eval_" + family]
        exact = stats.ratio(e["exact_ns"], e["candidates"])
        fast = stats.ratio(e["fast_ns"], e["candidates"])
        rejects = stats.ratio(e["rejects"], e["candidates"])
        metrics["cost_eval.ns_per_candidate." + family] = exact["value"]
        metrics["fast_eval.ns_per_candidate." + family] = fast["value"]
        metrics["fast_eval.reject_ratio." + family] = rejects["value"]
        metrics["fast_eval.candidates." + family] = e["candidates"]
        notes.append("fast_eval.reject_ratio.%s: %d/%d"
                     % (family, e["rejects"], e["candidates"]))

    recover = [s["us"] / 1e3 for s in by_name.get("persist.recover", [])]
    metrics["persist.recover_ms"] = statistics.median(recover) if recover else 0.0

    serve = result["workload"] != "gap_tables"
    if serve:
        hits, misses = result["cache_hits"], result["cache_misses"]
        hit = stats.ratio(hits, hits + misses)
        dup = stats.ratio(result["trace_dup_matched"], result["trace_dup_sent"])
        per_insert = stats.ratio(result["trace_journal_bytes"],
                                 result["trace_appends"])
        request_bytes = stats.ratio(result["trace_request_bytes"],
                                    result["trace_requests"])
        metrics.update({
            "io.request_bytes": request_bytes["value"],
            "plan_cache.hit_ratio": hit["value"],
            "plan_cache.probes": hit["base"],
            "fingerprint.dup_recall": dup["value"],
            "fingerprint.duplicates_sent": dup["base"],
            "persist.bytes_per_insert": per_insert["value"],
            "persist.appends": per_insert["base"],
            "thread_pool.sweep_efficiency": 0.0,
        })
        notes.append("plan_cache.hit_ratio: %d/%d" % (hit["of"], hit["base"]))
        notes.append("fingerprint.dup_recall: %d/%d" % (dup["of"], dup["base"]))
        notes.append("persist.bytes_per_insert: %d bytes/%d appends"
                     % (per_insert["of"], per_insert["base"]))
        # Round trip through the real server against the in-process layers
        # of the same requests: what no layer span covers (pipes, request
        # header parsing, response formatting) is the residue.
        requests = [s for s in by_name.get("request", []) if s["request"] >= 0]
        layered = sum(c["us"] for s in requests
                      for c in children.get(s["id"], []) if not c["shadow"])
        layer_mean = layered / len(requests)
        rtt_mean = statistics.mean(result["latency_us"])
        metrics["serve.residue_share"] = 1.0 - layer_mean / rtt_mean
        traced = statistics.mean(s["us"] for s in requests)
        plain = statistics.mean(result["replay_plain_us"])
        metrics["trace.overhead_share"] = traced / plain - 1.0
        notes.append("serve.residue_share: 1 - %.3f us layers / %.3f us round "
                     "trip over %d requests" % (layer_mean, rtt_mean,
                                                len(requests)))
        notes.append("trace.overhead_share: %.3f us traced / %.3f us untraced "
                     "in-process request" % (traced, plain))
    else:
        for name in ("io.request_bytes", "plan_cache.hit_ratio",
                     "plan_cache.probes", "fingerprint.dup_recall",
                     "fingerprint.duplicates_sent", "persist.bytes_per_insert",
                     "persist.appends"):
            metrics[name] = 0.0
        cells = by_name.get("gap.cell", [])
        cell_total = sum(s["us"] for s in cells)
        layered = sum(c["us"] for s in cells for c in children.get(s["id"], []))
        metrics["serve.residue_share"] = 1.0 - layered / cell_total
        efficiency = stats.ratio(sum(result["cell_us"]),
                                 result["threads"] * sum(result["latency_us"]))
        metrics["thread_pool.sweep_efficiency"] = efficiency["value"]
        traced = statistics.median(result["replay_traced_us"])
        plain = statistics.median(result["replay_plain_us"])
        metrics["trace.overhead_share"] = traced / plain - 1.0
        notes.append("thread_pool.sweep_efficiency: %.0f us of cells / "
                     "(%d threads x %.0f us of passes)"
                     % (efficiency["of"], result["threads"],
                        sum(result["latency_us"])))
        notes.append("serve.residue_share: 1 - %.0f us layers / %.0f us of "
                     "cells" % (layered, cell_total))
        notes.append("trace.overhead_share: %.0f us traced / %.0f us untraced "
                     "median pass" % (traced, plain))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    server, harness = build()
    budget = Budget(RUN_BUDGET_S)
    os.makedirs(RUN_DIR, exist_ok=True)
    start, stolen = time.monotonic(), host_steal()
    result = run_workload(args, server, harness, budget)
    notes = ["host steal: %.2f%% of CPU time during the run"
             % (100 * steal_share(host_steal() - stolen,
                                  time.monotonic() - start))]
    if args.trace:
        units = per_layer_units()
        values = per_layer(result, notes)
    else:
        units = dict(END_TO_END)
        values = end_to_end(result, notes)
    missing = set(units) - set(values)
    if missing:
        fail("metrics not computed: " + ", ".join(sorted(missing)))
    attempted, failed = result["attempted"], result["failed"]
    notes.append("fail_ratio: %d/%d" % (failed, attempted))
    notes.extend("failure: " + f for f in result["failures"])
    for note in notes:
        print(args.workload + ": " + note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
