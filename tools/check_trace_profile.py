#!/usr/bin/env python3
"""Validate a profile JSON emitted by diablo_run --profile-out=FILE.

Usage:
    check_trace_profile.py PROFILE.json [--require-tracing]
                           [--require-locations]
                           [--min-worker-processes N]

Checks the schema contract of runtime/trace.cc:WriteProfileJson
(schema_version 4): required top-level keys and totals counters
(including the distributed-run and memory-watermark figures), the
per-process task breakdown, every stage entry carrying label /
location / counters / per-partition histograms, and — when tracing was
on — task stats whose percentiles are ordered (p50 <= p90 <= max),
whose skew ratio is max/mean, and whose straggler partitions exist in
the stage's histogram. --min-worker-processes N additionally demands
that at least N worker lanes (process > 0, i.e. spliced telemetry from
forked workers) appear in the processes array. Fails (exit 1) on the
first structural violation.

Stdlib only; runs on any python3.
"""

import argparse
import json
import sys

TOTALS_KEYS = [
    "stages", "wide_stages", "work", "shuffle_bytes", "attempts",
    "recomputed_partitions", "recovery_seconds", "fused_ops",
    "rows_not_materialized", "bytes_not_materialized", "hash_agg_rows",
    "hash_agg_keys", "pool_tasks", "columnar_batches",
    "columnar_rows_fallback", "salted_keys", "salt_fanout",
    "cost_decisions", "dist_tasks", "dist_retries",
    "dist_workers_lost", "peak_rss_bytes", "accumulator_bytes_peak",
    "simulated_seconds", "simulated_fault_free_seconds",
]
STAGE_KEYS = [
    "index", "label", "wide", "location", "map_work", "reduce_work",
    "shuffle_bytes", "attempts", "recomputed_partitions",
    "recovery_seconds", "fused_ops", "rows_not_materialized",
    "bytes_not_materialized", "hash_agg_rows", "hash_agg_keys",
    "pool_tasks", "columnar_batches", "columnar_rows_fallback",
    "salted_keys", "salt_fanout", "cost_decisions",
    "dist_tasks", "dist_retries", "dist_workers_lost",
    "peak_rss_bytes", "accumulator_bytes_peak",
    "partitions", "tasks",
]
PROCESS_KEYS = ["process", "tasks", "task_time_us", "clock_offset_us"]
TASK_KEYS = [
    "count", "total_us", "mean_us", "p50_us", "p90_us", "max_us",
    "skew_ratio", "stragglers",
]


class SchemaError(Exception):
    pass


def require(cond, what):
    if not cond:
        raise SchemaError(what)


def check_stage(stage, i, require_locations):
    for key in STAGE_KEYS:
        require(key in stage, f"stage {i}: missing key '{key}'")
    require(stage["index"] == i, f"stage {i}: index is {stage['index']}")
    require(isinstance(stage["label"], str) and stage["label"],
            f"stage {i}: empty label")
    loc = stage["location"]
    require(loc is None or (isinstance(loc, dict)
                            and set(loc) == {"file", "line", "column"}),
            f"stage {i}: malformed location {loc!r}")
    if require_locations:
        require(loc is not None and loc["line"] > 0,
                f"stage {i} ({stage['label']}): no source location")
    parts = stage["partitions"]
    require(set(parts) == {"rows", "bytes"},
            f"stage {i}: malformed partitions object")
    require(all(isinstance(x, int) and x >= 0 for x in parts["rows"]),
            f"stage {i}: negative partition row count")
    require(all(isinstance(x, int) and x >= 0 for x in parts["bytes"]),
            f"stage {i}: negative partition byte count")
    tasks = stage["tasks"]
    if tasks is None:
        return
    for key in TASK_KEYS:
        require(key in tasks, f"stage {i}: tasks missing key '{key}'")
    # Driver-side stages (broadcast ship, cartesian product, un-salt
    # merges) record a stage span with no partition tasks: a zero count
    # is legal, but the percentile invariants below only apply to stages
    # that actually ran tasks.
    require(tasks["count"] >= 0, f"stage {i}: tasks.count < 0")
    if tasks["count"] == 0:
        return
    require(tasks["p50_us"] <= tasks["p90_us"] <= tasks["max_us"],
            f"stage {i}: percentiles out of order")
    require(tasks["mean_us"] <= tasks["max_us"] + 1e-9,
            f"stage {i}: mean exceeds max")
    if tasks["mean_us"] > 0:
        skew = tasks["max_us"] / tasks["mean_us"]
        require(abs(skew - tasks["skew_ratio"]) < 1e-3 * max(skew, 1.0),
                f"stage {i}: skew_ratio {tasks['skew_ratio']} != "
                f"max/mean {skew}")
    n_parts = max(len(parts["rows"]), tasks["count"])
    for p in tasks["stragglers"]:
        require(0 <= p < n_parts, f"stage {i}: straggler partition {p} "
                                  f"out of range (have {n_parts})")


def check_processes(doc, min_worker_processes):
    procs = doc["processes"]
    require(isinstance(procs, list), "processes is not a list")
    seen = set()
    workers = 0
    for i, proc in enumerate(procs):
        for key in PROCESS_KEYS:
            require(key in proc, f"processes[{i}]: missing key '{key}'")
        pid = proc["process"]
        require(isinstance(pid, int) and pid >= 0,
                f"processes[{i}]: bad process id {pid!r}")
        require(pid not in seen, f"processes[{i}]: duplicate lane {pid}")
        seen.add(pid)
        require(proc["tasks"] > 0,
                f"processes[{i}]: lane {pid} recorded with no tasks")
        require(proc["task_time_us"] >= 0,
                f"processes[{i}]: negative task_time_us")
        if pid > 0:
            workers += 1
    require(workers >= min_worker_processes,
            f"only {workers} worker lane(s) in processes, "
            f"want >= {min_worker_processes}")
    return workers


def check_profile(doc, require_tracing, require_locations,
                  min_worker_processes):
    require(doc.get("schema_version") == 4,
            f"schema_version is {doc.get('schema_version')!r}, want 4")
    for key in ("program", "tracing", "run_wall_us", "totals", "processes",
                "stages"):
        require(key in doc, f"missing top-level key '{key}'")
    if require_tracing:
        require(doc["tracing"] is True, "tracing is off in this profile")
    totals = doc["totals"]
    for key in TOTALS_KEYS:
        require(key in totals, f"totals: missing key '{key}'")
    require(totals["stages"] == len(doc["stages"]),
            f"totals.stages={totals['stages']} but "
            f"{len(doc['stages'])} stage entries")
    wide = sum(1 for s in doc["stages"] if s.get("wide") is True)
    require(totals["wide_stages"] == wide,
            f"totals.wide_stages={totals['wide_stages']} but "
            f"{wide} stages marked wide")
    check_processes(doc, min_worker_processes)
    with_tasks = 0
    for i, stage in enumerate(doc["stages"]):
        check_stage(stage, i, require_locations)
        if stage["tasks"] is not None:
            with_tasks += 1
    if require_tracing:
        require(with_tasks > 0, "tracing on but no stage has task stats")
        require(doc["run_wall_us"] > 0, "tracing on but run_wall_us == 0")
    return with_tasks


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("profile")
    parser.add_argument("--require-tracing", action="store_true",
                        help="fail unless the profile was traced")
    parser.add_argument("--require-locations", action="store_true",
                        help="fail on stages with no source location "
                             "(setup stages have none, so only use on "
                             "profiles known to be fully attributed)")
    parser.add_argument("--min-worker-processes", type=int, default=0,
                        metavar="N",
                        help="fail unless at least N worker lanes "
                             "(process > 0) appear in the processes "
                             "array — i.e. spliced worker telemetry")
    args = parser.parse_args()

    with open(args.profile) as f:
        doc = json.load(f)
    try:
        with_tasks = check_profile(doc, args.require_tracing,
                                   args.require_locations,
                                   args.min_worker_processes)
    except SchemaError as e:
        print(f"FAILED: {args.profile}: {e}", file=sys.stderr)
        return 1
    workers = sum(1 for p in doc["processes"] if p["process"] > 0)
    print(f"OK: {args.profile}: {len(doc['stages'])} stage(s), "
          f"{with_tasks} with task stats, {workers} worker lane(s), "
          f"program '{doc['program']}'")
    return 0


if __name__ == "__main__":
    sys.exit(main())
