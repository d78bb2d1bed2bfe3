#!/usr/bin/env python3
"""End-to-end check of the cluster-telemetry pipeline over forked workers.

Runs a program twice — single-process, then --dist-workers 3 with a
deterministic chaos kill — with every telemetry sink enabled on the
distributed leg, and asserts:

  1. both runs print byte-identical stdout (telemetry must never touch
     results),
  2. the profile JSON passes check_trace_profile.py with at least two
     worker process lanes (spliced worker telemetry),
  3. the merged Chrome trace contains task spans on worker pids and the
     named process lanes,
  4. the event log passes check_events.py with the chaos kill, worker
     loss, and statement events on record, and
  5. the Prometheus export carries the distributed run counters.

Usage:
  check_dist_telemetry.py <diablo_run> <check_trace_profile.py>
                          <check_events.py> <outdir> <program>
                          [program args...]

Exits 0 on success (printing "OK: distributed telemetry ..."), 1 on a
telemetry failure, 2 on usage/run errors.
"""

import json
import os
import subprocess
import sys


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"error: {' '.join(cmd)} exited {proc.returncode}",
              file=sys.stderr)
        print(proc.stderr, file=sys.stderr)
        sys.exit(2)
    return proc


def fail(what):
    print(f"FAILED: {what}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    if len(argv) < 6:
        print(__doc__, file=sys.stderr)
        return 2
    runner, check_profile, check_events, outdir = argv[1:5]
    program_args = argv[5:]
    os.makedirs(outdir, exist_ok=True)
    trace = os.path.join(outdir, "trace.json")
    profile = os.path.join(outdir, "profile.json")
    metrics = os.path.join(outdir, "metrics.prom")
    events = os.path.join(outdir, "events.jsonl")

    local = run([runner] + program_args)
    dist = run([runner] + program_args + [
        "--dist-workers", "3", "--chaos-kill", "0:0",
        f"--trace-out={trace}", f"--profile-out={profile}",
        f"--metrics-out={metrics}", f"--events-out={events}"])
    if local.stdout != dist.stdout:
        fail("distributed stdout diverged from the single-process run")

    checker = subprocess.run(
        [sys.executable, check_profile, profile, "--require-tracing",
         "--min-worker-processes", "2"],
        capture_output=True, text=True)
    if checker.returncode != 0:
        fail(f"profile check: {checker.stderr.strip()}")

    with open(trace) as f:
        doc = json.load(f)
    task_pids = {e["pid"] for e in doc.get("traceEvents", [])
                 if e.get("ph") == "X"}
    if len({p for p in task_pids if p > 0}) < 2:
        fail(f"merged trace has no worker lanes (pids {sorted(task_pids)})")
    lane_names = {e["args"]["name"] for e in doc.get("traceEvents", [])
                  if e.get("ph") == "M" and e.get("name") == "process_name"}
    if "coordinator" not in lane_names:
        fail(f"merged trace lanes unnamed: {sorted(lane_names)}")

    checker = subprocess.run(
        [sys.executable, check_events, events,
         "--require-min", "chaos_kill=1",
         "--require-min", "worker_lost=1",
         "--require-min", "statement=1"],
        capture_output=True, text=True)
    if checker.returncode != 0:
        fail(f"event check: {checker.stderr.strip()}")

    with open(metrics) as f:
        prom = f.read()
    for needle in ("diablo_dist_tasks_total", "diablo_chaos_kills_total 1",
                   "diablo_run_peak_rss_bytes"):
        if needle not in prom:
            fail(f"Prometheus export missing '{needle}'")

    workers = len({p for p in task_pids if p > 0})
    print(f"OK: distributed telemetry — {workers} worker lane(s), "
          f"{len(lane_names)} named process lanes, chaos kill on record")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
