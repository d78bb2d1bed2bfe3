#!/usr/bin/env python3
"""Checks the end-to-end benchmark's deterministic counts against a golden.

Stage counts, shuffles, shuffled bytes, IR sizes and cost-model seconds
of a traced bench/e2e run depend only on the code, the inputs and the
seed, not on the host. This script runs one short traced pass set per
workload,

    python3 bench/e2e/run.py --workload W --seed 1 --seconds 1 --trace 1

and diffs those counts against the golden file:

    python3 tools/check_e2e_counts.py tests/golden/e2e_counts.json

Integers must match exactly, every other value (model seconds, ratios,
MB) to 1e-9 relative. `runtime.pool_tasks` is left out: it is 0 when the
benchmark runs on one host thread, which it does on a 1-CPU machine.

A change that moves a count regenerates the golden with --update and
states the before and after values where it is reviewed.

Exits 0 when every count matches, 1 on a mismatch or a failed run, 2 on
usage errors.
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench" / "e2e"))
from compare import is_exact  # noqa: E402

SEED = 1
SECONDS = 1
# Counts that vary with the host rather than with the code.
HOST_DEPENDENT = {"runtime.pool_tasks"}
REL_TOL = 1e-9


def workloads():
    with open(ROOT / "BENCHMARK.json") as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def measure(workload, out_dir):
    """The exact per-layer counts of one traced run, by metric name."""
    cmd = [sys.executable, str(ROOT / "bench" / "e2e" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "1", "--out", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"check_e2e_counts: {workload} run failed "
                 f"(exit {proc.returncode})")
    with open(out_dir / f"{workload}.seed{SEED}.traced.json") as f:
        per_layer = json.load(f)["per_layer"]
    return {name: m["value"] for name, m in sorted(per_layer.items())
            if is_exact(name) and name not in HOST_DEPENDENT}


def same(want, got):
    if isinstance(want, int) and isinstance(got, int):
        return want == got
    return math.isclose(want, got, rel_tol=REL_TOL, abs_tol=0.0)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("golden", type=Path)
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden from a fresh run")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        fresh = {w: measure(w, Path(tmp)) for w in workloads()}
    if args.update:
        with open(args.golden, "w") as f:
            json.dump(fresh, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"check_e2e_counts: wrote {args.golden}")
        return 0

    try:
        with open(args.golden) as f:
            golden = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_e2e_counts: cannot read {args.golden}: {e}",
              file=sys.stderr)
        return 2
    bad = []
    for w in sorted(set(golden) | set(fresh)):
        want, got = golden.get(w, {}), fresh.get(w, {})
        for name in sorted(set(want) | set(got)):
            if name not in want or name not in got:
                side = "golden" if name not in want else "fresh run"
                bad.append(f"{w} {name}: missing from the {side}")
            elif not same(want[name], got[name]):
                bad.append(f"{w} {name}: golden {want[name]!r}, "
                           f"fresh run {got[name]!r}")
    for line in bad:
        print(f"check_e2e_counts: {line}", file=sys.stderr)
    if bad:
        print(f"check_e2e_counts: {len(bad)} count(s) differ; if the "
              "change is intended, rerun with --update and state the "
              "before and after values", file=sys.stderr)
        return 1
    print(f"check_e2e_counts: {sum(len(v) for v in fresh.values())} counts "
          f"over {len(fresh)} workloads match {args.golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
