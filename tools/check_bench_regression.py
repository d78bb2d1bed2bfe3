#!/usr/bin/env python3
"""Compare a fresh google-benchmark JSON run against a committed baseline.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--threshold PCT]
                              [--prefix NAME] [--pair FAST,SLOW,MIN_SPEEDUP]

Fails (exit 1) when any benchmark matched by --prefix (default:
BM_ReduceByKeyHot, the hash-aggregation hot path) is more than
--threshold percent (default: 20) slower than the committed baseline,
by real_time per iteration. A gated benchmark present in the baseline
but missing from the current run is a schema failure (exit 2): dropping
a hot-path benchmark must not pass the gate. New benchmarks with no
baseline are reported but never fail — CI machines differ, thresholds
guard the tracked hot path only.

--pair FAST,SLOW,MIN_SPEEDUP[,NAME] (repeatable) compares two *named*
benchmarks within the CURRENT run — an ablation pair that differs in
one setting (e.g. AB10's skew mitigation, mitigate:1 vs mitigate:0) —
and fails (exit 1) unless real_time(SLOW) / real_time(FAST) >=
MIN_SPEEDUP. The optional NAME
labels the ablation in every verdict line and in the failure summary,
so a red gate says which ablation regressed rather than just a ratio;
without it the label is "FAST vs SLOW". Either benchmark missing from
the current run is a schema failure (exit 2).

Stdlib only; runs on any python3.
"""

import argparse
import json
import sys


class SchemaMismatch(Exception):
    """The JSON is not a google-benchmark report we understand."""


def load_times(path):
    """name -> real_time (ns per iteration) for every benchmark entry."""
    with open(path) as f:
        doc = json.load(f)
    benchmarks = doc.get("benchmarks", [])
    if not isinstance(benchmarks, list):
        raise SchemaMismatch(f"{path}: 'benchmarks' is not a list")
    times = {}
    for i, bench in enumerate(benchmarks):
        if not isinstance(bench, dict):
            raise SchemaMismatch(f"{path}: benchmarks[{i}] is not an object")
        if bench.get("run_type", "iteration") != "iteration":
            continue
        # Missing/renamed keys mean the producer changed its report
        # format; say so instead of dying with a KeyError traceback.
        if "name" not in bench:
            raise SchemaMismatch(f"{path}: benchmarks[{i}] has no 'name' key")
        if "real_time" not in bench:
            raise SchemaMismatch(
                f"{path}: benchmark '{bench['name']}' has no 'real_time' key "
                "(renamed or non-benchmark entry?)")
        try:
            times[bench["name"]] = float(bench["real_time"])
        except (TypeError, ValueError):
            raise SchemaMismatch(
                f"{path}: benchmark '{bench['name']}' has non-numeric "
                f"real_time {bench['real_time']!r}")
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="max allowed slowdown in percent (default 20)")
    parser.add_argument("--prefix", action="append", default=None,
                        help="benchmark name prefix to gate on; repeatable "
                             "(default: BM_ReduceByKeyHot)")
    parser.add_argument("--pair", action="append", default=[],
                        metavar="FAST,SLOW,MIN_SPEEDUP[,NAME]",
                        help="require real_time(SLOW)/real_time(FAST) >= "
                             "MIN_SPEEDUP in the current run; NAME labels "
                             "the ablation in verdicts; repeatable")
    args = parser.parse_args()
    prefixes = args.prefix or ["BM_ReduceByKeyHot"]

    pairs = []
    for spec in args.pair:
        parts = spec.split(",")
        if len(parts) not in (3, 4):
            print(f"ERROR: --pair expects FAST,SLOW,MIN_SPEEDUP[,NAME], got "
                  f"{spec!r}", file=sys.stderr)
            return 2
        label = parts[3] if len(parts) == 4 else f"{parts[0]} vs {parts[1]}"
        try:
            pairs.append((parts[0], parts[1], float(parts[2]), label))
        except ValueError:
            print(f"ERROR: --pair {spec!r}: MIN_SPEEDUP is not a number",
                  file=sys.stderr)
            return 2

    try:
        baseline = load_times(args.baseline)
        current = load_times(args.current)
    except SchemaMismatch as e:
        print(f"ERROR: benchmark JSON schema mismatch: {e}", file=sys.stderr)
        return 2

    failures = []
    missing = []
    checked = 0
    for name, base_ns in sorted(baseline.items()):
        if not any(name.startswith(p) for p in prefixes):
            continue
        if name not in current:
            # A gated benchmark that vanished is a broken gate, not a
            # pass: the hot path it guarded is now unmeasured.
            print(f"MISSING {name}: in baseline but not in current run")
            missing.append(name)
            continue
        checked += 1
        cur_ns = current[name]
        delta_pct = (cur_ns - base_ns) / base_ns * 100.0
        verdict = "OK"
        if delta_pct > args.threshold:
            verdict = "FAIL"
            failures.append(name)
        print(f"{verdict:5} {name}: baseline {base_ns:.0f} ns, "
              f"current {cur_ns:.0f} ns ({delta_pct:+.1f}%)")
    for name in sorted(current):
        if any(name.startswith(p) for p in prefixes) and name not in baseline:
            print(f"NOTE  {name}: new benchmark, no baseline")

    pair_failures = []
    for fast, slow, min_speedup, label in pairs:
        absent = [n for n in (fast, slow) if n not in current]
        if absent:
            print(f"ERROR: --pair [{label}] benchmark(s) missing from "
                  f"current run: {', '.join(absent)}", file=sys.stderr)
            return 2
        if current[fast] <= 0:
            print(f"ERROR: --pair [{label}]: {fast} has non-positive "
                  f"real_time", file=sys.stderr)
            return 2
        speedup = current[slow] / current[fast]
        verdict = "OK" if speedup >= min_speedup else "FAIL"
        if verdict == "FAIL":
            pair_failures.append(label)
        print(f"{verdict:5} [{label}] {fast} vs {slow}: {speedup:.2f}x "
              f"(need >= {min_speedup:.2f}x)")

    if missing:
        print(f"ERROR: {len(missing)} gated benchmark(s) missing from the "
              f"current run: {', '.join(missing)}", file=sys.stderr)
        return 2
    if checked == 0 and not pairs:
        print(f"ERROR: no benchmarks matched prefixes {prefixes}",
              file=sys.stderr)
        return 1
    if failures:
        print(f"FAILED: {len(failures)} benchmark(s) regressed more than "
              f"{args.threshold:.0f}%: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    if pair_failures:
        print(f"FAILED: {len(pair_failures)} ablation pair(s) below their "
              f"minimum speedup: {'; '.join(pair_failures)}",
              file=sys.stderr)
        return 1
    print(f"All {checked} gated benchmark(s) within {args.threshold:.0f}% "
          f"of baseline; {len(pairs)} ablation pair(s) OK.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
