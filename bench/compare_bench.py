#!/usr/bin/env python3
"""Gate wall-time regressions against the checked-in benchmark baseline.

Usage:
    compare_bench.py BASELINE.json FRESH.json [--threshold PCT]
                     [--names REGEX] [--no-normalize]
                     [--thread-scaling REGEX]
                     [--speedup SLOW/FAST:MIN ...]

Both files are google-benchmark JSON reports (bench/run_bench.sh output).
A report with repetitions gives each benchmark its "median" aggregate's
real_time, keyed by run_name; a report without aggregates gives each
iteration entry's real_time, keyed by name.  Benchmarks are matched by
that key; a benchmark regresses when its fresh time exceeds the baseline
by more than --threshold percent (default 25).  Only names matching
--names (default: everything) are gated; benchmarks present in one file
only are reported but never fail the gate.

Because the baseline is produced on the repo's single-core benchmark
container and the fresh run typically is not (CI runners differ in CPU,
load and frequency scaling), raw cross-machine ratios are dominated by
machine speed.  By default the gate therefore normalizes: each benchmark's
ratio is divided by the median ratio over all matched benchmarks, so a
uniform machine-speed shift cancels and only benchmarks that regressed
*relative to the rest of the suite* fail.  --no-normalize gates on raw
ratios instead (sensible when both runs come from the same machine).

Thread-scaling benchmarks (names matching --thread-scaling; the default
covers the two thread-count sweeps in bench_scaling.cpp) are only
comparable between machines with the same core count:
a baseline recorded on the single-core container pins no speedup an
8-core runner should reproduce, and vice versa.  run_bench.sh stamps
"host": {"nproc", "fingerprint"} into its reports; when both reports
carry a core count (host.nproc, falling back to google-benchmark's
context.num_cpus) and the counts differ, thread-scaling benchmarks are
dropped from the gate with a printed note.

--speedup SLOW/FAST:MIN additionally asserts that, within the FRESH run
alone, benchmark SLOW takes at least MIN times as long as benchmark FAST
(e.g. --speedup BM_ServeCold/BM_ServeWarm:10 pins the serve cache's warm
speedup).  Intra-run ratios compare two numbers from the same machine, so
no normalization applies.

Exit status: 0 = no gated regression, 1 = regression, 2 = usage/input error.
"""

import argparse
import json
import re
import sys


def load_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        print(f"compare_bench: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def host_nproc(report):
    """Core count the report was recorded on, or None when unrecorded.

    Prefers the host block stamped by run_bench.sh; google-benchmark's own
    context.num_cpus is the fallback for reports produced without it.
    """
    host = report.get("host", {})
    if isinstance(host.get("nproc"), int):
        return host["nproc"]
    cpus = report.get("context", {}).get("num_cpus")
    return cpus if isinstance(cpus, int) else None


def load_benchmarks(report, path):
    """run name -> real_time in nanoseconds.

    The "median" aggregates when the report has them, else the iteration
    entries (a report recorded without repetitions).
    """
    to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    entries = report.get("benchmarks", [])
    medians = [bm for bm in entries
               if bm.get("run_type") == "aggregate"
               and bm.get("aggregate_name") == "median"]
    if medians:
        picked = [(bm["run_name"], bm) for bm in medians]
    else:
        picked = [(bm["name"], bm) for bm in entries
                  if bm.get("run_type", "iteration") == "iteration"]
    out = {}
    for name, bm in picked:
        unit = bm.get("time_unit", "ns")
        if unit not in to_ns:
            print(f"compare_bench: unknown time_unit '{unit}' in {path}",
                  file=sys.stderr)
            sys.exit(2)
        out[name] = float(bm["real_time"]) * to_ns[unit]
    if not out:
        print(f"compare_bench: no benchmark entries in {path}",
              file=sys.stderr)
        sys.exit(2)
    return out


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def main():
    parser = argparse.ArgumentParser(
        description="Fail on wall-time regressions vs a baseline report.")
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="allowed regression in percent (default 25)")
    parser.add_argument("--names", default=".*",
                        help="regex of benchmark names to gate")
    parser.add_argument("--no-normalize", action="store_true",
                        help="gate raw ratios (same-machine runs)")
    parser.add_argument("--thread-scaling",
                        default="SynthesizeAllParallel|MapParallelResynth",
                        metavar="REGEX",
                        help="benchmarks skipped when core counts differ")
    parser.add_argument("--speedup", action="append", default=[],
                        metavar="SLOW/FAST:MIN",
                        help="assert fresh[SLOW] >= MIN * fresh[FAST]")
    args = parser.parse_args()

    base_report = load_report(args.baseline)
    fresh_report = load_report(args.fresh)
    base = load_benchmarks(base_report, args.baseline)
    fresh = load_benchmarks(fresh_report, args.fresh)
    name_re = re.compile(args.names)

    base_cores = host_nproc(base_report)
    fresh_cores = host_nproc(fresh_report)
    skipped_scaling = []
    if (base_cores is not None and fresh_cores is not None
            and base_cores != fresh_cores):
        scaling_re = re.compile(args.thread_scaling)
        skipped_scaling = sorted(n for n in base if scaling_re.search(n))
        for name in skipped_scaling:
            base.pop(name, None)
            fresh.pop(name, None)

    matched = sorted(n for n in base if n in fresh and name_re.search(n))
    missing = sorted(n for n in base
                     if n not in fresh and name_re.search(n))
    if not matched:
        print("compare_bench: no gated benchmark present in both reports",
              file=sys.stderr)
        sys.exit(2)

    ratios = {n: fresh[n] / base[n] for n in matched}
    norm = 1.0 if args.no_normalize else median(ratios.values())
    limit = 1.0 + args.threshold / 100.0

    print(f"perf gate: {len(matched)} benchmark(s), threshold "
          f"+{args.threshold:g}%"
          + ("" if args.no_normalize
             else f", machine-speed normalizer {norm:.3f}x (median ratio)"))
    print("note: the checked-in baseline comes from the single-core "
          "benchmark container; absolute times on other machines differ "
          "and only the normalized spread is meaningful there.")
    if skipped_scaling:
        print(f"note: core counts differ (baseline {base_cores}, fresh "
              f"{fresh_cores}); skipping {len(skipped_scaling)} "
              f"thread-scaling benchmark(s) matching "
              f"'{args.thread_scaling}':")
        for name in skipped_scaling:
            print(f"  {name}: skipped (thread scaling not comparable)")

    failed = []
    for name in matched:
        rel = ratios[name] / norm
        verdict = "ok"
        if rel > limit:
            verdict = "REGRESSED"
            failed.append(name)
        print(f"  {name}: base {base[name] / 1e6:.3f} ms, "
              f"fresh {fresh[name] / 1e6:.3f} ms, "
              f"ratio {ratios[name]:.3f}x, relative {rel:.3f}x [{verdict}]")
    for name in missing:
        print(f"  {name}: missing from fresh run (not gated)")

    for spec in args.speedup:
        match = re.fullmatch(r"([^/]+)/([^:]+):([0-9.]+)", spec)
        if not match:
            print(f"compare_bench: bad --speedup spec '{spec}' "
                  "(want SLOW/FAST:MIN)", file=sys.stderr)
            sys.exit(2)
        slow, fast, minimum = match.group(1), match.group(2), float(
            match.group(3))
        if slow not in fresh or fast not in fresh:
            print(f"compare_bench: --speedup names missing from fresh run: "
                  f"{spec}", file=sys.stderr)
            sys.exit(2)
        ratio = fresh[slow] / fresh[fast]
        verdict = "ok" if ratio >= minimum else "TOO SLOW"
        print(f"  speedup {slow}/{fast}: {ratio:.1f}x "
              f"(minimum {minimum:g}x) [{verdict}]")
        if ratio < minimum:
            failed.append(f"{slow}/{fast}")

    if failed:
        print(f"perf gate FAILED: {', '.join(failed)}", file=sys.stderr)
        sys.exit(1)
    print("perf gate passed")


if __name__ == "__main__":
    main()
