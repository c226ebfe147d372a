#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py [--workloads table1,csc_rings,serve_mix]
        [--seeds 10] [--first-seed 1] [--seconds S]

For every end-to-end metric this prints the median of the runs and the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of that median, next to the metric's bound from
BENCHMARK.json.  The benchmark is steady when every spread stays below a
third of its bound.  Exits 1 if a run fails or is incorrect, or if any
spread is not steady; "OVER BOUND" marks a spread beyond the bound itself.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    bad = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run_once(workload, seed, args.seconds)
            if not r["correct"] or r["failed"]:
                print(f"{workload} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}")
                bad = True
            runs.append(r["metrics"])
        print(f"== {workload}: {len(runs)} runs")
        for name in runs[0]:
            values = [m[name]["value"] for m in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag, bad = "  OVER BOUND", True
            elif spread > bound / 3:
                flag, bad = "  over bound/3", True
            print(f"  {name:22s} median={med:<14.6g} spread={spread:7.4f}"
                  f" bound={bound}{flag}"
                  f"  [{min(values):.6g} .. {max(values):.6g}]")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
