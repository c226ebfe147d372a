#!/usr/bin/env bash
# Run the scaling benchmark into BENCH_scaling.json so successive PRs leave a
# comparable perf trajectory.  Usage:
#
#   bench/run_bench.sh [build-dir] [extra google-benchmark args...]
#
# Builds the bench target if needed, then overwrites BENCH_scaling.json at
# the repository root (set BENCH_OUT to write elsewhere — CI uses this to
# produce a fresh run for bench/compare_bench.py without touching the
# checked-in baseline).  Every benchmark runs ten repetitions, interleaved
# at random with the other benchmarks' so that each median samples the
# whole run, and the report keeps only the aggregates (mean, median,
# stddev, cv).  bench/compare_bench.py gates on the medians: one sample of
# a benchmark swings past the 25 % gate between two back-to-back runs on
# the 4-vCPU benchmark host.  Compare two checkouts with e.g.:
#
#   jq -r '.benchmarks[] | select(.aggregate_name == "median")
#          | "\(.run_name) \(.real_time)"' BENCH_scaling.json

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true
out_file="${BENCH_OUT:-$repo_root/BENCH_scaling.json}"

if [[ ! -d "$build_dir" ]]; then
  cmake -B "$build_dir" -S "$repo_root"
fi
cmake --build "$build_dir" --target bench_scaling -j"$(nproc)"

"$build_dir/bench_scaling" \
  --benchmark_format=console \
  --benchmark_out="$out_file" \
  --benchmark_out_format=json \
  --benchmark_repetitions=10 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  "$@"

# Stamp the host shape into the report.  compare_bench.py uses host.nproc to
# decide whether thread-scaling benchmarks are comparable at all: a baseline
# from the single-core container says nothing about 8-thread speedups.
cpu_model="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null \
  | head -1)"
[[ -n "$cpu_model" ]] || cpu_model="$(uname -m)"
nproc_now="$(nproc)" cpu_model="$cpu_model" python3 - "$out_file" <<'PY'
import json
import os
import sys

path = sys.argv[1]
with open(path, encoding="utf-8") as fh:
    report = json.load(fh)
report["host"] = {
    "nproc": int(os.environ["nproc_now"]),
    "fingerprint": os.environ["cpu_model"],
}
with open(path, "w", encoding="utf-8") as fh:
    json.dump(report, fh, indent=2)
    fh.write("\n")
PY

echo "wrote $out_file"
