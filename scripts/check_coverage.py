#!/usr/bin/env python3
"""Aggregate gcov line coverage for src/ and gate it against the floor.

Usage:
    scripts/check_coverage.py BUILD_DIR [--floor COVERAGE_floor.json]
                              [--update-floor]

Walks BUILD_DIR for .gcda files (produced by a `coverage` preset build
after running ctest), asks `gcov --json-format --stdout` for per-line
execution counts, and aggregates per source file under src/.  Only gcov
and python are needed — this works in the bare container and in CI; lcov,
when present, is purely for the human-readable report.

The floor file pins the minimum acceptable aggregate line coverage of
src/ (one number, conservatively below the measured value so unrelated
refactors don't flap the gate).  An optional "per_path_min" object maps
directory prefixes (e.g. "src/netlist/") to their own minimums, so
subsystems with a deliberate testing bar — the output-side checker —
can't erode quietly while the aggregate stays green.  CI
fails when any measurement < its floor; --update-floor rewrites the
aggregate (and refreshes any existing per-path entries) from the current
measurement minus a small margin.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

MARGIN = 2.0  # points below the measurement when (re)writing the floor


def gcov_json_documents(build_dir):
    """Run gcov over every .gcda under build_dir, yield parsed documents."""
    gcda = []
    for root, _dirs, files in os.walk(build_dir):
        gcda.extend(os.path.join(root, f) for f in files if f.endswith(".gcda"))
    if not gcda:
        sys.exit(f"error: no .gcda files under {build_dir} — "
                 "build the coverage preset and run ctest first")
    # Batch to keep command lines bounded.
    for i in range(0, len(gcda), 64):
        batch = gcda[i:i + 64]
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", *batch],
            cwd=build_dir, capture_output=True, text=True)
        for line in proc.stdout.splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue


def aggregate(build_dir, repo_root):
    """{relative source path: (covered, total)} for files under src/."""
    per_file = defaultdict(lambda: defaultdict(int))  # path -> line -> count
    for doc in gcov_json_documents(build_dir):
        for unit in doc.get("files", []):
            path = os.path.normpath(
                os.path.join(build_dir, unit.get("file", "")))
            rel = os.path.relpath(path, repo_root)
            if not rel.startswith("src" + os.sep):
                continue
            for line in unit.get("lines", []):
                n = line.get("line_number")
                if n is not None:
                    # Max across translation units: a header line counts as
                    # covered if ANY includer executed it.
                    per_file[rel][n] = max(per_file[rel][n],
                                           line.get("count", 0))
    return {
        path: (sum(1 for c in lines.values() if c > 0), len(lines))
        for path, lines in sorted(per_file.items())
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("build_dir")
    ap.add_argument("--floor", default="COVERAGE_floor.json")
    ap.add_argument("--update-floor", action="store_true")
    args = ap.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    stats = aggregate(os.path.abspath(args.build_dir), repo_root)
    if not stats:
        sys.exit("error: gcov reported no lines under src/")

    covered = sum(c for c, _ in stats.values())
    total = sum(t for _, t in stats.values())
    pct = 100.0 * covered / total
    print(f"src/ line coverage: {pct:.2f}% ({covered}/{total} lines, "
          f"{len(stats)} files)")
    worst = sorted(stats.items(), key=lambda kv: kv[1][0] / max(kv[1][1], 1))
    for path, (c, t) in worst[:5]:
        print(f"  lowest: {path}: {100.0 * c / max(t, 1):.1f}% ({c}/{t})")

    def path_pct(prefix):
        c = sum(cv for p, (cv, _) in stats.items() if p.startswith(prefix))
        t = sum(tt for p, (_, tt) in stats.items() if p.startswith(prefix))
        return (100.0 * c / t, c, t) if t else (None, 0, 0)

    floor_path = os.path.join(repo_root, args.floor)
    if args.update_floor:
        try:
            with open(floor_path) as f:
                previous = json.load(f)
        except (OSError, ValueError):
            previous = {}
        floor = {"src_line_coverage_min": round(pct - MARGIN, 1)}
        per_path = {}
        for prefix in previous.get("per_path_min", {}):
            sub_pct, _, _ = path_pct(prefix)
            if sub_pct is not None:
                per_path[prefix] = round(sub_pct - MARGIN, 1)
        if per_path:
            floor["per_path_min"] = per_path
        with open(floor_path, "w") as f:
            json.dump(floor, f, indent=2)
            f.write("\n")
        print(f"floor updated: {floor['src_line_coverage_min']}% "
              f"-> {args.floor}")
        return

    with open(floor_path) as f:
        floors = json.load(f)
    failures = []
    floor = floors["src_line_coverage_min"]
    if pct < floor:
        failures.append(f"src/ line coverage {pct:.2f}% is below the "
                        f"checked-in floor {floor}%")
    for prefix, sub_floor in sorted(floors.get("per_path_min", {}).items()):
        sub_pct, c, t = path_pct(prefix)
        if sub_pct is None:
            failures.append(f"{prefix} has a floor ({sub_floor}%) but no "
                            "measured lines — was the subsystem removed?")
            continue
        verdict = "OK" if sub_pct >= sub_floor else "FAIL"
        print(f"  {prefix}: {sub_pct:.2f}% ({c}/{t} lines), "
              f"floor {sub_floor}% [{verdict}]")
        if sub_pct < sub_floor:
            failures.append(f"{prefix} line coverage {sub_pct:.2f}% is "
                            f"below its floor {sub_floor}%")
    if failures:
        sys.exit("FAIL: " + "; ".join(failures) +
                 f" ({args.floor}). Add tests, or lower the floor "
                 "deliberately in the same PR.")
    print(f"OK: above the {floor}% floor")


if __name__ == "__main__":
    main()
