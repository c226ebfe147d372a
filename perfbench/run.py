#!/usr/bin/env python3
"""Build and run the sitm benchmark.

    python3 perfbench/run.py --workload table1|csc_rings|serve_mix \
        --seed N --seconds S --trace 0|1 [--reduced]

Run from the root of a sitm checkout.  The benchmark program is configured and
built (Release) into $CARGO_TARGET_DIR, default `.bench_build`, on every run;
an up-to-date build is a no-op.  Build output goes to stderr; the program's
report goes to stdout, and its last line is the JSON result.  Any other
arguments are passed through to the program (see perfbench/README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build the benchmark program.

    Returns the program's path, or None when the build failed.
    """
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", build_dir, "--target", "sitm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return None
    exe = os.path.join(build_dir, "sitm_perfbench")
    return exe if os.path.exists(exe) else None


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [exe, "--root", ROOT,
           "--spans-dir", build_dir] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
