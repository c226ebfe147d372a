#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

Runs the reduced version of every workload twice, untraced and traced, and
asserts that
  * every run is correct with no failed operation;
  * every end-to-end and per-layer metric of BENCHMARK.json is present with
    its unit;
  * the deterministic counts repeat exactly between the two runs: QoR, the
    mapper, csc, verify and check counts, and serve_mix's hit/miss counts;
  * the seed changes the inputs of csc_rings and serve_mix but not their
    QoR, and not the inputs of table1.
Exits 0 when every assertion holds.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT_E2E = ["qor.literals", "qor.c_elements", "qor.signals_inserted"]
EXACT_LAYER = ["map.candidates_planned", "map.resyntheses",
               "csc.candidates_scored", "verify.composite_states",
               "check.bdd_nodes"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--reduced"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert out.returncode == 0, f"{workload}: exit {out.returncode}"
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    notes = "\n".join(lines[:-1])
    assert result["correct"] and result["failed"] == 0, \
        f"{workload} seed {seed} trace {trace}:\n{out.stdout}"
    assert result["attempted"] >= 1
    return result, notes


def note(notes, key):
    m = re.search(r"\b" + re.escape(key) + r"=(\S+)", notes)
    assert m, f"no {key}= in the output"
    return m.group(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)
        print(("ok   " if cond else "FAIL ") + what)

    digests = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted, exact in ((0, spec["end_to_end"], EXACT_E2E),
                                     (1, spec["per_layer"], EXACT_LAYER)):
            (a, notes_a), (b, notes_b) = run(name, 1, trace), run(name, 1, trace)
            for m in wanted:
                got = a["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{name} trace={trace}: {m['name']} [{m['unit']}]")
            for key in exact:
                check(a["metrics"][key]["value"] == b["metrics"][key]["value"],
                      f"{name} trace={trace}: {key} repeats exactly "
                      f"({a['metrics'][key]['value']})")
            if name == "serve_mix":
                for key in ("hits", "misses"):
                    check(note(notes_a, key) == note(notes_b, key),
                          f"{name} trace={trace}: {key} repeat exactly "
                          f"({note(notes_a, key)})")
            if trace == 0:
                digests[name] = (note(notes_a, "inputs_digest"), a)
        other, notes_other = run(name, 2, 0)
        changed = note(notes_other, "inputs_digest") != digests[name][0]
        if name == "table1":
            check(not changed, "table1: seed leaves the inputs alone")
        else:
            check(changed, f"{name}: seed changes the inputs")
        for key in EXACT_E2E:
            check(other["metrics"][key]["value"] ==
                  digests[name][1]["metrics"][key]["value"],
                  f"{name}: {key} is the same on another seed")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
