#!/usr/bin/env python3
"""A/A noise floor: run the whole benchmark twice on the same build.

Reads BENCHMARK.json (command, workloads, end-to-end metrics and their
bounds), runs every workload ten times per set, each time with another
seed, and prints per workload x end-to-end metric the two medians, their
relative gap, and the run-to-run spread (interquartile range over
median, as `statistics.quantiles(values, n=4)` gives it). Exits non-zero
if a gap exceeds the metric's bound, a spread other than `setup_s`'s
exceeds it, or a run fails.

Run from the repo root:  python3 benchmark/aa.py > benchmark/AA.md
"""

import json
import statistics
import subprocess
import sys

RUNS = 10


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}, {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = True
    print("# A/A noise floor\n")
    print(f"Two sets of {RUNS} runs of the same build per workload "
          f"(`--seconds {bench['run_seconds']} --trace 0`, seeds 1-{RUNS} and "
          f"{RUNS + 1}-{2 * RUNS}), by `python3 benchmark/aa.py`. `gap` is how much "
          "worse the second median is than the first; `spread` is the interquartile "
          "range of a set over its median. Both are held against the metric's bound "
          "(`setup_s` is exempt from the spread check).\n")
    print("| workload | metric | median A | median B | gap | spread A | spread B | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in bench["workloads"]:
        sets = [[run_once(bench, w["name"], s * RUNS + i + 1) for i in range(RUNS)]
                for s in range(2)]
        for m in bench["end_to_end"]:
            a, b = ([run[m["name"]] for run in runs] for runs in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if m["better"] == "higher":
                worse = -worse
            spreads = (spread(a), spread(b))
            fine = worse <= m["bound"] and (
                m["name"] == "setup_s" or max(spreads) <= m["bound"])
            ok &= fine
            print(f"| {w['name']} | {m['name']} | {med_a:.4g} | {med_b:.4g} | {worse:+.1%} "
                  f"| {spreads[0]:.1%} | {spreads[1]:.1%} | {m['bound']:.0%} "
                  f"| {'ok' if fine else 'FAIL'} |", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
