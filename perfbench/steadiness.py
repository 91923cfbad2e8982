#!/usr/bin/env python3
"""Steadiness evidence for the benchmark: two sets of runs of every
workload, one run per seed 1-10 in each set, at BENCHMARK.json's
run_seconds, summarized per workload and metric.

    python3 perfbench/steadiness.py

Run from the root of a repository checkout. For each workload, set and
metric it prints the sample count, median, quartiles (Python's
statistics.quantiles, n=4), the interquartile range as a share of the
median, the coefficient of variation, and the set's median as a share
of the first set's. Each run's full output goes to stderr as it happens.
"""

import json
import statistics
import subprocess
import sys

WORKLOADS = ["sweepd_fig8", "trace_rr"]
SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    sys.stderr.write(out.stderr[-2000:])
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}")
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # Workload-only metrics are printed as `name = value unit  (not in ...`.
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        if sep and rest.endswith("(not in the result)"):
            values[name] = float(rest.split()[0])
    sys.stderr.write(f"{workload} seed {seed}: {lines[-1]}\n")
    return result, values


def summary(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    median = statistics.median(xs)
    cv = statistics.stdev(xs) / statistics.fmean(xs)
    return {"n": len(xs), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "cv": cv}


def main():
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]
    samples = {}
    failed = 0
    for s in range(SETS):
        for w in WORKLOADS:
            for seed in SEEDS:
                result, values = run_once(w, seed, seconds)
                failed += result["failed"] + (not result["correct"])
                for k, v in values.items():
                    sets = samples.setdefault(w, {}).setdefault(k, [[] for _ in range(SETS)])
                    sets[s].append(v)
    print(f"{'workload':<12} {'metric':<24} set {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'cv':>7} {'med/set1':>8}")
    for w, metrics in samples.items():
        for k, sets in metrics.items():
            first = None
            for i, xs in enumerate(sets):
                m = summary(xs)
                first = first or m["median"]
                print(f"{w:<12} {k:<24} {i + 1:>3} {m['n']:>3} {m['median']:>12.6g} "
                      f"{m['q1']:>12.6g} {m['q3']:>12.6g} {m['spread']:>8.4f} "
                      f"{m['cv']:>7.4f} {m['median'] / first:>8.4f}")
    print(f"failed operations or incorrect runs: {failed}")


if __name__ == "__main__":
    main()
