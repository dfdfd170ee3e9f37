#!/usr/bin/env python3
"""Measure how steady the benchmark is and write the evidence.

    python3 perfbench/steadiness.py [--seeds N] [--first-seed S]

For each workload, runs the benchmark untraced once per seed (seeds S to
S+N-1, BENCHMARK.json's run_seconds), and reports each end-to-end
metric's median and its spread: the distance between the first and third
quartiles (statistics.quantiles(n=4)) as a share of the median, next to
the metric's bound. Then runs the first seed traced twice and checks that
the exact counts repeat exactly. Runs are sequential, so they do not
contend with each other. Writes perfbench/STEADINESS.md and exits 1 when
a spread exceeds its bound, a run fails, or a count does not repeat.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_COUNTS = ("sim.events", "net.comm_bytes", "engine.evictions")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d trace %d failed" %
                           (workload, seed, trace))
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    print("%s seed=%d trace=%d correct=%s attempted=%d failed=%d" %
          (workload, seed, trace, result["correct"], result["attempted"],
           result["failed"]), file=sys.stderr)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    ok = True
    lines = ["# Benchmark steadiness", "",
             "Written by `python3 perfbench/steadiness.py --seeds %d "
             "--first-seed %d`: one untraced run per seed (seeds %d-%d, "
             "%d s each) per workload; spread = (Q3 - Q1) / median over "
             "the seeds, next to the metric's bound in BENCHMARK.json." %
             (args.seeds, args.first_seed, seeds[0], seeds[-1], seconds),
             ""]
    for workload in workloads:
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        ok = ok and all(r["correct"] and r["failed"] == 0 for r in runs)
        lines += ["## %s" % workload, "",
                  "| metric | unit | median | spread | bound | "
                  "spread/bound | values (seed order) |",
                  "|---|---|---|---|---|---|---|"]
        for name in sorted(bounds):
            values = [r["metrics"][name]["value"] for r in runs]
            med, sp = spread(values)
            if sp > bounds[name]:
                ok = False
            lines.append("| %s | %s | %.6g | %.4f | %.2f | %.2f | %s |" % (
                name, runs[0]["metrics"][name]["unit"], med, sp,
                bounds[name], sp / bounds[name],
                ", ".join("%.6g" % v for v in values)))
        traced = [run_once(workload, seeds[0], seconds, 1) for _ in (0, 1)]
        counts = []
        for name in EXACT_COUNTS:
            pair = [t["metrics"][name]["value"] for t in traced]
            ok = ok and pair[0] == pair[1]
            counts.append("%s %s/%s" % (name, *("%.17g" % v for v in pair)))
        overhead = [t["metrics"]["trace.overhead_pct"]["value"]
                    for t in traced]
        lines += ["",
                  "Traced seed %d twice: %s (%s). trace.overhead_pct: "
                  "%.2f / %.2f." % (
                      seeds[0], "; ".join(counts),
                      "repeat exactly" if all(
                          t["metrics"][n]["value"] ==
                          traced[0]["metrics"][n]["value"]
                          for t in traced for n in EXACT_COUNTS)
                      else "DIFFER", *overhead), ""]
    out = os.path.join(HERE, "STEADINESS.md")
    with open(out, "w") as f:
        f.write("\n".join(lines))
    print("wrote " + out, file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
