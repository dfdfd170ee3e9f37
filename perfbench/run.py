#!/usr/bin/env python3
"""Run one MeshSlice benchmark workload and print its result.

    python3 perfbench/run.py --workload plan_cold|serve_mix|elastic_train \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
harness and the MeshSlice libraries (Release) under .bench_build/; later
runs reuse that build. The harness prints its metrics and simulated
outputs; the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. Spans of a traced run go
to .bench_build/traces/. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("plan_cold", "serve_mix", "elastic_train")
# A run measures for --seconds; past that it still does its set-ups and
# finishes the operation in flight (a plan_cold request takes ~10 s).
RUN_MARGIN_S = 90


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    """Run a build step with its output appended to the build log."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
    return proc.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no MeshSlice sources next to perfbench/ (run from a "
             "checkout of the repository)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_ROOT, "perfbench-build.log")
    configured = os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    if not configured and not run_logged(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"], log, 600):
        fail("configure failed, see " + log)
    if not run_logged(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
             "-j", str(os.cpu_count() or 1)], log, 850):
        fail("build failed, see " + log)


def parse_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    for metric in result["metrics"].values():
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    timeout = args.seconds + RUN_MARGIN_S
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %g s" % timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout)
        fail("harness exited with %d and no valid result" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    print("run    %.1f s host wall" % (time.monotonic() - start))
    print(lines[-1])


if __name__ == "__main__":
    main()
